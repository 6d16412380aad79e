"""Directed, weighted, temporal, multi-relationship transaction graph.

Accounts are case-normalized strings. Edges carry (src, tgt, amount,
timestamp, token, hash). Whether an edge is a transfer (Xfer) or an
exchange (Swap) leg is decided per account, from that account's own
hash groups, so the same edge can be a Swap leg at one endpoint and a
transfer at the other.
"""
from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence


class Pattern(Enum):
    XFER = "xfer"
    SWAP = "swap"


class IngestError(ValueError):
    """Raised in strict mode when a record cannot be parsed."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"record {line}: {reason}")
        self.line = line
        self.reason = reason


def normalize_account(raw: str) -> str:
    acct = raw.strip().lower()
    if not acct:
        raise ValueError("empty account id")
    return acct


@dataclass(eq=False, frozen=True)
class TransferEdge:
    src: str
    tgt: str
    amount: float
    timestamp: int
    token: str
    hash: str

    def key(self) -> tuple:
        return (self.src, self.tgt, self.amount, self.timestamp,
                self.token, self.hash)

    def sort_key(self) -> tuple:
        return (self.timestamp, self.hash, self.token, self.tgt, self.src)


class TransactionGraph:
    """Immutable-after-build multigraph with timestamp-sorted adjacency.

    ``nodes`` adds accounts beyond the edge endpoints, such as a source
    with no edges. Swap tags are decided per node on first use.
    """

    def __init__(self, edges: Iterable[TransferEdge], nodes: Iterable[str] = ()):
        self.edges: list[TransferEdge] = list(edges)
        self.nodes: set[str] = set()
        self._out: dict[str, list[TransferEdge]] = {}
        self._in: dict[str, list[TransferEdge]] = {}
        self._out_ts: dict[str, list[int]] = {}
        self._in_ts: dict[str, list[int]] = {}
        for e in self.edges:
            self.nodes.add(e.src)
            self.nodes.add(e.tgt)
            self._out.setdefault(e.src, []).append(e)
            self._in.setdefault(e.tgt, []).append(e)
        for adj in (self._out, self._in):
            for lst in adj.values():
                lst.sort(key=TransferEdge.sort_key)
        for node, lst in self._out.items():
            self._out_ts[node] = [e.timestamp for e in lst]
        for node, lst in self._in.items():
            self._in_ts[node] = [e.timestamp for e in lst]
        self.nodes.update(nodes)
        self._counter: dict[str, dict[TransferEdge, frozenset[str]]] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_edges(self, node: str) -> Sequence[TransferEdge]:
        return self._out.get(node, ())

    def in_edges(self, node: str) -> Sequence[TransferEdge]:
        return self._in.get(node, ())

    def incident_edges(self, node: str) -> list[TransferEdge]:
        """Edges with ``node`` at either end, a self-loop once."""
        return list(self._out.get(node, ())) + [
            e for e in self._in.get(node, ()) if e.src != node]

    def counter_tokens(self, node: str, edge: TransferEdge) -> frozenset[str]:
        """Tokens that ``edge`` is exchanged against at ``node``; empty
        when the edge is a transfer leg there."""
        tags = self._counter.get(node)
        if tags is None:
            tags = self._counter[node] = classify_patterns(
                node, self.incident_edges(node))
        return tags.get(edge, frozenset())

    def pattern(self, edge: TransferEdge) -> Pattern:
        """Swap when the edge is a Swap leg at either endpoint."""
        if (self.counter_tokens(edge.src, edge)
                or self.counter_tokens(edge.tgt, edge)):
            return Pattern.SWAP
        return Pattern.XFER

    def edges_after(self, node: str, bound: float,
                    token: str | None = None) -> list[TransferEdge]:
        """Outgoing edges of node strictly after the bound timestamp.

        token=None is a wildcard. The bound may be -inf (all edges match).
        """
        lst = self._out.get(node)
        if not lst:
            return []
        ts = self._out_ts[node]
        picked = lst[bisect_right(ts, bound):]
        if token is not None:
            picked = [e for e in picked if e.token == token]
        return picked

    def edges_before(self, node: str, bound: float,
                     token: str | None = None) -> list[TransferEdge]:
        """Incoming edges of node strictly before the bound timestamp.

        The bound may be +inf (all edges match).
        """
        lst = self._in.get(node)
        if not lst:
            return []
        ts = self._in_ts[node]
        picked = lst[:bisect_left(ts, bound)]
        if token is not None:
            picked = [e for e in picked if e.token == token]
        return picked


def classify_patterns(node: str, edges: Sequence[TransferEdge]
                      ) -> dict[TransferEdge, frozenset[str]]:
    """Counter tokens of the Swap legs at ``node``, from its incident
    ``edges`` alone.

    A leg at ``node`` is a Swap leg when its hash group there has an
    opposite-side leg (incoming for an outgoing leg, and the reverse)
    carrying another token; its counter tokens are those other tokens. A
    same-token round trip is not an exchange. A self-loop counts as an
    incoming leg. The result does not depend on the order of ``edges``.
    """
    out_tokens: dict[str, set[str]] = {}
    in_tokens: dict[str, set[str]] = {}
    for e in edges:
        if e.src == node:
            out_tokens.setdefault(e.hash, set()).add(e.token)
        if e.tgt == node:
            in_tokens.setdefault(e.hash, set()).add(e.token)
    tags: dict[TransferEdge, frozenset[str]] = {}
    for e in edges:
        opposite = out_tokens if e.tgt == node else in_tokens
        counter = opposite.get(e.hash, set()) - {e.token}
        if counter:
            tags[e] = frozenset(counter)
    return tags


def _parse_record(rec: dict, line: int, chain_symbol: str) -> TransferEdge:
    try:
        src = normalize_account(str(rec["from"]))
        tgt = normalize_account(str(rec["to"]))
        amount = float(str(rec["value"]))
        timestamp = int(str(rec["timeStamp"]))
        token = str(rec.get("tokenSymbol") or chain_symbol).strip()
        txhash = str(rec["hash"]).strip().lower()
    except (KeyError, ValueError, TypeError) as exc:
        raise IngestError(line, str(exc)) from exc
    if amount < 0:
        raise IngestError(line, f"negative amount {amount}")
    if timestamp < 0:
        raise IngestError(line, f"negative timestamp {timestamp}")
    if not token or not txhash:
        raise IngestError(line, "missing token symbol or hash")
    return TransferEdge(src, tgt, amount, timestamp, token, txhash)


def ingest_records(records: Iterable[dict], *, chain_symbol: str = "ETH",
                   strict: bool = False,
                   errors: list[IngestError] | None = None,
                   ) -> TransactionGraph:
    """Build a graph from raw dict records.

    Malformed records are skipped (collected into ``errors`` when given)
    unless strict, in which case the first bad record aborts ingestion.
    Identical records are kept: the graph is a multigraph.
    """
    edges = []
    for line, rec in enumerate(records, start=1):
        try:
            edges.append(_parse_record(rec, line, chain_symbol))
        except IngestError as exc:
            if strict:
                raise
            if errors is not None:
                errors.append(exc)
    return TransactionGraph(edges)


def iter_csv_records(text: io.TextIOBase | str) -> Iterator[dict]:
    if isinstance(text, str):
        text = io.StringIO(text)
    yield from csv.DictReader(text)


def iter_jsonl_records(text: io.TextIOBase | str) -> Iterator[dict]:
    if isinstance(text, str):
        text = io.StringIO(text)
    for line in text:
        line = line.strip()
        if line:
            yield json.loads(line)


def load_graph(path: str, *, chain_symbol: str = "ETH",
               strict: bool = False) -> TransactionGraph:
    """Ingest a CSV or JSON-lines edge file (sniffed by first character)."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        records = iter_jsonl_records(fh) if head == "{" else iter_csv_records(fh)
        return ingest_records(records, chain_symbol=chain_symbol, strict=strict)
