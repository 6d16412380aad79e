"""Directed, weighted, temporal, multi-relationship transaction graph.

Accounts are case-normalized strings. Edges carry (src, tgt, amount,
timestamp, token, hash) and are classified at build time into transfer
(Xfer) or exchange (Swap) patterns based on per-node hash groups.
"""
from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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


@dataclass(eq=False)
class TransferEdge:
    src: str
    tgt: str
    amount: float
    timestamp: int
    token: str
    hash: str
    pattern: Pattern = Pattern.XFER
    # Tokens on the opposite legs of the same hash at the same node.
    # Populated only for Swap edges; for an edge sitting in both endpoints'
    # hash groups the outgoing-side grouping wins (see classify_patterns).
    counter_tokens: frozenset[str] = frozenset()

    def key(self) -> tuple:
        return (self.src, self.tgt, self.amount, self.timestamp,
                self.token, self.hash)

    def sort_key(self) -> tuple:
        return (self.timestamp, self.hash, self.token, self.tgt, self.src)


class TransactionGraph:
    """Immutable-after-build multigraph with timestamp-sorted adjacency.

    ``nodes`` adds accounts beyond the edge endpoints, such as a source
    with no edges.
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
        classify_patterns(self)
        # Added last: extra nodes carry no edges, and adding them first
        # could change the set order that classification walks.
        self.nodes.update(nodes)

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
        return list(self._out.get(node, ())) + list(self._in.get(node, ()))

    def hash_groups(self, node: str) -> dict[str, list[TransferEdge]]:
        groups: dict[str, list[TransferEdge]] = {}
        for e in self.incident_edges(node):
            groups.setdefault(e.hash, []).append(e)
        return groups

    def edges_after(self, node: str, bound: float,
                    token: str | None = None) -> list[TransferEdge]:
        """Outgoing edges of node strictly after the bound timestamp.

        token=None is a wildcard. The bound may be -inf (all edges match).
        """
        lst = self._out.get(node)
        if not lst:
            return []
        ts = self._out_ts[node]
        start = 0 if bound == float("-inf") else bisect_right(ts, bound)
        picked = lst[start:]
        if token is not None:
            picked = [e for e in picked if e.token == token]
        return picked

    def edges_before(self, node: str, bound: float,
                     token: str | None = None) -> list[TransferEdge]:
        """Incoming edges of node strictly before the bound timestamp."""
        lst = self._in.get(node)
        if not lst:
            return []
        ts = self._in_ts[node]
        end = len(lst) if bound == float("inf") else bisect_left(ts, bound)
        picked = lst[:end]
        if token is not None:
            picked = [e for e in picked if e.token == token]
        return picked


def classify_patterns(graph: TransactionGraph) -> TransactionGraph:
    """Assign Xfer/Swap pattern tags from per-node hash groups.

    A hash group at a node is a Swap group when it has at least one
    outgoing and one incoming leg with differing token symbols. Within a
    Swap group an individual leg whose opposite side carries no other
    token than its own stays Xfer (a same-token round trip is not an
    exchange). Idempotent; tags are recomputed from scratch each call.
    """
    for e in graph.edges:
        e.pattern = Pattern.XFER
        e.counter_tokens = frozenset()
    for node in graph.nodes:
        for _h, group in graph.hash_groups(node).items():
            out_legs = [e for e in group if e.src == node]
            in_legs = [e for e in group if e.tgt == node]
            if not out_legs or not in_legs:
                continue
            out_tokens = {e.token for e in out_legs}
            in_tokens = {e.token for e in in_legs}
            if len(out_tokens | in_tokens) < 2:
                continue
            for e in out_legs:
                counter = in_tokens - {e.token}
                if counter:
                    e.pattern = Pattern.SWAP
                    e.counter_tokens = frozenset(counter)
            for e in in_legs:
                counter = out_tokens - {e.token}
                if counter:
                    e.pattern = Pattern.SWAP
                    e.counter_tokens = frozenset(counter)
    return graph


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
