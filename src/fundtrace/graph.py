"""Directed, weighted, temporal, multi-relationship transaction graph.

Accounts are case-normalized strings. Edges carry (src, tgt, amount,
timestamp, token, hash). Whether an edge is a transfer (Xfer) or an
exchange (Swap) leg is decided per account, from that account's own
hash groups, so the same edge can be a Swap leg at one endpoint and a
transfer at the other.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

log = logging.getLogger("fundtrace")

_timestamp = attrgetter("timestamp")


class Pattern(Enum):
    XFER = "xfer"
    SWAP = "swap"


def normalize_account(raw: str) -> str:
    acct = raw.strip().lower()
    if not acct:
        raise ValueError("empty account id")
    return acct


@dataclass(eq=False, frozen=True, slots=True)
class TransferEdge:
    src: str
    tgt: str
    amount: float
    timestamp: int  # integer seconds, as every ingest path yields
    token: str
    hash: str

    def sort_key(self) -> tuple:
        return (self.timestamp, self.hash, self.token, self.tgt, self.src,
                self.amount)


class TransactionGraph:
    """Immutable-after-build multigraph. ``edges`` and every adjacency
    list are in ``TransferEdge.sort_key`` order, which holds every field.
    The time windows exclude their bound; timestamps are integers, so
    ``edges_after(node, ts - 1)`` starts at ``ts``.

    ``nodes`` adds accounts beyond the edge endpoints, such as a source
    with no edges. Swap tags are decided per node on first use.
    """

    def __init__(self, edges: Iterable[TransferEdge], nodes: Iterable[str] = ()):
        self.edges: list[TransferEdge] = sorted(edges, key=TransferEdge.sort_key)
        self._out: dict[str, list[TransferEdge]] = {}
        self._in: dict[str, list[TransferEdge]] = {}
        for e in self.edges:
            self._out.setdefault(e.src, []).append(e)
            self._in.setdefault(e.tgt, []).append(e)
        self.nodes: set[str] = self._out.keys() | self._in.keys()
        self.nodes.update(nodes)
        self._counter: dict[str, dict[TransferEdge, frozenset[str]]] = {}
        # ttr.redirect_set results, keyed by (node, edge, direction).
        self._redirect: dict[tuple[str, TransferEdge, str],
                             list[TransferEdge]] = {}
        # token_window lists and their window sums, keyed by
        # (node, token, direction).
        self._windows: dict[tuple[str, str | None, str],
                            tuple[Sequence[TransferEdge], array]] = {}

    def out_edges(self, node: str) -> Sequence[TransferEdge]:
        return self._out.get(node, ())

    def incident_edges(self, node: str) -> list[TransferEdge]:
        """Edges with ``node`` at either end, a self-loop once."""
        return list(self._out.get(node, ())) + [
            e for e in self._in.get(node, ()) if e.src != node]

    def swap_legs(self, node: str) -> dict[TransferEdge, frozenset[str]]:
        """The Swap legs at ``node``, each with the tokens it is exchanged
        against there."""
        tags = self._counter.get(node)
        if tags is None:
            tags = self._counter[node] = classify_patterns(
                node, self.incident_edges(node))
        return tags

    def counter_tokens(self, node: str, edge: TransferEdge) -> frozenset[str]:
        """Tokens that ``edge`` is exchanged against at ``node``; empty
        when the edge is a transfer leg there."""
        return self.swap_legs(node).get(edge, frozenset())

    def pattern(self, edge: TransferEdge) -> Pattern:
        """Swap when the edge is a Swap leg at either endpoint."""
        if (self.counter_tokens(edge.src, edge)
                or self.counter_tokens(edge.tgt, edge)):
            return Pattern.SWAP
        return Pattern.XFER

    def edges_after(self, node: str, bound: float) -> list[TransferEdge]:
        """Outgoing edges of node later than the bound timestamp. The
        bound may be -inf (all edges match)."""
        lst = self._out.get(node, [])
        return lst[bisect_right(lst, bound, key=_timestamp):]

    def edges_before(self, node: str, bound: float) -> list[TransferEdge]:
        """Incoming edges of node earlier than the bound timestamp. The
        bound may be +inf (all edges match)."""
        lst = self._in.get(node, [])
        return lst[:bisect_left(lst, bound, key=_timestamp)]

    def token_window(self, node: str, token: str | None, direction: str,
                     bound: float
                     ) -> tuple[Sequence[TransferEdge], int, float]:
        """The window of ``node``'s ``token`` edges at ``bound``.

        Returns ``(edges, k, amount_sum)``. ``edges`` are the node's
        outgoing (``direction`` "out") or incoming ("in") edges of
        ``token``, of every token when it is None, in ``sort_key`` order.
        The window is ``edges[k:]``, the edges later than the bound, for
        "out", and ``edges[:k]``, the edges earlier than it, for "in";
        ``amount_sum`` is the sum of its amounts.

        Each list is built on first use and kept with its window sums; a
        list that holds every edge on its side is the adjacency list.
        """
        key = (node, token, direction)
        try:
            edges, sums = self._windows[key]
        except KeyError:
            edges, sums = self._windows[key] = self._token_list(*key)
        if direction == "out":
            k = bisect_right(edges, bound, key=_timestamp)
        else:
            k = bisect_left(edges, bound, key=_timestamp)
        return edges, k, sums[k]

    def _token_list(self, node: str, token: str | None, direction: str
                    ) -> tuple[Sequence[TransferEdge], array]:
        side = (self._out if direction == "out" else self._in).get(node, ())
        edges = side
        if token is not None:
            edges = [e for e in side if e.token == token]
            if len(edges) == len(side):
                edges = side
        # sums[k] is the amount sum of the window at k, added up edge by
        # edge: an all-zero window sums to exactly 0.0.
        if direction == "out":
            sums = array("d", accumulate(
                (e.amount for e in reversed(edges)), initial=0.0))
            sums.reverse()
        else:
            sums = array("d", accumulate(
                (e.amount for e in edges), initial=0.0))
        return edges, sums


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


_REQUIRED = ("from", "to", "value", "timeStamp", "hash")
_required = itemgetter(*_REQUIRED)


def _parse_record(rec: dict | str, chain_symbol: str,
                  names: dict[str, str]) -> TransferEdge:
    """The edge of one record: a dict, or a JSON-lines line holding one.
    Its account and token strings are the copies held in ``names``.
    Raises ValueError, saying why, when the record is malformed."""
    if not isinstance(rec, dict):
        try:
            rec = json.loads(rec) if isinstance(rec, str) else None
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
    try:
        raw_src, raw_tgt, value, ts, raw_hash = fields = _required(rec)
    except KeyError as exc:
        raise ValueError(f"no {exc.args[0]}") from None
    if None in fields:  # a JSON null, which str() would make "None"
        raise ValueError(f"no {_REQUIRED[fields.index(None)]}")
    src = normalize_account(str(raw_src))
    tgt = normalize_account(str(raw_tgt))
    # str() first, so that a JSON 2.5 timestamp or a true value is refused.
    amount = float(str(value))
    timestamp = int(str(ts))
    token = str(rec.get("tokenSymbol") or chain_symbol).strip()
    txhash = str(raw_hash).strip().lower()
    if not math.isfinite(amount):
        raise ValueError(f"amount {amount} is not finite")
    if amount < 0:
        raise ValueError(f"negative amount {amount}")
    if timestamp < 0:
        raise ValueError(f"negative timestamp {timestamp}")
    if not token or not txhash:
        raise ValueError("missing token symbol or hash")
    if not (src + tgt + token + txhash).isascii():
        # A file is read with errors="surrogateescape": an undecodable
        # byte is a lone surrogate, which no output could encode.
        for text in (src, tgt, token, txhash):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"text {ascii(text)} is not UTF-8") from None
    share = names.setdefault
    return TransferEdge(share(src, src), share(tgt, tgt), amount, timestamp,
                        share(token, token), txhash)


def parse_records(records: Iterable[dict | str], chain_symbol: str,
                  name: str) -> list[TransferEdge]:
    """Parse records into edges. A record is a dict, or a JSON-lines line
    holding one; a missing or empty ``tokenSymbol`` is ``chain_symbol``.
    Edges with the same account or token share one string object for it.

    A malformed record is skipped and logged at WARNING on the
    ``fundtrace`` logger as ``skipped record N: <reason> (in <name>)``,
    where ``name`` says where the records came from, such as a file path
    or ``tokentx for 0xab``.
    """
    edges = []
    # Local to the batch, not sys.intern: per-fetch API parses churn the
    # interpreter's interned-string table, whose resizes raise peak memory.
    names: dict[str, str] = {}
    for n, rec in enumerate(records, start=1):
        try:
            edges.append(_parse_record(rec, chain_symbol, names))
        except ValueError as exc:
            log.warning("skipped record %d: %s (in %s)", n, exc, name)
    return edges


def load_graph(path: str, *, chain_symbol: str = "ETH") -> TransactionGraph:
    """Ingest an edge file: JSON lines when its first non-whitespace
    character is ``{``, CSV otherwise, with a header row: the first that
    is not blank, its cells trimmed. A blank line, or a CSV row of only
    spaces and commas, is not a record. Records are parsed as
    ``parse_records`` does; identical records are kept, as the graph is a
    multigraph. The file is UTF-8, a leading byte order mark dropped; a
    record whose account, token or hash holds an undecodable byte is
    skipped."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        head = next((line.lstrip()[:1] for line in fh if line.strip()), "")
        fh.seek(0)
        if head == "{":
            records = (line for line in fh if line.strip())
        else:
            # csv.DictReader's work in a quarter less time. A short row
            # lacks its last keys, so it is skipped for a missing field.
            rows = (row for row in csv.reader(fh) if "".join(row).strip())
            header = [cell.strip() for cell in next(rows, [])]
            records = (dict(zip(header, row)) for row in rows)
        return TransactionGraph(parse_records(records, chain_symbol, path))
