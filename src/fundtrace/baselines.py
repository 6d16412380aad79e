"""Reference tracing methods: BFS, boolean and proportional taint, and
the classic degree-normalized local push.

The taint methods keep a temporal guard: taint never travels along an
edge dated before its source became dirty, matching how the rank methods
reason about time on account graphs.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .graph import TransactionGraph, TransferEdge
from .ttr import TraceParams


@dataclass
class TaintResult:
    subgraph: TransactionGraph
    taint: dict[str, float]  # dirty value (proportional) or 1.0 (boolean)


def bfs_trace(graph: TransactionGraph, source: str, depth: int = 2
              ) -> TransactionGraph:
    """All nodes within ``depth`` directed hops of source, with the
    traversed edges."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    visited = {source}
    frontier = [source]
    edges: list[TransferEdge] = []
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for e in graph.out_edges(u):
                edges.append(e)
                if e.tgt not in visited:
                    visited.add(e.tgt)
                    nxt.append(e.tgt)
        frontier = nxt
    return TransactionGraph(edges, (source,))


def poison_trace(graph: TransactionGraph, source: str, depth: int = 2
                 ) -> TaintResult:
    """Boolean taint (poison): a hop-limited, time-guarded walk. Every
    account within ``depth`` hops is dirty, each hop taking an edge dated
    no earlier than the hop before. A hop walks on from an account only
    if it reached it strictly earlier than every shorter walk did."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    earliest = {source: float("-inf")}
    frontier = dict(earliest)
    edges: list[TransferEdge] = []
    for _ in range(depth):
        reached: dict[str, float] = {}
        for u, since in frontier.items():
            for e in graph.edges_after(u, since - 1):
                edges.append(e)
                if e.timestamp < reached.get(e.tgt, math.inf):
                    reached[e.tgt] = e.timestamp
        frontier = {v: t for v, t in reached.items()
                    if t < earliest.get(v, math.inf)}
        earliest.update(frontier)
    # An account walked on at several hops rescans its out-edges; keep
    # each edge once (the graph puts them back in ``sort_key`` order).
    sub = TransactionGraph(dict.fromkeys(edges), (source,))
    return TaintResult(sub, dict.fromkeys(earliest, 1.0))


def haircut_trace(graph: TransactionGraph, source: str,
                  cutoff_fraction: float = 0.001) -> TaintResult:
    """Proportional taint: dirty value splits across later outgoing
    edges by amount; a parcel below cutoff_fraction of the source's
    initial dirty value stops propagating."""
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValueError("cutoff_fraction must be in (0,1]")
    initial = sum(e.amount for e in graph.out_edges(source))
    if initial <= 0.0:
        return TaintResult(TransactionGraph([], (source,)), {source: 0.0})
    floor = cutoff_fraction * initial
    received: dict[str, float] = {source: initial}
    edges_used: list[TransferEdge] = []
    # Parcels processed in chronological order; seq breaks heap ties.
    # Subsequent hops need a later timestamp, never an equal one, so the
    # times rise along every parcel path and propagation terminates.
    heap: list[tuple[float, int, str, float]] = [(float("-inf"), 0, source, initial)]
    seq = 1
    while heap:
        since, _, u, value = heapq.heappop(heap)
        out = graph.edges_after(u, since)
        total = sum(e.amount for e in out)
        if total <= 0.0:
            continue  # dirty value rests at u
        for e in out:
            share = value * e.amount / total
            if share <= 0.0:
                continue
            received[e.tgt] = received.get(e.tgt, 0.0) + share
            if share >= floor:
                edges_used.append(e)
                heapq.heappush(heap, (float(e.timestamp), seq, e.tgt, share))
                seq += 1
    taint = {u: v for u, v in received.items() if v >= floor or u == source}
    # Parcels reaching a node at different times rescan its out-edges;
    # keep each edge once (the graph puts them back in ``sort_key`` order).
    sub = TransactionGraph(dict.fromkeys(edges_used), (source,))
    return TaintResult(sub, taint)


def appr_rank(graph: TransactionGraph, source: str, alpha: float = 0.15,
              epsilon: float = 1e-3
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Classic local push ignoring amounts, timestamps, and tokens.

    FIFO schedule from {source: 1.0}. Degree is the out-degree with
    multiplicity; dangling nodes (and a source outside the graph) behave
    as a self-loop so mass stays accounted. Every residual is below
    epsilon on return; only non-zero entries are returned.
    """
    TraceParams(alpha=alpha, epsilon=epsilon).validate()
    rank: dict[str, float] = {}
    residual = {source: 1.0}
    targets: dict[str, list[str]] = {}
    queue = deque([source])
    queued = {source}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        res = residual[u]
        rank[u] = rank.get(u, 0.0) + alpha * res
        residual[u] = 0.0
        out = targets.get(u)
        if out is None:
            out = targets[u] = sorted(e.tgt for e in graph.out_edges(u)) or [u]
        share = (1.0 - alpha) * res / len(out)
        for v in out:
            residual[v] = residual.get(v, 0.0) + share
            if residual[v] >= epsilon and v not in queued:
                queue.append(v)
                queued.add(v)
    return ({u: p for u, p in rank.items() if p},
            {u: r for u, r in residual.items() if r})

