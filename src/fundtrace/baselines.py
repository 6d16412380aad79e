"""Reference tracing methods: BFS, boolean and proportional taint, the
classic degree-normalized local push, and a dense exact solver used as a
test oracle.

The taint methods keep a temporal guard: taint never travels along an
edge dated before its source became dirty, matching how the rank methods
reason about time on account graphs.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import TransactionGraph, TransferEdge


@dataclass
class TaintResult:
    subgraph: TransactionGraph
    taint: dict[str, float]  # dirty value (proportional) or 1.0 (boolean)
    held: dict[str, float] | None = None  # resting dirty value (haircut)


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
    return TransactionGraph([e for e in edges if e.tgt in visited], (source,))


def poison_trace(graph: TransactionGraph, source: str, depth: int = 2
                 ) -> TaintResult:
    """Boolean taint: everything a dirty account later sends to is dirty.

    An edge carries taint only if it is dated at or after the moment its
    source first became dirty. Dijkstra on (hop, first-dirty-time).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # Label-correcting search over (node, hops, first-dirty-time) states;
    # a state is pruned when a recorded one has both fewer hops and an
    # earlier dirty time.
    labels: dict[str, list[tuple[int, float]]] = {source: [(0, float("-inf"))]}
    work: list[tuple[str, int, float]] = [(source, 0, float("-inf"))]
    edges: list[TransferEdge] = []
    while work:
        u, hops, since = work.pop()
        if hops >= depth:
            continue
        for e in graph.out_edges(u):
            if e.timestamp < since:
                continue
            cand = (hops + 1, float(e.timestamp))
            edges.append(e)
            known = labels.setdefault(e.tgt, [])
            if any(h <= cand[0] and t <= cand[1] for h, t in known):
                continue
            known[:] = [(h, t) for h, t in known
                        if not (cand[0] <= h and cand[1] <= t)]
            known.append(cand)
            work.append((e.tgt, cand[0], cand[1]))
    tainted = set(labels)
    # A node relaxed under several labels rescans its out-edges; keep
    # each edge once, in first-seen order.
    sub = TransactionGraph([e for e in dict.fromkeys(edges) if e.tgt in tainted],
                           (source,))
    return TaintResult(sub, {u: 1.0 for u in tainted})


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
    held: dict[str, float] = {source: initial}
    edges_used: list[TransferEdge] = []
    # Parcels processed in chronological order; seq breaks heap ties.
    # Subsequent hops need a strictly later timestamp, so every parcel
    # path has strictly increasing times and propagation terminates.
    heap: list[tuple[float, int, str, float]] = [(float("-inf"), 0, source, initial)]
    seq = 1
    while heap:
        since, _, u, value = heapq.heappop(heap)
        if value < floor:
            continue
        out = [e for e in graph.out_edges(u) if e.timestamp > since]
        total = sum(e.amount for e in out)
        if total <= 0.0:
            continue  # dirty value rests at u
        held[u] = held.get(u, 0.0) - value
        for e in out:
            share = value * e.amount / total
            if share <= 0.0:
                continue
            received[e.tgt] = received.get(e.tgt, 0.0) + share
            held[e.tgt] = held.get(e.tgt, 0.0) + share
            if share >= floor:
                edges_used.append(e)
                heapq.heappush(heap, (float(e.timestamp), seq, e.tgt, share))
                seq += 1
    taint = {u: v for u, v in received.items() if v >= floor or u == source}
    # Parcels reaching a node at different times rescan its out-edges;
    # keep each edge once, in first-seen order.
    sub = TransactionGraph([e for e in dict.fromkeys(edges_used) if e.tgt in taint],
                           (source,))
    return TaintResult(sub, taint, held)


def appr_rank(graph: TransactionGraph, source: str, alpha: float = 0.15,
              epsilon: float = 1e-3
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Classic local push ignoring amounts, timestamps, and tokens.

    FIFO schedule from {source: 1.0}. Degree is the out-degree with
    multiplicity; dangling nodes (and a source outside the graph) behave
    as a self-loop so mass stays accounted. Every residual is below
    epsilon on return; only non-zero entries are returned.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    rank: dict[str, float] = {}
    residual = {source: 1.0}
    targets: dict[str, list[str]] = {}
    queue = deque([source])
    queued = {source}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        res = residual[u]
        if res < epsilon:
            continue
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


def exact_ppr(graph: TransactionGraph, source: str, alpha: float = 0.15
              ) -> dict[str, float]:
    """Dense solve of p = alpha*e + (1-alpha)*p*M with M = D^-1 A.

    Test-scale oracle; dangling nodes get a self-loop, matching
    appr_rank. The result sums to 1.
    """
    nodes = sorted(graph.nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    M = np.zeros((n, n), dtype=np.float64)
    for i, u in enumerate(nodes):
        out = graph.out_edges(u)
        if not out:
            M[i, i] = 1.0
            continue
        d = len(out)
        for e in out:
            M[i, idx[e.tgt]] += 1.0 / d
    e_s = np.zeros(n)
    e_s[idx[source]] = 1.0
    # p (I - (1-alpha) M) = alpha e_s, solved on the transposed system.
    A = np.eye(n) - (1.0 - alpha) * M
    p = np.linalg.solve(A.T, alpha * e_s)
    return {nodes[i]: float(p[i]) for i in range(n)}
