"""Trace evaluation: recall against known targets, tracing depth, and
the top-N recall curve."""
from __future__ import annotations

from collections import deque

from .graph import TransactionGraph


def recall(result_nodes: set[str], targets: set[str]) -> float:
    if not targets:
        raise ValueError("targets must be non-empty")
    return len(result_nodes & targets) / len(targets)


def tracing_depth(subgraph: TransactionGraph, source: str) -> int:
    """Max shortest-hop distance from source, edges undirected. Nodes
    disconnected from the source inside the result are left out."""
    if source not in subgraph.nodes:
        raise ValueError(f"source {source!r} not in subgraph")
    neighbors: dict[str, set[str]] = {u: set() for u in subgraph.nodes}
    for e in subgraph.edges:
        neighbors[e.src].add(e.tgt)
        neighbors[e.tgt].add(e.src)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist.values())


def topn_recall(rank: dict[str, float], targets: set[str], n: int) -> float:
    if n < 1:
        raise ValueError("n must be >= 1")
    ordered = sorted(rank, key=lambda u: (-rank[u], u))
    return recall(set(ordered[:n]), targets)


def topn_curve(rank: dict[str, float], targets: set[str],
               points: list[int]) -> list[tuple[int, float]]:
    return [(n, topn_recall(rank, targets, n)) for n in points]
