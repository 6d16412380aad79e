"""Conductance-based sweep that cuts an audit-sized community out of the
expanded subgraph.

Conductance of a node set S is the rank mass sitting on S's directed
out-boundary divided by the rank mass inside S. Starting from the
source, the sweep absorbs the highest-ranked outside node until the
conductance drops below the threshold.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import TransactionGraph
from .ttr import TraceParams, left_sum


@dataclass
class Community:
    members: list[str]  # insertion order = sweep order
    conductance: float
    subgraph: TransactionGraph
    converged: bool
    # incremental conductance after each prefix of members, starting
    # with {source}; kept so the sweep can be audited step by step
    sweep_conductances: list[float]


def boundary(members: set[str], graph: TransactionGraph) -> set[str]:
    out = set()
    for u in members:
        for e in graph.out_edges(u):
            if e.tgt not in members:
                out.add(e.tgt)
    return out


def conductance(members: set[str], graph: TransactionGraph,
                rank: dict[str, float]) -> float:
    if not members:
        raise ValueError("empty community")
    interior = left_sum(rank.get(u, 0.0) for u in members)
    if interior <= 0.0:
        raise ValueError("community has zero rank mass")
    # Summed in name order: set order varies with PYTHONHASHSEED.
    return left_sum(rank.get(v, 0.0)
                    for v in sorted(boundary(members, graph))) / interior


def extract_community(graph: TransactionGraph, rank: dict[str, float],
                      source: str, phi: float) -> Community:
    if source not in graph.nodes:
        raise ValueError(f"source {source!r} not in subgraph")
    TraceParams(phi=phi).validate()

    members: list[str] = [source]
    member_set = {source}
    interior = rank.get(source, 0.0)
    if interior <= 0.0:
        raise ValueError("source has zero rank")
    # Boundary nodes counted once each regardless of in-edge multiplicity.
    bound: set[str] = {e.tgt for e in graph.out_edges(source)
                       if e.tgt != source}
    bound_mass = left_sum(rank.get(v, 0.0) for v in sorted(bound))
    # Boundary nodes holding rank: at zero the mass is exactly zero,
    # whatever rounding the running subtraction left behind.
    ranked = sum(rank.get(v, 0.0) > 0.0 for v in bound)

    # Outside candidates ordered by descending rank, lexicographic ties.
    outside = sorted((v for v in graph.nodes if v != source),
                     key=lambda v: (-rank.get(v, 0.0), v))
    cursor = 0

    phi_now = bound_mass / interior
    sweep = [phi_now]
    while phi_now >= phi and cursor < len(outside):
        v = outside[cursor]
        cursor += 1
        members.append(v)
        member_set.add(v)
        interior += rank.get(v, 0.0)
        if v in bound:
            bound.discard(v)
            bound_mass -= rank.get(v, 0.0)
            ranked -= rank.get(v, 0.0) > 0.0
        for e in graph.out_edges(v):
            if e.tgt not in member_set and e.tgt not in bound:
                bound.add(e.tgt)
                bound_mass += rank.get(e.tgt, 0.0)
                ranked += rank.get(e.tgt, 0.0) > 0.0
        if not ranked:
            bound_mass = 0.0
        phi_now = bound_mass / interior
        sweep.append(phi_now)

    return Community(members=members, conductance=phi_now,
                     subgraph=induced_subgraph(graph, member_set),
                     converged=phi_now < phi, sweep_conductances=sweep)


def induced_subgraph(graph: TransactionGraph, members: set[str]
                     ) -> TransactionGraph:
    edges = [e for e in graph.edges if e.src in members and e.tgt in members]
    return TransactionGraph(edges, members)
