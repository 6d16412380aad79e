"""Greedy frontier expansion: pop / expand / merge / push until the
highest per-node residual falls below epsilon.

Each iteration pops the node with the largest residual, fetches its
incident edges (once per account) and runs one local push over them
alone. The result subgraph is built once, from the merged fetches, when
the loop ends. The pop count is bounded by 1/(epsilon*alpha): every pop
converts at least alpha*epsilon mass into rank and total mass never
grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import TransactionGraph, TransferEdge
from .providers import EdgeProvider
from .ttr import ANY_TOKEN, SEED_TS, ResidualLedger, TraceParams, local_push

TERM_CONVERGED = "residuals-below-epsilon"
TERM_BUDGET = "budget-exhausted"

# Largest |rank + residual + dropped - 1| a finished trace may show.
MASS_TOLERANCE = 1e-9


@dataclass
class TraceResult:
    subgraph: TransactionGraph
    rank: dict[str, float]
    ledger: ResidualLedger
    iterations: int
    termination: str
    dropped_mass: float = 0.0
    hub_cap_hits: list[str] = field(default_factory=list)


def pop(ledger: ResidualLedger, epsilon: float) -> str | None:
    best = ledger.max_node()
    if best is None or best[1] < epsilon:
        return None
    return best[0]


class _EdgeCache:
    """Fetches each account once into a graph of its own incident edges,
    and merges edge multisets across accounts for the result subgraph.

    An edge incident to two expanded accounts is returned by both
    fetches; merging keeps, per identical record, the maximum
    multiplicity seen in any single fetch, so legitimate duplicate
    records survive while cross-fetch copies collapse.
    """

    def __init__(self, provider: EdgeProvider, hub_cap: int | None = None):
        self.provider = provider
        self.hub_cap = hub_cap
        self._graphs: dict[str, TransactionGraph] = {}
        self._edges: dict[tuple, list[TransferEdge]] = {}
        self.hub_cap_hits: list[str] = []

    def expand(self, account: str) -> TransactionGraph:
        """The graph of the account's (hub-capped) incident edges."""
        graph = self._graphs.get(account)
        if graph is not None:
            return graph
        edges = self.provider.fetch_edges(account)
        if self.hub_cap is not None and len(edges) > self.hub_cap:
            edges = sorted(edges, key=TransferEdge.sort_key)[: self.hub_cap]
            self.hub_cap_hits.append(account)
        graph = self._graphs[account] = TransactionGraph(edges)
        copies: dict[tuple, list[TransferEdge]] = {}
        for e in graph.edges:
            copies.setdefault(e.sort_key(), []).append(e)
        for key, group in copies.items():
            if len(group) > len(self._edges.get(key, ())):
                self._edges[key] = group
        return graph

    def merged_edges(self) -> list[TransferEdge]:
        return [e for group in self._edges.values() for e in group]


def run_expansion(source: str, provider: EdgeProvider, params: TraceParams
                  ) -> TraceResult:
    """Trace from ``source`` until convergence or ``params.budget`` pops.

    A ProviderError from any fetch propagates: a trace missing an
    account's edges is not a result. Raises ValueError for a parameter
    out of range. Raises RuntimeError if the pop count passes the
    1/(eps*alpha) bound, or if rank, residual and dropped mass do not sum
    to 1 when the loop ends; a correct push does neither.
    """
    params.validate()
    rank: dict[str, float] = {}
    ledger = ResidualLedger()
    ledger.add(source, SEED_TS, ANY_TOKEN, 1.0)
    budget = params.budget
    cache = _EdgeCache(provider, params.hub_cap)
    pop_bound = math.ceil(1.0 / (params.epsilon * params.alpha))
    iterations = 0
    termination = TERM_CONVERGED

    while True:
        node = pop(ledger, params.epsilon)
        if node is None:
            break
        if budget is not None and iterations >= budget:
            termination = TERM_BUDGET
            break
        local_push(node, cache.expand(node), params, rank, ledger)
        iterations += 1
        if iterations > pop_bound:
            raise RuntimeError(
                f"pop count {iterations} exceeded 1/(eps*alpha) bound {pop_bound}")

    mass = sum(rank.values()) + ledger.total() + ledger.dropped
    if abs(mass - 1.0) > MASS_TOLERANCE:
        raise RuntimeError(
            f"mass identity off by {mass - 1.0:.3e}: rank + residual + "
            f"dropped must sum to 1")
    subgraph = TransactionGraph(cache.merged_edges(), (source,))
    return TraceResult(subgraph=subgraph, rank=rank, ledger=ledger,
                       iterations=iterations, termination=termination,
                       dropped_mass=ledger.dropped,
                       hub_cap_hits=cache.hub_cap_hits)
