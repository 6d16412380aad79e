"""Greedy frontier expansion: pop / expand / merge / push until the
highest per-node residual falls below epsilon.

Each iteration pops the node with the largest residual, fetches its
incident edges (cached), merges them into the working subgraph, and runs
one local push on it. The pop count is bounded by 1/(epsilon*alpha):
every pop converts at least alpha*epsilon mass into rank and total mass
never grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .graph import TransactionGraph, TransferEdge
from .providers import EdgeProvider, ProviderError
from .ttr import PushStats, ResidualLedger, TraceParams, init_trace, local_push

TERM_CONVERGED = "residuals-below-epsilon"
TERM_BUDGET = "budget-exhausted"
TERM_PROVIDER_ERROR = "provider-error"


@dataclass
class TraceResult:
    subgraph: TransactionGraph
    rank: dict[str, float]
    ledger: ResidualLedger
    params: TraceParams
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
    """Caches provider fetches and merges edge multisets across accounts.

    An edge incident to two expanded accounts is returned by both
    fetches; merging keeps, per identical record, the maximum
    multiplicity seen in any single fetch, so legitimate duplicate
    records survive while cross-fetch copies collapse.
    """

    def __init__(self, provider: EdgeProvider, hub_cap: int | None = None):
        self.provider = provider
        self.hub_cap = hub_cap
        self._fetched: dict[str, list[TransferEdge]] = {}
        self._multiplicity: dict[tuple, int] = {}
        self._edges: dict[tuple, list[TransferEdge]] = {}
        self.hub_cap_hits: list[str] = []

    def expand(self, account: str) -> tuple[list[TransferEdge], bool]:
        """Returns (incident edges, whether anything new was merged)."""
        if account in self._fetched:
            return self._fetched[account], False
        edges = list(self.provider.fetch_edges(account))
        edges.sort(key=TransferEdge.sort_key)
        if self.hub_cap is not None and len(edges) > self.hub_cap:
            edges = edges[: self.hub_cap]
            self.hub_cap_hits.append(account)
        self._fetched[account] = edges
        grew = False
        counts: dict[tuple, int] = {}
        for e in edges:
            counts[e.key()] = counts.get(e.key(), 0) + 1
        for key, count in counts.items():
            have = self._multiplicity.get(key, 0)
            if count > have:
                self._multiplicity[key] = count
                bucket = self._edges.setdefault(key, [])
                source = [e for e in edges if e.key() == key]
                bucket[:] = source[:count]
                grew = True
        return edges, grew

    def merged_edges(self) -> list[TransferEdge]:
        out: list[TransferEdge] = []
        for bucket in self._edges.values():
            out.extend(bucket)
        out.sort(key=TransferEdge.sort_key)
        return out


def run_expansion(source: str, provider: EdgeProvider, params: TraceParams,
                  max_iterations: int | None = None, *,
                  hub_cap: int | None = None,
                  on_iteration: Callable[[dict[str, float], ResidualLedger, float], None] | None = None,
                  ) -> TraceResult:
    """Trace from ``source`` until convergence, ``max_iterations`` pops,
    or a provider error.

    Raises RuntimeError if the pop count passes the 1/(eps*alpha) bound,
    which a correct push never does.
    """
    params.validate()
    rank, ledger = init_trace(source, params)
    stats = PushStats()
    cache = _EdgeCache(provider, hub_cap)
    pop_bound = math.ceil(1.0 / (params.epsilon * params.alpha))
    subgraph = TransactionGraph([], (source,))
    iterations = 0
    termination = TERM_CONVERGED

    while True:
        node = pop(ledger, params.epsilon)
        if node is None:
            break
        if max_iterations is not None and iterations >= max_iterations:
            termination = TERM_BUDGET
            break
        try:
            _, grew = cache.expand(node)
        except ProviderError:
            termination = TERM_PROVIDER_ERROR
            break
        if grew:
            # Rebuild so adjacency stays sorted and patterns stay fresh.
            subgraph = TransactionGraph(cache.merged_edges())
        local_push(node, subgraph, params, rank, ledger, stats)
        iterations += 1
        if iterations > pop_bound:
            raise RuntimeError(
                f"pop count {iterations} exceeded 1/(eps*alpha) bound {pop_bound}")
        if on_iteration is not None:
            on_iteration(rank, ledger, stats.dropped_mass)

    return TraceResult(subgraph=subgraph, rank=rank, ledger=ledger,
                       params=params, iterations=iterations,
                       termination=termination,
                       dropped_mass=stats.dropped_mass,
                       hub_cap_hits=cache.hub_cap_hits)
