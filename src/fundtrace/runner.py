"""Uniform driver: run any tracing method inside the same
expansion/provider framework and report comparable results."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import baselines, community, metrics
from .community import Community, extract_community
from .expansion import TraceResult, run_expansion
from .graph import TransactionGraph
from .providers import EdgeProvider, GraphProvider
from .ttr import TraceParams

METHODS = ("ttr", "appr", "bfs", "poison", "haircut")


@dataclass
class RunConfig:
    method: str = "ttr"
    alpha: float = 0.15
    beta: float = 0.7
    epsilon: float = 1e-3
    phi: float = 1e-3
    depth: int = 2          # BFS / Poison hop limit
    cutoff: float = 0.001   # Haircut stop fraction
    budget: int | None = None  # ttr: maximum number of pops
    hub_cap: int | None = None

    def params(self) -> TraceParams:
        return TraceParams(alpha=self.alpha, beta=self.beta,
                           epsilon=self.epsilon, phi=self.phi)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.params().validate()
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not 0.0 < self.cutoff <= 1.0:
            raise ValueError("cutoff must be in (0,1]")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class MethodResult:
    method: str
    subgraph: TransactionGraph
    scores: dict[str, float]        # rank or taint, method-dependent
    community: Community | None = None
    trace: TraceResult | None = None
    runtime_s: float = 0.0
    provenance: dict = field(default_factory=dict)

    @property
    def output_nodes(self) -> set[str]:
        if self.community is not None:
            return set(self.community.members)
        return set(self.subgraph.nodes)

    def output_graph(self) -> TransactionGraph:
        if self.community is not None:
            return self.community.subgraph
        return self.subgraph


def run_method(source: str, provider: EdgeProvider, config: RunConfig
               ) -> MethodResult:
    config.validate()
    t0 = time.perf_counter()
    params = config.params()
    provenance: dict = {"method": config.method, "source": source,
                        "alpha": config.alpha, "beta": config.beta,
                        "epsilon": config.epsilon, "phi": config.phi,
                        "depth": config.depth, "cutoff": config.cutoff}

    if config.method == "ttr":
        trace = run_expansion(source, provider, params, config.budget,
                              hub_cap=config.hub_cap)
        comm = extract_community(trace.subgraph, trace.rank, source,
                                 params.phi)
        provenance.update({
            "iterations": trace.iterations,
            "termination": trace.termination,
            "dropped_mass": trace.dropped_mass,
            "hub_cap_hits": trace.hub_cap_hits,
            "community_converged": comm.converged,
            "community_conductance": comm.conductance,
        })
        result = MethodResult(config.method, trace.subgraph, dict(trace.rank),
                              community=comm, trace=trace,
                              provenance=provenance)
    else:
        # The baselines read the whole graph, which only graph-backed
        # providers hold; crawling an API for it would have no bound.
        graph = getattr(provider, "graph", None)
        if graph is None:
            raise ValueError(f"method {config.method!r} needs an edge file "
                             "provider")
        if config.method == "appr":
            rank, residual = baselines.appr_rank(graph, source,
                                                 config.alpha, config.epsilon)
            nodes = set(rank) | set(residual) | {source}
            sub = community.induced_subgraph(graph, nodes)
            result = MethodResult(config.method, sub, rank,
                                  provenance=provenance)
        elif config.method == "bfs":
            sub = baselines.bfs_trace(graph, source, config.depth)
            result = MethodResult(config.method, sub,
                                  {u: 1.0 for u in sub.nodes},
                                  provenance=provenance)
        elif config.method == "poison":
            taint = baselines.poison_trace(graph, source, config.depth)
            result = MethodResult(config.method, taint.subgraph, taint.taint,
                                  provenance=provenance)
        else:
            taint = baselines.haircut_trace(graph, source, config.cutoff)
            result = MethodResult(config.method, taint.subgraph, taint.taint,
                                  provenance=provenance)

    result.runtime_s = time.perf_counter() - t0
    return result


def evaluate(result: MethodResult, source: str, targets: set[str]) -> dict:
    out_nodes = result.output_nodes
    graph = result.output_graph()
    if source in graph.nodes:
        depth, _ = metrics.tracing_depth(graph, source)
    else:
        depth = 0
    return {
        "method": result.method,
        "recall": metrics.recall(out_nodes, targets),
        "nodes": len(out_nodes),
        "depth": depth,
        "runtime_s": result.runtime_s,
    }


def run_case_graph(graph: TransactionGraph, source: str,
                   config: RunConfig) -> MethodResult:
    return run_method(source, GraphProvider(graph), config)
