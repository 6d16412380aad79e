"""Uniform driver: run any tracing method inside the same
expansion/provider framework and report comparable results."""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace

from . import baselines, community, metrics
from .cases import PlantedCase
from .community import Community, extract_community
from .expansion import TraceResult, run_expansion
from .graph import TransactionGraph
from .providers import EdgeProvider, GraphProvider
from .ttr import TraceParams

METHODS = ("ttr", "appr", "bfs", "poison", "haircut")
TOPN_POINTS = [1, 5, 10, 25, 50, 100, 200]


@dataclass(frozen=True)
class RunConfig(TraceParams):
    method: str = "ttr"
    depth: int = 2          # BFS / Poison hop limit
    cutoff: float = 0.001   # Haircut stop fraction

    def params(self) -> TraceParams:
        return TraceParams(**{f.name: getattr(self, f.name)
                              for f in fields(TraceParams)})

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        super().validate()
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not 0.0 < self.cutoff <= 1.0:
            raise ValueError("cutoff must be in (0,1]")


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

    trace = comm = None
    if config.method == "ttr":
        trace = run_expansion(source, provider, params)
        comm = extract_community(trace.subgraph, trace.rank, source,
                                 params.phi)
        provenance.update({
            "iterations": trace.iterations,
            "termination": trace.termination,
            "dropped_mass": trace.dropped_mass,
            "residual_mass": trace.ledger.total(),
            "hub_cap_hits": trace.hub_cap_hits,
            "community_converged": comm.converged,
            "community_conductance": comm.conductance,
        })
        sub, scores = trace.subgraph, dict(trace.rank)
    else:
        # The baselines read the whole graph, which only graph-backed
        # providers hold; crawling an API for it would have no bound.
        graph = getattr(provider, "graph", None)
        if graph is None:
            raise ValueError(f"method {config.method!r} needs an edge file "
                             "provider")
        if config.method == "appr":
            scores, residual = baselines.appr_rank(graph, source,
                                                   config.alpha, config.epsilon)
            nodes = set(scores) | set(residual) | {source}
            sub = community.induced_subgraph(graph, nodes)
        elif config.method == "bfs":
            sub = baselines.bfs_trace(graph, source, config.depth)
            scores = {u: 1.0 for u in sub.nodes}
        else:
            taint = (baselines.poison_trace(graph, source, config.depth)
                     if config.method == "poison"
                     else baselines.haircut_trace(graph, source, config.cutoff))
            sub, scores = taint.subgraph, taint.taint

    return MethodResult(config.method, sub, scores, community=comm,
                        trace=trace, runtime_s=time.perf_counter() - t0,
                        provenance=provenance)


def evaluate(result: MethodResult, source: str, targets: set[str]) -> dict:
    out_nodes = result.output_nodes
    return {
        "method": result.method,
        "recall": metrics.recall(out_nodes, targets),
        "nodes": len(out_nodes),
        "depth": metrics.tracing_depth(result.output_graph(), source),
    }


def compare_case(case: PlantedCase, base: RunConfig
                 ) -> tuple[dict, dict[str, str], dict[str, float]]:
    """Run every method on ``case`` with ``base``'s parameters. Returns
    the report row (spec, ``evaluate`` rows, top-N curves), the error of
    each method that raised, and each method's seconds."""
    row = {"spec": asdict(case.spec), "methods": [], "topn": {}}
    errors, seconds = {}, {}
    for method in METHODS:
        try:
            result = run_method(case.source, GraphProvider(case.graph),
                                replace(base, method=method))
        except (ValueError, RuntimeError) as exc:
            errors[method] = str(exc)
            continue
        seconds[method] = result.runtime_s
        row["methods"].append(evaluate(result, case.source, case.targets))
        if method in ("ttr", "appr", "haircut"):
            row["topn"][method] = metrics.topn_curve(
                result.scores, case.targets, TOPN_POINTS)
    return row, errors, seconds
