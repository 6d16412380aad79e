import math
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (build_graph, multihop_swap_rows, random_path_seed,
                      random_txgraph, seeded_trace, swap_bot_chain)
from fundtrace.cases import CaseSpec, generate_planted_case
from fundtrace.expansion import (TERM_BUDGET, TERM_CONVERGED, _EdgeCache,
                                 pop, run_expansion)
from fundtrace.graph import TransferEdge
from fundtrace.providers import GraphProvider, ProviderError
from fundtrace.ttr import ResidualLedger, TraceParams, local_push
from oracle import fixed_point


class FailingProvider:
    def __init__(self, graph, fail_after):
        self.inner = GraphProvider(graph)
        self.fail_after = fail_after

    def fetch_edges(self, account):
        if self.inner.calls >= self.fail_after:
            raise ProviderError("boom")
        return self.inner.fetch_edges(account)


def test_pop_max_residual():
    ledger = ResidualLedger()
    ledger.add("a", 1, "T", 0.4)
    ledger.add("b", 1, "T", 0.6)
    assert pop(ledger, 1e-3) == "b"


def test_pop_below_epsilon_is_none():
    ledger = ResidualLedger()
    ledger.add("a", 1, "T", 0.0005)
    assert pop(ledger, 1e-3) is None


def test_pop_tie_break_deterministic():
    import random
    names = [f"n{i}" for i in range(10)]
    for seed in range(100):
        rng = random.Random(seed)
        shuffled = names[:]
        rng.shuffle(shuffled)
        ledger = ResidualLedger()
        for name in shuffled:
            ledger.add(name, 1, "T", 0.3)
        assert pop(ledger, 1e-3) == "n0"


def test_expand_cache_hits():
    g = build_graph([
        ("a", "b", 10.0, 1, "T", "h1"),
        ("b", "c", 5.0, 2, "T", "h2"),
        ("c", "d", 2.0, 3, "T", "h3"),
    ])
    provider = GraphProvider(g)
    result = run_expansion("a", provider, TraceParams(epsilon=1e-2))
    # each account fetched at most once despite repeated pops
    expanded = {u for u in result.rank}
    assert provider.calls <= len(expanded) + 1


def test_expand_isolated_node():
    g = build_graph([("x", "y", 1.0, 1, "T", "h1")])
    assert GraphProvider(g).fetch_edges("zzz") == []


def test_isolated_source_geometric_convergence():
    g = build_graph([])
    params = TraceParams(alpha=0.15, epsilon=1e-3)
    result = run_expansion("s", GraphProvider(g), params)
    assert result.termination == TERM_CONVERGED
    assert set(result.subgraph.nodes) == {"s"}
    # p(s) converges to the geometric series of self-returns
    k = math.ceil(math.log(params.epsilon) / math.log(1 - params.alpha))
    assert result.iterations <= k
    expected = sum(0.15 * 0.85 ** i for i in range(result.iterations))
    assert result.rank["s"] == pytest.approx(expected, abs=1e-12)
    assert result.rank["s"] + result.ledger.total() == pytest.approx(1.0)


def unit_path(n, start_ts=1):
    return build_graph([
        (f"v{i:02d}", f"v{i + 1:02d}", 1.0, start_ts + i, "T", f"h{i}")
        for i in range(n)
    ])


def test_path_depth_alpha_half():
    # residual halves per hop: 0.5, 0.25, 0.125; epsilon 0.25 stops at hop 3
    g = unit_path(60)
    params = TraceParams(alpha=0.5, beta=1.0, epsilon=0.25)
    result = run_expansion("v00", GraphProvider(g), params)
    reached = {u for u in result.subgraph.nodes
               if result.rank.get(u, 0.0) > 0
               or result.ledger.node_total(u) > 0}
    deepest = max(int(u[1:]) for u in reached)
    assert deepest == 3
    assert result.ledger.node_total("v03") == pytest.approx(0.125)
    assert result.rank.get("v04", 0.0) == 0.0


def test_path_depth_default_parameters():
    g = unit_path(60)
    params = TraceParams(alpha=0.15, beta=1.0, epsilon=1e-3)
    result = run_expansion("v00", GraphProvider(g), params)
    reached = {u for u in result.subgraph.nodes
               if result.rank.get(u, 0.0) > 0
               or result.ledger.node_total(u) > 0}
    deepest = max(int(u[1:]) for u in reached)
    assert deepest in (42, 43)
    bound = math.log(params.epsilon) / math.log(1 - params.alpha) + 1
    assert deepest <= bound + 1


def test_pop_iteration_bound_random_graphs():
    params = TraceParams(alpha=0.15, epsilon=1e-3)
    bound = 1.0 / (params.epsilon * params.alpha)
    for seed in range(5):
        g = random_txgraph(seed, n_nodes=100, n_edges=400, swap_rate=0.2)
        source = sorted(g.nodes)[0]
        result = run_expansion(source, GraphProvider(g), params)
        assert result.iterations <= bound
        assert result.termination == TERM_CONVERGED


def test_termination_residuals_below_epsilon():
    g = random_txgraph(7, n_nodes=30, n_edges=100)
    params = TraceParams(epsilon=1e-3)
    result = run_expansion(sorted(g.nodes)[0], GraphProvider(g), params)
    assert result.termination == TERM_CONVERGED
    for node in result.subgraph.nodes:
        assert result.ledger.node_total(node) < params.epsilon


def test_budget_exhaustion_partial_result():
    g = random_txgraph(3, n_nodes=50, n_edges=200)
    params = TraceParams(epsilon=1e-6, budget=3)
    result = run_expansion(sorted(g.nodes)[0], GraphProvider(g), params)
    assert result.termination == TERM_BUDGET
    assert result.iterations == 3


@pytest.mark.parametrize("fail_after", [0, 1, 2])
def test_provider_error_on_any_fetch_is_raised(fail_after, caplog):
    g = build_graph([
        ("a", "b", 10.0, 1, "T", "h1"),
        ("b", "c", 5.0, 2, "T", "h2"),
        ("c", "d", 2.0, 3, "T", "h3"),
    ])
    # Unfailing, the trace fetches a third account, so each case fails.
    provider = GraphProvider(g)
    run_expansion("a", provider, TraceParams())
    assert provider.calls >= 3
    with caplog.at_level("WARNING", logger="fundtrace"):
        with pytest.raises(ProviderError, match="^boom$"):
            run_expansion("a", FailingProvider(g, fail_after=fail_after),
                          TraceParams())
    assert [r for r in caplog.records if r.levelname == "WARNING"] == []


def test_subgraph_soundness_and_connectivity():
    for seed in range(5):
        g = random_txgraph(seed, n_nodes=40, n_edges=150, swap_rate=0.2)
        source = sorted(g.nodes)[0]
        result = run_expansion(source, GraphProvider(g), TraceParams())
        expanded = set(result.rank)
        for e in result.subgraph.edges:
            assert e.src in expanded or e.tgt in expanded
        # undirected connectivity through the source
        from collections import deque
        adj = {}
        for e in result.subgraph.edges:
            adj.setdefault(e.src, set()).add(e.tgt)
            adj.setdefault(e.tgt, set()).add(e.src)
        seen = {source}
        dq = deque([source])
        while dq:
            u = dq.popleft()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    dq.append(v)
        assert seen >= result.subgraph.nodes


def test_hub_cap_recorded():
    rows = [("s", "hub", 100.0, 1, "T", "h0")]
    rows += [("hub", f"t{i}", 1.0, 2 + i, "T", f"h{i + 1}")
             for i in range(50)]
    g = build_graph(rows)
    result = run_expansion("s", GraphProvider(g), TraceParams(hub_cap=10))
    assert "hub" in result.hub_cap_hits
    # The cap keeps the first 10 incident edges in sort_key order, and the
    # funding edge, listed last by incident_edges, sorts first.
    cache = _EdgeCache(GraphProvider(g), hub_cap=10)
    incident = sorted(g.incident_edges("hub"), key=TransferEdge.sort_key)
    assert cache.expand("hub").edges == incident[:10]
    assert cache.hub_cap_hits == ["hub"]


def test_hub_cap_cut_ignores_provider_order():
    # Four legs of one transfer tie on every field but the amount.
    funding = TransferEdge("s", "hub", 10.0, 1, "T", "h0")
    legs = [TransferEdge("hub", "t", amount, 5, "T", "h1")
            for amount in (4.0, 1.0, 3.0, 2.0)]
    cuts = set()
    for order in permutations([funding, *legs]):
        provider = SimpleNamespace(fetch_edges=lambda account: list(order))
        cache = _EdgeCache(provider, hub_cap=3)
        cuts.add(tuple(e.amount for e in cache.expand("hub").edges))
        assert cache.hub_cap_hits == ["hub"]
    # The funding edge and the two smallest legs, whatever the order.
    assert cuts == {(10.0, 1.0, 2.0)}


def test_hub_expands_in_bounded_time():
    import time
    rows = [("s", "hub", 100.0, 1, "T", "h0")]
    rows += [("hub", f"t{i}", 1.0, 2 + i, "T", f"h{i + 1}")
             for i in range(8000)]
    cache = _EdgeCache(GraphProvider(build_graph(rows)))
    start = time.perf_counter()
    hub = cache.expand("hub")
    elapsed = time.perf_counter() - start
    assert len(hub.out_edges("hub")) == 8000
    assert len(cache.merged_edges()) == 8001
    assert elapsed < 1.0


def full_graph_push(graph, source, params):
    """The pop/push loop over the prebuilt graph. A push reads only the
    pushing account's own edges, so a trace that fetches one account at a
    time must match it bit for bit."""
    rank, ledger = seeded_trace(source)
    while (node := pop(ledger, params.epsilon)) is not None:
        local_push(node, graph, params, rank, ledger)
    return rank, ledger.dropped


def test_expansion_equals_full_graph_push():
    params = TraceParams(epsilon=1e-4)
    for seed in range(60):
        g = build_graph(multihop_swap_rows(seed))
        source = sorted(g.nodes)[0]
        rank, dropped = full_graph_push(g, source, params)
        result = run_expansion(source, GraphProvider(g), params)
        assert result.rank == rank, seed
        assert result.dropped_mass == dropped, seed


def test_self_transfer_counted_once():
    g = build_graph([
        ("a", "u", 5.0, 1, "T", "h1"),
        ("u", "u", 5.0, 2, "T", "h2"),
        ("u", "b", 5.0, 3, "T", "h3"),
    ])
    assert len(GraphProvider(g).fetch_edges("u")) == 3
    params = TraceParams(epsilon=1e-4)
    result = run_expansion("a", GraphProvider(g), params)
    assert len(result.subgraph.edges) == 3
    assert result.rank == full_graph_push(g, "a", params)[0]


def test_ranked_nodes_in_subgraph():
    for seed in range(5):
        g = random_txgraph(seed, n_nodes=30, n_edges=90, swap_rate=0.3)
        source = sorted(g.nodes)[0]
        result = run_expansion(source, GraphProvider(g), TraceParams())
        assert set(result.rank) <= result.subgraph.nodes


def random_increasing_dag(seed, n_nodes=15, n_edges=30):
    """Single-token DAG whose edge timestamps strictly increase along
    every directed path (edge time keyed to its source's rank)."""
    import random as _random
    rng = _random.Random(seed)
    rows = []
    for k in range(n_edges):
        i = rng.randrange(n_nodes - 1)
        j = rng.randrange(i + 1, n_nodes)
        rows.append((f"d{i:02d}", f"d{j:02d}", rng.uniform(1.0, 50.0),
                     10 * i + 5, "T", f"h{k}"))
    return build_graph(rows)


def test_beta_one_dag_matches_forward_oracle():
    from oracle import forward_mass_limit
    for seed in range(8):
        g = random_increasing_dag(seed)
        if "d00" not in g.nodes:
            continue
        params = TraceParams(alpha=0.15, beta=1.0, epsilon=1e-10)
        result = run_expansion("d00", GraphProvider(g), params)
        want = forward_mass_limit(g.edges, "d00", 0.15)
        for node in set(want) | set(result.rank):
            assert result.rank.get(node, 0.0) == pytest.approx(
                want.get(node, 0.0), abs=1e-7)


def assert_certificate(graph, source, params):
    """The error certificate against the fixed-point oracle: with p the
    traced rank and r the residual left in the ledger, every account's
    exact score lies in [p(u), p(u) + r], and sum(pi) - sum(p) <= r."""
    result = run_expansion(source, GraphProvider(graph), params)
    pi = fixed_point(graph.edges, source, params.alpha, params.beta)
    p, r = result.rank, result.ledger.total()
    for u in set(pi) | set(p):
        assert p.get(u, 0.0) <= pi.get(u, 0.0) + 1e-12, u
        assert pi.get(u, 0.0) <= p.get(u, 0.0) + r + 1e-12, u
    assert sum(pi.values()) - sum(p.values()) <= r + 1e-12
    return r


@pytest.mark.parametrize("beta", [0.3, 0.7, 1.0])
def test_certificate_on_random_and_multihop_graphs(beta):
    params = TraceParams(beta=beta)
    for seed in range(6):
        source = random_path_seed(seed)
        assert_certificate(random_txgraph(seed, swap_rate=0.3), source,
                           params)
        assert_certificate(build_graph(multihop_swap_rows(seed)), source,
                           params)


@pytest.mark.parametrize("k", [1, 4, 10])
def test_certificate_on_swap_bot_chain(k):
    graph, _ = swap_bot_chain(k)
    assert_certificate(graph, "src", TraceParams())


@pytest.mark.parametrize("i", [0, 1])
def test_certificate_on_criterion_7_cases(i):
    # The specs of the acceptance suite's first two planted cases.
    case = generate_planted_case(CaseSpec(
        seed=100 + i, layers=4 + i % 3, fan_out=3, swap_hop_probability=0.5,
        noise_rate=2.0, hub_count=2, hub_spokes=150))
    assert_certificate(case.graph, case.source, TraceParams())


@pytest.mark.parametrize("budget", [5, 20])
def test_certificate_on_budget_stopped_traces(budget):
    stopped = 0
    for seed in range(4):
        r = assert_certificate(random_txgraph(seed, swap_rate=0.3),
                               random_path_seed(seed),
                               TraceParams(budget=budget))
        stopped += r > 0.1
    assert stopped  # the bound is checked where much mass is left


POP_BOUND_SCRIPT = """
import sys
import fundtrace.expansion as expansion
from fundtrace.providers import GraphProvider
from fundtrace.graph import TransactionGraph
from fundtrace.ttr import TraceParams
if __debug__:
    sys.exit("asserts are on: run this under python -O")
# A push that never drains the residual pops the source forever.
expansion.local_push = lambda *args, **kwargs: None
expansion.run_expansion("s", GraphProvider(TransactionGraph([])),
                        TraceParams(epsilon=0.1))
"""


def test_pop_bound_enforced_under_optimize():
    import subprocess
    import sys
    from pathlib import Path

    import fundtrace
    src = str(Path(fundtrace.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", POP_BOUND_SCRIPT],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeError: pop count 68 exceeded 1/(eps*alpha) bound 67" in proc.stderr


MASS_CHECK_SCRIPT = """
import sys
from fundtrace import expansion
from fundtrace.providers import GraphProvider
from fundtrace.graph import TransactionGraph, TransferEdge
from fundtrace.ttr import TraceParams
if __debug__:
    sys.exit("asserts are on: run this under python -O")
push = expansion.local_push

def leaky_push(node, graph, params, rank, ledger):
    push(node, graph, params, rank, ledger)
    # Mass that no push made, below epsilon so that it is never popped.
    ledger.add("elsewhere", 1, "T", 1e-6)

expansion.local_push = leaky_push
graph = TransactionGraph([TransferEdge("s", "v", 1.0, 1, "T", "h1")])
expansion.run_expansion("s", GraphProvider(graph), TraceParams())
"""


def test_mass_identity_enforced_under_optimize():
    import subprocess
    import sys
    from pathlib import Path

    import fundtrace
    src = str(Path(fundtrace.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", MASS_CHECK_SCRIPT],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeError: mass identity off by" in proc.stderr
