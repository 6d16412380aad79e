import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FIG_SWAP_ROWS, build_graph, random_txgraph, residuals,
                      seeded_trace, swap_bot_chain)
from fundtrace.community import extract_community
from fundtrace.graph import Pattern
from fundtrace.expansion import run_expansion
from fundtrace.providers import GraphProvider
from fundtrace.ttr import (ANY_TOKEN, SEED_TS, ResidualLedger, TraceParams,
                           local_push, redirect_set)
from oracle import naive_push_once, naive_redirect


def total_mass(rank, ledger):
    return sum(rank.values()) + ledger.total()


def test_params_defaults_and_validation():
    p = TraceParams()
    assert (p.alpha, p.beta, p.epsilon, p.phi) == (0.15, 0.7, 1e-3, 1e-3)
    assert (p.budget, p.hub_cap) == (None, None)
    p.validate()
    TraceParams(budget=1, hub_cap=1).validate()
    with pytest.raises(ValueError):
        TraceParams(alpha=0.0).validate()
    with pytest.raises(ValueError):
        TraceParams(beta=1.5).validate()
    with pytest.raises(ValueError):
        TraceParams(epsilon=1.0).validate()
    g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
    for phi in (0.0, math.nan):
        with pytest.raises(ValueError, match="^phi must be > 0"):
            TraceParams(phi=phi).validate()
        with pytest.raises(ValueError, match="^phi must be > 0"):
            extract_community(g, {"a": 1.0}, "a", phi)
    provider = GraphProvider(g)
    for field, value in (("budget", 0), ("budget", -1), ("budget", -3),
                         ("hub_cap", 0), ("hub_cap", -1)):
        params = TraceParams(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            params.validate()
        # The library refuses what the CLI refuses, before any fetch.
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            run_expansion("a", provider, params)


def test_init_trace():
    rank, ledger = seeded_trace("a")
    assert rank == {}
    assert list(ledger.items()) == [("a", SEED_TS, ANY_TOKEN, 1.0)]
    assert abs(total_mass(rank, ledger) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        run_expansion("a", GraphProvider(build_graph([])),
                      TraceParams(alpha=0.0))
    with pytest.raises(ValueError, match="budget must be >= 1"):
        run_expansion("a", GraphProvider(build_graph([])),
                      TraceParams(budget=0))


def test_init_traces_independent():
    _, l1 = seeded_trace("a")
    _, l2 = seeded_trace("b")
    assert l1.node_total("a") == 1.0
    assert l2.node_total("a") == 0.0


def test_node_total():
    rank, ledger = seeded_trace("s")
    assert ledger.node_total("s") == 1.0
    assert ledger.node_total("absent") == 0.0


def test_single_edge_hand_computation():
    g = build_graph([("s", "v", 10.0, 1, "T", "h1")])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank, ledger = seeded_trace("s")
    local_push("s", g, params, rank, ledger)
    assert rank["s"] == pytest.approx(0.15, abs=1e-12)
    assert residuals(ledger, "v") == pytest.approx({(1, "T"): 0.595})
    assert residuals(ledger, "s") == pytest.approx({(SEED_TS, ANY_TOKEN): 0.255})
    assert total_mass(rank, ledger) == pytest.approx(1.0, abs=1e-12)


def test_single_edge_matches_naive_simulator():
    g = build_graph([("s", "v", 10.0, 1, "T", "h1")])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank, ledger = seeded_trace("s")
    local_push("s", g, params, rank, ledger)

    o_rank, o_res = {}, {("s", SEED_TS, ANY_TOKEN): 1.0}
    naive_push_once(g.edges, "s", 0.15, 0.7, o_rank, o_res)
    assert o_rank == pytest.approx(rank)
    got = {(n, t, b): v for n, t, b, v in ledger.items()}
    assert o_res == pytest.approx(got)


def test_weighted_pollution_splits_by_amount():
    g = build_graph([
        ("s", "a", 30.0, 5, "T", "h1"),
        ("s", "b", 10.0, 6, "T", "h2"),
    ])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank, ledger = seeded_trace("s")
    local_push("s", g, params, rank, ledger)
    assert ledger.node_total("a") == pytest.approx(3 * ledger.node_total("b"))


def test_temporal_guard_self_accumulates():
    # the only outgoing edge precedes the residual's timestamp
    g = build_graph([
        ("a", "u", 10.0, 2, "T", "h1"),
        ("u", "b", 10.0, 3, "T", "h2"),
    ])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank = {}
    ledger = ResidualLedger()
    ledger.add("u", 5, "T", 1.0)
    local_push("u", g, params, rank, ledger)
    # beta share returns to the same key; the in-direction share flows back
    assert residuals(ledger, "u")[(5, "T")] == pytest.approx(0.85 * 0.7)
    assert ledger.node_total("a") == pytest.approx(0.85 * 0.3)


def test_zero_residual_push_is_noop():
    g = build_graph([("s", "v", 1.0, 1, "T", "h1")])
    params = TraceParams()
    rank, ledger = seeded_trace("s")
    local_push("v", g, params, rank, ledger)
    assert rank == {}
    assert ledger.node_total("s") == 1.0


def test_zero_amount_edges_split_equally():
    g = build_graph([
        ("s", "a", 0.0, 5, "T", "h1"),
        ("s", "b", 0.0, 6, "T", "h2"),
    ])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank, ledger = seeded_trace("s")
    local_push("s", g, params, rank, ledger)
    assert ledger.node_total("a") == pytest.approx(ledger.node_total("b"))
    assert total_mass(rank, ledger) == pytest.approx(1.0, abs=1e-12)


def test_redirect_xfer_maps_to_itself(swap_redirect_graph):
    edge = swap_redirect_graph.out_edges("a")[0]
    assert redirect_set(edge, swap_redirect_graph, "a", "out") == [edge]


def test_redirect_swap_fixture(swap_redirect_graph):
    g = swap_redirect_graph
    swap_out = [e for e in g.out_edges("u") if e.hash == "h2"][0]
    routed = redirect_set(swap_out, g, "u", "out")
    assert sorted(e.hash for e in routed) == ["h3", "h4"]
    assert all(e.hash != "h2" for e in routed)


def test_redirect_incoming_swap_leg(swap_redirect_graph):
    g = swap_redirect_graph
    swap_in = [e for e in g.edges_before("u", math.inf) if e.hash == "h2"][0]
    routed = redirect_set(swap_in, g, "u", "in")
    assert [e.hash for e in routed] == ["h1"]


def test_redirect_dead_end_swap_drops_mass():
    g = build_graph([
        ("a", "u", 100.0, 10, "USDC", "h1"),
        ("u", "dex", 100.0, 20, "USDC", "h2"),
        ("dex", "u", 0.05, 20, "ETH", "h2"),
        # no later ETH spend from u
    ])
    swap_out = [e for e in g.out_edges("u") if e.hash == "h2"][0]
    assert redirect_set(swap_out, g, "u", "out") == []
    params = TraceParams(alpha=0.15, beta=0.7)
    rank = {}
    ledger = ResidualLedger()
    ledger.add("u", 10, "USDC", 1.0)
    local_push("u", g, params, rank, ledger)
    assert ledger.dropped == pytest.approx(0.85 * 0.7)
    assert total_mass(rank, ledger) + ledger.dropped == pytest.approx(1.0)


def test_redirect_terminates_on_swap_cycle():
    # two swap groups at the same timestamp redirect to each other forever
    g = build_graph([
        ("u", "d1", 10.0, 10, "A", "h1"),
        ("d1", "u", 10.0, 10, "B", "h1"),
        ("u", "d2", 10.0, 10, "B", "h2"),
        ("d2", "u", 10.0, 10, "A", "h2"),
    ])
    swap = [e for e in g.out_edges("u") if e.hash == "h1"][0]
    routed = redirect_set(swap, g, "u", "out")
    # h1 -> h2 -> back to h1, which the visited guard keeps as terminal
    assert [e.hash for e in routed] == ["h1"]


def test_redirect_matches_naive_on_random_swap_graphs():
    for seed in range(20):
        g = random_txgraph(seed, n_nodes=10, n_edges=40, swap_rate=0.4)
        for u in sorted(g.nodes):
            for direction, edges in (("out", g.out_edges(u)),
                                     ("in", g.edges_before(u, math.inf))):
                for e in edges:
                    first = redirect_set(e, g, u, direction)
                    got = {id(x) for x in first}
                    want = {id(x) for x in naive_redirect(e, g.edges, direction)}
                    assert got == want
                    # the memoised answer repeats the first, in order
                    assert redirect_set(e, g, u, direction) == first


def test_redirect_swap_chain_costs_one_lookup_per_leg(monkeypatch):
    k = 40
    g, swap = swap_bot_chain(k)
    calls = []
    edges_after = g.edges_after
    monkeypatch.setattr(g, "edges_after",
                        lambda *args: calls.append(args) or edges_after(*args))
    start = time.perf_counter()
    routed = redirect_set(swap, g, "bot", "out")
    elapsed = time.perf_counter() - start
    assert [e.hash for e in routed] == ["o0", "o1", "o2"]
    assert len(calls) <= k + 1
    assert elapsed < 0.05


def test_redirect_long_swap_chain_needs_no_recursion():
    g, swap = swap_bot_chain(2_000)
    routed = redirect_set(swap, g, "bot", "out")
    # far past any recursion limit, and the chain's real continuation
    assert [e.hash for e in routed] == ["o0", "o1", "o2"]


@given(seed=st.integers(0, 300), steps=st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_push_invariants_random_graphs(seed, steps):
    g = random_txgraph(seed, n_nodes=15, n_edges=50, swap_rate=0.3)
    params = TraceParams(alpha=0.15, beta=0.7, epsilon=1e-6)
    source = sorted(g.nodes)[0]
    rank, ledger = seeded_trace(source)
    prev_rank: dict = {}
    prev_total = 1.0
    for _ in range(steps):
        best = ledger.max_node()
        if best is None or best[1] < params.epsilon:
            break
        local_push(best[0], g, params, rank, ledger)
        # non-negativity
        assert all(v >= 0.0 for v in rank.values())
        assert all(v >= 0.0 for _, _, _, v in ledger.items())
        # monotone rank
        for node, v in prev_rank.items():
            assert rank[node] >= v - 1e-15
        prev_rank = dict(rank)
        # mass never increases; conserved up to the dropped tally
        total = total_mass(rank, ledger)
        assert total <= prev_total + 1e-9
        prev_total = total
        assert total + ledger.dropped == pytest.approx(1.0, abs=1e-9)


def test_push_matches_naive_on_random_graphs():
    for seed in range(10):
        g = random_txgraph(seed, n_nodes=12, n_edges=40, swap_rate=0.3)
        params = TraceParams(alpha=0.15, beta=0.7, epsilon=1e-6)
        source = sorted(g.nodes)[0]
        rank, ledger = seeded_trace(source)
        o_rank, o_res = {}, {(source, SEED_TS, ANY_TOKEN): 1.0}
        for _ in range(8):
            best = ledger.max_node()
            if best is None or best[1] < params.epsilon:
                break
            local_push(best[0], g, params, rank, ledger)
            naive_push_once(g.edges, best[0], params.alpha, params.beta,
                            o_rank, o_res)
            got = {(n, t, b): v for n, t, b, v in ledger.items()}
            assert got == pytest.approx(o_res, rel=0, abs=1e-12)
            assert rank == pytest.approx(o_rank, rel=0, abs=1e-12)


# Around u: several residual entries per token, zero-amount edges inside
# windows, in- and out-edges interleaved in time, a token whose later
# edges all carry zero, and a swap whose continuation is a later S leg.
SWEEP_ROWS = [
    ("a", "u", 5.0, 1, "T", "i1"),
    ("u", "x", 4.0, 2, "T", "o1"),
    ("e", "u", 3.0, 2, "S", "i2"),
    ("b", "u", 0.0, 3, "T", "i3"),
    ("u", "y", 0.0, 4, "T", "o2"),
    ("u", "f", 0.0, 5, "S", "o3"),
    ("c", "u", 2.0, 6, "T", "i4"),
    ("u", "g", 0.0, 6, "S", "o4"),
    ("u", "z", 1.0, 7, "T", "o5"),
    ("d", "u", 0.0, 8, "T", "i5"),
    ("u", "w", 0.0, 9, "T", "o6"),
    ("u", "v", 0.0, 10, "T", "o7"),
    ("u", "dex", 6.0, 11, "T", "sw"),
    ("dex", "u", 2.5, 11, "S", "sw"),
    ("u", "h", 1.5, 12, "S", "o8"),
    ("u", "k", 0.0, 13, "S", "o9"),
    ("u", "m", 0.0, 14, "S", "o10"),
    ("x", "u", 1.0, 15, "T", "i6"),
]
SWEEP_ENTRIES = [(SEED_TS, ANY_TOKEN, 0.2), (0, "T", 0.05), (2, "T", 0.1),
                 (3, "T", 0.07), (6, "T", 0.11), (8, "T", 0.09),
                 (9, "T", 0.06), (12, "T", 0.04), (16, "T", 0.03),
                 (1, "S", 0.08), (5, "S", 0.1), (12, "S", 0.07)]


@pytest.mark.parametrize("beta", [0.7, 1.0, 0.0])
def test_sweep_matches_naive_with_many_entries_per_token(beta):
    g = build_graph(SWEEP_ROWS)
    params = TraceParams(alpha=0.15, beta=beta)
    rank, ledger = {}, ResidualLedger()
    o_rank, o_res = {}, {}
    for ts, token, value in SWEEP_ENTRIES:
        ledger.add("u", ts, token, value)
        o_res[("u", ts, token)] = value
    o_dropped = 0.0
    for node in ("u", "x", "u", "a", "h", "u"):
        local_push(node, g, params, rank, ledger)
        o_dropped += naive_push_once(g.edges, node, params.alpha, params.beta,
                                     o_rank, o_res)
        got = {(n, t, b): v for n, t, b, v in ledger.items()}
        # The oracle keeps zero legs, and zero rank for an empty push.
        want = {key: v for key, v in o_res.items() if v}
        assert got == pytest.approx(want, rel=0, abs=1e-12)
        want_rank = {n: v for n, v in o_rank.items() if v}
        assert rank == pytest.approx(want_rank, rel=0, abs=1e-12)
        assert ledger.dropped == pytest.approx(o_dropped, rel=0, abs=1e-12)
    assert total_mass(rank, ledger) + ledger.dropped == pytest.approx(
        1.0, abs=1e-12)


class CountingLedger(ResidualLedger):
    def __init__(self):
        super().__init__()
        self.adds = 0

    def add(self, node, ts, token, value):
        self.adds += 1
        super().add(node, ts, token, value)


def test_interleaved_hub_push_is_linear():
    # src pays the hub d times; the hub pays out between every two
    # payments, so each payment's window holds the payouts after it.
    d = 10_000
    rows = []
    for i in range(d):
        rows.append(("src", "hub", 1.0 + i % 7, 2 * i, "T", f"in{i}"))
        rows.append(("hub", f"out{i % 100}", 1.0 + i % 5, 2 * i + 1, "T",
                     f"out{i}"))
    g = build_graph(rows)
    params = TraceParams()
    rank, ledger = {}, CountingLedger()
    ledger.add("src", SEED_TS, ANY_TOKEN, 1.0)
    ledger.adds = 0
    start = time.perf_counter()
    local_push("src", g, params, rank, ledger)
    assert len(residuals(ledger, "hub")) == d
    local_push("hub", g, params, rank, ledger)
    elapsed = time.perf_counter() - start
    assert ledger.adds <= 4 * d
    assert elapsed < 1.0
    assert ledger.dropped == 0.0
    assert total_mass(rank, ledger) == pytest.approx(1.0, abs=1e-9)


def test_direction_attention_ratio():
    # equal-amount in and out edges around u: out residual / in residual
    # must equal beta/(1-beta)
    g = build_graph([
        ("a", "u", 10.0, 5, "T", "h1"),
        ("u", "b", 10.0, 15, "T", "h2"),
    ])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank = {}
    ledger = ResidualLedger()
    ledger.add("u", 10, "T", 1.0)
    local_push("u", g, params, rank, ledger)
    ratio = ledger.node_total("b") / ledger.node_total("a")
    assert ratio == pytest.approx(0.7 / 0.3)


def test_seed_key_only_pushes_outgoing():
    g = build_graph([
        ("a", "s", 10.0, 5, "T", "h1"),
        ("s", "b", 10.0, 15, "T", "h2"),
    ])
    params = TraceParams(alpha=0.15, beta=0.7)
    rank, ledger = seeded_trace("s")
    local_push("s", g, params, rank, ledger)
    # incoming edge gets nothing from the seed key; the (1-beta) share
    # self-returns on the sentinel
    assert ledger.node_total("a") == 0.0
    assert residuals(ledger, "s")[(SEED_TS, ANY_TOKEN)] == pytest.approx(0.255)


def test_ledger_drops_zero_entries():
    ledger = ResidualLedger()
    ledger.add("a", 1, "T", 0.0)
    assert len(list(ledger.items())) == 0
    with pytest.raises(ValueError):
        ledger.add("a", 1, "T", -0.1)


def test_ledger_max_node_tie_break():
    for order in (("a", "b"), ("b", "a")):
        ledger = ResidualLedger()
        for node in order:
            ledger.add(node, 1, "T", 0.3)
        assert ledger.max_node() == ("a", 0.3)
