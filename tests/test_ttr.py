import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG_SWAP_ROWS, build_graph, random_txgraph, seeded_trace
from fundtrace.graph import Pattern
from fundtrace.expansion import TERM_BUDGET, run_expansion
from fundtrace.providers import GraphProvider
from fundtrace.ttr import (ANY_TOKEN, SEED_TS, PushStats, ResidualLedger,
                           TraceParams, local_push, redirect_set)
from oracle import naive_push_once, naive_redirect


def total_mass(rank, ledger):
    return sum(rank.values()) + ledger.total()


def test_params_defaults_and_validation():
    p = TraceParams()
    assert (p.alpha, p.beta, p.epsilon, p.phi) == (0.15, 0.7, 1e-3, 1e-3)
    p.validate()
    with pytest.raises(ValueError):
        TraceParams(alpha=0.0).validate()
    with pytest.raises(ValueError):
        TraceParams(beta=1.5).validate()
    with pytest.raises(ValueError):
        TraceParams(epsilon=1.0).validate()
    with pytest.raises(ValueError):
        TraceParams(phi=0.0).validate()


def start_trace(source):
    """A trace stopped before its first pop: only the seed is in place."""
    provider = GraphProvider(build_graph([("a", "b", 1.0, 1, "T", "h1")]))
    result = run_expansion(source, provider, TraceParams(), max_iterations=0)
    assert result.termination == TERM_BUDGET
    return result.rank, result.ledger


def test_init_trace():
    rank, ledger = start_trace("a")
    assert rank == {}
    assert list(ledger.items()) == [("a", SEED_TS, ANY_TOKEN, 1.0)]
    assert abs(total_mass(rank, ledger) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        run_expansion("a", GraphProvider(build_graph([])),
                      TraceParams(alpha=0.0))


def test_init_traces_independent():
    _, l1 = start_trace("a")
    _, l2 = start_trace("b")
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
    assert ledger.node_entries("v") == pytest.approx({(1, "T"): 0.595})
    assert ledger.node_entries("s") == pytest.approx({(SEED_TS, ANY_TOKEN): 0.255})
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
    assert ledger.node_entries("u")[(5, "T")] == pytest.approx(0.85 * 0.7)
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
    swap_in = [e for e in g.in_edges("u") if e.hash == "h2"][0]
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
    stats = PushStats()
    local_push("u", g, params, rank, ledger, stats)
    assert stats.dropped_mass == pytest.approx(0.85 * 0.7)
    assert total_mass(rank, ledger) + stats.dropped_mass == pytest.approx(1.0)


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
                                     ("in", g.in_edges(u))):
                for e in edges:
                    got = {id(x) for x in redirect_set(e, g, u, direction)}
                    want = {id(x) for x in naive_redirect(e, g.edges, direction)}
                    assert got == want


@given(seed=st.integers(0, 300), steps=st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_push_invariants_random_graphs(seed, steps):
    g = random_txgraph(seed, n_nodes=15, n_edges=50, swap_rate=0.3)
    params = TraceParams(alpha=0.15, beta=0.7, epsilon=1e-6)
    source = sorted(g.nodes)[0]
    rank, ledger = seeded_trace(source)
    stats = PushStats()
    prev_rank: dict = {}
    prev_total = 1.0
    for _ in range(steps):
        best = ledger.max_node()
        if best is None or best[1] < params.epsilon:
            break
        local_push(best[0], g, params, rank, ledger, stats)
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
        assert total + stats.dropped_mass == pytest.approx(1.0, abs=1e-9)


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
            assert got == pytest.approx(o_res, abs=1e-12)
            assert rank == pytest.approx(o_rank, abs=1e-12)


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
    assert ledger.node_entries("s")[(SEED_TS, ANY_TOKEN)] == pytest.approx(0.255)


def test_ledger_drops_zero_entries():
    ledger = ResidualLedger()
    ledger.add("a", 1, "T", 0.0)
    assert len(ledger) == 0
    with pytest.raises(ValueError):
        ledger.add("a", 1, "T", -0.1)


def test_ledger_max_node_tie_break():
    for order in (("a", "b"), ("b", "a")):
        ledger = ResidualLedger()
        for node in order:
            ledger.add(node, 1, "T", 0.3)
        assert ledger.max_node() == ("a", 0.3)
