import math
import random

import pytest

from conftest import build_graph, random_txgraph
from fundtrace.baselines import (appr_rank, bfs_trace, exact_ppr,
                                 haircut_trace, poison_trace)
from oracle import exact_ppr_dense


def chain(*names, start_ts=1):
    rows = []
    for i in range(len(names) - 1):
        rows.append((names[i], names[i + 1], 10.0, start_ts + i, "T", f"h{i}"))
    return build_graph(rows)


class TestBfs:
    def test_depth_zero(self):
        g = chain("s", "a", "b")
        sub = bfs_trace(g, "s", 0)
        assert sub.nodes == {"s"}

    def test_hop_cutoff(self):
        g = chain("s", "a", "b", "c")
        sub = bfs_trace(g, "s", 2)
        assert sub.nodes == {"s", "a", "b"}

    def test_default_depth_two(self):
        g = chain("s", "a", "b", "c")
        assert bfs_trace(g, "s").nodes == {"s", "a", "b"}

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            bfs_trace(chain("s", "a"), "s", -1)


class TestPoison:
    def test_chain_tainted(self):
        g = chain("s", "a", "b")
        res = poison_trace(g, "s", 2)
        assert set(res.taint) == {"s", "a", "b"}

    def test_temporal_guard(self):
        g = build_graph([
            ("s", "a", 1.0, 10, "T", "h1"),
            ("a", "c", 1.0, 5, "T", "h2"),  # dated before a got dirty
        ])
        res = poison_trace(g, "s", 2)
        assert "c" not in res.taint

    def test_diamond_counted_once(self):
        g = build_graph([
            ("s", "a", 1.0, 1, "T", "h1"),
            ("s", "b", 1.0, 2, "T", "h2"),
            ("a", "c", 1.0, 3, "T", "h3"),
            ("b", "c", 1.0, 4, "T", "h4"),
        ])
        res = poison_trace(g, "s", 2)
        assert set(res.taint) == {"s", "a", "b", "c"}
        assert len(res.subgraph.nodes) == 4

    def test_edges_not_repeated(self):
        # A node relaxed under several (hops, time) labels rescans its
        # out-edges; each edge must still appear once.
        for seed in range(6):
            g = random_txgraph(seed, n_nodes=60, n_edges=300)
            res = poison_trace(g, sorted(g.nodes)[0], 3)
            ids = [id(e) for e in res.subgraph.edges]
            assert len(ids) == len(set(ids)), seed

    def test_monotone_in_depth(self):
        for seed in range(10):
            g = random_txgraph(seed, n_nodes=20, n_edges=60)
            source = sorted(g.nodes)[0]
            prev = set()
            for depth in range(4):
                cur = set(poison_trace(g, source, depth).taint)
                assert prev <= cur
                prev = cur


class TestHaircut:
    def test_proportional_split(self):
        g = build_graph([
            ("s", "a", 60.0, 1, "T", "h1"),
            ("s", "b", 40.0, 2, "T", "h2"),
        ])
        res = haircut_trace(g, "s")
        assert res.taint["a"] == pytest.approx(60.0)
        assert res.taint["b"] == pytest.approx(40.0)

    def test_geometric_decay_stops_at_cutoff(self):
        # each hop forwards half onward, half to a sink
        rows = []
        for k in range(11):
            rows.append((f"c{k}", f"c{k + 1}", 50.0 / 2 ** k, 1 + 2 * k, "T",
                         f"m{k}"))
            rows.append((f"c{k}", f"sink{k}", 50.0 / 2 ** k, 2 + 2 * k, "T",
                         f"s{k}"))
        g = build_graph(rows)
        res = haircut_trace(g, "c0", cutoff_fraction=0.001)
        # source dirty value 100; chain value 100/2^k; floor 0.1
        assert res.taint["c0"] == pytest.approx(100.0)
        for k in range(1, 10):
            assert res.taint[f"c{k}"] == pytest.approx(100.0 / 2 ** k)
        assert "c11" not in res.taint  # 100/2^11 < 0.1

    def test_cutoff_one_keeps_only_source(self):
        g = build_graph([
            ("s", "a", 60.0, 1, "T", "h1"),
            ("s", "b", 40.0, 2, "T", "h2"),
        ])
        res = haircut_trace(g, "s", cutoff_fraction=1.0)
        assert set(res.taint) == {"s"}

    def test_resting_mass_never_increases(self):
        for seed in range(10):
            g = random_txgraph(seed, n_nodes=20, n_edges=60)
            source = sorted(g.nodes)[0]
            res = haircut_trace(g, source)
            initial = sum(e.amount for e in g.out_edges(source))
            assert sum(res.held.values()) <= initial + 1e-9
            assert all(v >= -1e-9 for v in res.held.values())

    def test_edges_not_repeated(self):
        for seed in range(6):
            g = random_txgraph(seed, n_nodes=60, n_edges=300)
            res = haircut_trace(g, sorted(g.nodes)[0])
            ids = [id(e) for e in res.subgraph.edges]
            assert len(ids) == len(set(ids)), seed

    def test_no_outgoing_value_rests(self):
        g = build_graph([("s", "a", 10.0, 1, "T", "h1")])
        res = haircut_trace(g, "s")
        assert res.taint["a"] == pytest.approx(10.0)


class TestAppr:
    def test_isolated_source_geometric(self):
        g = build_graph([("x", "y", 1.0, 1, "T", "h1")])
        g.nodes.add("s")
        rank, residual = appr_rank(g, "s", alpha=0.15, epsilon=1e-3)
        p, r = 0.0, 1.0
        while r >= 1e-3:
            p += 0.15 * r
            r *= 0.85
        assert rank["s"] == pytest.approx(p)
        assert residual["s"] == pytest.approx(r)

    def test_two_node_cycle(self):
        g = build_graph([
            ("a", "b", 1.0, 1, "T", "h1"),
            ("b", "a", 1.0, 2, "T", "h2"),
        ])
        rank, _ = appr_rank(g, "a", alpha=0.5, epsilon=1e-9)
        assert rank["a"] == pytest.approx(2 / 3, abs=2e-9 * 2)
        assert rank["b"] == pytest.approx(1 / 3, abs=2e-9 * 2)

    def test_residuals_below_epsilon(self):
        for seed in range(10):
            g = random_txgraph(seed, n_nodes=25, n_edges=80)
            source = sorted(g.nodes)[0]
            _, residual = appr_rank(g, source, epsilon=1e-4)
            assert all(v < 1e-4 for v in residual.values())

    def test_linearity_identity_against_dense_solve(self):
        # p_s(v) = phat_s(v) + sum_u r(u) p_u(v), exact for any residual
        rng = random.Random(5)
        graphs = []
        for seed in range(10):
            n = rng.randint(4, 20)
            g = random_txgraph(seed, n_nodes=n, n_edges=3 * n)
            graphs.append((g, sorted(g.nodes)[0]))
        # random_txgraph never draws a self-loop: add one, a doubled
        # edge and a dangling node.
        graphs.append((build_graph([
            ("s", "a", 1.0, 1, "T", "h1"),
            ("s", "a", 1.0, 2, "T", "h2"),
            ("s", "b", 1.0, 3, "T", "h3"),
            ("a", "a", 1.0, 4, "T", "h4"),
            ("a", "s", 1.0, 5, "T", "h5"),
            ("a", "c", 1.0, 6, "T", "h6"),
        ]), "s"))
        for g, source in graphs:
            rank, residual = appr_rank(g, source, alpha=0.15, epsilon=1e-3)
            exact = {u: exact_ppr(g, u, alpha=0.15) for u in
                     set(residual) | {source}}
            p_exact = exact_ppr(g, source, alpha=0.15)
            for v in sorted(g.nodes):
                recon = rank.get(v, 0.0) + sum(
                    r * exact[u].get(v, 0.0) for u, r in residual.items())
                assert recon == pytest.approx(p_exact[v], abs=1e-9)

    def test_upper_bound_by_exact_plus_residual(self):
        g = random_txgraph(3, n_nodes=15, n_edges=50)
        source = sorted(g.nodes)[0]
        rank, residual = appr_rank(g, source, epsilon=1e-3)
        exact = exact_ppr(g, source)
        slack = sum(residual.values())
        for v, val in rank.items():
            assert val <= exact[v] + slack + 1e-12

    def test_rejects_alpha_and_epsilon_outside_unit_interval(self):
        g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
        with pytest.raises(ValueError, match="alpha"):
            appr_rank(g, "a", alpha=1.5)
        with pytest.raises(ValueError, match="epsilon"):
            appr_rank(g, "a", epsilon=1.5)


class TestExactPpr:
    def test_single_self_loop(self):
        g = build_graph([("s", "s", 1.0, 1, "T", "h1")])
        assert exact_ppr(g, "s") == pytest.approx({"s": 1.0})

    def test_sums_to_one(self):
        for seed in range(10):
            g = random_txgraph(seed, n_nodes=15, n_edges=45)
            source = sorted(g.nodes)[0]
            p = exact_ppr(g, source)
            assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_power_iteration_oracle(self):
        for seed in range(5):
            g = random_txgraph(seed, n_nodes=12, n_edges=36)
            source = sorted(g.nodes)[0]
            got = exact_ppr(g, source, alpha=0.15)
            want = exact_ppr_dense(g.edges, g.nodes, source, alpha=0.15)
            for v in g.nodes:
                assert got[v] == pytest.approx(want[v], abs=1e-9)

