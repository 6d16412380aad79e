import logging
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph
from fundtrace.cases import (CaseSpec, case_records, generate_planted_case)
from fundtrace.graph import Pattern, TransactionGraph, parse_records
from fundtrace.metrics import recall, topn_curve, topn_recall, tracing_depth


class TestMetrics:
    def test_recall_ratio(self):
        assert recall({"a", "b", "x"}, {"a", "b", "c", "d"}) == 0.5
        assert recall(set(), {"a"}) == 0.0
        assert recall({"a"}, {"a"}) == 1.0

    def test_recall_empty_targets_errors(self):
        with pytest.raises(ValueError):
            recall({"a"}, set())

    def test_tracing_depth_chain(self):
        g = build_graph([
            ("s", "a", 1.0, 1, "T", "h1"),
            ("a", "b", 1.0, 2, "T", "h2"),
        ])
        assert tracing_depth(g, "s") == 2

    def test_tracing_depth_undirected(self):
        # in-edge counts as a hop even against edge direction
        g = build_graph([("a", "s", 1.0, 1, "T", "h1")])
        assert tracing_depth(g, "s") == 1

    def test_tracing_depth_reports_unreachable(self):
        g = build_graph([
            ("s", "a", 1.0, 1, "T", "h1"),
            ("x", "y", 1.0, 2, "T", "h2"),
        ])
        # x and y are disconnected from s and stay out of the max
        assert tracing_depth(g, "s") == 1

    def test_tracing_depth_missing_source_errors(self):
        g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
        with pytest.raises(ValueError):
            tracing_depth(g, "zzz")

    def test_topn_ties_lexicographic(self):
        rank = {"b": 0.5, "a": 0.5, "c": 0.1}
        assert topn_recall(rank, {"a"}, 1) == 1.0
        assert topn_recall(rank, {"b"}, 1) == 0.0

    def test_topn_invalid_n(self):
        with pytest.raises(ValueError):
            topn_recall({"a": 1.0}, {"a"}, 0)

    @given(st.dictionaries(st.text("abcdef", min_size=1, max_size=4),
                           st.floats(0, 1, allow_nan=False), min_size=1,
                           max_size=20),
           st.sets(st.text("abcdef", min_size=1, max_size=4), min_size=1,
                   max_size=5))
    def test_topn_curve_monotone_nondecreasing(self, rank, targets):
        points = [1, 2, 5, 10, 50]
        curve = topn_curve(rank, targets, points)
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)


class TestPlantedCases:
    def test_seed_determinism_byte_identical(self):
        spec = CaseSpec(seed=9)
        a = generate_planted_case(spec)
        b = generate_planted_case(CaseSpec(seed=9))
        assert case_records(a) == case_records(b)
        assert a.targets == b.targets

    def test_different_seeds_differ(self):
        a = generate_planted_case(CaseSpec(seed=1))
        b = generate_planted_case(CaseSpec(seed=2))
        assert case_records(a) != case_records(b)

    def test_targets_present_at_planted_depth(self):
        # swaps through the shared exchange can shortcut between
        # branches, so the planted layer count is an upper bound
        case = generate_planted_case(CaseSpec(layers=5, seed=3))
        assert case.targets <= case.graph.nodes
        for tgt in case.targets:
            hops = _directed_hops(case.graph, case.source, tgt)
            assert hops is not None and 3 <= hops <= 5

    def test_targets_beyond_default_bfs_horizon(self):
        from fundtrace.baselines import bfs_trace
        case = generate_planted_case(CaseSpec(layers=4, seed=5))
        shallow = bfs_trace(case.graph, case.source, 2).nodes
        assert not (case.targets & shallow)

    def test_swap_probability_one_plants_swaps_on_every_branch(self):
        spec = CaseSpec(layers=5, fan_out=3, swap_hop_probability=1.0,
                        seed=7)
        case = generate_planted_case(spec)
        # every intermediate path node swapped at least once
        intermediates = {u for u in case.graph.nodes
                         if u.startswith("b") and "_n" in u}
        swapped = {e.src for e in case.graph.edges if e.tgt == "dex_0"
                   and case.graph.counter_tokens("dex_0", e)}
        assert intermediates and intermediates <= swapped
        swap_edges = [e for e in case.graph.edges
                      if case.graph.pattern(e) is Pattern.SWAP]
        assert len(swap_edges) >= 2 * len(intermediates)

    def test_swap_probability_zero_plants_none(self):
        case = generate_planted_case(CaseSpec(swap_hop_probability=0.0,
                                              seed=4))
        assert all(case.graph.pattern(e) is not Pattern.SWAP
                   for e in case.graph.edges)

    def test_records_round_trip_through_ingestion(self, caplog):
        caplog.set_level(logging.WARNING, logger="fundtrace")
        case = generate_planted_case(CaseSpec(seed=6))
        graph = TransactionGraph(parse_records(case_records(case), "ETH",
                                               "case records"))
        assert [r for r in caplog.records
                if r.levelno >= logging.WARNING] == []
        assert graph.nodes == case.graph.nodes
        assert len(graph.edges) == len(case.graph.edges)

    def test_hub_spoke_count(self):
        case = generate_planted_case(CaseSpec(hub_count=2, hub_spokes=30,
                                              seed=8))
        g = case.graph
        for hub_i in range(2):
            hub = f"hub_{hub_i}"
            assert len(g.out_edges(hub)) == 30

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            generate_planted_case(CaseSpec(target_count=0))
        with pytest.raises(ValueError):
            generate_planted_case(CaseSpec(fan_out=0))
        with pytest.raises(ValueError, match="^layers must be >= 1$"):
            generate_planted_case(CaseSpec(layers=0))
        # Branch b ends at target b mod target_count: fewer branches than
        # targets would leave targets unplanted.
        with pytest.raises(ValueError,
                           match="^fan_out must be >= target_count$"):
            generate_planted_case(CaseSpec(target_count=5, fan_out=3))
        # target_count is checked first.
        with pytest.raises(ValueError, match="^target_count must be >= 1$"):
            generate_planted_case(CaseSpec(target_count=0, layers=0))
        with pytest.raises(ValueError):
            generate_planted_case(CaseSpec(swap_hop_probability=1.5))
        for noise_rate in (math.inf, math.nan, -3.0):
            with pytest.raises(ValueError, match="noise_rate"):
                generate_planted_case(CaseSpec(noise_rate=noise_rate))
        for name in ("hub_count", "hub_spokes", "peel_length"):
            with pytest.raises(ValueError, match=name):
                generate_planted_case(CaseSpec(**{name: -2}))

    def test_spec_json_round_trip(self):
        spec = CaseSpec(layers=6, seed=42, hub_spokes=150)
        assert CaseSpec.from_json(spec.to_json()) == spec


def _directed_hops(graph, source, target):
    from collections import deque
    dist = {source: 0}
    dq = deque([source])
    while dq:
        u = dq.popleft()
        if u == target:
            return dist[u]
        for e in graph.out_edges(u):
            if e.tgt not in dist:
                dist[e.tgt] = dist[u] + 1
                dq.append(e.tgt)
    return None
