import pytest

from conftest import build_graph, multihop_swap_rows, random_txgraph
from fundtrace.community import (boundary, conductance, extract_community,
                                 induced_subgraph)
from fundtrace.expansion import run_expansion
from fundtrace.providers import GraphProvider
from fundtrace.runner import RunConfig, run_method
from fundtrace.ttr import TraceParams


def two_node_fixture():
    g = build_graph([("s", "v", 1.0, 1, "T", "h1")])
    return g, {"s": 0.6, "v": 0.3}


def test_conductance_two_node_fixture():
    g, rank = two_node_fixture()
    assert conductance({"s"}, g, rank) == pytest.approx(0.5)


def test_conductance_whole_graph_zero():
    g, rank = two_node_fixture()
    assert conductance({"s", "v"}, g, rank) == 0.0


def test_conductance_no_out_edges_zero():
    g = build_graph([("a", "s", 1.0, 1, "T", "h1")])
    assert conductance({"s"}, g, {"s": 0.5, "a": 0.1}) == 0.0


def test_conductance_zero_mass_errors():
    g, _ = two_node_fixture()
    with pytest.raises(ValueError):
        conductance({"s"}, g, {})
    with pytest.raises(ValueError):
        conductance(set(), g, {"s": 1.0})


def test_extract_stops_immediately_when_under_phi():
    g, rank = two_node_fixture()
    comm = extract_community(g, rank, "s", phi=0.6)
    assert comm.members == ["s"]
    assert comm.converged


def test_extract_one_sweep_step():
    g, rank = two_node_fixture()
    comm = extract_community(g, rank, "s", phi=0.4)
    assert comm.members == ["s", "v"]
    assert comm.conductance == 0.0
    assert comm.converged


def test_star_full_absorption():
    g = build_graph([
        ("s", "a", 1.0, 1, "T", "h1"),
        ("s", "b", 1.0, 2, "T", "h2"),
        ("s", "c", 1.0, 3, "T", "h3"),
    ])
    rank = {"s": 0.4, "a": 0.2, "b": 0.2, "c": 0.2}
    comm = extract_community(g, rank, "s", phi=1e-9)
    assert set(comm.members) == {"s", "a", "b", "c"}
    assert comm.conductance == 0.0
    assert comm.converged


def test_source_absent_errors():
    g, rank = two_node_fixture()
    with pytest.raises(ValueError):
        extract_community(g, rank, "nope", phi=0.5)


def test_phi_out_of_range_names_the_value():
    g, rank = two_node_fixture()
    with pytest.raises(ValueError, match=r"^phi must be > 0, got 0\.0$"):
        extract_community(g, rank, "s", phi=0.0)


def test_source_of_zero_rank_errors():
    g, _ = two_node_fixture()
    for rank in ({"v": 0.3}, {"s": 0.0, "v": 0.3}):
        with pytest.raises(ValueError, match="^source has zero rank$"):
            extract_community(g, rank, "s", phi=0.5)


def test_sweep_order_non_increasing_rank():
    g = random_txgraph(11, n_nodes=30, n_edges=120)
    source = sorted(g.nodes)[0]
    result = run_expansion(source, GraphProvider(g), TraceParams())
    comm = extract_community(result.subgraph, result.rank, source, 1e-3)
    ranks = [result.rank.get(u, 0.0) for u in comm.members[1:]]
    assert ranks == sorted(ranks, reverse=True)


def test_incremental_matches_from_scratch_each_step():
    for seed in range(6):
        g = random_txgraph(seed, n_nodes=25, n_edges=100, swap_rate=0.2)
        source = sorted(g.nodes)[0]
        result = run_expansion(source, GraphProvider(g), TraceParams())
        sub, rank = result.subgraph, result.rank
        comm = extract_community(sub, rank, source, phi=1e-3)
        members = set()
        for node, phi_inc in zip(comm.members, comm.sweep_conductances):
            members.add(node)
            scratch = conductance(members, sub, rank)
            assert scratch == pytest.approx(phi_inc, abs=1e-9)
        assert comm.sweep_conductances[-1] == pytest.approx(comm.conductance)
        if comm.converged:
            assert comm.conductance < 1e-3


def test_threshold_honored_or_flagged():
    for seed in range(8):
        g = random_txgraph(seed, n_nodes=20, n_edges=60)
        source = sorted(g.nodes)[0]
        result = run_expansion(source, GraphProvider(g), TraceParams())
        comm = extract_community(result.subgraph, result.rank, source, 1e-3)
        if comm.converged:
            assert comm.conductance < 1e-3
        else:
            assert set(comm.members) == result.subgraph.nodes


def test_termination_bound():
    g = random_txgraph(4, n_nodes=30, n_edges=100)
    source = sorted(g.nodes)[0]
    result = run_expansion(source, GraphProvider(g), TraceParams())
    comm = extract_community(result.subgraph, result.rank, source, 1e-3)
    assert len(comm.members) <= len(result.subgraph.nodes)


def test_zero_rank_nodes_are_valid_candidates():
    # unranked nodes sit in the candidate pool without breaking the
    # sweep; they are only reached once every ranked node is absorbed
    g = build_graph([
        ("s", "w", 1.0, 1, "T", "h1"),
        ("s", "z", 1.0, 2, "T", "h2"),
    ])
    rank = {"s": 0.5, "w": 0.3}  # z unranked
    comm = extract_community(g, rank, "s", phi=0.1)
    assert comm.members == ["s", "w"]
    assert comm.converged
    assert comm.conductance == 0.0


def test_nonlocal_high_rank_absorbed_before_low_rank_boundary():
    # candidates are drawn from all remaining nodes, not just the boundary
    g = build_graph([
        ("s", "a", 1.0, 1, "T", "h1"),
        ("a", "b", 1.0, 2, "T", "h2"),
    ])
    rank = {"s": 0.5, "a": 0.001, "b": 0.4}
    comm = extract_community(g, rank, "s", phi=1e-3)
    assert comm.members[:2] == ["s", "b"]


def test_community_recomputed_conductance_matches():
    g = random_txgraph(2, n_nodes=25, n_edges=80)
    source = sorted(g.nodes)[0]
    result = run_expansion(source, GraphProvider(g), TraceParams())
    comm = extract_community(result.subgraph, result.rank, source, 1e-3)
    scratch = conductance(set(comm.members), result.subgraph, result.rank)
    assert scratch == pytest.approx(comm.conductance, abs=1e-9)


def test_induced_subgraph_keeps_isolated_members():
    g, rank = two_node_fixture()
    sub = induced_subgraph(g, {"v"})
    assert sub.nodes == {"v"}
    assert len(sub.edges) == 0


def test_boundary_directed_only():
    g = build_graph([
        ("a", "s", 1.0, 1, "T", "h1"),
        ("s", "b", 1.0, 2, "T", "h2"),
    ])
    assert boundary({"s"}, g) == {"b"}


def test_zero_rank_boundary_has_exactly_zero_conductance():
    # The boundary keeps unranked nodes after the last ranked one is
    # absorbed; the running subtraction used to leave -2.5e-17 behind.
    graph = build_graph(multihop_swap_rows(5, 12, 30, 20))
    comm = run_method("n00", GraphProvider(graph), RunConfig()).community
    assert comm.conductance == 0.0
    assert all(step >= 0.0 for step in comm.sweep_conductances)
