"""End-to-end acceptance checks. Each test prints one PASS line; a
failure anywhere in the body marks the criterion failed."""
import json
import math
import xml.etree.ElementTree as ET

import networkx as nx
import pytest
from click.testing import CliRunner

from conftest import (FIG_SWAP_ROWS, build_graph, multihop_swap_rows,
                      random_txgraph, tagged_edges)
from fundtrace import expansion
from fundtrace.baselines import appr_rank
from fundtrace.cases import CaseSpec, generate_planted_case
from fundtrace.cli import main as cli_main
from fundtrace.community import conductance, extract_community
from fundtrace.expansion import run_expansion
from fundtrace.export import read_json, write_graphml, write_json
from fundtrace.metrics import topn_curve, topn_recall
from fundtrace.providers import GraphProvider
from fundtrace.runner import RunConfig, evaluate, run_method
from fundtrace.ttr import TraceParams
from oracle import exact_ppr_dense


def _report(n, text):
    print(f"[criterion {n:2d}] PASS  {text}")


def test_criterion_01_mass_conservation(monkeypatch):
    params = TraceParams()
    push = expansion.local_push
    drift, pushes = [0.0], [0]

    def checked_push(node, graph, params, rank, ledger):
        push(node, graph, params, rank, ledger)
        total = sum(rank.values()) + ledger.total() + ledger.dropped
        drift[0] = max(drift[0], abs(total - 1.0))
        pushes[0] += 1

    # run_expansion looks local_push up in its module at every pop.
    monkeypatch.setattr(expansion, "local_push", checked_push)

    def checked_run(graph, source):
        drift[0], pushes[0] = 0.0, 0
        result = run_expansion(source, GraphProvider(graph), params)
        assert pushes[0] == result.iterations > 0
        assert drift[0] <= 1e-9
        return drift[0]

    worst = 0.0
    for seed in range(50):
        g = random_txgraph(seed, n_nodes=100, n_edges=500, n_tokens=3,
                           swap_rate=0.2)
        worst = max(worst, checked_run(g, sorted(g.nodes)[0]))
    fixture = build_graph(FIG_SWAP_ROWS)
    worst = max(worst, checked_run(fixture, "a"))
    _report(1, f"mass conserved after every push on 50 random graphs "
               f"and the swap fixture (worst drift {worst:.2e})")


def test_criterion_02_pop_iteration_bound():
    params = TraceParams()
    bound = 1.0 / (params.epsilon * params.alpha)
    worst = 0
    for seed in range(10):
        g = random_txgraph(seed, n_nodes=80, n_edges=320, swap_rate=0.2)
        result = run_expansion(sorted(g.nodes)[0], GraphProvider(g), params)
        assert result.iterations <= bound
        worst = max(worst, result.iterations)
    _report(2, f"pop count <= 1/(eps*alpha) = {bound:.0f} on every graph "
               f"(max seen {worst}); also hard-asserted inside the loop")


def test_criterion_03_depth_bound():
    path = build_graph([
        (f"v{i:02d}", f"v{i + 1:02d}", 1.0, 1 + i, "T", f"h{i}")
        for i in range(60)
    ])

    def deepest(result):
        reached = {u for u in result.subgraph.nodes
                   if result.rank.get(u, 0.0) > 0
                   or result.ledger.node_total(u) > 0}
        return max(int(u[1:]) for u in reached)

    r1 = run_expansion("v00", GraphProvider(path),
                       TraceParams(alpha=0.5, beta=1.0, epsilon=0.25))
    assert deepest(r1) == 3
    r2 = run_expansion("v00", GraphProvider(path),
                       TraceParams(alpha=0.15, beta=1.0, epsilon=1e-3))
    d2 = deepest(r2)
    assert d2 in (42, 43)
    _report(3, f"unit path depths: alpha=0.5/eps=0.25 stops at hop 3; "
               f"alpha=0.15/eps=1e-3 stops at hop {d2}")


def test_criterion_04_token_redirection():
    g = build_graph(FIG_SWAP_ROWS)
    result = run_expansion("a", GraphProvider(g), TraceParams())
    # exchanged value continues into the later ETH spends, split equally
    # across the continuation set
    assert result.rank["x"] > 0
    assert result.rank["y"] > 0
    assert result.rank["x"] == pytest.approx(result.rank["y"])
    # the exchange counterparty gets exactly nothing through the
    # same-hash counter leg
    assert result.rank.get("dex", 0.0) == 0.0
    assert result.ledger.node_total("dex") == 0.0
    _report(4, "exchanged residual routed to the two later spends; "
               "exact zero at the exchange counterparty")


def test_criterion_05_appr_oracle_equivalence():
    import random
    rng = random.Random(17)
    worst = 0.0
    for seed in range(30):
        n = rng.randint(4, 20)
        g = random_txgraph(seed, n_nodes=n, n_edges=3 * n)
        source = sorted(g.nodes)[0]
        rank, residual = appr_rank(g, source, alpha=0.15, epsilon=1e-3)
        assert all(v < 1e-3 for v in residual.values())
        exact = {u: exact_ppr_dense(g.edges, g.nodes, u, alpha=0.15)
                 for u in set(residual) | {source}}
        p_exact = exact[source]
        for v in sorted(g.nodes):
            recon = rank.get(v, 0.0) + sum(
                r * exact[u].get(v, 0.0) for u, r in residual.items())
            worst = max(worst, abs(recon - p_exact[v]))
            assert recon == pytest.approx(p_exact[v], abs=1e-9)
    _report(5, f"push + residual linearity matches the dense solve on 30 "
               f"graphs (worst gap {worst:.2e}); all residuals < eps")


def test_criterion_06_community_sweep():
    phi = 1e-3
    for seed in range(10):
        g = random_txgraph(seed, n_nodes=40, n_edges=160, swap_rate=0.2)
        source = sorted(g.nodes)[0]
        result = run_expansion(source, GraphProvider(g), TraceParams())
        comm = extract_community(result.subgraph, result.rank, source, phi)
        members = set()
        for node, phi_inc in zip(comm.members, comm.sweep_conductances):
            members.add(node)
            scratch = conductance(members, result.subgraph, result.rank)
            assert scratch == pytest.approx(phi_inc, abs=1e-9)
        if comm.converged:
            assert comm.conductance < phi
        # the whole reachable node set always has zero conductance
        assert conductance(set(result.subgraph.nodes), result.subgraph,
                           result.rank) == 0.0
    _report(6, "incremental conductance equals the from-scratch value at "
               "every sweep step; threshold honored; whole set is 0")


def _acceptance_cases():
    cases = []
    for i in range(20):
        spec = CaseSpec(seed=100 + i, layers=4 + i % 3, fan_out=3,
                        swap_hop_probability=0.5, noise_rate=2.0,
                        hub_count=2, hub_spokes=150)
        cases.append(generate_planted_case(spec))
    return cases


@pytest.fixture(scope="module")
def planted_runs():
    runs = []
    for case in _acceptance_cases():
        row = {"case": case, "results": {}}
        for method in ("ttr", "appr", "bfs"):
            cfg = RunConfig(method=method)
            result = run_method(case.source, GraphProvider(case.graph), cfg)
            row["results"][method] = result
        runs.append(row)
    return runs


def test_criterion_07_comparative_property(planted_runs):
    ttr_recalls, depths, ratios = [], [], []
    for row in planted_runs:
        case = row["case"]
        ttr = evaluate(row["results"]["ttr"], case.source, case.targets)
        bfs = evaluate(row["results"]["bfs"], case.source, case.targets)
        assert ttr["recall"] >= bfs["recall"]
        assert ttr["nodes"] <= 0.2 * bfs["nodes"], (
            f"seed {case.spec.seed}: {ttr['nodes']} vs {bfs['nodes']}")
        ttr_recalls.append(ttr["recall"])
        depths.append(ttr["depth"])
        ratios.append(ttr["nodes"] / bfs["nodes"])
    mean_recall = sum(ttr_recalls) / len(ttr_recalls)
    mean_depth = sum(depths) / len(depths)
    assert mean_recall >= 0.8
    assert mean_depth >= 4.0
    _report(7, f"20 planted cases: mean recall {mean_recall:.2f} "
               f"(>= shallow sweep everywhere), community size "
               f"{max(ratios):.2f}x of the sweep at worst, mean depth "
               f"{mean_depth:.1f}")


def test_criterion_08_topn_recall(planted_runs):
    points = [1, 5, 10, 25, 50, 100, 200]
    wins = ties = 0
    for row in planted_runs:
        case = row["case"]
        for method in ("ttr", "appr"):
            curve = topn_curve(row["results"][method].scores, case.targets,
                               points)
            values = [v for _, v in curve]
            assert values == sorted(values)
        ttr100 = topn_recall(row["results"]["ttr"].scores, case.targets, 100)
        appr100 = topn_recall(row["results"]["appr"].scores, case.targets,
                              100)
        assert ttr100 >= appr100
        wins += ttr100 > appr100
        ties += ttr100 == appr100
    _report(8, f"top-N recall non-decreasing on every case; time/token "
               f"rank top-100 >= classic push top-100 on all 20 "
               f"({wins} strict, {ties} tied)")


def test_criterion_09_determinism(tmp_path):
    rows = [json.dumps({"from": s, "to": t, "value": str(a),
                        "timeStamp": str(ts), "tokenSymbol": tok, "hash": h})
            for s, t, a, ts, tok, h in FIG_SWAP_ROWS]
    edges = tmp_path / "edges.jsonl"
    edges.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": "a", "provider": str(edges)}))
    blobs = []
    for _ in range(2):
        out = tmp_path / "result.json"
        res = CliRunner().invoke(cli_main, ["trace", "--config", str(cfg),
                                            "--out", str(out)])
        assert res.exit_code == 0
        blobs.append(out.read_bytes()
                     + (tmp_path / "result.json.provenance.json").read_bytes())
    assert blobs[0] == blobs[1]

    # Across processes and hash seeds, on graphs where legs are Swap legs
    # at both ends with different counter tokens.
    import subprocess
    import sys
    from pathlib import Path

    import fundtrace
    src = str(Path(fundtrace.__file__).resolve().parents[1])
    script = "from fundtrace.cli import main; main()"
    for seed, fmt in ((0, "json"), (5, "json"), (5, "graphml")):
        rows = multihop_swap_rows(seed, n_nodes=12, n_edges=30, n_swaps=20)
        edges = tmp_path / f"multihop{seed}.jsonl"
        edges.write_text("".join(
            json.dumps({"from": s, "to": t, "value": str(a),
                        "timeStamp": str(ts), "tokenSymbol": tok,
                        "hash": h}) + "\n"
            for s, t, a, ts, tok, h in rows))
        blobs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"multihop{seed}-{hash_seed}.{fmt}"
            proc = subprocess.run(
                [sys.executable, "-c", script, "trace", "--source", "n00",
                 "--provider", str(edges), "--out", str(out),
                 "--format", fmt],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes()
                         + Path(f"{out}.provenance.json").read_bytes())
        assert blobs[0] == blobs[1], f"graph seed {seed}, {fmt}"
    _report(9, "identical trace invocations produced byte-identical result "
               "and provenance files, in one process and across two "
               "processes with different PYTHONHASHSEED values")


def test_criterion_10_export_validity(tmp_path):
    g = random_txgraph(23, n_nodes=15, n_edges=45, swap_rate=0.3)
    out = tmp_path / "g.graphml"
    write_graphml(str(out), g, rank={"n00": 0.5}, source="n00")
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ET.parse(out).getroot()
    assert root.tag == f"{ns}graphml"
    graph_el = root.find(f"{ns}graph")
    declared = {k.get("id") for k in root.iter(f"{ns}key")}
    node_ids = set()
    for node in graph_el.findall(f"{ns}node"):
        node_ids.add(node.get("id"))
        for data in node.findall(f"{ns}data"):
            assert data.get("key") in declared
    for edge in graph_el.findall(f"{ns}edge"):
        assert edge.get("source") in node_ids
        assert edge.get("target") in node_ids
        for data in edge.findall(f"{ns}data"):
            assert data.get("key") in declared
    back = nx.read_graphml(str(out))
    assert set(back.nodes) == g.nodes
    assert back.number_of_edges() == len(g.edges)

    write_json(str(tmp_path / "g.json"), g, rank={"n00": 0.5}, source="n00")
    restored = read_json(str(tmp_path / "g.json"))

    assert restored.nodes == g.nodes
    assert tagged_edges(restored) == tagged_edges(g)
    _report(10, "graph markup output is well-formed with declared keys and "
                "resolvable endpoints; JSON round trip is lossless")
