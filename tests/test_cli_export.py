import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fundtrace
from conftest import (FIG_SWAP_ROWS, build_graph, multihop_swap_rows,
                      random_txgraph, split_leg_rows, tagged_edges)
from fundtrace.cli import (EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK,
                           EXIT_PROVIDER, main)
from fundtrace.export import read_json, write_graphml, write_json, write_trace
from fundtrace.graph import Pattern, TransactionGraph, TransferEdge, load_graph
from fundtrace.providers import GraphProvider
from fundtrace.runner import RunConfig, run_method

GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


def swap_rows_jsonl(path):
    lines = [json.dumps({"from": s, "to": t, "value": str(a),
                         "timeStamp": str(ts), "tokenSymbol": tok, "hash": h})
             for s, t, a, ts, tok, h in FIG_SWAP_ROWS]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def unwritable_outs(tmp_path):
    """(output path, the error ``open(path, "w")`` raises for it): an
    existing directory, a path under a regular file and one under a
    missing directory, a path ending in a separator whether or not it
    names anything, and the empty path."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    return [(str(tmp_path / "adir"), "[Errno 21] Is a directory"),
            (os.path.join(tmp_path, "newname", ""), "[Errno 21] Is a directory"),
            (os.path.join(tmp_path, "afile", ""), "[Errno 21] Is a directory"),
            (os.path.join(tmp_path, "nodir", "x", ""),
             "[Errno 2] No such file or directory"),
            (os.path.join(tmp_path, "afile", "x", ""),
             "[Errno 20] Not a directory"),
            ("", "[Errno 2] No such file or directory"),
            (str(tmp_path / "afile" / "r.json"), "[Errno 20] Not a directory"),
            (str(tmp_path / "afile" / "x" / "r.json"),
             "[Errno 20] Not a directory"),
            (str(tmp_path / "missing" / "r.json"),
             "[Errno 2] No such file or directory")]


def _json_dump_reference(path, graph, *, rank=None, residuals=None,
                         source=None, community=None, provenance=None):
    """The JSON export as it was made before ``write_json`` wrote text:
    the whole document as a dict, then ``json.dump``."""
    rank, residuals = rank or {}, residuals or {}
    doc = {
        "nodes": {node: {"rank": float(rank.get(node, 0.0)),
                         "residual": float(residuals.get(node, 0.0)),
                         "is_source": node == source,
                         "in_community": community is None or node in community}
                  for node in sorted(graph.nodes)},
        "edges": [{"src": e.src, "tgt": e.tgt, "amount": e.amount,
                   "timestamp": e.timestamp, "token": e.token, "hash": e.hash,
                   "pattern": graph.pattern(e).value} for e in graph.edges],
        "provenance": provenance or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def config_error_message(res):
    """The message of a run that ended in ``config-error``, exit 2."""
    assert res.exit_code == EXIT_CONFIG, res.output
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "config-error"
    return err["message"]


class TestExport:
    def test_graphml_structure(self, tmp_path):
        g = random_txgraph(1, n_nodes=10, n_edges=25, swap_rate=0.3)
        out = tmp_path / "g.graphml"
        write_graphml(str(out), g, rank={"n00": 0.5}, source="n00")
        root = ET.parse(out).getroot()
        assert root.tag == f"{GRAPHML_NS}graphml"
        keys = {k.get("attr.name") for k in root.iter(f"{GRAPHML_NS}key")}
        assert {"rank", "residual", "is_source", "in_community",
                "amount", "timestamp", "token", "hash",
                "pattern"} <= keys
        graph_el = root.find(f"{GRAPHML_NS}graph")
        assert graph_el.get("edgedefault") == "directed"
        assert len(graph_el.findall(f"{GRAPHML_NS}node")) == len(g.nodes)
        assert len(graph_el.findall(f"{GRAPHML_NS}edge")) == len(g.edges)

    def test_graphml_networkx_round_trip(self, tmp_path):
        g = build_graph(FIG_SWAP_ROWS)
        out = tmp_path / "g.graphml"
        write_graphml(str(out), g, rank={"u": 0.2}, source="a",
                      community={"a", "u"})
        back = nx.read_graphml(str(out))
        assert set(back.nodes) == g.nodes
        assert back.number_of_edges() == len(g.edges)
        assert back.nodes["a"]["is_source"] is True
        assert back.nodes["x"]["in_community"] is False
        swap_edges = [d for _, _, d in back.edges(data=True)
                      if d["pattern"] == "swap"]
        assert len(swap_edges) == 2
        assert {d["hash"] for d in swap_edges} == {"h2"}

    def test_json_round_trip_lossless(self, tmp_path):
        g = random_txgraph(2, n_nodes=12, n_edges=30, swap_rate=0.3)
        out = tmp_path / "g.json"
        write_json(str(out), g, rank={"n00": 0.4}, source="n00")
        back = read_json(str(out))
        assert back.nodes == g.nodes
        assert tagged_edges(back) == tagged_edges(g)

    def test_json_file_round_trip(self, tmp_path):
        g = build_graph(FIG_SWAP_ROWS)
        out = tmp_path / "g.json"
        write_json(str(out), g, source="a")
        back = read_json(str(out))
        assert back.nodes == g.nodes
        assert sum(1 for e in back.edges
                   if back.pattern(e) is Pattern.SWAP) == 2

    def test_isolated_nodes_survive_json(self, tmp_path):
        g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
        g.nodes.add("lonely")
        out = tmp_path / "g.json"
        write_json(str(out), g)
        back = read_json(str(out))
        assert "lonely" in back.nodes

    def test_to_networkx_multiedges_kept(self, tmp_path):
        g = build_graph([
            ("a", "b", 1.0, 1, "T", "h1"),
            ("a", "b", 2.0, 5, "T", "h2"),
        ])
        out = tmp_path / "g.graphml"
        write_graphml(str(out), g)
        assert nx.read_graphml(str(out)).number_of_edges("a", "b") == 2

    @pytest.mark.parametrize("rows", [
        FIG_SWAP_ROWS,
        [],
        [("a<&\"'", "b>", 1.5, 3, "T<&\"'", "h<&\"'"),
         ("b>", "a<&\"'", 2.0, 4, "T", "h2"),
         ("a<&\"'", "b>", 0.5, 5, "T", "h3")],
        [("a", "b", 1.0, 2, "T", "")],
    ], ids=["fig-swap", "edgeless", "markup-names", "empty-hash"])
    def test_graphml_bytes_match_networkx(self, tmp_path, rows):
        g = build_graph(rows)
        g.nodes.add("lonely")
        rank, residuals = {"u": 0.25, "b>": 1e-17}, {"x": 0.125}
        source, community = "a", {"a", "u", "lonely"}
        # The reference: networkx's own writer on the same MultiDiGraph.
        ref = nx.MultiDiGraph()
        for node in sorted(g.nodes):
            ref.add_node(node, rank=rank.get(node, 0.0),
                         residual=residuals.get(node, 0.0),
                         is_source=node == source,
                         in_community=node in community)
        for e in sorted(g.edges, key=TransferEdge.sort_key):
            ref.add_edge(e.src, e.tgt, amount=e.amount,
                         timestamp=e.timestamp, token=e.token, hash=e.hash,
                         pattern=g.pattern(e).value)
        nx.write_graphml(ref, str(tmp_path / "want.graphml"))
        write_graphml(str(tmp_path / "got.graphml"), g, rank=rank,
                      residuals=residuals, source=source,
                      community=community)
        assert ((tmp_path / "got.graphml").read_bytes()
                == (tmp_path / "want.graphml").read_bytes())

    @pytest.mark.parametrize("case", [
        "random", "multihop", "escaped-names", "one-node", "no-nodes",
        "int-amounts", "nested-provenance"])
    def test_json_bytes_match_json_dump(self, tmp_path, case):
        odd = '"\\<&>\t\né\U0001F600'
        annotations = {}
        if case in ("random", "multihop"):
            graph = (random_txgraph(4, n_nodes=30, n_edges=120, swap_rate=0.3)
                     if case == "random"
                     else build_graph(multihop_swap_rows(3)))
            result = run_method("n00", GraphProvider(graph), RunConfig())
            residuals = {}
            for node, _ts, _tok, value in result.trace.ledger.items():
                residuals[node] = residuals.get(node, 0.0) + value
            # The whole subgraph: the community leaves accounts out.
            graph = result.subgraph
            annotations = dict(rank=result.scores, residuals=residuals,
                               source="n00",
                               community=set(result.community.members),
                               provenance={**result.provenance,
                                           "config": {"format": "json"}})
            assert any(graph.pattern(e) is Pattern.SWAP for e in graph.edges)
            assert len(result.community.members) < len(graph.nodes)
        elif case == "escaped-names":
            graph = build_graph([
                (f"a{odd}", f"b{odd}", 1.5, 3, f"T{odd}", f"h{odd}"),
                (f"b{odd}", f"a{odd}", 2.0, 3, "U", f"h{odd}"),
                (f"b{odd}", "c", 0.25, 4, "U", "h2")])
            annotations = dict(rank={f"a{odd}": 0.5}, source=f"a{odd}",
                               community={f"a{odd}", "c"},
                               provenance={"source": f"a{odd}"})
        elif case == "one-node":
            graph = TransactionGraph([], ["solo"])
            annotations = dict(source="solo")
        elif case == "no-nodes":
            graph = build_graph([])
        elif case == "int-amounts":
            graph = build_graph([("a", "b", 3, 1, "T", "h1"),
                                 ("b", "c", 0, 2, "T", "h2")])
            annotations = dict(rank={"a": float("nan"), "b": float("inf")},
                               residuals={"c": float("-inf"), "b": 1e-17})
        else:
            graph = build_graph(FIG_SWAP_ROWS)
            annotations = dict(source="a", provenance={
                "config": {"alpha": 0.15, "format": "json", "hub_cap": None},
                "hub_cap_hits": [], "flags": [True, False, None, 2, "x"],
                "converged": True, "nested": {"empty": {}, "list": [[1], {}]}})
        write_json(str(tmp_path / "got.json"), graph, **annotations)
        _json_dump_reference(str(tmp_path / "want.json"), graph, **annotations)
        assert ((tmp_path / "got.json").read_bytes()
                == (tmp_path / "want.json").read_bytes())


class TestTraceCommand:
    def run(self, args):
        return CliRunner().invoke(main, args)

    def test_trace_swap_routing_end_to_end(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "result.json"
        res = self.run(["trace", "--source", "a", "--provider", edges,
                        "--out", str(out)])
        assert res.exit_code == EXIT_OK, res.output + str(res.stderr_bytes)
        payload = json.loads(out.read_text())
        nodes = payload["nodes"]
        # value exchanged at u continues into the later ETH spends
        assert nodes["x"]["rank"] > 0
        assert nodes["y"]["rank"] > 0
        # zero-rank exchange account stays outside the community output
        assert "dex" not in nodes
        prov = json.loads((tmp_path / "result.json.provenance.json").read_text())
        assert prov["config"]["method"] == "ttr"
        assert prov["termination"] == "residuals-below-epsilon"

    def test_trace_rerun_byte_identical(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "result.json"
        blobs = []
        for _ in range(2):
            res = self.run(["trace", "--source", "a", "--provider", edges,
                            "--phi", "0.5", "--out", str(out)])
            assert res.exit_code == EXIT_OK
            blobs.append(out.read_bytes()
                         + (tmp_path / "result.json.provenance.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_residual_mass_is_the_ledger_total(self, tmp_path):
        # A budget-stopped trace, so that much residual is left.
        edges = tmp_path / "edges.jsonl"
        edges.write_text("".join(
            json.dumps({"from": s, "to": t, "value": repr(a),
                        "timeStamp": str(ts), "tokenSymbol": tok,
                        "hash": h}) + "\n"
            for s, t, a, ts, tok, h in multihop_swap_rows(3, 12, 30, 20)))
        result = run_method("n00", GraphProvider(load_graph(str(edges))),
                            RunConfig(budget=5))
        assert result.trace.ledger.total() > 0.1
        src = str(Path(fundtrace.__file__).resolve().parents[1])
        written = []
        for hash_seed in ("0", "7"):
            out = tmp_path / f"r{hash_seed}.json"
            proc = subprocess.run(
                [sys.executable, "-c", "from fundtrace.cli import main; main()",
                 "trace", "--source", "n00", "--provider", str(edges),
                 "--budget", "5", "--out", str(out)],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120)
            assert proc.returncode in (EXIT_OK, EXIT_NOT_CONVERGED), proc.stderr
            written.append(Path(f"{out}.provenance.json").read_bytes())
            assert (json.loads(written[-1])["residual_mass"]
                    == result.trace.ledger.total())
        assert written[0] == written[1]

    def test_trace_graphml_output(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "result.graphml"
        res = self.run(["trace", "--source", "a", "--provider", edges,
                        "--phi", "0.5", "--out", str(out), "--format",
                        "graphml"])
        assert res.exit_code == EXIT_OK
        back = nx.read_graphml(str(out))
        assert "a" in back.nodes

    def test_config_file_not_an_object_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        res = self.run(["trace", "--config", str(cfg)])
        assert res.exit_code == EXIT_CONFIG
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config-error"
        assert "not a JSON object" in err["message"]

    def test_config_file_unknown_key_rejected(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": "a", "provider": edges,
                                   "alpah": 0.5}))
        out = tmp_path / "o.json"
        res = self.run(["trace", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config-error"
        assert "'alpah'" in err["message"]
        assert not out.exists()

    def test_config_value_checked_like_its_flag(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.json"
        cfg.write_text(json.dumps({"source": "a", "provider": edges,
                                   "format": "xml", "out": str(out)}))
        res = self.run(["trace", "--config", str(cfg)])
        assert res.exit_code == EXIT_CONFIG
        assert "--format" in res.stderr
        assert not out.exists()
        assert not (tmp_path / "o.json.provenance.json").exists()

    def test_config_values_converted_like_flags(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.json"
        cfg.write_text(json.dumps({"source": "a", "provider": edges,
                                   "alpha": "0.5", "out": str(out)}))
        res = self.run(["trace", "--config", str(cfg)])
        assert res.exit_code == EXIT_OK, res.output
        prov = json.loads((tmp_path / "o.json.provenance.json").read_text())
        assert prov["config"]["alpha"] == 0.5
        for key, bad in (("depth", "deep"), ("depth", 2.5),
                         ("budget", True)):
            cfg.write_text(json.dumps({"source": "a", "provider": edges,
                                       key: bad}))
            res = self.run(["trace", "--config", str(cfg)])
            assert res.exit_code == EXIT_CONFIG, (key, bad)
            assert f"--{key}" in res.stderr

    def test_config_source_number_runs_as_the_flag_does(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": 123, "provider": edges,
                                   "out": str(tmp_path / "cfg.json.out")}))
        res = self.run(["trace", "--config", str(cfg)])
        ref = self.run(["trace", "--source", "123", "--provider", edges,
                        "--out", str(tmp_path / "flag.json.out")])
        assert res.exception is None and ref.exception is None
        assert res.exit_code == ref.exit_code == EXIT_OK
        for suffix in ("", ".provenance.json"):
            assert ((tmp_path / f"cfg.json.out{suffix}").read_bytes()
                    == (tmp_path / f"flag.json.out{suffix}").read_bytes())

    def test_every_trace_parameter_is_a_config_key(self, tmp_path,
                                                    monkeypatch):
        import dataclasses

        import fundtrace.cli as cli_mod
        from fundtrace.runner import RunConfig

        names = {p.name for p in cli_mod.trace.params if p.expose_value}
        assert names == ({f.name for f in dataclasses.fields(RunConfig)}
                         | {"source", "provider", "out", "format",
                            "chain_symbol", "cache_dir"})
        made = []
        real = cli_mod._make_provider

        def recording(spec, chain_symbol, cache_dir):
            made.append((spec, chain_symbol, cache_dir))
            return real(spec, chain_symbol, cache_dir)

        monkeypatch.setattr(cli_mod, "_make_provider", recording)
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "result.graphml"
        config = {"method": "ttr", "source": "A", "provider": edges,
                  "alpha": 0.2, "beta": 0.6, "epsilon": 0.002, "phi": 0.5,
                  "depth": 3, "cutoff": 0.01, "budget": 50, "hub_cap": 100,
                  "out": str(out), "format": "graphml", "chain_symbol": "BNB",
                  "cache_dir": str(tmp_path / "cache")}
        assert set(config) == names
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = self.run(["trace", "--config", str(cfg)])
        assert res.exit_code == EXIT_OK, res.output
        assert made == [(edges, "BNB", str(tmp_path / "cache"))]
        assert "a" in nx.read_graphml(str(out)).nodes
        prov = json.loads(
            (tmp_path / "result.graphml.provenance.json").read_text())
        assert prov["config"] == {
            **{k: v for k, v in config.items()
               if k not in ("out", "cache_dir")}, "source": "a"}

    def test_malformed_row_logged_and_skipped(self, tmp_path, caplog):
        csv_edges = tmp_path / "edges.csv"
        csv_edges.write_text("from,to,value,timeStamp,tokenSymbol,hash\n"
                             "a,b,10,5,T,h1\n"
                             "b,c,oops,7,T,h2\n"
                             "b,c,4,8,T,h3\n")
        jsonl_edges = tmp_path / "edges.jsonl"
        jsonl_edges.write_text(
            '{"from":"a","to":"b","value":"10","timeStamp":"5","hash":"h1"}\n'
            '{"from":"b","to":"c","value":"4",,"timeStamp":"7","hash":"h2"}\n'
            '{"from":"b","to":"c","value":"4","timeStamp":"8","hash":"h3"}\n')
        for edges in (csv_edges, jsonl_edges):
            caplog.clear()
            caplog.set_level(logging.WARNING, logger="fundtrace")
            res = self.run(["trace", "--source", "a", "--provider",
                            str(edges), "--out", str(tmp_path / "o.json")])
            assert res.exit_code == EXIT_OK, res.output
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelno == logging.WARNING]
            assert len(warnings) == 1
            assert warnings[0].startswith("skipped record 2:")
            assert warnings[0].endswith(f"(in {edges})")
            payload = json.loads((tmp_path / "o.json").read_text())
            assert set(payload["nodes"]) <= {"a", "b", "c"}
            assert len(load_graph(str(edges)).edges) == 2

    def test_missing_required_options(self):
        res = self.run(["trace"])
        assert res.exit_code == EXIT_CONFIG
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config-error"

    def test_invalid_parameter_rejected(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        res = self.run(["trace", "--source", "a", "--provider", edges,
                        "--alpha", "1.5"])
        assert res.exit_code == EXIT_CONFIG

    def test_source_normalized_as_ingest_does(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        blobs = []
        for source in ("a", " A "):
            out = tmp_path / "result.json"
            res = self.run(["trace", "--source", source, "--provider", edges,
                            "--phi", "0.5", "--out", str(out)])
            assert res.exit_code == EXIT_OK
            blobs.append(out.read_bytes()
                         + (tmp_path / "result.json.provenance.json").read_bytes())
        assert blobs[0] == blobs[1]
        res = self.run(["trace", "--source", "  ", "--provider", edges])
        assert res.exit_code == EXIT_CONFIG
        assert json.loads(res.stderr.strip().splitlines()[-1]) == {
            "error": "config-error", "message": "empty account id"}

    def test_unwritable_out_is_a_config_error(self, tmp_path, monkeypatch):
        import fundtrace.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "_make_provider",
                            lambda *args: calls.append("provider"))
        monkeypatch.setattr(cli_mod, "run_method",
                            lambda *args: calls.append("run"))
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        for out, error in unwritable_outs(tmp_path):
            for provider in (edges, str(tmp_path / "nope.csv")):
                res = self.run(["trace", "--source", "a", "--provider",
                                provider, "--out", out])
                assert config_error_message(res) == f"{error}: '{out}'"
        assert calls == []

    def test_out_over_the_edge_file_is_refused(self, tmp_path, monkeypatch):
        import fundtrace.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "_make_provider",
                            lambda *args: calls.append("provider"))
        edges = swap_rows_jsonl(tmp_path / "e.jsonl")
        (tmp_path / "x").mkdir()
        alias = str(tmp_path / "x" / ".." / "e.jsonl")
        named = swap_rows_jsonl(tmp_path / "r.json.provenance.json")
        os.link(edges, tmp_path / "h.jsonl")
        os.link(named, tmp_path / "h.json.provenance.json")
        # --out itself, the same file by another name or by a hard link,
        # and an --out whose provenance file is the edge file or a hard
        # link to it.
        for provider, out in ((edges, edges), (edges, alias),
                              (edges, str(tmp_path / "h.jsonl")),
                              (named, str(tmp_path / "r.json")),
                              (named, str(tmp_path / "h.json"))):
            kept = Path(provider).read_bytes()
            res = self.run(["trace", "--source", "a", "--provider", provider,
                            "--out", out])
            assert config_error_message(res) == (
                f"--out {out} would overwrite --provider {provider}")
            assert Path(provider).read_bytes() == kept
        assert calls == []
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "h.json").exists()

    def test_out_over_the_config_file_is_refused(self, tmp_path, monkeypatch):
        import fundtrace.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "_make_provider",
                            lambda *args: calls.append("provider"))
        edges = swap_rows_jsonl(tmp_path / "e.jsonl")
        # The config as --out and as <out>.provenance.json, by its own
        # name and by a hard link.
        for name, out, link in (("cfg.json", "cfg.json", None),
                                ("o.json.provenance.json", "o.json", None),
                                ("cfg.json", "h.json", "h.json"),
                                ("o.json.provenance.json", "k.json",
                                 "k.json.provenance.json")):
            cfg = tmp_path / name
            cfg.write_text(json.dumps({"source": "a", "provider": edges}))
            if link:
                os.link(cfg, tmp_path / link)
            kept = cfg.read_bytes()
            res = self.run(["trace", "--config", str(cfg),
                            "--out", str(tmp_path / out)])
            assert config_error_message(res) == (
                f"--out {tmp_path / out} would overwrite --config {cfg}")
            assert cfg.read_bytes() == kept
        assert calls == []
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "k.json").exists()

    def test_config_file_unreadable_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        res = self.run(["trace", "--config", str(cfg)])
        assert config_error_message(res) == (
            f"[Errno 2] No such file or directory: '{cfg}'")
        cfg.write_text("{source: a}")
        res = self.run(["trace", "--config", str(cfg)])
        assert config_error_message(res) == (
            "Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)")
        cfg.write_bytes(b'{"source": "\xff"}')
        res = self.run(["trace", "--config", str(cfg)])
        assert config_error_message(res) == (
            "'utf-8' codec can't decode byte 0xff in position 12: "
            "invalid start byte")

    def test_provider_failing_mid_trace_exits_3(self, tmp_path, monkeypatch):
        import fundtrace.cli as cli_mod
        from fundtrace.providers import FileProvider, ProviderError

        class FailsAfterFirstFetch(FileProvider):
            fetches = 0

            def fetch_edges(self, account):
                self.fetches += 1
                if self.fetches > 1:
                    raise ProviderError("rate limited")
                return super().fetch_edges(account)

        monkeypatch.setattr(cli_mod, "FileProvider", FailsAfterFirstFetch)
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "r.json"
        res = self.run(["trace", "--source", "a", "--provider", edges,
                        "--out", str(out)])
        assert res.exit_code == EXIT_PROVIDER
        [line] = res.stderr.splitlines()
        assert json.loads(line) == {"error": "provider-error",
                                    "message": "rate limited"}
        assert not out.exists()
        assert not (tmp_path / "r.json.provenance.json").exists()

    def test_missing_edge_file(self, tmp_path):
        res = self.run(["trace", "--source", "a", "--provider",
                        str(tmp_path / "nope.jsonl")])
        assert res.exit_code == EXIT_CONFIG

    def test_config_file_with_flag_override(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": "a", "provider": edges,
                                   "phi": 0.5, "method": "bfs"}))
        out = tmp_path / "o.json"
        res = self.run(["trace", "--config", str(cfg), "--method", "haircut",
                        "--out", str(out)])
        assert res.exit_code == EXIT_OK
        prov = json.loads((tmp_path / "o.json.provenance.json").read_text())
        assert prov["config"]["method"] == "haircut"

    def test_not_converged_exit_code(self, tmp_path, monkeypatch):
        # an aborted sweep must still write its partial result; on a
        # fully materialized graph the sweep always converges, so force
        # the flag off to exercise the exit path
        import fundtrace.runner as runner_mod
        from fundtrace.community import extract_community as real_extract

        def stubborn(graph, rank, source, phi):
            comm = real_extract(graph, rank, source, phi)
            comm.converged = False
            return comm

        monkeypatch.setattr(runner_mod, "extract_community", stubborn)
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "o.json"
        res = self.run(["trace", "--source", "a", "--provider", edges,
                        "--out", str(out)])
        assert res.exit_code == EXIT_NOT_CONVERGED
        assert out.exists()

    def test_baseline_methods_runnable(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        for method in ("bfs", "poison", "haircut", "appr"):
            out = tmp_path / f"{method}.json"
            res = self.run(["trace", "--source", "a", "--provider", edges,
                            "--method", method, "--out", str(out)])
            assert res.exit_code == EXIT_OK, method
            payload = json.loads(out.read_text())
            assert "a" in payload["nodes"]

    def test_budget_below_one_rejected(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        for budget in ("0", "-3"):
            res = self.run(["trace", "--source", "a", "--provider", edges,
                            "--budget", budget,
                            "--out", str(tmp_path / "o.json")])
            assert res.exit_code == EXIT_CONFIG, budget
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert err["error"] == "config-error"
        assert not (tmp_path / "o.json").exists()

    def test_hub_cap_below_one_rejected(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        for hub_cap in ("0", "-1"):
            res = self.run(["trace", "--source", "a", "--provider", edges,
                            "--hub-cap", hub_cap,
                            "--out", str(tmp_path / "o.json")])
            assert res.exit_code == EXIT_CONFIG, hub_cap
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert err["error"] == "config-error"
            assert "hub_cap" in err["message"]
        assert not (tmp_path / "o.json").exists()

    def test_budget_caps_pops(self, tmp_path):
        edges = swap_rows_jsonl(tmp_path / "edges.jsonl")
        out = tmp_path / "o.json"
        res = self.run(["trace", "--source", "a", "--provider", edges,
                        "--budget", "1", "--phi", "0.5", "--out", str(out)])
        assert res.exit_code == EXIT_OK
        prov = json.loads((tmp_path / "o.json.provenance.json").read_text())
        assert prov["iterations"] == 1
        assert prov["termination"] == "budget-exhausted"

    def test_baseline_over_api_rejected_without_requests(self, monkeypatch):
        import fundtrace.cli as cli_mod
        from test_providers import make_provider

        made = []

        def fake_http(base_url, **kwargs):
            provider, session = make_provider({})
            made.append(session)
            return provider

        monkeypatch.setattr(cli_mod, "HttpProvider", fake_http)
        res = self.run(["trace", "--source", "a", "--method", "bfs",
                        "--provider", "https://api.example/api"])
        assert res.exit_code == EXIT_CONFIG
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config-error"
        assert "edge file provider" in err["message"]
        assert len(made) == 1 and made[0].requests == []


def test_import_loads_neither_numpy_nor_networkx():
    import subprocess
    import sys
    from pathlib import Path

    import fundtrace
    src = str(Path(fundtrace.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fundtrace, fundtrace.cli; "
         "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCompareAndGen:
    def run(self, args):
        return CliRunner().invoke(main, args)

    def test_gen_case_then_compare(self, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        for seed in (1, 2):
            res = self.run(["gen-case", "--seed", str(seed), "--layers", "4",
                            "--out", str(cases / f"case{seed}.json")])
            assert res.exit_code == EXIT_OK
        report_path = tmp_path / "report.json"
        res = self.run(["compare", "--cases", str(cases), "--out",
                        str(report_path)])
        assert res.exit_code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert len(report["cases"]) == 2
        assert report["errors"] == []
        for row in report["cases"]:
            methods = {m["method"] for m in row["methods"]}
            assert methods == {"ttr", "appr", "bfs", "poison", "haircut"}
            for m in row["methods"]:
                assert 0.0 <= m["recall"] <= 1.0
                assert m["nodes"] >= 1
            assert set(row["topn"]) == {"ttr", "appr", "haircut"}
        assert set(report["aggregate"]) == {"ttr", "appr", "bfs", "poison",
                                            "haircut"}

    def test_gen_case_edges_csv_ingestable(self, tmp_path):
        spec_path = tmp_path / "case.json"
        edges_path = tmp_path / "edges.csv"
        res = self.run(["gen-case", "--seed", "3", "--out", str(spec_path),
                        "--edges-out", str(edges_path)])
        assert res.exit_code == EXIT_OK
        g = load_graph(str(edges_path))
        assert "src" in g.nodes
        assert len(g.edges) > 0

    def test_gen_case_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            self.run(["gen-case", "--seed", "7", "--out",
                      str(tmp_path / f"{name}.json"), "--edges-out",
                      str(tmp_path / name)])
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_compare_bad_spec_recorded_as_error(self, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "bad.json").write_text("{\"target_count\": 0}")
        res = self.run(["compare", "--cases", str(cases), "--out",
                        str(tmp_path / "r.json")])
        assert res.exit_code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["cases"] == []
        assert report["errors"] and report["errors"][0]["case"] == "bad.json"

    def test_compare_refuses_out_of_range_parameters(self, tmp_path):
        spec = tmp_path / "case.json"
        assert self.run(["gen-case", "--seed", "1", "--layers", "3",
                         "--out", str(spec)]).exit_code == EXIT_OK
        report = tmp_path / "r.json"
        res = self.run(["compare", "--cases", str(spec), "--out", str(report),
                        "--alpha", "2"])
        assert res.exit_code == EXIT_CONFIG
        assert json.loads(res.stderr.strip().splitlines()[-1]) == {
            "error": "config-error", "message": "alpha must be in (0,1), got 2.0"}
        assert not report.exists()

    def test_compare_missing_cases_file_is_a_config_error(self, tmp_path):
        cases = tmp_path / "nope.json"
        res = self.run(["compare", "--cases", str(cases), "--out",
                        str(tmp_path / "r.json")])
        assert str(cases) in config_error_message(res)

    def test_compare_unwritable_out_is_a_config_error(self, tmp_path,
                                                      monkeypatch):
        import fundtrace.cli as cli_mod

        spec = tmp_path / "case.json"
        assert self.run(["gen-case", "--seed", "1", "--layers", "3",
                         "--out", str(spec)]).exit_code == EXIT_OK
        generated = []
        monkeypatch.setattr(cli_mod, "generate_planted_case",
                            lambda spec: generated.append(spec))
        for out, error in unwritable_outs(tmp_path):
            res = self.run(["compare", "--cases", str(spec), "--out", out])
            assert config_error_message(res) == f"{error}: '{out}'"
        assert generated == []

    def test_compare_never_reads_its_out_file_as_a_spec(self, tmp_path):
        spec = tmp_path / "c.json"
        assert self.run(["gen-case", "--seed", "5", "--layers", "3",
                         "--out", str(spec)]).exit_code == EXIT_OK
        kept = spec.read_bytes()
        (tmp_path / "x").mkdir()
        os.link(spec, tmp_path / "h.json")
        for out in (spec, tmp_path / "x" / ".." / "c.json",
                    tmp_path / "h.json"):
            res = self.run(["compare", "--cases", str(spec),
                            "--out", str(out)])
            assert config_error_message(res) == f"no case specs under {spec}"
            assert spec.read_bytes() == kept

    def test_gen_case_refuses_one_file_for_both_outputs(self, tmp_path,
                                                        monkeypatch):
        import fundtrace.cli as cli_mod

        generated = []
        monkeypatch.setattr(cli_mod, "generate_planted_case",
                            lambda spec: generated.append(spec))
        spec = tmp_path / "c.json"
        (tmp_path / "x").mkdir()
        alias = str(tmp_path / "x" / ".." / "c.json")
        for edges_out in (str(spec), alias):
            res = self.run(["gen-case", "--out", str(spec),
                            "--edges-out", edges_out])
            assert config_error_message(res) == (
                f"--out and --edges-out are one file: {spec}")
            assert not spec.exists()
        spec.write_text("kept\n")
        res = self.run(["gen-case", "--out", str(spec),
                        "--edges-out", str(spec)])
        assert res.exit_code == EXIT_CONFIG
        assert spec.read_text() == "kept\n"
        os.link(spec, tmp_path / "h.csv")
        res = self.run(["gen-case", "--out", str(spec),
                        "--edges-out", str(tmp_path / "h.csv")])
        assert config_error_message(res) == (
            f"--out and --edges-out are one file: {spec}")
        assert spec.read_text() == "kept\n"
        assert generated == []

    def test_gen_case_unwritable_out_is_a_config_error(self, tmp_path):
        ok = tmp_path / "ok.json"
        for out, error in unwritable_outs(tmp_path):
            res = self.run(["gen-case", "--seed", "1", "--out", out])
            assert config_error_message(res) == f"{error}: '{out}'"
            res = self.run(["gen-case", "--seed", "1", "--out", str(ok),
                            "--edges-out", out])
            assert config_error_message(res) == f"{error}: '{out}'"
            assert not ok.exists()

    def test_unplantable_targets_refused_alike_in_every_process(self,
                                                                tmp_path):
        import os
        import subprocess
        import sys

        import fundtrace
        env = {**os.environ,
               "PYTHONPATH": str(Path(fundtrace.__file__).resolve().parents[1])}

        def cli(*args, hash_seed="0"):
            return subprocess.run(
                [sys.executable, "-m", "fundtrace.cli", *args],
                env={**env, "PYTHONHASHSEED": hash_seed}, cwd=tmp_path,
                capture_output=True, text=True, timeout=120)

        (tmp_path / "specs").mkdir()
        (tmp_path / "specs" / "five.json").write_text(
            '{"target_count": 5, "fan_out": 3}')
        (tmp_path / "specs" / "ok.json").write_text('{"seed": 1, "layers": 3}')
        reports = []
        for hash_seed in ("0", "2"):
            proc = cli("compare", "--cases", "specs", "--out",
                       f"r{hash_seed}.json", hash_seed=hash_seed)
            assert proc.returncode == EXIT_OK, proc.stderr
            reports.append((tmp_path / f"r{hash_seed}.json").read_bytes())
        # The whole report, case rows included, is the same in every process.
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert [row["case"] for row in report["cases"]] == ["ok.json"]
        assert report["errors"] == [{
            "case": "five.json", "error": "fan_out must be >= target_count"}]

        proc = cli("gen-case", "--targets", "5", "--fan-out", "3", "--out",
                   "c.json", "--edges-out", "e.csv")
        assert proc.returncode == EXIT_CONFIG
        assert json.loads(proc.stderr) == {
            "error": "config-error",
            "message": "fan_out must be >= target_count"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "r0.json", "r2.json", "specs"]

    def test_gen_case_refuses_out_of_range_spec(self, tmp_path):
        out = tmp_path / "c.json"
        for args in (["--noise-rate", "inf"], ["--noise-rate", "-3"],
                     ["--hubs", "-2"]):
            res = self.run(["gen-case", *args, "--out", str(out)])
            assert "must be" in config_error_message(res)
            assert not out.exists()

    def test_compare_records_a_non_finite_spec_and_goes_on(self, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "a_inf.json").write_text('{"noise_rate": Infinity}')
        assert self.run(["gen-case", "--seed", "1", "--layers", "3", "--out",
                         str(cases / "b_ok.json")]).exit_code == EXIT_OK
        res = self.run(["compare", "--cases", str(cases), "--out",
                        str(tmp_path / "r.json")])
        assert res.exit_code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert [row["case"] for row in report["cases"]] == ["b_ok.json"]
        assert report["errors"] == [{
            "case": "a_inf.json",
            "error": "noise_rate must be finite and >= 0"}]

    def test_compare_records_a_failing_method_and_goes_on(self, tmp_path,
                                                          monkeypatch):
        import fundtrace.runner as runner_mod

        def run_method_failing_poison(source, provider, config):
            if config.method == "poison":
                raise RuntimeError("poison failed")
            return run_method(source, provider, config)

        monkeypatch.setattr(runner_mod, "run_method", run_method_failing_poison)
        spec = tmp_path / "case.json"
        assert self.run(["gen-case", "--seed", "1", "--layers", "3",
                         "--out", str(spec)]).exit_code == EXIT_OK
        res = self.run(["compare", "--cases", str(spec), "--out",
                        str(tmp_path / "r.json")])
        assert res.exit_code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["errors"] == [{"case": "case.json", "method": "poison",
                                     "error": "poison failed"}]
        [row] = report["cases"]
        assert [m["method"] for m in row["methods"]] == [
            "ttr", "appr", "bfs", "haircut"]
        assert set(report["aggregate"]) == {"ttr", "appr", "bfs", "haircut"}
        # Timings go to stderr only; a method that raised took no time.
        assert "runtime_s" not in json.dumps(report)
        assert re.fullmatch(
            r"ttr runtime_s=\d+\.\d{3} appr runtime_s=\d+\.\d{3} "
            r"bfs runtime_s=\d+\.\d{3} poison runtime_s=0\.000 "
            r"haircut runtime_s=\d+\.\d{3} wrote \S+ \(1 cases\)\n",
            res.stderr)

    def test_compare_skips_its_own_report_in_the_cases_dir(self, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        assert self.run(["gen-case", "--seed", "5", "--layers", "3", "--out",
                         str(specs / "c.json")]).exit_code == EXIT_OK
        reports = []
        for _ in range(2):
            res = self.run(["compare", "--cases", str(specs),
                            "--out", str(specs / "report.json")])
            assert res.exit_code == EXIT_OK, res.output
            reports.append((specs / "report.json").read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[1])
        assert [row["case"] for row in report["cases"]] == ["c.json"]
        assert report["errors"] == []

        # With only the report left, the directory holds no spec.
        (specs / "c.json").unlink()
        res = self.run(["compare", "--cases", str(specs),
                        "--out", str(specs / "report.json")])
        assert config_error_message(res) == f"no case specs under {specs}"

    def test_compare_no_specs_errors(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        res = self.run(["compare", "--cases", str(empty)])
        assert res.exit_code == EXIT_CONFIG


def _inline_trace_writer(path, result, format, provenance):
    """The output step that ``fundtrace trace`` and the benchmark's trace
    op each wrote out in full before ``write_trace`` took it over."""
    residuals = {}
    if result.trace is not None:
        for node, _ts, _tok, value in result.trace.ledger.items():
            residuals[node] = residuals.get(node, 0.0) + value
    community = (set(result.community.members)
                 if result.community is not None else None)
    source = result.provenance["source"]
    graph = result.output_graph()
    if format == "graphml":
        write_graphml(path, graph, rank=result.scores, residuals=residuals,
                      source=source, community=community)
    else:
        write_json(path, graph, rank=result.scores, residuals=residuals,
                   source=source, community=community, provenance=provenance)
    Path(f"{path}.provenance.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=1) + "\n")


def test_run_config_refuses_out_of_range_values():
    # The CLI's --method choice hides the first; the library checks it.
    for field, value, message in (
            ("method", "nope", "unknown method 'nope'"),
            ("depth", -1, "depth must be >= 0"),
            ("cutoff", 0.0, r"cutoff must be in \(0,1\]"),
            ("cutoff", 1.5, r"cutoff must be in \(0,1\]")):
        config = RunConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            config.validate()
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_method("a", GraphProvider(build_graph([])), config)


@pytest.mark.parametrize("method", ["ttr", "bfs"])
@pytest.mark.parametrize("fmt", ["json", "graphml"])
def test_write_trace_matches_the_inline_writer(tmp_path, method, fmt):
    graph = random_txgraph(3, n_nodes=40, n_edges=200, swap_rate=0.2)
    source = sorted(graph.nodes)[0]
    result = run_method(source, GraphProvider(graph), RunConfig(method=method))
    if method == "ttr":
        # Residuals and a community that leaves nodes out are both written.
        assert result.trace.ledger.total() > 0
        assert len(result.community.members) < len(result.subgraph.nodes)
    provenance = {**result.provenance, "config": {"format": fmt}}
    write_trace(str(tmp_path / "got"), result, fmt, provenance)
    _inline_trace_writer(str(tmp_path / "want"), result, fmt, provenance)
    for suffix in ("", ".provenance.json"):
        assert ((tmp_path / f"got{suffix}").read_bytes()
                == (tmp_path / f"want{suffix}").read_bytes())


@given(seed=st.integers(0, 10_000), order=st.randoms(use_true_random=False),
       hub_cap=st.sampled_from([None, 3]),
       fmt=st.sampled_from(["json", "graphml"]))
@settings(max_examples=30, deadline=None)
def test_trace_bytes_do_not_depend_on_row_order(seed, order, hub_cap, fmt):
    rows = split_leg_rows(seed)
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, batch in enumerate((rows, order.sample(rows, len(rows)))):
            graph = build_graph(batch)
            result = run_method(sorted(graph.nodes)[0], GraphProvider(graph),
                                RunConfig(hub_cap=hub_cap))
            path = Path(tmp, f"{n}.{fmt}")
            write_trace(str(path), result, fmt, result.provenance)
            written.append((path.read_bytes(),
                            Path(f"{path}.provenance.json").read_bytes()))
    assert written[0] == written[1]
