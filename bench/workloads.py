"""The benchmark's four workloads: seeded inputs, set-up, one op, checks.

Every workload draws all of its inputs from ``random.Random(f"{name}:{seed}")``
so one seed gives the same inputs in every process, whatever
``PYTHONHASHSEED`` is. An op is the unit of timed work. ``check`` runs
after the op's timer has stopped and returns the reasons the op's output
is wrong (an empty list when it is right) plus a digest of its rank and
community output.

The program is reached only through module attributes looked up at call
time (``runner.run_method``, ``export.write_json``, ...), so the traced run
sees every call the benchmark makes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import networkx as nx

from fundtrace import cases, export, metrics, providers, runner
from fundtrace.cli import TOPN_POINTS
from fundtrace.expansion import TERM_CONVERGED
from fundtrace.graph import TransactionGraph, TransferEdge

# Golden-ratio steps: a low-discrepancy sequence spreads the structural
# sizes of the hostile inputs evenly over their range, so the op-time
# distribution is the same from one seed to the next.
GOLDEN = 0.6180339887498949

ETHERSCAN_URL = "https://api.etherscan.invalid/api"


def random_txgraph_rows(rng: random.Random, prefix: str, n_nodes: int,
                        n_edges: int, tokens: list[str],
                        swap_rate: float) -> list[tuple]:
    """Rows of the ``random_txgraph`` shape used by the test suite:
    uniform random transfers, with a same-hash counter leg in another
    token after ``swap_rate`` of them. Names carry ``prefix`` so several
    blocks can share one ledger without touching each other."""
    nodes = [f"{prefix}n{i:02d}" for i in range(n_nodes)]
    rows = []
    for h in range(1, n_edges + 1):
        src, tgt = rng.sample(nodes, 2)
        txhash = f"{prefix}x{h:05d}"
        token = rng.choice(tokens)
        ts = rng.randint(1, 10_000)
        rows.append((src, tgt, rng.uniform(0.5, 100.0), ts, token, txhash))
        if rng.random() < swap_rate:
            other = rng.choice([t for t in tokens if t != token])
            rows.append((tgt, src, rng.uniform(0.5, 100.0), ts, other, txhash))
    return rows


def block_sources(rng: random.Random, blocks: list[list[tuple]],
                  count: int = 500) -> list[str]:
    """Trace sources: source i is an account of block i mod len(blocks)
    that sent at least one transfer, so every block is traced equally
    often whatever the op count."""
    senders = [sorted({row[0] for row in block}) for block in blocks]
    return [rng.choice(senders[i % len(senders)]) for i in range(count)]


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trace_digest(result) -> str:
    ranks = sorted((node, repr(value)) for node, value in result.scores.items())
    return digest({"rank": ranks, "community": result.community.members})


class Workload:
    """One workload. Subclasses set ``name``, ``why`` and ``SIZES``."""

    name = ""
    why = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, workdir: Path, size: str = "full"):
        self.seed = seed
        self.workdir = workdir
        self.size = self.SIZES[size]
        self.params = runner.RunConfig().params()
        self.observer = None  # set by the traced run for per-layer counts

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """One-off step after set-up, outside ``setup_s``: filling a cache
        that users fill once and then reuse."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[list[str], str]:
        raise NotImplementedError

    def count(self, name: str, value: float) -> None:
        if self.observer is not None:
            self.observer(name, value)


class TraceWorkload(Workload):
    """Shared op of the three trace workloads: what ``fundtrace trace``
    does after building its provider."""

    out_format = "json"

    def provider_for(self, i: int):
        return self.provider

    def source_for(self, i: int) -> str:
        return self.sources[i % len(self.sources)]

    def op(self, i: int):
        source = self.source_for(i)
        provider = self.provider_for(i)
        out_path = self.workdir / f"result.{self.out_format}"
        result = runner.run_method(source, provider, runner.RunConfig())
        residuals: dict[str, float] = {}
        for node, _ts, _tok, value in result.trace.ledger.items():
            residuals[node] = residuals.get(node, 0.0) + value
        graph = result.output_graph()
        community = set(result.community.members)
        provenance = dict(result.provenance)
        if self.out_format == "graphml":
            export.write_graphml(str(out_path), graph, rank=result.scores,
                                 residuals=residuals, source=source,
                                 community=community)
        else:
            export.write_json(str(out_path), graph, rank=result.scores,
                              residuals=residuals, source=source,
                              community=community, provenance=provenance)
        Path(f"{out_path}.provenance.json").write_text(
            json.dumps(provenance, sort_keys=True, indent=1) + "\n")
        self.count("export.bytes", out_path.stat().st_size)
        return source, result, graph, out_path

    def check(self, i: int, out) -> tuple[list[str], str]:
        source, result, graph, out_path = out
        trace = result.trace
        eps, alpha = self.params.epsilon, self.params.alpha
        problems = []
        mass = sum(trace.rank.values()) + trace.ledger.total() + trace.dropped_mass
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"mass identity off by {mass - 1.0:.3e}")
        if trace.termination != TERM_CONVERGED:
            problems.append(f"termination {trace.termination!r}")
        top = trace.ledger.max_node()
        if top is not None and top[1] >= eps:
            problems.append(f"residual {top[1]:.3e} at {top[0]} not below epsilon")
        bound = math.ceil(1.0 / (alpha * eps))
        if trace.iterations > bound:
            problems.append(f"{trace.iterations} iterations exceed {bound}")
        if source not in result.community.members:
            problems.append("community lacks the source")
        if self.out_format == "graphml":
            read_back = nx.read_graphml(str(out_path)).number_of_nodes()
        else:
            read_back = len(export.read_json(str(out_path)).nodes)
        if read_back != len(graph.nodes):
            problems.append(f"export read back {read_back} nodes, "
                            f"wrote {len(graph.nodes)}")
        return problems, trace_digest(result)


class TraceSynth(TraceWorkload):
    """Disjoint ``random_txgraph`` blocks in one CSV, ingested once."""

    name = "trace-synth"
    why = ("random_txgraph blocks behind FileProvider: trace time goes to "
           "subgraph rebuilds after each fetch in expansion/graph")
    SIZES = {
        "full": {"blocks": 10, "accounts": 100, "transfers": 1000},
        "tiny": {"blocks": 2, "accounts": 12, "transfers": 60},
    }

    def setup(self) -> None:
        rng = self.rng()
        blocks = [random_txgraph_rows(rng, f"b{b}", self.size["accounts"],
                                      self.size["transfers"],
                                      ["tk0", "tk1", "tk2"], 0.1)
                  for b in range(self.size["blocks"])]
        path = self.workdir / "edges.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["from", "to", "value", "timeStamp",
                             "tokenSymbol", "hash"])
            for block in blocks:
                for src, tgt, amount, ts, token, txhash in block:
                    writer.writerow([src, tgt, repr(amount), ts, token,
                                     txhash])
        self.provider = providers.FileProvider(str(path))
        self.sources = block_sources(rng, blocks)


class TraceHostile(TraceWorkload):
    """Sources that each fund a wide hub and a swap-chaining DEX bot."""

    name = "trace-hostile"
    why = ("each source funds a hub of many spokes and a DEX bot swapping "
           "back and forth: edge-cache dedup and ttr swap redirects")
    SIZES = {
        "full": {"graphs": 32, "spokes": (400, 1200), "swaps": (13, 15)},
        "tiny": {"graphs": 3, "spokes": (30, 40), "swaps": (3, 4)},
    }

    def setup(self) -> None:
        rng = self.rng()
        phase = rng.random()
        lo, hi = self.size["spokes"]
        swap_lo, swap_hi = self.size["swaps"]
        edges: list[TransferEdge] = []
        self.sources = []
        for g in range(self.size["graphs"]):
            # Both sizes grow with one u, so op cost is monotone in u and
            # its quantiles are those of u; with three swap counts the
            # median and the tail fall inside a level, not on a step.
            u = (phase + g * GOLDEN) % 1.0
            spokes = lo + int((hi - lo) * u)
            swaps = swap_lo + int((swap_hi - swap_lo + 1) * u)
            edges += self._component(rng, f"g{g}", spokes, swaps)
            self.sources.append(f"g{g}src")
        self.provider = providers.GraphProvider(TransactionGraph(edges))

    @staticmethod
    def _component(rng: random.Random, p: str, spokes: int,
                   swaps: int) -> list[TransferEdge]:
        src, hub, bot, dex = f"{p}src", f"{p}hub", f"{p}bot", f"{p}dex"
        t = 1_000
        # The hub gets a quarter of the bot's funding, so no spoke's share
        # reaches epsilon: the hub is fetched once and its spokes never.
        edges = [TransferEdge(src, hub, rng.uniform(100, 150), t, "usdt",
                              f"{p}h0"),
                 TransferEdge(src, bot, rng.uniform(400, 600), t + 1, "usdc",
                              f"{p}h1")]
        for s in range(spokes):
            edges.append(TransferEdge(hub, f"{p}s{s}", rng.uniform(0.1, 5.0),
                                      t + 2 + s, "usdt", f"{p}hs{s}"))
        # One hash per swap: out leg to the DEX, counter leg back.
        held, amount, ts = "usdc", edges[1].amount, t + 10
        for k in range(swaps):
            other = "weth" if held == "usdc" else "usdc"
            received = amount * rng.uniform(0.97, 1.0)
            edges.append(TransferEdge(bot, dex, amount, ts, held, f"{p}w{k}"))
            edges.append(TransferEdge(dex, bot, received, ts, other, f"{p}w{k}"))
            held, amount, ts = other, received, ts + rng.randint(5, 50)
        for m in range(3):
            edges.append(TransferEdge(bot, f"{p}out{m}", amount / 3, ts + m,
                                      held, f"{p}o{m}"))
        return edges


class FakeResponse:
    def __init__(self, payload: dict):
        self.payload = payload

    def raise_for_status(self) -> None:
        return None

    def json(self) -> dict:
        return self.payload


class FakeEtherscan:
    """In-process stand-in for the Etherscan account API: serves
    ``txlist`` (native ETH, no token symbol) and ``tokentx`` records per
    address and counts every request it answers."""

    def __init__(self, rows: list[tuple]):
        self.records: dict[tuple[str, str], list[dict]] = {}
        for src, tgt, amount, ts, token, txhash in rows:
            rec = {"from": src, "to": tgt, "value": repr(amount),
                   "timeStamp": str(ts), "hash": txhash, "isError": "0"}
            action = "txlist"
            if token != "ETH":
                rec["tokenSymbol"] = token
                action = "tokentx"
            for account in (src, tgt):
                self.records.setdefault((account, action), []).append(rec)
        for recs in self.records.values():
            recs.sort(key=lambda r: int(r["timeStamp"]))
        self.gets = 0

    def get(self, url, params=None, timeout=None) -> FakeResponse:
        self.gets += 1
        recs = self.records.get((params["address"], params["action"]))
        if not recs:
            return FakeResponse({"status": "0",
                                 "message": "No transactions found",
                                 "result": []})
        return FakeResponse({"status": "1", "message": "OK", "result": recs})


class TraceApiCache(TraceWorkload):
    """Traces through ``HttpProvider`` served only from its disk cache."""

    name = "trace-api-cache"
    why = ("Etherscan JSON from a warm HttpProvider disk cache, exported as "
           "GraphML: the only workload where providers parse API records")
    out_format = "graphml"
    SIZES = {
        "full": {"blocks": 3, "accounts": 100, "transfers": 1000},
        "tiny": {"blocks": 1, "accounts": 12, "transfers": 60},
    }

    def setup(self) -> None:
        rng = self.rng()
        blocks = [random_txgraph_rows(rng, f"b{b}", self.size["accounts"],
                                      self.size["transfers"],
                                      ["ETH", "tk1", "tk2"], 0.1)
                  for b in range(self.size["blocks"])]
        rows = [row for block in blocks for row in block]
        self.session = FakeEtherscan(rows)
        self.accounts = sorted({r[0] for r in rows} | {r[1] for r in rows})
        self.sources = block_sources(rng, blocks)

    def warm(self) -> None:
        """Fill the disk cache: two requests and two new files per account."""
        self.cache_dir = self.workdir / "api-cache"
        fill = self.http_provider()
        for account in self.accounts:
            fill.fetch_edges(account)
        if self.session.gets != 2 * len(self.accounts):
            raise RuntimeError(f"cache fill made {self.session.gets} requests "
                               f"for {len(self.accounts)} accounts")

    def http_provider(self) -> providers.HttpProvider:
        return providers.HttpProvider(ETHERSCAN_URL, session=self.session,
                                      cache_dir=str(self.cache_dir),
                                      api_key="bench", pacing=0.0)

    def provider_for(self, i: int):
        return self.http_provider()

    def op(self, i: int):
        gets = self.session.gets
        out = super().op(i)
        misses = self.session.gets - gets
        self.count("providers.http_gets", misses)
        return out + (misses,)

    def check(self, i: int, out) -> tuple[list[str], str]:
        problems, op_digest = super().check(i, out[:4])
        if out[4]:
            problems.append(f"{out[4]} cache misses reached the session")
        return problems, op_digest


class ComparePlanted(Workload):
    """``fundtrace compare`` on one planted-case spec file per op."""

    name = "compare-planted"
    why = ("criterion-7 planted cases, all five methods per case: baselines, "
           "cases and many small graphs share the work with ttr")
    SIZES = {
        "full": {"specs": 100, "hub_spokes": 150},
        "tiny": {"specs": 3, "hub_spokes": 10},
    }

    def setup(self) -> None:
        # Spec k is criterion 7's spec k mod 20 with its seed moved by
        # the workload seed: seed 0 starts with the acceptance cases.
        spec_dir = self.workdir / "specs"
        spec_dir.mkdir(exist_ok=True)
        self.spec_paths = []
        for k in range(self.size["specs"]):
            spec = cases.CaseSpec(seed=100 + k + 1000 * self.seed,
                                  layers=4 + k % 3, fan_out=3,
                                  swap_hop_probability=0.5, noise_rate=2.0,
                                  hub_count=2,
                                  hub_spokes=self.size["hub_spokes"])
            cases.generate_planted_case(spec)  # as gen-case: reject bad specs
            path = spec_dir / f"case{k:03d}.json"
            path.write_text(spec.to_json() + "\n")
            self.spec_paths.append(path)

    def op(self, i: int):
        path = self.spec_paths[i % len(self.spec_paths)]
        case = cases.generate_planted_case(
            cases.CaseSpec.from_json(path.read_text()))
        rows, topn, communities = {}, {}, {}
        for method in runner.METHODS:
            result = runner.run_method(case.source,
                                       providers.GraphProvider(case.graph),
                                       runner.RunConfig(method=method))
            rows[method] = runner.evaluate(result, case.source, case.targets)
            if method in ("ttr", "appr", "haircut"):
                topn[method] = metrics.topn_curve(result.scores, case.targets,
                                                  TOPN_POINTS)
            if result.community is not None:
                communities[method] = result.community.members
        return rows, topn, communities

    def check(self, i: int, out) -> tuple[list[str], str]:
        rows, topn, communities = out
        problems = []
        missing = [m for m in runner.METHODS if m not in rows]
        if missing:
            problems.append(f"methods without a result: {missing}")
        else:
            ttr, bfs = rows["ttr"], rows["bfs"]
            if ttr["recall"] < bfs["recall"]:
                problems.append(f"ttr recall {ttr['recall']} < bfs "
                                f"{bfs['recall']}")
            if ttr["nodes"] > 0.2 * bfs["nodes"]:
                problems.append(f"ttr nodes {ttr['nodes']} > 0.2 x bfs "
                                f"{bfs['nodes']}")
        stable = {m: {k: v for k, v in row.items() if k != "runtime_s"}
                  for m, row in rows.items()}
        return problems, digest({"rows": stable, "topn": topn,
                                 "communities": communities})


WORKLOADS = {w.name: w for w in (TraceSynth, TraceHostile, ComparePlanted,
                                 TraceApiCache)}
