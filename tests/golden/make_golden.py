"""Write or check the golden trace corpus.

    python tests/golden/make_golden.py           # rewrite the corpus files
    python tests/golden/make_golden.py --check   # compare, print the diff

The corpus pins what every method answers on fixed inputs: the 20
criterion-7 planted cases (ingested from the CSV that ``gen-case
--edges-out`` writes), ten ``multihop_swap_rows`` graphs, a 40-swap
alternating chain, and one hub-capped trace. Each entry holds the
ranks (or taint) and per-node residual totals as ``repr``, the members
(the community in sweep order for ``ttr``, the sorted output nodes
otherwise) and, for ``ttr``, ``termination``, ``iterations``,
``dropped_mass`` and ``hub_cap_hits``.

Regenerate the corpus only in a change that claims a numeric change,
and report the ``--check`` output of the old corpus in that change.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from conftest import build_graph, multihop_swap_rows, swap_bot_chain  # noqa: E402
from fundtrace.cases import CaseSpec, case_records, generate_planted_case  # noqa: E402
from fundtrace.providers import FileProvider, GraphProvider  # noqa: E402
from fundtrace.runner import METHODS, RunConfig, run_method  # noqa: E402

REL_TOL = 1e-9
ABS_TOL = 1e-12


def criterion7_specs() -> list[CaseSpec]:
    """The planted-case specs of acceptance criterion 7."""
    return [CaseSpec(seed=100 + i, layers=4 + i % 3, fan_out=3,
                     swap_hop_probability=0.5, noise_rate=2.0,
                     hub_count=2, hub_spokes=150) for i in range(20)]


def _entry(source, provider, config: RunConfig) -> dict:
    result = run_method(source, provider, config)
    entry = {"ranks": {n: repr(v) for n, v in result.scores.items()}}
    if result.community is not None:
        entry["members"] = list(result.community.members)
    else:
        entry["members"] = sorted(result.output_nodes)
    trace = result.trace
    if trace is not None:
        residuals: dict[str, float] = {}
        for node, _ts, _token, value in trace.ledger.items():
            residuals[node] = residuals.get(node, 0.0) + value
        entry.update(
            residuals={n: repr(v) for n, v in residuals.items()},
            termination=trace.termination, iterations=trace.iterations,
            dropped_mass=repr(trace.dropped_mass),
            hub_cap_hits=list(trace.hub_cap_hits))
    return entry


def _all_methods(source, provider) -> dict:
    return {m: _entry(source, provider, RunConfig(method=m)) for m in METHODS}


def generate() -> dict[str, dict]:
    """The corpus, one dict of named entries per file stem."""
    planted = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in criterion7_specs():
            case = generate_planted_case(spec)
            path = Path(tmp) / f"case-{spec.seed}.csv"
            records = case_records(case)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(records[0]))
                writer.writeheader()
                writer.writerows(records)
            provider = FileProvider(str(path))
            for method, entry in _all_methods(case.source, provider).items():
                planted[f"seed{spec.seed}/{method}"] = entry
    swaps = {}
    for seed in range(10):
        provider = GraphProvider(build_graph(multihop_swap_rows(seed)))
        for method, entry in _all_methods("n00", provider).items():
            swaps[f"seed{seed}/{method}"] = entry
    chain, _ = swap_bot_chain(40)
    hub_case = generate_planted_case(criterion7_specs()[0])
    return {
        "planted": planted,
        "multihop_swaps": swaps,
        "swap_chain": _all_methods("src", GraphProvider(chain)),
        "hub_cap": {"seed100/ttr": _entry(
            hub_case.source, GraphProvider(hub_case.graph),
            RunConfig(method="ttr", hub_cap=5))},
    }


def dumps(corpus_file: dict) -> str:
    return json.dumps(corpus_file, indent=1, sort_keys=True) + "\n"


def load() -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text())
            for p in sorted(HERE.glob("*.json"))}


def compare(want: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """Every difference between two corpora, one line each, then a line
    with the largest |Δrank|. Ranks agree within ``math.isclose(rel_tol=
    1e-9, abs_tol=1e-12)``; every other field must be equal."""
    diffs: list[str] = []
    worst = (0.0, "")
    for stem in sorted(set(want) | set(got)):
        w_file, g_file = want.get(stem, {}), got.get(stem, {})
        for name in sorted(set(w_file) | set(g_file)):
            where = f"{stem}/{name}"
            w, g = w_file.get(name), g_file.get(name)
            if w is None or g is None:
                diffs.append(f"{where}: only in the "
                             f"{'committed' if g is None else 'regenerated'} "
                             "corpus")
                continue
            w_ranks, g_ranks = w["ranks"], g["ranks"]
            for node in sorted(set(w_ranks) | set(g_ranks)):
                if node not in w_ranks or node not in g_ranks:
                    diffs.append(f"{where}: rank of {node} is "
                                 f"{w_ranks.get(node)} -> {g_ranks.get(node)}")
                    continue
                a, b = float(w_ranks[node]), float(g_ranks[node])
                if abs(a - b) > worst[0]:
                    worst = (abs(a - b), f"{where} node {node}")
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    diffs.append(f"{where}: rank of {node} is {a!r} -> {b!r}")
            w_set, g_set = set(w["members"]), set(g["members"])
            for node in sorted(w_set ^ g_set):
                side = "lost" if node in w_set else "gained"
                diffs.append(f"{where}: member {node} {side}; rank "
                             f"{w_ranks.get(node)} -> {g_ranks.get(node)}")
            if w_set == g_set and w["members"] != g["members"]:
                diffs.append(f"{where}: same members in another order")
            for key in sorted((set(w) | set(g)) - {"ranks", "members"}):
                if w.get(key) != g.get(key):
                    diffs.append(f"{where}: {key} differs: {w.get(key)!r} "
                                 f"-> {g.get(key)!r}")
    diffs.append(f"largest |Δrank| {worst[0]!r}"
                 + (f" at {worst[1]}" if worst[1] else ""))
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate in memory and print how it "
                             "differs from the committed files")
    args = parser.parse_args(argv)
    corpus = generate()
    if args.check:
        report = compare(load(), corpus)
        print("\n".join(report))
        stale = [stem for stem, data in corpus.items()
                 if not (HERE / f"{stem}.json").exists()
                 or (HERE / f"{stem}.json").read_text() != dumps(data)]
        print("committed files are byte-identical" if not stale
              else f"files that would change: {', '.join(stale)}")
        return 1 if stale else 0
    for stem, data in corpus.items():
        (HERE / f"{stem}.json").write_text(dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
