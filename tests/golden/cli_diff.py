"""Run a fixed matrix of CLI calls against this tree and another one,
and print every difference.

    python tests/golden/cli_diff.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout, such as a
``git archive`` of the parent commit. Each side runs the whole matrix
three times, under PYTHONHASHSEED 0, 7 and 2, each time in a fresh
temporary directory with relative paths:

- ``gen-case`` writes three planted cases with their edge CSVs;
- ``trace`` runs every method in JSON and GraphML over those CSVs and
  over one JSON-lines swap file, plus ``--hub-cap``, ``--budget`` and
  ``--config`` runs;
- ``trace`` reads a CSV and a JSON-lines file that each begin with a
  blank line, and a CSV of transfers paid in several legs and a
  row-shuffled copy of it, each into GraphML by the same command; that
  pair of outputs must hold the same bytes;
- ``trace`` reads three copies of that CSV: one whose header line
  starts with spaces, one whose header cells hold spaces and a tab, and
  one with a whitespace-only row and a row of only commas between its
  records;
- ``trace`` reads a JSON-lines file whose account, token and hash names
  hold ``"``, ``\\``, ``<&>``, a non-ASCII and a non-BMP character,
  into JSON and into GraphML, so both writers' escaping is compared;
- ``compare`` runs over the cases, with and without flags, over a
  directory holding specs it must record as errors, over a spec with
  more targets than branches, and twice over a directory that its own
  ``--out`` report lies in;
- every error the CLI maps to an exit code is provoked once, including
  a provider that fails after its first fetch, and each command's output
  path is refused when it is an existing directory, lies below a regular
  file or below a missing directory, ends in a separator, or is empty;
- seven calls name one file twice: ``compare`` with its spec file as
  ``--out``, ``trace`` with its edge file or its ``--config`` file as
  ``--out``, and ``gen-case`` with one file as ``--out`` and
  ``--edges-out``, each by one path, and the first, the second and the
  last again through a hard link. The bytes of that file are read right
  after the call.

Only file providers are used, so no call reaches a network. The script
compares every exit code, stderr line and file the calls leave, the
bytes of each file the seven calls above name, and whether the shuffled
pair's outputs are equal, with the ``runtime_s`` values of stderr
masked, and exits 1 if any differs. For a file that differs it prints
the count of lines removed and added against ``this@0``, and the first
few of them.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
THIS_SRC = HERE.parents[1] / "src"
sys.path[:0] = [str(HERE.parent), str(THIS_SRC)]

from conftest import multihop_swap_rows, split_leg_rows  # noqa: E402

SEEDS = ("0", "7", "2")
# Differing lines shown per file.
SHOWN = 6
METHODS = ("ttr", "appr", "bfs", "poison", "haircut")
RUNTIME = re.compile(r'(runtime_s"?[=:] ?)[0-9.eE+-]+')

RUN = ("import sys\n"
       "from fundtrace.cli import main\n"
       "main(sys.argv[1:], prog_name='fundtrace')\n")
# FileProvider answers the first fetch, then fails as an API would.
FAIL_AFTER_FIRST_FETCH = """
import sys
from fundtrace import providers
from fundtrace.cli import main
fetch = providers.FileProvider.fetch_edges
calls = []
def flaky(self, account):
    calls.append(account)
    if len(calls) > 1:
        raise providers.ProviderError("rate limited")
    return fetch(self, account)
providers.FileProvider.fetch_edges = flaky
main(sys.argv[1:], prog_name="fundtrace")
"""

INPUTS = {"c1": ("c1.csv", "src"), "c2": ("c2.csv", "src"),
          "c3": ("c3.csv", "src"), "swaps": ("swaps.jsonl", "n00")}
# The file that each call naming one file twice must leave as it was.
KEPT = {"compare-out-is-spec": "own-spec.json",
        "trace-out-is-provider": "own-edges.jsonl",
        "trace-out-is-config": "own-cfg.json",
        "gen-out-is-edges-out": "own-gen.csv",
        "compare-out-links-spec": "link-spec.json",
        "trace-out-links-provider": "link-edges.jsonl",
        "gen-edges-out-links-out": "link-gen.json"}
# Account, token and hash names that each writer must escape.
ODD = '"\\<&>é\U0001F600'
ODD_ROWS = [(f"s{ODD}", f"m{ODD}", 10.0, 1, f"usdc{ODD}", f"h1{ODD}"),
            (f"m{ODD}", "dex", 10.0, 2, f"usdc{ODD}", f"h2{ODD}"),
            ("dex", f"m{ODD}", 0.5, 2, f"weth{ODD}", f"h2{ODD}"),
            (f"m{ODD}", f"t{ODD}", 0.5, 3, f"weth{ODD}", "h3")]
# Output files that must hold the same bytes: one command's trace of a
# file and of its rows shuffled.
SAME = ("out/legs.graphml", "out/legs-shuffled.graphml")


def write_inputs(root: Path) -> None:
    """The files the matrix reads, which no call may write."""
    for name in ("cases", "mixed", "empty", "out", "own"):
        (root / name).mkdir()
    with open(root / "swaps.jsonl", "w", encoding="utf-8") as fh:
        for s, t, a, ts, tok, h in multihop_swap_rows(5, 12, 60, 20):
            fh.write(json.dumps({"from": s, "to": t, "value": repr(a),
                                 "timeStamp": str(ts), "tokenSymbol": tok,
                                 "hash": h}) + "\n")
    (root / "mixed" / "bad.json").write_text('{"target_count": 0}')
    (root / "five.json").write_text('{"target_count": 5, "fan_out": 3}')
    (root / "afile").write_text("")
    (root / "mixed" / "inf.json").write_text('{"noise_rate": Infinity}')
    for stem, (edges, source) in INPUTS.items():
        (root / f"cfg-{stem}.json").write_text(json.dumps({
            "source": source, "provider": edges, "phi": 0.5, "depth": 3,
            "out": f"out/{stem}-config.json"}))
    (root / "own-spec.json").write_text('{"layers": 3, "seed": 5}')
    (root / "own-edges.jsonl").write_bytes((root / "swaps.jsonl").read_bytes())
    (root / "own-cfg.json").write_text(
        '{"source": "n00", "provider": "swaps.jsonl"}')
    (root / "own-gen.csv").write_text("kept\n")
    for name, link in (("own-spec.json", "link-spec.json"),
                       ("own-edges.jsonl", "link-edges.jsonl"),
                       ("own-gen.csv", "link-gen.json")):
        (root / link).write_bytes((root / name).read_bytes())
        os.link(root / link, root / f"hard-{link}")
    with open(root / "odd.jsonl", "w", encoding="utf-8") as fh:
        for src, tgt, a, ts, tok, h in ODD_ROWS:
            fh.write(json.dumps({"from": src, "to": tgt, "value": repr(a),
                                 "timeStamp": str(ts), "tokenSymbol": tok,
                                 "hash": h}) + "\n")
    swaps = (root / "swaps.jsonl").read_text(encoding="utf-8")
    (root / "blank.jsonl").write_text("\n" + swaps, encoding="utf-8")
    header = "from,to,value,timeStamp,tokenSymbol,hash\n"
    rows = [f"{s},{t},{a!r},{ts},{tok},{h}\n"
            for s, t, a, ts, tok, h in split_leg_rows(5)]
    (root / "blank.csv").write_text("\n" + header + "".join(rows))
    (root / "legs.csv").write_text(header + "".join(rows))
    (root / "spaced-line.csv").write_text("  " + header + "".join(rows))
    (root / "spaced-cells.csv").write_text(
        header.replace(",to,", ", to ,").replace(",hash", ",\thash ")
        + "".join(rows))
    (root / "blank-rows.csv").write_text(
        header + "".join(rows[:5]) + "   \n,,,,,\n" + "".join(rows[5:]))
    random.Random(1).shuffle(rows)
    (root / "legs-shuffled.csv").write_text(header + "".join(rows))
    (root / "cfg-bad-json.json").write_text("{source: a}")
    (root / "cfg-latin1.json").write_bytes(b'{"source": "\xff"}')
    (root / "cfg-list.json").write_text("[1, 2]")
    (root / "cfg-unknown.json").write_text('{"alpah": 0.5}')
    (root / "cfg-format.json").write_text(
        '{"source": "n00", "provider": "swaps.jsonl", "format": "xml"}')


def matrix() -> list[tuple[str, list[str], str]]:
    """(label, arguments, runner) per call, in the order they run."""
    calls = [
        ("gen-c1", ["gen-case", "--seed", "1", "--layers", "3",
                    "--out", "cases/c1.json", "--edges-out", "c1.csv"]),
        ("gen-c2", ["gen-case", "--seed", "2", "--layers", "4", "--hubs",
                    "2", "--swap-prob", "0.6", "--out", "cases/c2.json",
                    "--edges-out", "c2.csv"]),
        ("gen-c3", ["gen-case", "--seed", "3", "--fan-out", "2",
                    "--targets", "2", "--noise-rate", "0.5",
                    "--out", "cases/c3.json", "--edges-out", "c3.csv"]),
        ("gen-mixed", ["gen-case", "--seed", "4", "--layers", "3",
                       "--out", "mixed/ok.json"]),
        ("gen-own", ["gen-case", "--seed", "5", "--layers", "3",
                     "--out", "own/c.json"]),
    ]
    for stem, (edges, source) in INPUTS.items():
        base = ["trace", "--source", source, "--provider", edges]
        for method in METHODS:
            for fmt in ("json", "graphml"):
                calls.append((f"trace-{stem}-{method}-{fmt}", base + [
                    "--method", method, "--format", fmt,
                    "--out", f"out/{stem}-{method}.{fmt}"]))
        calls += [
            (f"trace-{stem}-hub-cap", base + [
                "--hub-cap", "3", "--out", f"out/{stem}-hub-cap.json"]),
            (f"trace-{stem}-budget", base + [
                "--budget", "20", "--out", f"out/{stem}-budget.json"]),
            (f"trace-{stem}-config", ["trace", "--config", f"cfg-{stem}.json",
                                      "--method", "haircut"]),
        ]
    swaps = ["trace", "--source", "n00", "--provider", "swaps.jsonl"]
    odd = ["trace", "--source", ODD_ROWS[0][0], "--provider", "odd.jsonl"]
    calls += [
        ("compare", ["compare", "--cases", "cases", "--out", "report.json"]),
        ("compare-flags", ["compare", "--cases", "cases/c1.json", "--alpha",
                           "0.2", "--phi", "0.5", "--out", "report-flags.json"]),
        ("compare-recorded-errors", ["compare", "--cases", "mixed",
                                     "--out", "report-mixed.json"]),
        ("compare-more-targets-than-branches", [
            "compare", "--cases", "five.json", "--out", "report-five.json"]),
        ("compare-own-dir", ["compare", "--cases", "own",
                             "--out", "own/report.json"]),
        ("compare-own-dir-again", ["compare", "--cases", "own",
                                   "--out", "own/report.json"]),
        ("compare-out-is-spec", ["compare", "--cases", "own-spec.json",
                                 "--out", "own-spec.json"]),
        ("trace-out-is-provider", ["trace", "--source", "n00", "--provider",
                                   "own-edges.jsonl",
                                   "--out", "own-edges.jsonl"]),
        ("trace-out-is-config", ["trace", "--config", "own-cfg.json",
                                 "--out", "own-cfg.json"]),
        ("gen-out-is-edges-out", ["gen-case", "--out", "own-gen.csv",
                                  "--edges-out", "own-gen.csv"]),
        ("compare-out-links-spec", ["compare", "--cases", "link-spec.json",
                                    "--out", "hard-link-spec.json"]),
        ("trace-out-links-provider", ["trace", "--source", "n00",
                                      "--provider", "link-edges.jsonl",
                                      "--out", "hard-link-edges.jsonl"]),
        ("gen-edges-out-links-out", ["gen-case", "--out", "link-gen.json",
                                     "--edges-out", "hard-link-gen.json"]),
        ("trace-blank-first-line-csv", swaps[:3] + [
            "--provider", "blank.csv", "--out", "out/blank-csv.json"]),
        ("trace-blank-first-line-jsonl", swaps[:3] + [
            "--provider", "blank.jsonl", "--out", "out/blank-jsonl.json"]),
        ("trace-spaced-header-line", swaps[:3] + [
            "--provider", "spaced-line.csv", "--out", "out/spaced-line.json"]),
        ("trace-spaced-header-cells", swaps[:3] + [
            "--provider", "spaced-cells.csv", "--out", "out/spaced-cells.json"]),
        ("trace-blank-rows", swaps[:3] + [
            "--provider", "blank-rows.csv", "--out", "out/blank-rows.json"]),
        ("trace-legs", swaps[:3] + [
            "--provider", "legs.csv", "--format", "graphml",
            "--out", SAME[0]]),
        ("trace-legs-shuffled", swaps[:3] + [
            "--provider", "legs-shuffled.csv", "--format", "graphml",
            "--out", SAME[1]]),
        ("trace-odd-names-json", odd + ["--out", "out/odd.json"]),
        ("trace-odd-names-graphml", odd + [
            "--format", "graphml", "--out", "out/odd.graphml"]),
        ("err-trace-no-source", ["trace"]),
        ("err-trace-missing-provider", ["trace", "--source", "n00",
                                        "--provider", "nope.csv"]),
        ("err-trace-blank-source", ["trace", "--source", " ",
                                    "--provider", "swaps.jsonl"]),
        ("err-trace-alpha", swaps + ["--alpha", "2", "--out", "out/x.json"]),
        ("err-trace-phi-nan", swaps + ["--phi", "nan", "--out", "out/x.json"]),
        ("err-trace-budget", swaps + ["--budget", "0", "--out", "out/x.json"]),
        ("err-trace-hub-cap", swaps + ["--hub-cap", "-1",
                                       "--out", "out/x.json"]),
        ("err-trace-method", swaps + ["--method", "nope"]),
        ("err-trace-out-dir", swaps + ["--out", "nodir/r.json"]),
        ("err-trace-out-dir-and-provider", [
            "trace", "--source", "n00", "--provider", "nope.csv",
            "--out", "nodir/r.json"]),
        ("err-config-missing", ["trace", "--config", "nope.json"]),
        ("err-config-bad-json", ["trace", "--config", "cfg-bad-json.json"]),
        ("err-config-not-utf8", ["trace", "--config", "cfg-latin1.json"]),
        ("err-config-not-object", ["trace", "--config", "cfg-list.json"]),
        ("err-config-unknown-key", ["trace", "--config", "cfg-unknown.json"]),
        ("err-config-bad-value", ["trace", "--config", "cfg-format.json"]),
        ("err-compare-no-specs", ["compare", "--cases", "empty"]),
        ("err-compare-missing-cases", ["compare", "--cases", "nope.json"]),
        ("err-compare-alpha", ["compare", "--cases", "cases", "--alpha", "2",
                               "--out", "report-alpha.json"]),
        ("err-compare-out-dir", ["compare", "--cases", "cases",
                                 "--out", "nodir/r.json"]),
        ("err-gen-out-dir", ["gen-case", "--out", "nodir/c.json"]),
        ("err-gen-edges-out-dir", ["gen-case", "--out", "partial.json",
                                   "--edges-out", "nodir/e.csv"]),
        ("err-gen-noise-inf", ["gen-case", "--noise-rate", "inf",
                               "--out", "inf.json"]),
        ("err-gen-more-targets-than-branches", [
            "gen-case", "--targets", "5", "--fan-out", "3",
            "--out", "five-gen.json", "--edges-out", "five-gen.csv"]),
        ("err-gen-hubs", ["gen-case", "--hubs", "-2", "--out", "hubs.json"]),
    ]
    # Output paths that open() refuses: an existing directory, a path one
    # and two levels below a regular file, a path ending in a separator
    # that names nothing or a regular file, and the empty path.
    for where, out in (("is-dir", "out"), ("under-file", "afile/r.json"),
                       ("two-under-file", "afile/x/r.json"),
                       ("new-dir", "newname/"), ("file-as-dir", "afile/"),
                       ("empty", "")):
        calls += [
            (f"err-trace-out-{where}", swaps + ["--out", out]),
            (f"err-compare-out-{where}", ["compare", "--cases",
                                          "cases/c1.json", "--out", out]),
            (f"err-gen-out-{where}", ["gen-case", "--out", out]),
            (f"err-gen-edges-out-{where}", [
                "gen-case", "--out", f"partial-{where}.json",
                "--edges-out", out]),
        ]
    calls = [(label, args, RUN) for label, args in calls]
    calls.append(("err-provider-mid-trace", swaps + [
        "--out", "out/mid-trace.json"], FAIL_AFTER_FIRST_FETCH))
    return calls


def run_side(src: Path, seed: str) -> dict[tuple[str, str], str]:
    """Every observation of one run of the matrix, keyed by kind and
    name: each call's exit code and stderr, the bytes of each ``KEPT``
    file right after its call, whether the ``SAME`` files are equal, and
    each file left behind."""
    seen: dict[tuple[str, str], str] = {}
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src),
           "PYTHONHASHSEED": seed}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        before = {p for p in root.rglob("*")}
        for label, args, runner in matrix():
            proc = subprocess.run([sys.executable, "-c", runner, *args],
                                  cwd=root, env=env, capture_output=True,
                                  text=True, timeout=300)
            seen[("exit", label)] = str(proc.returncode)
            seen[("stderr", label)] = RUNTIME.sub(r"\1*", proc.stderr)
            if label in KEPT:
                kept = root / KEPT[label]
                seen[("input", f"{label} {KEPT[label]}")] = (
                    kept.read_text(encoding="utf-8", errors="replace")
                    if kept.exists() else "(deleted)")
        pair = [(root / p).read_bytes() if (root / p).exists() else None
                for p in SAME]
        seen[("same", " ".join(SAME))] = str(pair[0] == pair[1])
        for path in sorted(set(root.rglob("*")) - before):
            if path.is_file():
                seen[("file", str(path.relative_to(root)))] = path.read_text(
                    encoding="utf-8", errors="replace")
    return seen


def line_differences(want: str | None, got: str) -> str:
    """How ``got`` differs from ``want``: the count of lines removed and
    added, then the first ``SHOWN`` of them, each under the ``@@`` line
    that says where its hunk lies."""
    if want is None:
        return "present"
    hunks = list(difflib.unified_diff(want.splitlines(), got.splitlines(),
                                      lineterm="", n=0))[2:]
    removed = sum(line[:1] == "-" for line in hunks)
    added = sum(line[:1] == "+" for line in hunks)
    shown, lines = 0, [f"{removed} lines removed, {added} added"]
    for line in hunks:
        if shown == SHOWN:
            break
        if line.startswith("@@"):
            lines.append(f"    {line}")
        else:
            lines.append(f"    {line[0]}{line[1:121]!r}")
            shown += 1
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path,
                        help="the src directory of the tree to compare with")
    args = parser.parse_args(argv)
    runs = {f"{side}@{seed}": run_side(src, seed)
            for side, src in (("this", THIS_SRC),
                              ("other", args.other_src.resolve()))
            for seed in SEEDS}
    reference = runs["this@0"]
    keys = sorted(set().union(*runs.values()))
    differences = 0
    for kind, name in keys:
        values = {run: seen.get((kind, name)) for run, seen in runs.items()}
        if len(set(values.values())) == 1:
            continue
        differences += 1
        print(f"{kind} {name}:")
        for run, value in values.items():
            if value is None:
                shown = "absent"
            elif kind in ("exit", "stderr", "same"):
                shown = repr(value.strip())
            elif value == reference.get((kind, name)):
                shown = "same as this@0"
            else:
                shown = line_differences(reference.get((kind, name)), value)
            print(f"  {run}: {shown}")
    calls = len(matrix())
    files = sum(kind == "file" for kind, _ in keys)
    print(f"{calls} calls, {files} files and {len(KEPT)} kept inputs per "
          f"run, runs {', '.join(runs)}: {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
