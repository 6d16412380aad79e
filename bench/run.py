"""fundtrace benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload trace-synth --seed 1 --seconds 25 --trace 0

or every workload, each in its own process, with ``--workload all``; that
also writes the results to ``.bench_work/results.json``.

Each workload is a closed loop: one caller, no threads, the next op
starts when the previous one has returned. A run sets its inputs up at
least three times and for at least a second (``setup_s`` is the median),
fills any cache the workload reads (once, untimed), runs one untimed
warm-up op, then times ops until their summed time reaches
``--seconds``. Every op's output is checked after its timer stops; an
op that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is the traced
run: half the time untraced, then the same op sequence with every layer
wrapped (see ``tracing.py``). It prints the per-layer metrics, the share
of op wall time the layers' self times cover (below 0.95 fails the run)
and the tracing overhead (traced over untraced time of the same ops),
and writes its spans to ``.bench_work/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run context: machine, interpreter, seeds and per-op digests.
The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3    # set-up runs at least this often
SETUP_SECONDS = 1.0  # and until it has taken this long in total
MIN_COVERAGE = 0.95
TAIL_BEYOND = 10
NAMES = ("trace-synth", "trace-hostile", "compare-planted", "trace-api-cache")


def import_program():
    """Import fundtrace from this checkout's ``src``; None if absent."""
    src = ROOT / "src"
    if not (src / "fundtrace" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import fundtrace
    if Path(fundtrace.__file__).resolve().parent != src / "fundtrace":
        return None
    return fundtrace


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples beyond). With too few samples for one,
    the maximum."""
    ordered = sorted(times_ms)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def run_ops(workload, seconds: float, max_ops: int | None,
            span=contextlib.nullcontext):
    """Closed loop over ops 0, 1, 2, ... until their summed time reaches
    ``seconds`` (or ``max_ops`` ops). Returns (op seconds, failures,
    digests). Only the op is timed, not its check."""
    times, failures, digests = [], [], []
    while sum(times) < seconds and (max_ops is None or len(times) < max_ops):
        i = len(times)
        start = time.perf_counter()
        try:
            with span():
                out = workload.op(i)
        except Exception:  # an op that raises is a failed op, not a crash
            out = None
            failures.append((i, traceback.format_exc(limit=3).strip()))
        times.append(time.perf_counter() - start)
        op_digest = None
        if out is not None:
            try:
                problems, op_digest = workload.check(i, out)
            except Exception:  # unreadable output fails the op too
                problems = [traceback.format_exc(limit=3).strip()]
            if problems:
                failures.append((i, "; ".join(problems)))
        digests.append(op_digest)
    return times, failures, digests


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None, size: str = "full") -> dict:
    """One run of one workload; returns the result record."""
    # Imported here: both need fundtrace, which import_program puts on the path.
    import workloads
    from fundtrace import _accel

    cls = workloads.WORKLOADS[name]
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.mkdir(parents=True)
        record = {"workload": name, "context": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "use_numba": _accel.USE_NUMBA,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
            "seed": seed,
        }}
        if trace:
            record.update(_traced(cls, seed, workdir, seconds, max_ops, size))
        else:
            record.update(_untraced(cls, seed, workdir, seconds, max_ops, size))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(cls, seed, workdir, seconds, max_ops, size) -> dict:
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        # A fresh directory each time: no deletions inside the timing.
        rep_dir = workdir / f"setup{len(setups)}"
        rep_dir.mkdir()
        workload = cls(seed, rep_dir, size)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.warm()
    run_ops(workload, math.inf, 1)  # warm-up: lazy imports, first touches
    times, failures, digests = run_ops(workload, seconds, max_ops)
    ops = len(times)
    times_ms = [t * 1000.0 for t in times]
    tail_ms, tail_pct, tail_beyond = tail(times_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }
    return {"ops": ops, "failures": failures, "digests": digests,
            "metrics": metrics, "error_rate": len(failures) / ops,
            "tail": (tail_pct, tail_beyond)}


def _traced(cls, seed, workdir, seconds, max_ops, size) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = cls(seed, workdir, size)
        with tracer.span("bench.setup"):
            workload.setup()
        with tracer.span("bench.warm"):
            workload.warm()
        load_s = tracer.total_s["graph.load"]
        fill_s = tracer.total_s["bench.warm"]
        tracer.reset()
        run_ops(workload, math.inf, 1)  # warm-up, untraced: no open span
        plain, failures, digests = run_ops(workload, seconds / 2, max_ops)
        workload.observer = tracer.count
        traced, traced_failures, traced_digests = run_ops(
            workload, seconds / 2, max_ops, span=lambda: tracer.span(tracing.OP))
    finally:
        tracer.uninstall()
    spans_path = WORK_ROOT / f"spans-{cls.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    ops = len(traced)
    coverage = tracer.self_coverage()
    metrics = tracer.per_layer(ops)
    metrics["graph.load_s"] = (load_s, "s")
    metrics["providers.cache_fill_s"] = (fill_s, "s")
    metrics["bench.self_coverage"] = (coverage, "ratio")
    same = min(len(plain), ops)  # compare the same ops, traced and not
    metrics["bench.trace_overhead"] = (
        sum(traced[:same]) / sum(plain[:same]), "ratio")
    problems = []
    if coverage < MIN_COVERAGE:
        problems.append(f"layer self times cover {coverage:.3f} of op wall "
                        f"time, below {MIN_COVERAGE}")
    failures = failures + traced_failures
    attempted = len(plain) + ops
    return {"ops": attempted, "failures": failures, "problems": problems,
            "digests": digests + traced_digests, "metrics": metrics,
            "error_rate": len(failures) / attempted,
            "spans": str(spans_path.relative_to(ROOT))}


def report(record: dict) -> None:
    """Print the run: metrics by name with unit, context, result line."""
    name = record["workload"]
    for metric, (value, unit) in sorted(record["metrics"].items()):
        line = f"{name} {metric} = {value:.6g} {unit}"
        if metric == "op_ms_tail":
            pct, beyond = record["tail"]
            line += f" (p{pct:.1f} of {record['ops']} ops, {beyond} beyond)"
        print(line)
    print(f"{name} error_rate = {record['error_rate']:.6g} "
          f"({len(record['failures'])} of {record['ops']} ops)")
    if "spans" in record:
        print(f"{name} spans written to {record['spans']}")
    for op_index, reason in record["failures"][:5]:
        print(f"{name} failed op {op_index}: {reason}", file=sys.stderr)
    for problem in record.get("problems", []):
        print(f"{name} traced run: {problem}", file=sys.stderr)
    context = dict(record["context"], op_digests=record["digests"])
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result_line(record)))


def result_line(record: dict) -> dict:
    return {
        "correct": not record["failures"] and not record.get("problems"),
        "attempted": record["ops"],
        "failed": len(record["failures"]),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in record["metrics"].items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; collects the result lines."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = {"result": json.loads(lines[-1]),
                         "context": json.loads(lines[-2][len("context "):])}
    WORK_ROOT.mkdir(exist_ok=True)
    out = WORK_ROOT / "results.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be a positive number")
    if import_program() is None:
        print(f"fundtrace sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report(run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
