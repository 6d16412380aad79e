"""Self-tests of the benchmark: tiny runs of every workload.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

assert bench.import_program() is not None, "fundtrace sources not found"

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("graph.build_calls", "expansion.iterations",
                 "providers.fetch_calls", "ttr.redirect_calls",
                 "ttr.push_calls")


def tiny_run(name, trace, seed=3):
    return bench.run_workload(name, seed, seconds=60.0, trace=trace,
                              max_ops=2, size="tiny")


def test_workloads_match_definition():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.NAMES)
    assert set(workloads.WORKLOADS) == set(bench.NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", bench.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    record = tiny_run(name, trace)
    line = bench.result_line(record)
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert line["attempted"] == (4 if trace else 2)
    assert len(record["digests"]) == line["attempted"]
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("name", ["trace-synth", "trace-hostile",
                                  "trace-api-cache"])
def test_tiny_trace_outputs_pass_their_checks(name):
    record = tiny_run(name, False)
    assert record["failures"] == []


@pytest.mark.parametrize("name", bench.NAMES)
def test_deterministic_counts_repeat_at_one_seed(name):
    first = bench.result_line(tiny_run(name, True))["metrics"]
    second = bench.result_line(tiny_run(name, True))["metrics"]
    for metric in DETERMINISTIC:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_digests_repeat_at_one_seed():
    assert (tiny_run("trace-synth", False)["digests"]
            == tiny_run("trace-synth", False)["digests"])


def test_traced_run_fails_loudly_on_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("ttr.gone", "fundtrace.ttr",
                                            "no_such_function")])
    tracer = tracing.Tracer()
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    assert tracer._restore == []


def test_self_times_sum_to_op_wall_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = workloads.TraceSynth(5, _workdir("selftime"), "tiny")
        workload.setup()
        with tracer.span(tracing.OP):
            workload.op(0)
    finally:
        tracer.uninstall()
        shutil.rmtree(_workdir("selftime"), ignore_errors=True)
    # Every layer's self time plus the op's own remainder is the op.
    wall = tracer.total_s[tracing.OP]
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert 0.0 < tracer.self_coverage() < 1.0


def test_raising_ops_and_failed_checks_count_as_failed():
    class Flaky:
        def op(self, i):
            if i == 1:
                raise RuntimeError("boom")
            return i

        def check(self, i, out):
            return (["wrong output"] if i == 2 else []), str(i)

    times, failures, digests = bench.run_ops(Flaky(), 60.0, 4)
    assert len(times) == 4
    assert [i for i, _ in failures] == [1, 2]
    assert digests == ["0", None, "2", "3"]


def test_trace_check_catches_a_broken_mass_identity():
    workdir = _workdir("mass")
    try:
        workload = workloads.TraceSynth(1, workdir, "tiny")
        workload.setup()
        out = workload.op(0)
        assert workload.check(0, out)[0] == []
        out[1].trace.dropped_mass += 1e-6
        problems, _ = workload.check(0, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert any("mass identity" in p for p in problems)


def test_cache_miss_fails_the_op():
    workdir = _workdir("miss")
    try:
        workload = workloads.TraceApiCache(2, workdir, "tiny")
        workload.setup()
        workload.warm()
        shutil.rmtree(workload.cache_dir)
        out = workload.op(0)
        problems, _ = workload.check(0, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert any("cache misses" in p for p in problems)


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace-synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _workdir(tag):
    path = bench.WORK_ROOT / f"selftest-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
