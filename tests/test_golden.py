"""Every method still gives the answers committed in ``tests/golden/``.
``make_golden.py`` there says how the corpus is made and when it may be
regenerated.

From Python 3.12, ``sum()`` over floats compensates its rounding. The
corpus and a written trace must hold the same bytes whichever way
``sum()`` rounds, so that every supported Python writes them alike."""
import builtins
import math
import sys
from pathlib import Path

from conftest import build_graph, multihop_swap_rows

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import make_golden  # noqa: E402
from fundtrace.cases import generate_planted_case  # noqa: E402
from fundtrace.export import write_trace  # noqa: E402
from fundtrace.providers import GraphProvider  # noqa: E402
from fundtrace.runner import METHODS, RunConfig, run_method  # noqa: E402

_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 and later add floats, with the rounding
    compensated (here exactly, by ``math.fsum``). Other values add as
    ``sum()`` adds them."""
    values = [start, *iterable]
    if (any(isinstance(v, float) for v in values)
            and all(isinstance(v, (int, float)) for v in values)):
        return math.fsum(values)
    return _SUM(values[1:], start)


def test_golden_corpus_unchanged():
    committed = make_golden.load()
    assert sorted(committed) == ["hub_cap", "multihop_swaps", "planted",
                                 "swap_chain"]
    report = make_golden.compare(committed, make_golden.generate())
    assert report[:-1] == [], "\n".join(report)


def test_golden_bytes_do_not_depend_on_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for stem, data in make_golden.generate().items():
        committed = (make_golden.HERE / f"{stem}.json").read_text()
        assert make_golden.dumps(data) == committed, stem


def written_traces(tmp_path, name):
    """What ``write_trace`` writes for every method on two graphs, built
    afresh so that no memo of an earlier call is read."""
    planted = generate_planted_case(make_golden.criterion7_specs()[2])
    inputs = [(build_graph(multihop_swap_rows(3)), "n00"),
              (planted.graph, planted.source)]
    files = {}
    for k, (graph, source) in enumerate(inputs):
        for method in METHODS:
            result = run_method(source, GraphProvider(graph),
                                RunConfig(method=method))
            path = tmp_path / f"{name}-{k}-{method}.json"
            write_trace(str(path), result, "json", result.provenance)
            files[k, method] = (path.read_bytes(),
                                Path(f"{path}.provenance.json").read_bytes())
    return files


def test_trace_bytes_do_not_depend_on_sum(tmp_path, monkeypatch):
    want = written_traces(tmp_path, "plain")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    got = written_traces(tmp_path, "compensated")
    for key in want:
        assert got[key] == want[key], key
