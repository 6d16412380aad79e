"""Every method still gives the answers committed in ``tests/golden/``.
``make_golden.py`` there says how the corpus is made and when it may be
regenerated."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import make_golden  # noqa: E402


def test_golden_corpus_unchanged():
    committed = make_golden.load()
    assert sorted(committed) == ["hub_cap", "multihop_swaps", "planted",
                                 "swap_chain"]
    report = make_golden.compare(committed, make_golden.generate())
    assert report[:-1] == [], "\n".join(report)
