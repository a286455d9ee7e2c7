"""scripts/bench.py's summary of alternating pairs, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_summary_of_pairs():
    parent = [0.30, 0.28, 0.29, 0.31, 0.27]
    change = [0.26, 0.29, 0.25, 0.27, 0.26]
    s = bench.summarize(parent, change)
    # inclusive quartiles: 0.28 and 0.30 of the parent, 0.26 and 0.27 of the change
    assert s["parent"]["median"] == pytest.approx(0.29)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx((0.28, 0.30))
    assert s["parent"]["iqr"] == pytest.approx(0.02)
    assert s["change"]["median"] == pytest.approx(0.26)
    assert (s["change"]["q1"], s["change"]["q3"]) == pytest.approx((0.26, 0.27))
    assert s["pairs"] == 5 and s["won"] == 4  # pair 2 went the other way
    assert s["median_rel_change"] == pytest.approx(-0.03 / 0.29)
    assert s["resolved"]  # 0.03 apart against a parent IQR of 0.02


def test_summary_direction_and_ties():
    # a "higher is better" metric wins where the change is larger; a tie is no win
    s = bench.summarize([1.0, 2.0, 3.0], [1.5, 2.0, 2.5], better="higher")
    assert s["won"] == 1
    assert not s["resolved"]  # equal medians
