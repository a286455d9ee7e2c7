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


def test_verdict_against_the_bound():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]  # median 1.00, IQR 0.01
    # 20 % worse against a 10 % bound, with the parent's spread well inside it
    s = bench.summarize(parent, [1.20, 1.19, 1.22, 1.18, 1.21], bound=0.1)
    assert s["verdict"] == "regressed"
    # 5 % worse: inside the bound
    s = bench.summarize(parent, [1.05, 1.04, 1.06, 1.03, 1.05], bound=0.1)
    assert s["verdict"] == "no regression"
    # a "higher is better" metric 20 % lower
    s = bench.summarize(parent, [0.80, 0.81, 0.79, 0.80, 0.82], better="higher", bound=0.1)
    assert s["verdict"] == "regressed"


def test_verdict_on_a_wide_parent():
    parent = [1.0, 1.3, 0.8, 1.2, 0.9]  # median 1.0, IQR 0.3: wider than the 0.1 bound
    s = bench.summarize(parent, [1.1, 1.0, 1.2, 0.9, 1.05], bound=0.1)
    assert s["verdict"] == "unresolved"
    # 30 % worse is not told apart from that spread either
    s = bench.summarize(parent, [1.3, 1.35, 1.25, 1.3, 1.4], bound=0.1)
    assert s["verdict"] == "unresolved"
    # unless every change run beats every parent run
    s = bench.summarize(parent, [0.7, 0.75, 0.72, 0.71, 0.74], bound=0.1)
    assert s["verdict"] == "no regression"
    s = bench.summarize(parent, [1.4, 1.45, 1.42, 1.41, 1.44], better="higher", bound=0.1)
    assert s["verdict"] == "no regression"


def test_no_verdict_without_a_bound():
    assert "verdict" not in bench.summarize([1.0, 2.0, 3.0], [1.5, 2.0, 2.5])
