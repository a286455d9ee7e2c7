"""scripts/compare_outputs.py on synthetic run outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

PARENT = {
    "lambda_star": 52.67364905903129,
    "beta_star": 393.0584121200195,
    "theta_star": -0.006,
    "slope_rel_dev": 4.8e-05,
    "pattern_residuals": {"gamma_imag": 2.0e-12},
    "swap_overlaps": {"labels": {"plus": [0, 1]}, "plus": [[0.9999, 5e-11], [5e-11, 0.9999]]},
    "entries": [{"delta": 0.01, "interval": [49.1, 56.2], "predicted_width": 7.86}],
    "fd_supercell": {"lambda": 52.603508997919, "gap_fraction_deviation": 0.0026},
}


def changed(**edits):
    out = json.loads(json.dumps(PARENT))
    for key, value in edits.items():
        out[key] = value
    return out


def verdicts(change, reference=None):
    rows = compare_outputs.compare(PARENT, change, reference)
    return {".".join(map(str, r["path"])): (r["kind"], r["within"], r["toward"]) for r in rows}


def test_every_leaf_gets_its_class():
    got = verdicts(changed())
    assert got["lambda_star"] == ("rel", True, None)
    assert got["beta_star"][0] == got["entries.0.predicted_width"][0] == "rel"
    assert got["slope_rel_dev"][0] == "abs"
    assert got["pattern_residuals.gamma_imag"][0] == "own"
    assert got["swap_overlaps.plus.0.1"][0] == "abs"
    assert got["swap_overlaps.labels.plus"][0] == got["entries.0.delta"][0] == "equal"
    assert got["entries.0.interval.1"][0] == "offset"
    assert got["fd_supercell.lambda"][0] == "rel"
    assert got["fd_supercell.gap_fraction_deviation"][0] == "abs"
    assert all(within for _, within, _ in got.values())


@pytest.mark.parametrize("key, value, within", [
    ("lambda_star", 52.67364905903129 * (1 + 5e-13), True),
    ("lambda_star", 52.67364905903129 * (1 + 5e-12), False),
    ("beta_star", 393.0584121200195 * (1 + 5e-11), True),
    ("beta_star", 393.0584121200195 * (1 + 5e-10), False),
    ("theta_star", 0.006, True),  # only |theta*| is compared
    ("slope_rel_dev", 4.8e-05 + 5e-11, True),
    ("slope_rel_dev", 4.8e-05 + 5e-10, False),
    ("pattern_residuals", {"gamma_imag": 3.0e-11}, True),  # both at the roundoff floor
    ("pattern_residuals", {"gamma_imag": 3.0e-10}, False),
])
def test_tolerance_classes(key, value, within):
    leaf = key + (".gamma_imag" if key == "pattern_residuals" else "")
    assert verdicts(changed(**{key: value}))[leaf][1] is within


@pytest.mark.parametrize("value, within", [(6e-7, True), (4e-6, False), (2e-8, False)])
def test_residuals_above_the_floor_keep_their_order_of_magnitude(value, within):
    parent = dict(PARENT, residuals={"dirichlet": 3e-7})
    rows = compare_outputs.compare(parent, dict(parent, residuals={"dirichlet": value}))
    assert {r["path"]: r["within"] for r in rows}[("residuals", "dirichlet")] is within


def test_gap_fraction_deviation_is_absolute():
    # lambda_FD moved by 1.2e-14 relative moves |lambda - lambda_FD| / width
    # by 2.3e-11 of its own value: within the absolute class, where the rel
    # 1e-12 class of the other fd_supercell numbers would call it moved
    fd = {"lambda": 52.603508997919 * (1 + 1.2e-14), "gap_fraction_deviation": 0.0026 + 6e-14}
    got = verdicts(changed(fd_supercell=fd))
    assert got["fd_supercell.gap_fraction_deviation"] == ("abs", True, None)
    assert got["fd_supercell.lambda"] == ("rel", True, None)
    fd = dict(fd, gap_fraction_deviation=0.0026 + 2e-10)
    assert not verdicts(changed(fd_supercell=fd))["fd_supercell.gap_fraction_deviation"][1]


def test_swap_overlaps_are_absolute_and_labels_exact():
    swap = {"labels": {"plus": [1, 0]}, "plus": [[0.9999, 5e-11 + 5e-13], [5e-11 + 5e-12, 0.9999]]}
    got = verdicts(changed(swap_overlaps=swap))
    assert got["swap_overlaps.plus.0.1"][1] and not got["swap_overlaps.plus.1.0"][1]
    assert not got["swap_overlaps.labels.plus"][1]


def test_reference_decides_the_direction(tmp_path):
    change = changed(beta_star=393.0584121200195 + 1e-6)
    toward = changed(beta_star=393.0584121200195 + 2e-6)
    away = changed(beta_star=393.0584121200195 - 1e-6)
    assert verdicts(change, toward)["beta_star"] == ("rel", False, True)
    assert verdicts(change, away)["beta_star"] == ("rel", False, False)
    for name, obj in (("parent", PARENT), ("change", change), ("toward", toward),
                      ("away", away)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "dirac.json").write_text(json.dumps(obj))
    run = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert compare_outputs.main(run) == 1
    assert compare_outputs.main(run + ["--reference", str(tmp_path / "toward")]) == 0
    assert compare_outputs.main(run + ["--reference", str(tmp_path / "away")]) == 1


def test_interval_ends_are_compared_by_their_offset_from_lambda_star():
    # 56.2 = lambda* + 3.53: a move of 5e-12 of the end itself (2.8e-10) is
    # 8e-11 of its offset, inside beta*'s class, where the rel 1e-12 class
    # would call it moved; lambda* keeps its own 1e-12 class
    entries = [{"delta": 0.01, "interval": [49.1, 56.2 * (1 + 5e-12)], "predicted_width": 7.86}]
    got = verdicts(changed(entries=entries))
    assert got["entries.0.interval.1"] == ("offset", True, None)
    entries[0]["interval"][1] = 56.2 + 5e-10
    assert verdicts(changed(entries=entries))["entries.0.interval.1"] == ("offset", False, None)
    assert not verdicts(changed(lambda_star=52.67364905903129 * (1 + 5e-12)))["lambda_star"][1]


def test_interface_gap_takes_its_midpoint_for_lambda_star():
    # the interface JSON records no lambda*: both ends' changes are measured
    # against their offset from the gap's midpoint, so a shared shift counts
    parent = {"gap": [49.1361233551, 56.2111747769], "lambda_star_mode": 52.63}
    half = 0.5 * (parent["gap"][1] - parent["gap"][0])
    for shift, within in ((5e-11, True), (2e-10, False)):
        change = {"gap": [e + shift * half for e in parent["gap"]], "lambda_star_mode": 52.63}
        rows = compare_outputs.compare(parent, change)
        assert [(r["kind"], r["within"]) for r in rows[:2]] == [("offset", within)] * 2


def test_an_end_cut_to_a_band_edge_keeps_within_the_offset_class():
    # the lower end is the band edge 50.0 (the interval reached below it): an
    # edge move of 1e-12 relative is far inside 1e-10 of its offset
    parent = {"gap": [50.0, 56.2111747769]}
    rows = compare_outputs.compare(parent, {"gap": [50.0 * (1 + 1e-12), 56.2111747769]})
    assert rows[0]["kind"] == "offset" and rows[0]["dev"] < 2e-11 and rows[0]["within"]
