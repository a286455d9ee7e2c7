"""Configuration parsing, output formats, determinism."""

import re
from pathlib import Path

import numpy as np
import pytest

from diracwg import bands, fdoracle, gapgreens
from diracwg.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    _Run,
    _write_csv,
    cmd_oracle,
    main,
    parse_config,
)
from diracwg.dirac import FD_STEP_RANGE
from diracwg.errors import ConfigError


def test_defaults_parse():
    cfg = parse_config(None, None, 1)
    assert cfg.shape_coeffs == (0.1,)
    assert cfg.n_nodes == 64
    assert cfg.deltas == (0.01,)
    assert 0 < cfg.c < 1


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "geometry.shape_coeffs = 0.08\n"
        "sweep.deltas = 0.005, 0.01\n"
        "numerics.n_p_nodes = 16\n"
    )
    cfg = parse_config(path, tmp_path, 2)
    assert cfg.shape_coeffs == (0.08,)
    assert cfg.deltas == (0.005, 0.01)
    assert cfg.n_p_nodes == 16
    assert cfg.jobs == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("geometry.radius = 0.1\n")  # not a key
    with pytest.raises(ConfigError):
        parse_config(path, None, 1)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sweep.c = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config(path, None, 1)
    path.write_text("sweep.deltas = 0.2\n")
    with pytest.raises(ConfigError):
        parse_config(path, None, 1)
    # gap and interface certify a gap zone, whose quadrature needs this
    for n in (14, 17):
        path.write_text(f"numerics.n_p_nodes = {n}\n")
        with pytest.raises(ConfigError):
            parse_config(path, None, 1)


def test_fd_step_outside_numerical_range_rejected(tmp_path):
    # the config accepts exactly the steps compute_coefficients accepts
    lo, hi = FD_STEP_RANGE
    path = tmp_path / "run.cfg"
    for key, val in (("numerics.fd_step_p", 10 * hi), ("numerics.fd_step_delta", 0.1 * lo)):
        path.write_text(f"{key} = {val}\n")
        with pytest.raises(ConfigError):
            parse_config(path, None, 1)
        assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    path.write_text(f"numerics.fd_step_lambda = {hi}\n")
    assert parse_config(path, None, 1).fd_steps["dl"] == hi


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("output.formats = csv,xml\n")
    with pytest.raises(ConfigError):
        parse_config(path, None, 1)


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense = 1\n")
    assert main(["bands", "--config", str(path)]) == EXIT_CONFIG


def test_geometry_error_exit_code(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("geometry.shape_coeffs = 0.3\n")
    assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CERTIFICATION


def test_csv_writer_atomic_and_stable(tmp_path):
    rows = [[1, 0.5, float(np.pi)], [2, -0.25, 1e-12]]
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b", "c"], rows)
    first = path.read_bytes()
    _write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == first
    assert not (tmp_path / "t.csv.tmp").exists()
    assert first.decode().splitlines()[0] == "a,b,c"


def test_oracle_command_deterministic(tmp_path):
    cfg = parse_config(None, tmp_path, 1)
    cfg.p_points = 5
    cfg.deltas = (0.01,)
    cfg.table_fd_nx = 64
    assert cmd_oracle(_Run(cfg)) == 0
    first = (tmp_path / "oracle_bands.csv").read_bytes()
    assert cmd_oracle(_Run(cfg)) == 0
    assert (tmp_path / "oracle_bands.csv").read_bytes() == first
    data = np.loadtxt(tmp_path / "oracle_bands.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 6  # delta, p, four bands


@pytest.mark.parametrize("p_points, p_refined", [(5, 0), (7, 0), (9, 0)])
def test_bands_on_coarse_momentum_grids(tmp_path, p_points, p_refined):
    # every momentum is solved on its own, so grid spacing does not matter:
    # bands 1-2 at delta = 0.01 and the folded pair at delta = 0
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 16\nsweep.deltas = 0.01\n"
                    f"sweep.p_points = {p_points}\nsweep.p_refined = {p_refined}\n")
    assert main(["bands", "--config", str(path), "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "bands.csv", delimiter=",", skiprows=1)
    for delta in (0.0, 0.01):
        for band in (1, 2):
            sel = (data[:, 0] == band) & np.isclose(data[:, 1], delta)
            assert np.sum(sel) == p_points


def test_bands_on_small_obstacle(tmp_path):
    # a radius-0.05 disk: the bands spread far wider in lambda than for the
    # default disk, and every window is widened by the count until it holds
    # its band (the FD grid must resolve the smaller disk)
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 16\ngeometry.shape_coeffs = 0.05\n"
                    "numerics.table_fd_nx = 128\nsweep.deltas = 0.01\n"
                    "sweep.p_points = 5\nsweep.p_refined = 0\n")
    assert main(["bands", "--config", str(path), "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "bands.csv", delimiter=",", skiprows=1)
    for delta in (0.0, 0.01):
        sel = np.isclose(data[:, 1], delta)
        band1, band2 = (data[sel & (data[:, 0] == b), 3] for b in (1, 2))
        assert len(band1) == len(band2) == 5
        assert np.all(band1 <= band2)
    _assert_gnuplot_inputs_written(tmp_path)


@pytest.fixture(scope="module")
def interface_run(tmp_path_factory):
    """``diracwg interface`` on a 16-node config with the table builder and
    the FD band charts disabled: (exit code, output directory)."""
    def refused(*args, **kwargs):
        raise AssertionError("the interface command must not tabulate bands")

    out = tmp_path_factory.mktemp("interface")
    path = out / "run.cfg"
    path.write_text("geometry.n_nodes = 16\nsweep.deltas = 0.01\nnumerics.n_bands = 2\n"
                    "numerics.n_p_nodes = 16\nnumerics.m_gamma_nodes = 24\n")
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((gapgreens, "build_bloch_table"), (fdoracle, "fd_band_chart"),
                             (fdoracle, "fd_band_chart_richardson"),
                             (gapgreens, "fd_band_chart_richardson")):
            mp.setattr(module, name, refused)
        code = main(["interface", "--config", str(path), "--out", str(out)])
    return code, out


def test_interface_builds_no_bloch_table(interface_run):
    # the in-gap resolvent needs the two p = pi gap edges and each fiber's
    # own band count, not a tabulated band chart: the command runs with the
    # table builder and the FD band charts disabled and writes no table cache
    code, out = interface_run
    assert code == 0
    assert (out / "interface_delta0p01.json").exists()
    assert not (out / "tables").exists()


def _assert_gnuplot_inputs_written(out: Path):
    # every file a script plots exists, and every ``for [v in NAME]`` loops
    # over a NAME the script assigns (gnuplot stops on an undefined one)
    scripts = sorted(out.glob("*.gp"))
    assert scripts
    for script in scripts:
        text = script.read_text()
        names = re.findall(r"'([^'\s]+\.csv)'", text)
        assert names
        for name in names:
            assert (out / name).exists(), f"{script.name} plots {name}, which no command wrote"
        for var in re.findall(r"for \[\w+ in ([A-Za-z_]\w*)\]", text):
            assert re.search(rf"^\s*{var}\s*=", text, re.M), \
                f"{script.name} iterates over {var}, which it never sets"


def test_gnuplot_script_plots_written_files(interface_run):
    _, out = interface_run
    _assert_gnuplot_inputs_written(out)


def test_all_computes_the_crossing_once(tmp_path, monkeypatch):
    # ``diracwg all`` shares one crossing and one gap zone per delta between
    # its stages, writes every output, and its dirac.json is the one a lone
    # ``diracwg dirac`` writes
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 16\nsweep.deltas = 0.01\n"
                    "sweep.p_points = 5\nsweep.p_refined = 0\n"
                    "numerics.n_p_nodes = 16\nnumerics.m_gamma_nodes = 24\n")
    calls = {"dirac_point": 0, "gap_edges": []}
    real_point, real_edges = bands.dirac_point, bands.gap_edges

    def dirac_point(*args, **kwargs):
        calls["dirac_point"] += 1
        return real_point(*args, **kwargs)

    def gap_edges(dirac_data, delta, *args, **kwargs):
        calls["gap_edges"].append(delta)
        return real_edges(dirac_data, delta, *args, **kwargs)

    monkeypatch.setattr(bands, "dirac_point", dirac_point)
    for module in (bands, gapgreens):  # every namespace that binds it
        monkeypatch.setattr(module, "gap_edges", gap_edges)
    out = tmp_path / "all"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 0
    assert calls == {"dirac_point": 1, "gap_edges": [0.01]}
    for name in ("oracle_bands.csv", "bands.csv", "bands.gp", "dirac.json", "gap.json",
                 "interface_delta0p01.json", "interface_field_delta0p01.csv",
                 "interface.gp"):
        assert (out / name).exists(), name
    _assert_gnuplot_inputs_written(out)
    fresh = tmp_path / "dirac"
    assert main(["dirac", "--config", str(path), "--out", str(fresh)]) == 0
    assert (fresh / "dirac.json").read_bytes() == (out / "dirac.json").read_bytes()
