"""Configuration parsing, output files, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from diracwg import bands, fdoracle, gapgreens, interface, layerops
from diracwg import dirac as dirac_mod
from diracwg.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    _DEFAULTS,
    _Run,
    _write_csv,
    cmd_oracle,
    main,
    parse_config,
)
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
        "numerics.table_fd_nx = 80\n"  # 64 puts 10.2 nodes across the 0.16 disk
    )
    cfg = parse_config(path, tmp_path, 2)
    assert cfg.shape_coeffs == (0.08,)
    assert cfg.deltas == (0.005, 0.01)
    assert cfg.n_p_nodes == 16
    assert cfg.table_fd_nx == 80
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
    with pytest.raises(ConfigError, match="sweep.deltas"):
        parse_config(path, None, 1)
    # gap and interface certify a gap zone, whose quadrature needs this
    for n in (14, 17):
        path.write_text(f"numerics.n_p_nodes = {n}\n")
        with pytest.raises(ConfigError, match="numerics.n_p_nodes"):
            parse_config(path, None, 1)


def test_fd_step_outside_numerical_range_rejected(tmp_path):
    # the coefficients' central-difference steps are compute_coefficients'
    # 2e-4, range-checked there against FD_STEP_RANGE: no key selects them,
    # and a config that sets a step key, in range or not, is refused like
    # any unknown key
    assert not [key for key in _DEFAULTS if "fd_step" in key]
    path = tmp_path / "run.cfg"
    for key in ("numerics.fd_step_p", "numerics.fd_step_lambda", "numerics.fd_step_delta"):
        for val in (2e-4, 1.0):
            path.write_text(f"{key} = {val}\n")
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(path, None, 1)
            assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_unknown_format_rejected(tmp_path):
    # every command writes both CSV and JSON, and the kernel's pole guard is
    # the constant qpgreens.SING_GUARD: no key selects either, and a config
    # that sets an output key is refused like any unknown key
    assert not [key for key in _DEFAULTS if key.startswith("output.") or "guard" in key]
    path = tmp_path / "run.cfg"
    path.write_text("output.format = xml\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path, None, 1)
    assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("line, key, command", (
    ("numerics.m_trunc = 4", "numerics.m_trunc", "dirac"),
    ("sweep.deltas =", "sweep.deltas", "dirac"),
    ("sweep.p_refined = -1", "sweep.p_refined", "bands"),
    ("sweep.p_points = -1", "sweep.p_points", "bands"),
))
def test_value_the_numerical_layers_refuse_is_a_config_error(tmp_path, line, key, command):
    # the kernel's m_trunc >= 8, at least one delta and nonnegative momentum
    # counts are checked before any command runs, naming the key
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(path, None, 1)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense = 1\n")
    assert main(["bands", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ("numerics.table_fd_nx", "numerics.oracle_nx"))
def test_unresolving_fd_grid_is_a_config_error(tmp_path, key):
    # 48 nodes per unit put 9.6 across the default disk, below the oracle's
    # 12: the config is refused before any command runs, naming the key
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = 48\n")
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(path, None, 1)
    assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("cells", (1, 2))
def test_too_few_supercell_cells_is_a_config_error(tmp_path, cells):
    # 1 cell per side is no supercell, and 2 leave the decay fit over
    # 1 <= |x1| <= 4 one cell per side: both are refused before the
    # interface solve runs, not after it with an oracle failure
    path = tmp_path / "run.cfg"
    path.write_text(f"numerics.supercell_cells = {cells}\n")
    with pytest.raises(ConfigError, match=re.escape("numerics.supercell_cells")):
        parse_config(path, None, 1)
    assert main(["interface", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_too_few_gamma_nodes_is_a_config_error(tmp_path):
    # the junction operator takes at least interface.MIN_GAMMA_NODES Gauss
    # nodes on Gamma: fewer are refused naming the key, not after the
    # crossing and the gap zone with a certification failure
    path = tmp_path / "run.cfg"
    path.write_text(f"numerics.m_gamma_nodes = {interface.MIN_GAMMA_NODES - 8}\n")
    with pytest.raises(ConfigError, match=re.escape("numerics.m_gamma_nodes")):
        parse_config(path, None, 1)
    assert main(["interface", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    path.write_text(f"numerics.m_gamma_nodes = {interface.MIN_GAMMA_NODES}\n")
    assert parse_config(path, None, 1).m_gamma_nodes == interface.MIN_GAMMA_NODES


def test_geometry_error_exit_code(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("geometry.shape_coeffs = 0.3\n")
    assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CERTIFICATION


_SWEEP = {
    "delta_0.025": "sweep.deltas = 0.025\n",
    "delta_0.045": "sweep.deltas = 0.045\n",
    "disk_0.15": "geometry.shape_coeffs = 0.15\n",
}
# the upper +delta edge of these configs, band 2 at p = pi, has no overlap
# with the crossing modes; and band 2 dips into the first-order gap at p = 0
_SWAP = (r"certification failure: the upper \+delta edge at lambda=\d+\.\d{6} \(overlaps "
         r"\S+ odd, \S+ even\) is orthogonal to both crossing modes: band 2 at p = pi is "
         r"not a band that the crossing opens")
_FIBER = (r"certification failure: 2 bands below the energy at p=0\.0000, lambda=\d+\.\d{6}, "
          r"not 1: the energy is not in the gap there")


@pytest.mark.parametrize("config, command, code, stderr", [
    ("delta_0.025", "dirac", 0, ""),
    ("delta_0.025", "gap", 0, ""),
    ("delta_0.025", "interface", 0, ""),
    ("delta_0.045", "dirac", EXIT_CERTIFICATION, _SWAP),
    ("delta_0.045", "gap", 0, ""),
    ("delta_0.045", "interface", EXIT_CERTIFICATION, _FIBER),
    ("disk_0.15", "dirac", EXIT_CERTIFICATION, _SWAP),
    ("disk_0.15", "gap", 0, ""),
    ("disk_0.15", "interface", EXIT_CERTIFICATION, _FIBER),
])
def test_config_sweep(tmp_path, capsys, config, command, code, stderr):
    # accepted configs whose gap edges lie far from first order, where
    # another band entered the fixed edge brackets: each edge is found by
    # its band index, and what still fails names its cause
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 24\nnumerics.n_p_nodes = 16\n"
                    "numerics.m_gamma_nodes = 24\n" + _SWEEP[config])
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == code
    assert re.fullmatch(stderr, (capsys.readouterr().err.splitlines() or [""])[0])
    if command == "gap":
        # the count steps from band k - 1 to k across edge k
        cfg = parse_config(path, None, 1)
        [entry] = json.loads((tmp_path / "gap.json").read_text())["entries"]
        for k, edge in ((1, entry["edge_lower"]), (2, entry["edge_upper"])):
            assert [bands.band_count(np.pi, edge * (1 + s * 1e-7), entry["delta"], cfg.shape(),
                                     cfg.params()) for s in (-1, 1)] == [k - 1, k]


@pytest.mark.parametrize("n_nodes", (15, 14))
def test_bad_node_count_is_a_config_error(tmp_path, n_nodes, capsys):
    # the node count is a count key like numerics.m_trunc, checked by the
    # geometry layer's own rule before anything runs; a bad shape stays a
    # certification failure (test_geometry_error_exit_code)
    path = tmp_path / "run.cfg"
    path.write_text(f"geometry.n_nodes = {n_nodes}\n")
    assert main(["dirac", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "geometry.n_nodes" in capsys.readouterr().err


def test_dirac_at_an_even_node_count_off_the_multiples_of_four(tmp_path, capsys):
    # theta -> pi - theta maps node j to N/2 - j for every even N: 18 nodes
    # pass the invariant suite and certify the crossing
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 18\nsweep.deltas = 0.01\n")
    assert main(["dirac", "--verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert (tmp_path / "dirac.json").exists()


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
    # its band (the FD grids must resolve the smaller disk)
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 16\ngeometry.shape_coeffs = 0.05\n"
                    "numerics.table_fd_nx = 128\nnumerics.oracle_nx = 128\n"
                    "sweep.deltas = 0.01\n"
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


def test_dirac_solves_each_band_point_once(tmp_path, monkeypatch):
    # ``diracwg dirac`` solves the crossing, the two slope points and the
    # zone's two gap edges; the swap check reads the zone's edges and gets
    # the -delta ones by the half-period shift, solving and assembling nothing
    path = tmp_path / "run.cfg"
    path.write_text("geometry.n_nodes = 16\nsweep.deltas = 0.01\n")
    calls = {"find_band_lambda": 0, "inside_swap_check": 0}
    inside = [False]
    real_find, real_assemble = bands.find_band_lambda, layerops.assemble_T
    real_swap = dirac_mod.mode_swap_check

    def find_band_lambda(*args, **kwargs):
        calls["find_band_lambda"] += 1
        calls["inside_swap_check"] += inside[0]
        return real_find(*args, **kwargs)

    def assemble_T(*args, **kwargs):
        calls["inside_swap_check"] += inside[0]
        return real_assemble(*args, **kwargs)

    def mode_swap_check(*args, **kwargs):
        inside[0] = True
        try:
            return real_swap(*args, **kwargs)
        finally:
            inside[0] = False

    for module in (bands, dirac_mod, gapgreens, interface, layerops):  # every binding
        for name, fake in (("find_band_lambda", find_band_lambda), ("assemble_T", assemble_T)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fake)
    monkeypatch.setattr(dirac_mod, "mode_swap_check", mode_swap_check)
    assert main(["dirac", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"find_band_lambda": 5, "inside_swap_check": 0}
