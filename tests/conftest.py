"""Shared pipeline artifacts for the test suite.

The heavy objects (crossing data, the gap zone, the Bloch table oracle, the
interface solve, the finite-difference references) are computed once per
session and cached on disk keyed by a fingerprint of the package sources
and of this file, which holds the fixture sizes, and by the numpy and scipy
versions and the BLAS thread count, so reruns are fast while any code
change, any change of a size or of the numerical libraries rebuilds
everything.
"""

import hashlib
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy

from diracwg import source_fingerprint
from diracwg.geometry import make_disk
from diracwg.qpgreens import KernelParams

CACHE_DIR = Path("/tmp/diracwg_test_cache")

RADIUS = 0.1
N_NODES = 64
DELTA = 0.01
N_BANDS = 4
N_P_NODES = 32
M_GAMMA = 32


#: wall-clock build seconds per cached artifact (fresh builds only)
BUILD_TIMINGS: dict = {}


def cache_key(fixture_source: bytes) -> str:
    """The pickles' key: the package's source fingerprint, the bytes of the
    file that sets the fixture sizes (this one), the numpy and scipy versions
    and OPENBLAS_NUM_THREADS (reruns are byte-identical only at a fixed BLAS
    thread count)."""
    libraries = (f"numpy {np.__version__}, scipy {scipy.__version__}, "
                 f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")
    return hashlib.sha1(source_fingerprint().encode() + fixture_source
                        + libraries.encode()).hexdigest()[:12]


def _cached(name: str, builder):
    import time

    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    path = CACHE_DIR / f"{name}_{cache_key(Path(__file__).read_bytes())}.pkl"
    if path.exists():
        with path.open("rb") as fh:
            payload = pickle.load(fh)
        BUILD_TIMINGS[name] = payload["elapsed"]
        return payload["obj"]
    t0 = time.time()
    obj = builder()
    elapsed = time.time() - t0
    BUILD_TIMINGS[name] = elapsed
    with path.open("wb") as fh:
        pickle.dump({"obj": obj, "elapsed": elapsed}, fh)
    return obj


@pytest.fixture(scope="session")
def build_timings():
    return BUILD_TIMINGS


@pytest.fixture(scope="session")
def shape():
    return make_disk(RADIUS, N_NODES)


@pytest.fixture(scope="session")
def params():
    return KernelParams()


@pytest.fixture
def small_zone(params):
    """A hand-built 16-node zone whose gap (48.9, 56.7) holds the in-gap
    energy 52.63 of the 16-node disk at delta = 0.01 (56.7 is band 2 at
    p = pi); every fiber still counts its bands."""
    from diracwg.gapgreens import GapZone

    n = 16
    return GapZone(delta=0.01, shape=make_disk(RADIUS, n), params=params,
                   p_nodes=2 * np.pi * np.arange(n) / n, edges=(48.9, 56.7))


@pytest.fixture(scope="session")
def fd_reference(shape):
    """Finite-difference crossing estimate and band chart."""
    from diracwg.fdoracle import FDGrid, fd_band_chart_richardson, fd_bloch_eigs

    def build():
        grid = FDGrid(96)
        crossing = fd_bloch_eigs(np.pi, 0.0, 2, grid, shape)
        p_half = np.linspace(0.0, np.pi, 9)
        chart0 = fd_band_chart_richardson(p_half, 0.0, 2, FDGrid(64), shape)
        return {"crossing": crossing, "chart0": chart0}

    return _cached("fd_reference", build)


@pytest.fixture(scope="session")
def dirac_data(shape, params, fd_reference):
    from diracwg.dirac import compute_dirac_data

    lam_hint = fd_reference["crossing"][0]

    def build():
        return compute_dirac_data(shape, params, lam_hint)

    return _cached("dirac_data", build)


@pytest.fixture(scope="session")
def gap_zone(shape, params, dirac_data):
    """The +DELTA zone; the -DELTA half-guide is its half-period shift."""
    from diracwg.gapgreens import GapZone

    def build():
        return GapZone.certify(dirac_data, +DELTA, N_P_NODES, shape, params)

    return _cached("gap_zone", build)


@pytest.fixture(scope="session")
def bloch_table(shape, params):
    """The +DELTA table: a test oracle for the zone's gap edges and the
    modal head of the band sum."""
    from diracwg.gapgreens import build_bloch_table

    def build():
        return build_bloch_table(+DELTA, N_BANDS, N_P_NODES, shape, params, fd_grid_nx=64)

    table = _cached("bloch_table", build)
    table.shape = shape
    table.params = params
    return table


@pytest.fixture(scope="session")
def interface_result(dirac_data, gap_zone):
    from diracwg.bands import gap_interval
    from diracwg.interface import find_interface_eigenvalue, reconstruct_interface_mode

    def build():
        gap = gap_interval(dirac_data, DELTA, 0.9)
        res = find_interface_eigenvalue(gap, gap_zone, m_nodes=M_GAMMA)
        return reconstruct_interface_mode(res)

    return _cached("interface_result", build)


@pytest.fixture(scope="session")
def fd_supercell(shape, interface_result):
    from diracwg.fdoracle import FDGrid, fd_supercell_interface, mode_decay_rate

    def build():
        center = 0.5 * sum(interface_result.gap)
        out = {}
        for nx in (64, 96):
            # six candidates, so that test_supercell_unique_in_gap counts the
            # in-gap eigenvalues among more than the one nearest the center
            lam, cands, mode, meta = fd_supercell_interface(
                DELTA, 8, FDGrid(nx), shape, center, n_candidates=6
            )
            kappa, r2 = mode_decay_rate(mode, meta["X"], 1.0, 4.0)
            out[nx] = {"lambda": lam, "candidates": cands, "kappa": kappa, "r2": r2,
                       "in_gap": [c for c in cands
                                  if interface_result.gap[0] < c < interface_result.gap[1]]}
        r = (96 / 64) ** 2
        out["lambda_richardson"] = (r * out[96]["lambda"] - out[64]["lambda"]) / (r - 1)
        return out

    return _cached("fd_supercell", build)
