"""Nystrom operator assembly: block structure, spectra, fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwg import bands, gapgreens, layerops
from diracwg.errors import DomainError, PoleRiskError
from diracwg.geometry import make_disk, make_shape, pair_centers
from diracwg.bands import band_count
from diracwg.layerops import (
    DensityPair,
    _diag_block,
    _off_block,
    assemble_T,
    cell_sample_points,
    field_from_density,
    hermitian_weighted,
    ldl_factor,
    min_singular_values,
    offgrid_boundary_rows,
)
from diracwg.qpgreens import KernelParams, _split_symmetric
from nullspace import NoKernelError, kernel_vectors

LAM_STAR = 52.67358115  # crossing energy of the radius-0.1 disk (FD-confirmed)


@pytest.fixture(scope="module")
def shape():
    return make_disk(0.1, 64)


@pytest.fixture(scope="module")
def prm():
    return KernelParams()


def test_diagonal_blocks_identical(shape, prm):
    T = assemble_T(1.2, 50.0, 0.01, shape, prm)
    n = shape.n_nodes
    assert np.array_equal(T.entries[:n, :n], T.entries[n:, n:])


def test_delta_zero_reduces_to_unperturbed(shape, prm):
    A = assemble_T(1.2, 50.0, 0.0, shape, prm)
    B = assemble_T(1.2, 50.0, 0.0, shape, prm)
    assert np.array_equal(A.entries, B.entries)


def test_off_block_floquet_relation(shape, prm):
    # at delta = 0 the corner blocks differ exactly by the cell phase
    p = 1.2
    T = assemble_T(p, 50.0, 0.0, shape, prm)
    n = shape.n_nodes
    dev = np.max(np.abs(T.entries[n:, :n] - np.exp(1j * p) * T.entries[:n, n:]))
    assert dev < 1e-12 * np.max(np.abs(T.entries))


@pytest.mark.parametrize("n_nodes", (16, 24))
@pytest.mark.parametrize("delta", (0.0, 0.01))
def test_batched_assembly_is_the_scalar_one(n_nodes, delta):
    # an array of momenta (a closed half zone, one node nudged) adds a leading
    # axis, and each matrix is the one-momentum call's, entry for entry
    shape = make_disk(0.1, n_nodes)
    prm = KernelParams()
    ps = 2 * np.pi * np.arange(9) / 16
    ps[2] += 1e-5
    T = assemble_T(ps, 52.63, delta, shape, prm)
    assert T.entries.shape == (9, 2 * n_nodes, 2 * n_nodes)
    for p, entries in zip(ps, T.entries):
        assert np.array_equal(entries, assemble_T(p, 52.63, delta, shape, prm).entries)


def test_reflected_off_block_is_the_direct_block():
    # at delta != 0, B21 is B12 reflected about the obstacle center; against
    # e^{ip} times the directly evaluated block of the wrapped shift
    rng = np.random.default_rng(17)
    shape = make_shape((0.1, 0.015, -0.005, 0.003), 24)
    n = shape.n_nodes
    for _ in range(3):
        p, lam, delta = rng.uniform(0.2, 3.0), rng.uniform(45.0, 60.0), -rng.uniform(0.005, 0.04)
        prm = KernelParams()
        direct = np.exp(1j * p) * _off_block(0.5 - 2 * delta, shape, p, lam, prm)
        got = assemble_T(p, lam, delta, shape, prm).entries[n:, :n]
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("delta", (0.0, 0.01, -0.02))
def test_reflected_field_block_is_the_direct_block(delta, monkeypatch):
    # on the swap-check grid, invariant under x1 -> 1 - x1, the second
    # obstacle's block is the first one reflected: one kernel block per call;
    # a set without that pairing evaluates both
    shape = make_shape((0.1, 0.015, -0.005, 0.003), 24)
    pts = cell_sample_points(0.0, shape, margin=0.06)
    rng = np.random.default_rng(5)
    pairs = [DensityPair(*(rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))))
             for _ in range(2)]
    prm = KernelParams()
    calls = []
    real = layerops.kernel_blocks

    def spy(xs, *args):
        calls.append(len(xs))
        return real(xs, *args)

    monkeypatch.setattr(layerops, "kernel_blocks", spy)
    got = field_from_density(pairs, pts, 1.3, 50.2, delta, shape, prm)
    assert calls == [len(pts)]
    blocks = [real(pts, shape.nodes + c, 1.3, 50.2, prm) * shape.weights
              for c in pair_centers(delta)]
    for field, pair in zip(got, pairs):
        direct = blocks[0] @ pair.phi1 + blocks[1] @ pair.phi2
        assert np.max(np.abs(field - direct)) <= 1e-13 * np.max(np.abs(direct))
    calls.clear()
    field_from_density(pairs, pts[1:], 1.3, 50.2, delta, shape, prm)
    assert calls == [len(pts) - 1] * 2


def test_node_doubling_consistency():
    # action on a smooth density agrees between N and 2N at shared nodes;
    # a long kernel head isolates quadrature convergence from the image-sum
    # truncation (whose remainder has a diagonal kink at the 1e-7 level)
    lam = 45.0  # separated from every dispersion curve
    prm = KernelParams(m_trunc=1024)
    sh64 = make_disk(0.1, 64)
    sh128 = make_disk(0.1, 128)
    T64 = assemble_T(1.2, lam, 0.0, sh64, prm)
    T128 = assemble_T(1.2, lam, 0.0, sh128, prm)

    def density(shape):
        f = np.exp(np.cos(shape.thetas)) + 0.3 * np.sin(2 * shape.thetas)
        return np.concatenate([f, 0.5 * f])

    act64 = T64.entries @ density(sh64)
    act128 = (T128.entries @ density(sh128))[
        np.concatenate([2 * np.arange(64), 128 + 2 * np.arange(64)])
    ]
    scale = np.max(np.abs(act64))
    assert np.max(np.abs(act64 - act128)) < 1e-8 * scale


def test_off_band_sigma_floor(shape, prm):
    # (p, lambda) = (1.0, 50.0) sits between the first two curves
    T = assemble_T(1.0, 50.0, 0.0, shape, prm)
    s = min_singular_values(T, 1)
    assert s[0] > 1e-3


def test_sigma_phase_invariance(shape, prm):
    T = assemble_T(1.0, 50.0, 0.0, shape, prm)
    s1 = min_singular_values(T, 4)
    T.entries = np.exp(0.7j) * T.entries
    s2 = min_singular_values(T, 4)
    assert np.allclose(s1, s2, rtol=1e-12)


def test_double_kernel_at_crossing(shape, prm):
    T = assemble_T(np.pi, LAM_STAR, 0.0, shape, prm)
    s = min_singular_values(T, 3)
    smax = np.linalg.svd(T.weighted(), compute_uv=False)[0]
    assert s[0] < 1e-5 * smax and s[1] < 1e-5 * smax
    vecs = kernel_vectors(T, 2)
    assert len(vecs) == 2
    # deterministic SVD: a second call reproduces the vectors exactly
    vecs2 = kernel_vectors(T, 2)
    for a, b in zip(vecs, vecs2):
        phase = np.vdot(a.stacked, b.stacked)
        phase /= abs(phase)
        assert np.max(np.abs(a.stacked - phase * b.stacked)) < 1e-8


def test_single_kernel_on_simple_band(shape, prm):
    # generic band point: one singular direction collapses
    from diracwg.bands import find_band_lambda

    lam, _ = find_band_lambda(1.0, (46.5, 47.5), 0.0, shape, prm, band=1)
    T = assemble_T(1.0, lam, 0.0, shape, prm)
    vecs = kernel_vectors(T, 1)
    assert len(vecs) == 1
    # band isolation: the measured sigma slope is ~1.5e-3 per lambda-unit
    # against the kernel threshold 1e-4 sigma_max ~ 2e-5, so the no-kernel
    # region starts a few 1e-2 off the curve
    with pytest.raises(NoKernelError):
        kernel_vectors(assemble_T(1.0, lam + 5e-2, 0.0, shape, prm), 1)


def test_dirichlet_trace_of_kernel_vector(shape, prm):
    T = assemble_T(np.pi, LAM_STAR, 0.0, shape, prm)
    dens = kernel_vectors(T, 1)[0]
    trace = T.entries @ dens.stacked
    # scale: the field a short distance from the boundary
    ring = shape.nodes * 2.0 + np.array([0.25, 0.25])
    u_ring = field_from_density(dens, ring, np.pi, LAM_STAR, 0.0, shape, prm)
    assert np.max(np.abs(trace)) < 1e-4 * np.max(np.abs(u_ring))


def test_field_quasi_periodicity(shape, prm):
    T = assemble_T(1.1, 50.0, 0.0, shape, prm)
    phi = DensityPair(
        phi1=np.exp(np.sin(shape.thetas)).astype(complex),
        phi2=np.cos(shape.thetas).astype(complex),
    )
    pts = np.array([[0.1, 0.4], [0.45, 0.05], [-0.13, 0.31]])
    u0 = field_from_density(phi, pts, 1.1, 50.0, 0.0, shape, prm)
    u1 = field_from_density(phi, pts + np.array([1.0, 0.0]), 1.1, 50.0, 0.0, shape, prm)
    assert np.max(np.abs(u1 - np.exp(1.1j) * u0)) < 1e-8 * np.max(np.abs(u0))


def test_fields_of_several_densities_from_one_call(shape, prm):
    rng = np.random.default_rng(5)
    pairs = [DensityPair(*(rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))))
             for _ in range(3)]
    pts = np.array([[0.1, 0.4], [0.45, 0.05], [0.62, 0.3], [-0.13, 0.31]])
    fields = field_from_density(pairs, pts, 1.1, 50.0, 0.01, shape, prm)
    assert len(fields) == 3
    for pair, field in zip(pairs, fields):
        single = field_from_density(pair, pts, 1.1, 50.0, 0.01, shape, prm)
        assert np.max(np.abs(field - single)) <= 1e-14 * np.max(np.abs(single))


def test_zero_density_zero_field(shape, prm):
    phi = DensityPair(phi1=np.zeros(64, complex), phi2=np.zeros(64, complex))
    u = field_from_density(phi, [[0.1, 0.4]], 1.1, 50.0, 0.0, shape, prm)
    assert np.all(u == 0)


def test_helmholtz_residual_of_field(shape, prm):
    from diracwg.bands import find_band_lambda

    lam, _ = find_band_lambda(1.0, (46.5, 47.5), 0.0, shape, prm, band=1)
    T = assemble_T(1.0, lam, 0.0, shape, prm)
    dens = kernel_vectors(T, 1)[0]
    h = 1e-4
    x0 = np.array([0.5, 0.4])
    stencil = x0 + np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]])
    u = field_from_density(dens, stencil, 1.0, lam, 0.0, shape, prm)
    lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
    assert abs(lap + lam * u[0]) < 1e-4 * max(1.0, abs(u[0]) * lam)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_real_quadratic_form(seed):
    # real densities give real pairings near the crossing (any p, real lam)
    shape = make_disk(0.1, 32)
    prm = KernelParams(m_trunc=32)
    T = assemble_T(np.pi - 0.2, 51.0, 0.0, shape, prm)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2 * shape.n_nodes)
    form = v @ (T.weights * (T.entries @ v))
    assert abs(form.imag) < 1e-10 * abs(form)


@pytest.mark.parametrize("seed", range(5))
def test_ldl_inertia_of_random_hermitian_matrices(seed):
    # Bunch-Kaufman mixes 1x1 and 2x2 pivots; the negative eigenvalues read
    # off D are those of the matrix
    rng = np.random.default_rng(seed)
    n = 40
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = A + A.conj().T - rng.uniform(-4.0, 4.0) * np.eye(n)
    _, ipiv, negatives = ldl_factor(H)
    assert np.any(ipiv < 0)
    assert negatives == np.sum(np.linalg.eigvalsh(H) < 0)


def test_ldl_inertia_of_weighted_operators(prm):
    # on the weighted T(p, lam) of the 16-node disk, below, inside and above
    # the first gap: the inertia is eigvalsh's, and so is the band count
    shape = make_disk(0.1, 16)
    for p in (0.0, 1.3, np.pi):
        for lam in (20.0, 40.0, 52.63, 57.5, 70.0):
            T = assemble_T(p, lam, 0.01, shape, prm)
            W = hermitian_weighted(T.entries, T.weights, "")
            _, ipiv, negatives = ldl_factor(W)
            assert negatives == np.sum(np.linalg.eigvalsh(0.5 * (W + W.conj().T)) < 0)
            count = negatives + prm.sheets_below(p, lam) - len(ipiv)
            assert count == band_count(p, lam, 0.01, shape, prm)


def _fiber_count(p, lam, delta, shape, prm) -> int:
    """gapgreens._factor_fibers' LDL^H count at one momentum: 1 when the
    fiber factors, else the count its PoleRiskError names."""
    try:
        gapgreens._factor_fibers([p], lam, delta, shape, prm)
    except PoleRiskError as exc:
        return int(str(exc).split()[0])
    return 1


def test_every_count_goes_through_one_offset(prm, monkeypatch):
    # at seeded (p, lam, delta) of the 16-node disk, below, in and above the
    # first gap and past empty-guide sheets, a band spectrum's count, the
    # fiber's LDL^H count and band_count agree, each through count_offset
    shape = make_disk(0.1, 16)
    calls = []
    for module in (bands, gapgreens):
        def offset(*args, real=module.count_offset, name=module.__name__, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "count_offset", offset)
    rng = np.random.default_rng(25)
    counts = set()
    for p, lam, delta in zip(rng.uniform(0.0, 2 * np.pi, 8), rng.uniform(20.0, 80.0, 8),
                             rng.uniform(-0.02, 0.02, 8)):
        calls.clear()
        spectrum = bands._spectrum(p, lam, delta, shape, prm, None)
        fiber = _fiber_count(p, lam, delta, shape, prm)
        count = band_count(p, lam, delta, shape, prm)
        assert calls == ["diracwg.bands", "diracwg.gapgreens", "diracwg.bands"]
        assert spectrum.count == fiber == count
        counts.add(count)
    assert len(counts) > 2


@pytest.mark.parametrize("coeffs", ((0.1,), (0.1, 0.015, -0.005, 0.003)))
@pytest.mark.parametrize("p", (1.3, np.pi, 2 * np.pi - 0.3))
def test_rows_on_the_nodes_are_the_diagonal_block(coeffs, p):
    # one row builder: at the collocation angles the off-grid rows take the
    # coincident limit and reproduce the assembled self-interaction block
    shape = make_shape(coeffs, 32)
    prm = KernelParams()
    A = _diag_block(shape, p, 52.63, prm)
    _, [rows] = offgrid_boundary_rows(shape.thetas, np.array([p]), 52.63, 0.01, shape, prm)
    assert np.max(np.abs(rows[:, :32] - A)) <= 1e-13 * np.max(np.abs(A))


def test_symmetric_split_block_needs_real_lambda():
    u, t1, t2 = (np.zeros((4, 4)) for _ in range(3))
    with pytest.raises(DomainError, match="real lambda"):
        _split_symmetric(u, t1, t2 + 0.5, 1.3, 52.63 + 0.3j, KernelParams())
