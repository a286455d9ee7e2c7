"""Quasi-periodic kernel: oracle comparisons and structural identities.

The independent oracle is the raw modal double series

    G = sum_m sum_n e^{i p_m (x1-y1)} (e^{i 2n pi (x2-y2)} + e^{i 2n pi (x2+y2)})
        / (lam - p_m^2 - (2n pi)^2),

summed by brute force with very large cutoffs.  It converges only
algebraically, so oracle tolerances are looser than the identities the
fast routes must satisfy among themselves.
"""

import mpmath
import numpy as np
import pytest

from diracwg.errors import DomainError, KernelError
from diracwg import layerops, qpgreens
from diracwg.geometry import CENTER_HEIGHT, make_disk, make_shape, mirror_map, pair_centers
from diracwg.interface import gamma_nodes
from diracwg.layerops import cell_sample_points
from diracwg.qpgreens import (
    LOG_COEFF,
    KernelParams,
    _family_msum,
    _polylogs,
    _power_sums,
    ge_nsum,
    ge_split,
    kernel_blocks,
)
from kernel_refs import eval_Ge, eval_Ge_many, eval_Ge_split, ge_msum, kernel_derivative

P0, LAM0 = 1.3, 11.0


def brute_double_sum(x, y, p, lam, m_max=400, n_max=400):
    m = np.arange(-m_max, m_max + 1)
    n = np.arange(-n_max, n_max + 1)
    pm = p + 2 * np.pi * m
    u = x[0] - y[0]
    t1 = x[1] - y[1]
    t2 = x[1] + y[1]
    denom = lam - pm[:, None] ** 2 - (2 * np.pi * n[None, :]) ** 2
    trans = np.exp(2j * np.pi * n * t1) + np.exp(2j * np.pi * n * t2)
    return complex(np.sum(np.exp(1j * pm * u)[:, None] * trans[None, :] / denom))


def args(p=P0, lam=LAM0, **kw):
    """(p, lam, KernelParams) of one evaluation, as the kernel entries take them."""
    return p, lam, KernelParams(**kw)


PRM = KernelParams()  # the default truncation
HEAD = PRM.split_head


# ---------------------------------------------------------------- oracles

def test_msum_matches_double_sum():
    x = np.array([0.13, 0.31])
    y = np.array([0.10, 0.12])
    oracle = brute_double_sum(x, y, P0, LAM0, m_max=600, n_max=600)
    fast = complex(ge_msum(x[0] - y[0], abs(x[1] - y[1]), x[1] + y[1], P0, LAM0, 60))
    assert abs(fast - oracle) < 5e-4 * abs(oracle)


def test_nsum_matches_msum_closely():
    # two exact resummations of the same series agree to near machine precision
    x = np.array([0.42, 0.31])
    y = np.array([0.10, 0.12])
    a = complex(ge_msum(x[0] - y[0], abs(x[1] - y[1]), x[1] + y[1], P0, LAM0, 220))
    b = complex(ge_nsum(x[0] - y[0], x[1] - y[1], x[1] + y[1], P0, LAM0))
    assert abs(a - b) < 1e-12 * abs(a)


def test_split_matches_nsum_in_overlap_zone():
    # |x-y| = 0.09 with enough axial offset that both routes apply
    x = np.array([0.064, 0.3135])
    y = np.array([0.0, 0.25])
    direct = complex(ge_nsum(x[0] - y[0], x[1] - y[1], x[1] + y[1], P0, LAM0))
    coeff, smooth = eval_Ge_split(x, y, *args())
    recombined = smooth + coeff * np.log(np.linalg.norm(x - y))
    assert abs(recombined - direct) < 1e-9 * max(1.0, abs(direct))


def test_split_refuses_propagating_modes_past_its_wall_window():
    # both families keep the head of 256 modes, the window |p_m| < 1615; at
    # lam = 3e6 modes up to |p_m| = 1732 propagate past it, while at
    # lam = 2e5 (|p_m| up to 447) and 3100 the split route agrees with the
    # transverse-modal sum
    u, t1, t2 = np.array([0.3]), np.array([0.1]), np.array([0.4])
    with pytest.raises(KernelError, match="lambda=3000000.0 propagates modes"):
        ge_split(u, t1, t2, P0, 3.0e6, 256)
    for lam in (3100.0, 2.0e5):
        direct = complex(ge_nsum(0.3, 0.1, 0.4, P0, lam, n_max=400))
        value, _ = ge_split(u, t1, t2, P0, lam, 256)
        assert abs(value[0] - direct) < 1e-9 * max(1.0, abs(direct))


def test_split_refusal_names_the_momentum_past_the_window():
    # head 8: the window |p_m| < 2 pi 9 + p (p folded into [0, pi]) ends
    # below sqrt(3364) = 58 only for folded momenta under 1.45, so of the
    # batch only 5.9 (folded: 0.38) trips it, and the message names it
    u, t1, t2 = np.array([0.3]), np.array([0.1]), np.array([0.4])
    with pytest.raises(KernelError, match=r"past the split window .* at p=5\.9$"):
        ge_split(u, t1, t2, np.array([2.0, 5.9, 3.0]), 3364.0, 8)
    value, _ = ge_split(u, t1, t2, np.array([2.0, 3.0]), 3364.0, 8)
    assert value.shape == (2, 1)


# x = (0, 0.4988), y = (0.003, 0.4968) has its wall image 1 - (x2 + y2) =
# 0.0044 below the top wall; the bottom-wall pair mirrors it
WALL_PAIRS = {"top wall": ((0.0, 0.4988), (0.003, 0.4968)),
              "bottom wall": ((0.0, 0.0012), (0.003, 0.0032)),
              "mid strip": ((0.0, 0.25), (0.03, 0.27))}


@pytest.mark.parametrize("pair", WALL_PAIRS)
def test_split_subtracts_both_wall_images(pair):
    x, y = (np.array(v) for v in WALL_PAIRS[pair])
    u, t1, t2 = (np.array([v]) for v in (x[0] - y[0], abs(x[1] - y[1]), x[1] + y[1]))
    value, _ = ge_split(u, t1, t2, P0, 52.63, HEAD)
    assert abs(value[0] - ge_msum(u, t1, t2, P0, 52.63, 40000)[0]) < 1e-8
    assert abs(value[0] - ge_split(u, t1, t2, P0, 52.63, 4096)[0][0]) < 1e-8


def self_block_pairs(shape):
    """(u, t1, t2) of every pair of the disk's self-interaction triangle."""
    nodes = shape.nodes
    ia, ib = np.triu_indices(len(nodes))
    return (nodes[ia, 0] - nodes[ib, 0], np.abs(nodes[ia, 1] - nodes[ib, 1]),
            nodes[ia, 1] + nodes[ib, 1] + 2 * CENTER_HEIGHT)


@pytest.mark.parametrize("p, radius", [
    pytest.param(p, radius, id=str(p) if radius == 0.1 else f"{p}-disk{radius}")
    for radius in (0.1, 0.05) for p in (1.3, np.pi, 2 * np.pi - 0.3)])
def test_split_head_remainder_on_a_diagonal_block(p, radius):
    # the default head against a 4096-mode one on every pair of the disk's
    # self-interaction block; the five orders leave O(1/m_head^5), largest
    # (9.6e-11 at p = pi, head 48) on the closest pairs off the vertical.
    # The 0.05 disk's wall images lie at least 0.4 from both walls, so the
    # wall family's terms fall below e^{-100} within 40 modes of the head
    shape = make_disk(radius, 64)
    _, got = ge_split(*self_block_pairs(shape), p, 52.63, HEAD)
    _, ref = ge_split(*self_block_pairs(shape), p, 52.63, 4096)
    assert np.max(np.abs(got - ref)) < 2e-8


@pytest.mark.parametrize("head", (16, 32))
def test_split_head_remainder_falls_like_the_fifth_power(shape, head):
    # doubling the head divides the self block's remainder by about 2^5,
    # and that of its diagonal entries, where the orders odd in p cancel
    # between m and -m, by about 2^6
    pairs = self_block_pairs(shape)
    diag = (pairs[0] == 0) & (pairs[1] == 0)
    _, ref = ge_split(*pairs, np.pi, 52.63, 4096)
    dev = [np.abs(ge_split(*pairs, np.pi, 52.63, m)[1] - ref) for m in (head, 2 * head)]
    assert 24.0 <= np.max(dev[0]) / np.max(dev[1]) <= 48.0
    assert 48.0 <= np.max(dev[0][diag]) / np.max(dev[1][diag]) <= 80.0


def test_log_coeff_value():
    coeff, _ = eval_Ge_split([0.01, 0.26], [0.0, 0.25], *args())
    assert coeff == LOG_COEFF
    assert abs(coeff - 1 / (2 * np.pi)) < 1e-15


def test_split_smooth_finite_at_tiny_separation():
    x = np.array([7e-9, 0.25 + 7e-9])
    y = np.array([0.0, 0.25])
    _, smooth = eval_Ge_split(x, y, *args())
    assert np.isfinite(smooth.real) and np.isfinite(smooth.imag)
    # against a nearby separation, the smooth part moves only slightly
    _, smooth2 = eval_Ge_split([1e-4, 0.25 + 1e-4], y, *args())
    assert abs(smooth - smooth2) < 1e-2 * max(1.0, abs(smooth2))


def test_split_rejects_far_points():
    with pytest.raises(DomainError):
        eval_Ge_split([0.3, 0.3], [0.0, 0.25], *args())


# ----------------------------------------------------- structural identities

def test_quasi_periodicity():
    rng = np.random.default_rng(3)
    pts_x = np.column_stack([rng.uniform(-0.4, 0.4, 20), rng.uniform(0.05, 0.45, 20)])
    pts_y = np.column_stack([rng.uniform(-0.4, 0.4, 20), rng.uniform(0.05, 0.45, 20)])
    base = eval_Ge_many(pts_x, pts_y, *args())
    shifted = eval_Ge_many(pts_x + np.array([1.0, 0.0]), pts_y, *args())
    assert np.max(np.abs(shifted - np.exp(1j * P0) * base)) < 1e-12 * np.max(np.abs(base))


def test_conjugation_about_pi():
    h = 0.37
    lam = 12.3
    x = np.array([0.21, 0.30])
    y = np.array([0.55, 0.17])
    a = eval_Ge(x, y, *args(p=np.pi + h, lam=lam))
    b = eval_Ge(x, y, *args(p=np.pi - h, lam=lam))
    assert abs(a - np.conj(b)) < 1e-12 * abs(a)


def test_reciprocity_with_momentum_reversal():
    x = np.array([0.21, 0.30])
    y = np.array([0.55, 0.17])
    a = eval_Ge(x, y, *args(p=0.9))
    b = eval_Ge(y, x, *args(p=2 * np.pi - 0.9))
    assert abs(a - b) < 1e-12 * abs(a)


def test_conjugate_transpose_identity():
    x = np.array([0.21, 0.30])
    y = np.array([0.55, 0.17])
    a = eval_Ge(x, y, *args(p=np.pi + 0.2, lam=13.0))
    b = eval_Ge(y, x, *args(p=np.pi + 0.2, lam=13.0))
    assert abs(a - np.conj(b)) < 1e-12 * abs(a)


def test_wall_neumann_condition():
    # d/dx2 at the bottom wall vanishes
    prm = args()
    y = np.array([0.4, 0.2])
    h = 1e-5
    up = eval_Ge([0.1, h], y, *prm)
    dn = eval_Ge([0.1, 0.0], y, *prm)
    d2 = eval_Ge([0.1, 2 * h], y, *prm)
    deriv = (-3 * dn + 4 * up - d2) / (2 * h)
    assert abs(deriv) < 1e-8


def test_helmholtz_residual_interior():
    prm = args()
    y = np.array([0.43, 0.21])
    x0 = np.array([0.12, 0.3])
    h = 1e-4
    c = eval_Ge(x0, y, *prm)
    xp = eval_Ge(x0 + [h, 0], y, *prm)
    xm = eval_Ge(x0 - [h, 0], y, *prm)
    yp = eval_Ge(x0 + [0, h], y, *prm)
    ym = eval_Ge(x0 - [0, h], y, *prm)
    resid = (xp + xm + yp + ym - 4 * c) / h**2 + LAM0 * c
    assert abs(resid) < 1e-4 * max(1.0, abs(c))


def test_msum_truncation_convergence_exponential():
    u, t1, t2 = 0.01, 0.12, 0.52
    ref = complex(ge_msum(u, t1, t2, P0, LAM0, 400))
    errs = [abs(complex(ge_msum(u, t1, t2, P0, LAM0, m)) - ref) for m in (16, 20, 24, 28)]
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 / e0 < 0.5


def test_router_insensitive_to_m_trunc_for_separated_points():
    x = np.array([0.30, 0.25])
    y = np.array([0.25, 0.25])  # |x1-y1| = 0.05, same height
    a = eval_Ge(x, y, *args(m_trunc=16))
    b = eval_Ge(x, y, *args(m_trunc=32))
    assert abs(a - b) < 1e-10


def test_derivative_richardson_consistency():
    x = np.array([0.21, 0.30])
    y = np.array([0.55, 0.17])
    prm = args()
    d1 = kernel_derivative("dLambda", x, y, *prm, 1e-4)
    d2 = kernel_derivative("dLambda", x, y, *prm, 5e-5)
    assert abs(d1 - d2) / abs(d2) < 1e-4


def test_dp_derivative_real_part_even_at_pi():
    # Re G is even in p about pi, so its p-derivative vanishes there
    x = np.array([0.21, 0.30])
    y = np.array([0.55, 0.17])
    d = kernel_derivative("dP", x, y, *args(p=np.pi, lam=12.3), 1e-4)
    assert abs(d.real) < 1e-6 * max(1.0, abs(d))


def test_dlambda_of_lambda_independent_combination_is_zero():
    # sanity of the differencing path itself: difference two kernels at the
    # same lambda and differentiate; exact zero
    x = np.array([0.21, 0.30])
    y = np.array([0.55, 0.17])
    prm = args()
    d = kernel_derivative("dLambda", x, y, *prm, 1e-4) - kernel_derivative(
        "dLambda", x, y, *prm, 1e-4
    )
    assert d == 0


def test_guard_rejects_singular_lambda():
    with pytest.raises(KernelError):
        eval_Ge([0.1, 0.3], [0.4, 0.2], *args(p=1.0, lam=1.0 + 1e-9))


@pytest.mark.parametrize("m_trunc", (8, 48))
def test_guard_over_a_momentum_array_is_the_per_momentum_guard(m_trunc):
    # lam = 52.63 with one momentum placed on the sheet p^2 + (2 pi)^2 = lam
    # (m = 0, n = 1) and others on both sides of pi
    lam, prm = 52.63, KernelParams(m_trunc)
    ps = np.array([0.0, 1.3, np.sqrt(lam - (2 * np.pi) ** 2), np.pi, 4.5, 5.9])
    margins = prm.guard_margins(ps, lam)
    assert margins.shape == ps.shape and margins[2] < 1e-12 < np.delete(margins, 2).min()
    assert np.array_equal(margins, [prm.guard_margins(p, lam) for p in ps])
    for branch in (None, +1, -1):
        below = prm.sheets_below(ps, lam, branch)
        assert np.array_equal(below, [prm.sheets_below(p, lam, branch) for p in ps])
    with pytest.raises(KernelError, match=f"at p={ps[2]:.6g}"):
        prm.check_guard(ps, lam)
    prm.check_guard(np.delete(ps, 2), lam)


def test_coincident_points_rejected():
    with pytest.raises(DomainError):
        eval_Ge([0.1, 0.3], [0.1, 0.3], *args())


def test_kernel_real_at_pi():
    val = eval_Ge([0.21, 0.30], [0.55, 0.17], *args(p=np.pi, lam=12.3))
    assert abs(val.imag) < 1e-12 * abs(val.real)


# ------------------------------------------- blocked sums against mode loops

def family_msum_loop(u, a, p, lam, m_head):
    """The mode-by-mode axial-image family sum, phases by recurrence."""
    total = np.zeros(np.broadcast(u, a).shape, dtype=complex)
    g = np.exp(2j * np.pi * u)
    ph = np.exp(1j * p * u) * g ** (-m_head - 1)
    for m in range(-m_head - 1, m_head + 1):
        s = np.sqrt((p + 2 * np.pi * m) ** 2 - lam + 0j)
        total += ph * (np.exp(-s * a) + np.exp(-s * (1.0 - a))) / (2.0 * s * (1.0 - np.exp(-s)))
        ph = ph * g
    return total


def qp_line_green(k, p, u):
    """1D quasi-periodic Green's function h_k(u), u in [0, 1), in closed form."""
    u = np.asarray(u, dtype=float)
    term1 = np.exp(1j * np.multiply.outer(u, k)) / (1.0 - np.exp(1j * (k - p)))
    term2 = (np.exp(1j * np.multiply.outer(1.0 - u, k)) * np.exp(1j * p)
             / (1.0 - np.exp(1j * (k + p))))
    return (term1 + term2) / (2j * k)


def nsum_loop(u, dx2, t2, p, lam, n_max=None):
    """The transverse-modal sum as h_k(u) times cosines, one matrix per bucket."""
    u, dx2, t2 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, dx2, t2)))
    shift = np.floor(u)
    ur = u - shift

    def modal(sel, count):
        n = np.arange(count + 1)
        k = np.sqrt(lam - (2 * np.pi * n) ** 2 + 0j)
        k = np.where(k.imag < 0, -k, k)
        cosines = (np.cos(2 * np.pi * np.multiply.outer(dx2[sel], n))
                   + np.cos(2 * np.pi * np.multiply.outer(t2[sel], n)))
        return np.sum(qp_line_green(k, p, ur[sel]) * cosines * np.where(n == 0, 1.0, 2.0),
                      axis=-1)

    if n_max is not None:
        return np.exp(1j * p * shift) * modal(np.ones(ur.shape, dtype=bool), n_max)
    d1 = np.maximum(np.minimum(ur, 1.0 - ur), 1e-3)
    out = np.empty(ur.shape, dtype=complex)
    for lo, hi in ((0.0, 0.05), (0.05, 0.12), (0.12, 0.3), (0.3, 1.0)):
        sel = (d1 > lo) & (d1 <= hi)
        if np.any(sel):
            count = int(np.clip(np.ceil(36.0 / (2 * np.pi * np.min(d1[sel]))), 48, 800))
            out[sel] = modal(sel, count)
    return np.exp(1j * p * shift) * out


# lam cases: one or two propagating modes (11); several, with p_m^2 < lam
# for up to three m and (2 pi n)^2 < lam for n = 0, 1 (95, and 143 passed as
# a complex number with zero imaginary part); complex lam
LAMS = (11.0, 95.0, 143.0 + 0j, 52.0 + 3.5j)


# 2e5: propagating modes up to |m| = 71, so some sit in mode blocks far from
# m = 0, where a cut by |m| alone would drop them on rows with O(1) offsets
@pytest.mark.parametrize("lam", LAMS + (2.0e5,))
@pytest.mark.parametrize("m_head", (24, 256))
def test_blocked_family_msum_matches_mode_loop(lam, m_head):
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(1, 200))
        u = rng.uniform(-0.5, 0.5, n)
        u[: n // 4] = 0.0
        # transverse offsets from 1e-9 to O(1) near both walls, and a band
        # [0.3, 0.7] whose terms fall below e^{-100} well inside the
        # m_head = 256 window
        a = np.concatenate([10.0 ** rng.uniform(-9, -0.31, n // 3),
                            1.0 - 10.0 ** rng.uniform(-9, -0.31, n // 3),
                            rng.uniform(0.3, 0.7, n - 2 * (n // 3))])
        p = rng.uniform(0.0, 2 * np.pi)  # p > pi as often as not
        ref = family_msum_loop(u, a, p, lam, m_head)
        got = _family_msum(u, a, p, lam, m_head)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("n_max", (None, 30, 150))
def test_blocked_nsum_matches_mode_loop(lam, n_max):
    rng = np.random.default_rng(12)
    for _ in range(6):
        n = int(rng.integers(1, 200))
        u = rng.uniform(-1.5, 1.5, n)
        u[: n // 4] = np.round(u[: n // 4]) + rng.uniform(-0.06, 0.06, n // 4)
        x2, y2 = rng.uniform(0.0, 0.5, (2, n))
        p = rng.uniform(0.0, 2 * np.pi)
        ref = nsum_loop(u, x2 - y2, x2 + y2, p, lam, n_max)
        got = ge_nsum(u, x2 - y2, x2 + y2, p, lam, n_max)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def pairwise_block(xs, ys, p, lam):
    """The kernel matrix with every pair through the router."""
    row = qpgreens.eval_Ge_uvts(np.subtract.outer(xs[:, 0], ys[:, 0]).ravel(),
                                np.subtract.outer(xs[:, 1], ys[:, 1]).ravel(),
                                np.add.outer(xs[:, 1], ys[:, 1]).ravel(), p, lam, PRM)
    return row.reshape(len(xs), len(ys))


def thin_margin(xs, ys):
    """Each target row's axial margin: the distance of its offsets x1 - y1
    to the nearer end of their floor (negative when they straddle one)."""
    lo, hi = xs[:, 0] - ys[:, 0].max(), xs[:, 0] - ys[:, 0].min()
    return np.minimum(lo - np.floor(lo), np.floor(lo) + 1.0 - hi)


def reference_block(xs, ys, p, lam):
    """The kernel matrix with the rows that kernel_blocks separates (margin at
    least _THIN_MARGIN) from a 4000-mode ge_nsum, exact there, and every
    other row through the router."""
    out = pairwise_block(xs, ys, p, lam)
    sep = thin_margin(xs, ys) >= qpgreens._THIN_MARGIN
    out[sep] = ge_nsum(np.subtract.outer(xs[sep, 0], ys[:, 0]),
                       np.subtract.outer(xs[sep, 1], ys[:, 1]),
                       np.add.outer(xs[sep, 1], ys[:, 1]), p, lam, n_max=4000)
    return out


# p on both sides of pi; lam = 200 has three propagating transverse modes
# (n = 0, 1, 2); a complex lam
BLOCK_CASES = [(p, 52.63) for p in (0.2, 1.3, 3.0, 4.5)] + [(1.3, 200.0), (4.5, 200.0),
                                                             (1.3, 52.63 + 0.3j)]


@pytest.mark.parametrize("p, lam", BLOCK_CASES)
@pytest.mark.parametrize("delta", (0.01, -0.01, 0.02))
def test_kernel_block_off_blocks_match_router(p, lam, delta):
    # both cell off-blocks, the second against the next cell's obstacle,
    # at node counts and rotations drawn from a seeded generator
    rng = np.random.default_rng(21)
    c1, c2 = pair_centers(delta)
    for n_nodes in (16, 24, 64):
        turn = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        nodes = make_disk(0.1, n_nodes).nodes @ rot.T
        for xs, ys in ((nodes + c1, nodes + c2), (nodes + c2, nodes + c1 + [1.0, 0.0])):
            ref = pairwise_block(xs, ys, p, lam)
            got = kernel_blocks(xs, ys, p, lam, PRM)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("p, lam", BLOCK_CASES)
def test_kernel_block_on_a_target_cloud(p, lam):
    # targets over several periods against one obstacle: rows of several
    # floors, separated ones and ones that straddle an integer offset
    rng = np.random.default_rng(22)
    ys = make_disk(0.1, 24).nodes + pair_centers(0.01)[0]
    xs = np.column_stack([rng.uniform(-4.0, 4.0, 300), rng.uniform(0.0, 0.5, 300)])
    lo, hi = xs[:, 0] - ys[:, 0].max(), xs[:, 0] - ys[:, 0].min()
    assert len(np.unique(np.floor(lo))) >= 8
    assert 50 < np.sum(np.floor(lo) == np.floor(hi)) < 250
    ref = reference_block(xs, ys, p, lam)
    got = kernel_blocks(xs, ys, p, lam, PRM)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_block_routes_unseparated_rows_pair_by_pair(monkeypatch):
    ys = np.column_stack([np.linspace(0.2, 0.3, 5), np.full(5, 0.25)])
    xs = np.array([
        [0.40, 0.10],   # offsets [0.10, 0.20]: separated
        [0.25, 0.10],   # [-0.05, 0.05]: straddles 0
        [0.305, 0.40],  # [0.005, 0.105]: closer than _THIN_MARGIN to 0
        [0.33, 0.40],   # [0.03, 0.13]: separated, closer than _AXIAL_SWITCH to 0
        [1.27, 0.10],   # [0.97, 1.07]: straddles 1
        [-0.696, 0.20],  # [-0.996, -0.896]: closer than _THIN_MARGIN to -1
        [-0.68, 0.20],  # [-0.98, -0.88]: separated, closer than _AXIAL_SWITCH to -1
        [-0.20, 0.20],  # [-0.50, -0.40]: separated, floor -1
        [2.90, 0.45],   # [2.60, 2.70]: separated, floor 2
    ])
    fallback = [1, 2, 4, 5]
    seen = []
    router = qpgreens.eval_Ge_uvts

    def spy(u, *args, **kwargs):
        seen.append(np.array(u))
        return router(u, *args, **kwargs)

    monkeypatch.setattr(qpgreens, "eval_Ge_uvts", spy)
    ps = np.array([1.3, 4.5])
    got = kernel_blocks(xs, ys, ps, 52.63, PRM)
    # the same rows, once for both momenta
    [u] = seen
    assert np.array_equal(u, np.subtract.outer(xs[fallback, 0], ys[:, 0]).ravel())
    monkeypatch.undo()
    for block, p in zip(got, ps):
        ref = reference_block(xs, ys, p, 52.63)
        assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mode_cap_reaches_the_decay_at_the_thin_margin():
    # rows at least _THIN_MARGIN off an integer offset are summed in the
    # separable form; its mode cap must still bring the last mode to
    # e^{-36} there, and no closer
    d, cap = qpgreens._THIN_MARGIN, qpgreens._MODES_MAX
    assert 2 * np.pi * cap * d == pytest.approx(36.0, rel=1e-14)
    for lam in (52.63, 200.0, 52.63 + 0.3j):
        k, _, _ = qpgreens._transverse_modes(1.3, lam, d)
        assert len(k) == cap + 1
        # the last mode's axial factor e^{-kappa d}: kappa = sqrt((2 pi cap)^2 - lam)
        # falls short of 2 pi cap by at most |lam| / (2 pi cap)
        assert -np.log(np.abs(np.exp(1j * k[-1] * d))) >= 36.0 - abs(lam) * d / (2 * np.pi * cap)
        k, _, _ = qpgreens._transverse_modes(1.3, lam, 0.9 * d)
        assert len(k) == cap + 1 and np.abs(np.exp(1j * k[-1] * 0.9 * d)) > np.exp(-36.0)


def kernel_blocks_sets(delta):
    """(targets, sources, mirrored) sets: the fiber right-hand sides (both
    obstacles against Gamma and Gamma + e1/2), reconstruction targets with
    their stencil columns against Gamma, and a seeded cloud against one
    obstacle."""
    nodes = make_disk(0.1, 24).nodes
    c1, c2 = pair_centers(delta)
    s, _ = gamma_nodes(24)
    line = np.column_stack([np.zeros(24), s])
    grid = np.column_stack([np.concatenate([np.repeat(np.linspace(0.05, 2.0, 12), 9),
                                            np.repeat([0.02, 0.04], 24)]),
                            np.concatenate([np.tile((np.arange(9) + 0.5) / 18, 12),
                                            np.tile(s, 2)])])
    rng = np.random.default_rng(23)
    cloud = np.column_stack([rng.uniform(-3.0, 3.0, 120), rng.uniform(0.0, 0.5, 120)])
    src = np.vstack([nodes + c1, nodes + c2])
    return [(src, line, True), (src, line + [0.5, 0.0], True), (grid, line, True),
            (cloud, nodes + c1, False)]


@pytest.mark.parametrize("lam", (52.63, 52.63 + 0.3j))
def test_kernel_blocks_slices_equal_kernel_block(lam):
    # one lambda, momenta on both sides of pi and one nudged off a node
    ps = np.array([0.0, 1.3, np.pi / 4 + 1e-5, np.pi, 4.5])
    for xs, ys, mirrored in kernel_blocks_sets(0.01):
        assert (mirror_map(xs) is not None and mirror_map(ys) is not None) == mirrored
        got = kernel_blocks(xs, ys, ps, lam, PRM)
        assert got.shape == (len(ps), len(xs), len(ys))
        for block, p in zip(got, ps):
            ref = kernel_blocks(xs, ys, p, lam, PRM)
            assert np.max(np.abs(block - ref)) <= 1e-15 * np.max(np.abs(ref))


# ------------------------------------------------- plans: lam- and p-free work kept

def split_block_geometries():
    """(u, t1, t2) of the diagonal split blocks (disk and 3-harmonic shape,
    N = 24) and of the Gamma line block."""
    s, _ = gamma_nodes(24)
    sets = [make_shape(c, 24).nodes + [0.0, CENTER_HEIGHT] for c in MIRROR_SHAPES.values()]
    return [self_geometry(pts) for pts in sets + [np.column_stack([np.zeros(24), s])]]


@pytest.mark.parametrize("p", (1.3, np.pi, 4.5))
def test_warm_split_plans_equal_fresh_ones(p, monkeypatch):
    # a plan that served other momenta and energies first (its statics kept,
    # its phase tables sized by them) gives what a plan built for this call
    # gives
    for geom in split_block_geometries():
        for q, lam in ((0.2, 53.1), (5.9, 52.63), (np.pi / 4 + 1e-5, 60.0)):
            qpgreens._split_symmetric(*geom, q, lam, PRM)
        warm = np.stack(qpgreens._split_symmetric(*geom, p, 52.63, PRM))
        with monkeypatch.context() as m:
            m.setattr(qpgreens, "_PLANS", {})
            fresh = np.stack(qpgreens._split_symmetric(*geom, p, 52.63, PRM))
        assert np.max(np.abs(warm - fresh)) <= 1e-15 * np.max(np.abs(fresh))


@pytest.mark.parametrize("lam", (52.63, 52.63 + 0.3j))
def test_batched_pair_rows_equal_per_momentum_rows(lam):
    # mixed pairs of both routes, through eval_Ge_uvts at nine momenta (p
    # beyond pi, one nudged) against a call at each momentum alone
    rng = np.random.default_rng(41)
    u = rng.uniform(-2.0, 2.0, 400)
    u[:150] = np.round(u[:150]) + rng.uniform(-0.04, 0.04, 150)
    x2, y2 = rng.uniform(0.0, 0.5, (2, 400))
    ps = np.array([0.0, 0.4, 1.3, np.pi / 4 + 1e-5, 2.0, np.pi, 3.7, 4.5, 5.9])
    got = qpgreens.eval_Ge_uvts(u, x2 - y2, x2 + y2, ps, lam, PRM)
    for row, p in zip(got, ps):
        ref = qpgreens.eval_Ge_uvts(u, x2 - y2, x2 + y2, p, lam, PRM)
        assert np.max(np.abs(row - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_batched_pair_rows_keep_their_refusals():
    with pytest.raises(DomainError, match="coincident"):
        qpgreens.eval_Ge_uvts([0.1, 1.0], [0.05, 0.0], [0.3, 0.5], np.array([1.3, 4.5]), 52.63,
                              PRM)


SPLIT_MOMENTA = np.array([0.3, np.pi, 4.5, 2 * np.pi - 0.3, 0.3])  # a fold and a repeat


def momentum_axis_geometries():
    """The N = 16 disk's self block and the 24-node Gamma line (symmetric
    split blocks), and the one-shot pairs of off-grid boundary angles
    against the N = 24 disk's nodes."""
    s, _ = gamma_nodes(24)
    shape = make_disk(0.1, 24)
    t = shape.thetas + 0.1
    local = (0.1 * np.column_stack([np.cos(t), np.sin(t)]))[:, None] - shape.nodes[None]
    one_shot = (local[..., 0], np.abs(local[..., 1]),
                np.add.outer(0.1 * np.sin(t), shape.nodes[:, 1]) + 2 * CENTER_HEIGHT)
    return [self_geometry(make_disk(0.1, 16).nodes + [0.0, CENTER_HEIGHT]),
            self_geometry(np.column_stack([np.zeros(24), s])), one_shot]


def assert_matches_scalar_calls(got, ref, p, lam):
    # bitwise, but where a momentum folds onto an earlier one's kept static
    # (2 pi - 0.3 onto 0.3 at real lam), which it shares to rounding
    if p == 2 * np.pi - 0.3 and np.imag(lam) == 0:
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    else:
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("lam", (52.63, 52.63 + 0.3j))
def test_split_momentum_axis_matches_per_momentum_calls(lam, monkeypatch):
    for geom in momentum_axis_geometries():
        got = np.stack(ge_split(*geom, SPLIT_MOMENTA, lam, HEAD))
        assert got.shape == (2, len(SPLIT_MOMENTA)) + geom[0].shape
        for i, p in enumerate(SPLIT_MOMENTA):
            assert_matches_scalar_calls(got[:, i], np.stack(ge_split(*geom, p, lam, HEAD)), p, lam)
        if np.imag(lam) != 0 or geom[0].shape[0] != geom[0].shape[1]:
            continue  # _split_symmetric: real lam and a point set against itself
        got = np.stack(qpgreens._split_symmetric(*geom, SPLIT_MOMENTA, lam, PRM))
        for i, p in enumerate(SPLIT_MOMENTA):
            monkeypatch.setattr(qpgreens, "_PLANS", {})
            ref = np.stack(qpgreens._split_symmetric(*geom, p, lam, PRM))
            assert_matches_scalar_calls(got[:, i], ref, p, lam)


def test_warm_static_on_kept_and_new_momenta_equals_a_fresh_plan():
    ps = np.array([1.1, 2.0, 0.3, np.pi, 0.0])
    for geom in momentum_axis_geometries():
        warm = qpgreens._SplitPlan(*geom, HEAD)
        warm.static(np.array([0.3, 1.1]))
        got = warm.static(ps)
        assert len(warm.statics) == 5
        assert np.array_equal(got, qpgreens._SplitPlan(*geom, HEAD).static(ps))
        for row, p in zip(got, ps):
            assert np.array_equal(row, qpgreens._SplitPlan(*geom, HEAD).static(p))


def test_one_split_call_per_sweep(monkeypatch):
    # the diagonal block, the off-grid boundary rows and the near pairs of
    # the pair router each make one ge_split call for all nine momenta
    calls = []
    real = qpgreens.ge_split

    def spy(u, t1, t2, p, *args, **kwargs):
        calls.append(np.shape(p))
        return real(u, t1, t2, p, *args, **kwargs)

    monkeypatch.setattr(qpgreens, "ge_split", spy)
    monkeypatch.setattr(layerops, "ge_split", spy)
    ps = np.linspace(0.0, np.pi, 9)
    shape = make_disk(0.1, 24)
    layerops._diag_block(shape, ps, 52.63, PRM)
    layerops.offgrid_boundary_rows(shape.thetas + 0.1, ps, 52.63, 0.01, shape, PRM)
    qpgreens.eval_Ge_uvts([0.01, 0.3, 0.02], [0.02, 0.1, -0.01], [0.4, 0.5, 0.3], ps, 52.63, PRM)
    assert calls == [(9,)] * 3


def test_plan_keys_cover_head_and_shape(monkeypatch):
    from diracwg.layerops import _diag_block

    monkeypatch.setattr(qpgreens, "_PLANS", {})
    disk, bumpy = (make_shape(c, 24) for c in MIRROR_SHAPES.values())
    blocks = [_diag_block(disk, *args(1.3, 52.63)),
              _diag_block(disk, *args(1.3, 52.63, m_trunc=64)),
              _diag_block(bumpy, *args(1.3, 52.63))]
    kinds = [key[0] for key in qpgreens._PLANS]
    # one set of self rows per shape, one split plan per shape and head
    assert kinds.count("self rows") == 2 and kinds.count("symmetric") == 3
    assert sorted(key[-1] for key in qpgreens._PLANS if key[0] == "symmetric") == [48, 48, 64]
    # the head-64 block is its own: off the head-48 one, equal to a fresh head-64 one
    assert np.max(np.abs(blocks[1] - blocks[0])) > 1e-12 * np.max(np.abs(blocks[0]))
    monkeypatch.setattr(qpgreens, "_PLANS", {})
    fresh = _diag_block(disk, *args(1.3, 52.63, m_trunc=64))
    assert np.max(np.abs(blocks[1] - fresh)) <= 1e-15 * np.max(np.abs(fresh))


def test_one_shot_target_sets_leave_no_plan(monkeypatch):
    # the reconstruction grid with its stencil columns (near rows pair by
    # pair), loose pairs, the off-grid boundary rows and a split plan's statics
    from diracwg.layerops import offgrid_boundary_rows

    monkeypatch.setattr(qpgreens, "_PLANS", {})
    xs, ys, _ = kernel_blocks_sets(0.01)[2]
    kernel_blocks(xs, np.vstack([ys, ys + [0.003, 0.0]]), np.array([1.3, 4.5]), 52.63, PRM)
    qpgreens.eval_Ge_uvts([0.01, 0.3], [0.02, 0.1], [0.4, 0.5], 1.3, 52.63, PRM)
    shape = make_disk(0.1, 24)
    offgrid_boundary_rows(shape.thetas + 0.1, np.array([1.3]), 52.63, 0.01, shape, PRM)
    qpgreens._SplitPlan(*self_geometry(shape.nodes + [0.0, CENTER_HEIGHT]), 48).static(1.3)
    assert qpgreens._PLANS == {}


def power_sums_loop(mu, count):
    """sum_{k=1}^{count} e^{k mu} / k^j, j = 1..5, term by term."""
    total = np.zeros((5, len(mu)), dtype=complex)
    g = np.exp(mu)
    z = np.ones(len(mu), dtype=complex)
    for k in range(1, count + 1):
        z = z * g
        total += z / float(k) ** np.arange(1, 6)[:, None]
    return total


@pytest.mark.parametrize("count", (24, 96, 256))
def test_power_table_sums_match_mode_loop(count):
    rng = np.random.default_rng(13)
    n = 300
    u = rng.uniform(-0.5, 0.5, n)
    a = np.concatenate([np.zeros(20), 10.0 ** rng.uniform(-9, 0, n - 20)])
    mu = 2 * np.pi * (1j * u - a)
    ref = power_sums_loop(mu, count)
    got = _power_sums(mu, count)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_polylog_matches_mpmath_up_to_the_unit_circle():
    # |z| = e^{-2 pi a} from 1 (a = 0, both sides of z = 1) to e^{-2 pi},
    # across the switch between the log-series and the power series
    u = np.linspace(-0.5, 0.5, 11)
    a = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.2, 0.24, 0.26, 0.5, 1.0])
    mu = (2 * np.pi * (1j * u[:, None] - a[None, :])).ravel()
    for order, got in zip((2, 3, 4, 5), _polylogs(mu)):
        ref = np.array([complex(mpmath.polylog(order, mpmath.exp(complex(m)))) for m in mu])
        assert np.max(np.abs(got - ref)) < 1e-14


# ------------------------------------------------- mid-height mirror x2 -> 1/2 - x2

MIRROR_SHAPES = {"disk": [0.1], "3-harmonic": [0.1, 0.015, -0.005, 0.003]}
MIRROR_CASES = [(p, lam) for p in (0.2, 1.3, np.pi, 4.5) for lam in (52.63, 200.0, 52.63 + 0.3j)]


def mirror_blocks(coeffs, delta):
    """(targets, sources) blocks of the solver whose sets are all mirror
    invariant: obstacle nodes against the Gamma nodes, the reconstruction
    grid with its stencil columns against them, cell sample points against
    an obstacle, and both cell off-blocks."""
    shape = make_shape(coeffs, 24)
    nodes = shape.nodes
    c1, c2 = pair_centers(delta)
    s, _ = gamma_nodes(24)
    line = np.column_stack([np.zeros(24), s])
    xs_right = np.linspace(0.05, 4.0, 48)
    ys = (np.arange(9) + 0.5) * 0.5 / 9
    grid = np.column_stack([np.concatenate([np.repeat(xs_right, 9), np.repeat([0.02, 0.04], 24)]),
                            np.concatenate([np.tile(ys, 48), np.tile(s, 2)])])
    sample = cell_sample_points(delta, shape)
    return [(np.vstack([nodes + c1, nodes + c2]), line), (grid, line),
            (sample, nodes + c1), (nodes + c1, nodes + c2), (nodes + c2, nodes + c1 + [1.0, 0.0])]


@pytest.mark.parametrize("p, lam", MIRROR_CASES)
@pytest.mark.parametrize("delta", (0.01, -0.01, 0.02))
@pytest.mark.parametrize("coeffs", MIRROR_SHAPES.values(), ids=MIRROR_SHAPES)
def test_mirrored_kernel_block_matches_direct_rows(coeffs, delta, p, lam):
    for xs, ys in mirror_blocks(coeffs, delta):
        assert mirror_map(xs) is not None and mirror_map(ys) is not None
        [ref] = qpgreens._kernel_rows(xs, ys, np.array([p]), lam, PRM)
        got = kernel_blocks(xs, ys, p, lam, PRM)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def split_pairs(monkeypatch):
    """A list that collects the pair count of every ge_split call."""
    counts = []
    real = qpgreens.ge_split

    def spy(u, *args, **kwargs):
        counts.append(np.size(u))
        return real(u, *args, **kwargs)

    monkeypatch.setattr(qpgreens, "ge_split", spy)
    return counts


def self_geometry(pts):
    """The (u, t1, t2) pair geometry of one point set against itself."""
    return (np.subtract.outer(pts[:, 0], pts[:, 0]),
            np.abs(np.subtract.outer(pts[:, 1], pts[:, 1])), np.add.outer(pts[:, 1], pts[:, 1]))


@pytest.mark.parametrize("p", (1.3, np.pi, 4.5))
@pytest.mark.parametrize("coeffs", MIRROR_SHAPES.values(), ids=MIRROR_SHAPES)
def test_split_symmetric_orbit_fill_matches_full_triangle(coeffs, p, monkeypatch):
    # the diagonal block's geometry at N = 16, 24 and 64: one pair per orbit
    # of {mirror, swap, reflection}, 41 of 136, 85 of 300 and 545 of 2080
    # triangle pairs; the Gamma block, its own reflection pointwise, keeps
    # the 156 of 300 of {mirror, swap}
    s, _ = gamma_nodes(24)
    cases = [(make_shape(coeffs, n).nodes + [0.0, CENTER_HEIGHT], reps)
             for n, reps in ((16, 41), (24, 85), (64, 545))]
    cases.append((np.column_stack([np.zeros(24), s]), 156))
    counts = split_pairs(monkeypatch)
    for pts, reps in cases:
        geom = self_geometry(pts)
        counts.clear()
        got = qpgreens._split_symmetric(*geom, p, 52.63, PRM)
        assert counts == [reps]
        ref = qpgreens.ge_split(*geom, p, 52.63, HEAD)
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_sets_without_a_mirror_take_the_full_path(monkeypatch):
    rng = np.random.default_rng(31)
    xs = np.column_stack([rng.uniform(0.0, 1.0, 40), rng.uniform(0.02, 0.48, 40)])
    ys = make_disk(0.1, 24).nodes + pair_centers(0.01)[0]
    assert mirror_map(xs) is None
    rows = []
    real_rows = qpgreens._kernel_rows

    def spy(targets, *args):
        rows.append(len(targets))
        return real_rows(targets, *args)

    monkeypatch.setattr(qpgreens, "_kernel_rows", spy)
    kernel_blocks(xs, ys, 1.3, 52.63, PRM)
    kernel_blocks(ys, ys + [0.52, 0.0], 1.3, 52.63, PRM)
    assert rows == [40, 13]  # the disk's 24 nodes: 11 below, 2 on the centerline
    counts = split_pairs(monkeypatch)
    near = xs[:, 0] < 0.1  # a cluster whose pairs all take the split route
    qpgreens._split_symmetric(*self_geometry(xs[near]), 1.3, 52.63, PRM)
    assert counts == [near.sum() * (near.sum() + 1) // 2]
