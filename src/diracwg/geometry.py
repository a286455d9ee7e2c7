"""Waveguide geometry: obstacle shapes and dimerized cell layouts.

The guide is the strip R x (0, 1/2) with sound-hard walls.  Identical
obstacles sit on the centerline x2 = 1/4 with unperturbed centers
z_n = ((2|n|-1)/4 sgn(n), 1/4), i.e. period 1/2 along the axis.  Viewed
with period 1, each cell holds the pair (1/4, 3/4).  Dimerization moves
odd-indexed obstacles by -delta and even-indexed ones by +delta along x1,
so the intra-pair distance becomes 1/2 + 2*delta, or 1/2 - 2*delta for
-delta: pair_centers is that cell.  joint_centers applies the same parity
rule on both halves of the axis, which glues a -delta half-guide (x1 < 0)
to a +delta half-guide (x1 > 0) with an interface bond of length exactly
1/2 across x1 = 0.

Boundary curves are polar graphs r(theta) built from even cosine
harmonics, which enforces the reflection symmetry r(theta) = r(pi - theta)
by construction.  Nodes, outward normals and arc-length weights come from
the periodic trapezoid rule in theta (spectrally accurate on analytic
curves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

STRIP_HEIGHT = 0.5
CENTER_HEIGHT = 0.25
DELTA_MAX = 0.05
HALF_SHIFT = np.array([0.5, 0.0])  # maps the -delta cell onto the +delta one


@dataclass(frozen=True)
class ObstacleShape:
    """Closed boundary curve r(theta), discretized at equi-angular nodes.

    Nodes are in local coordinates (obstacle centered at the origin);
    layouts add the cell centers.  Immutable after construction.
    """

    fourier_cos_coeffs: tuple[float, ...]
    n_nodes: int
    nodes: np.ndarray        # (N, 2)
    normals: np.ndarray      # (N, 2), unit outward
    weights: np.ndarray      # (N,), arc-length trapezoid weights
    thetas: np.ndarray = field(repr=False, default=None)
    speeds: np.ndarray = field(repr=False, default=None)  # |x'(theta)|

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.weights))

    @property
    def diameter(self) -> float:
        r = np.hypot(self.nodes[:, 0], self.nodes[:, 1])
        return 2.0 * float(np.max(r))


def _radius(coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """r(theta) = c0 + sum_j c_j cos(2 j theta); even harmonics only."""
    r = np.full_like(theta, coeffs[0])
    for j, c in enumerate(coeffs[1:], start=1):
        r = r + c * np.cos(2 * j * theta)
    return r


def _inside(shape: ObstacleShape, centers: np.ndarray, pts: np.ndarray,
            margin: float = 0.0) -> np.ndarray:
    """Flags of the points (K, 2) with |d| < r(theta) + margin, in polar
    coordinates d = |d| (cos theta, sin theta) about any of the centers."""
    coeffs = np.asarray(shape.fourier_cos_coeffs)
    # r(theta) <= sum |c_j|: only centers that close in x1 can hold a point
    # (the slack covers the rounding of r(theta))
    reach = float(np.sum(np.abs(coeffs))) * (1.0 + 1e-9) + max(margin, 0.0)
    centers = centers[np.argsort(centers[:, 0], kind="stable")]
    pts = np.atleast_2d(pts)
    flags = np.zeros(len(pts), dtype=bool)
    first = np.searchsorted(centers[:, 0], pts[:, 0] - reach, side="left")
    stop = np.searchsorted(centers[:, 0], pts[:, 0] + reach, side="right")
    for j in range(int(np.max(stop - first, initial=0))):
        sel = np.flatnonzero(first + j < stop)
        d = pts[sel] - centers[first[sel] + j]
        r_bd = _radius(coeffs, np.arctan2(d[:, 1], d[:, 0]))
        flags[sel] |= np.hypot(d[:, 0], d[:, 1]) < r_bd + margin
    return flags


def _radius_prime(coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    rp = np.zeros_like(theta)
    for j, c in enumerate(coeffs[1:], start=1):
        rp = rp - 2 * j * c * np.sin(2 * j * theta)
    return rp


def check_node_count(n_nodes: int) -> None:
    """GeometryError unless n_nodes is even and >= 16."""
    if n_nodes < 16 or n_nodes % 2 != 0:
        raise GeometryError(f"n_nodes must be even and >= 16, got {n_nodes}")


def make_shape(fourier_cos_coeffs, n_nodes: int) -> ObstacleShape:
    """Build an ObstacleShape from even cosine harmonics of r(theta).

    ``fourier_cos_coeffs[j]`` multiplies cos(2*j*theta); the constant term
    is the mean radius.  Raises GeometryError if the curve is not strictly
    positive or does not fit inside the half-strip cell with margin.
    """
    coeffs = np.atleast_1d(np.asarray(fourier_cos_coeffs, dtype=float))
    check_node_count(n_nodes)

    theta = 2 * np.pi * np.arange(n_nodes) / n_nodes
    r = _radius(coeffs, theta)
    # positivity checked on a finer grid than the node set
    theta_fine = 2 * np.pi * np.arange(16 * n_nodes) / (16 * n_nodes)
    r_fine = _radius(coeffs, theta_fine)
    if np.min(r_fine) <= 0:
        raise GeometryError("boundary radius r(theta) must be positive")

    rp = _radius_prime(coeffs, theta)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    nodes = np.column_stack([r * cos_t, r * sin_t])
    # tangent x'(theta); outward normal is the clockwise rotation of it
    tx = rp * cos_t - r * sin_t
    ty = rp * sin_t + r * cos_t
    speed = np.hypot(tx, ty)
    normals = np.column_stack([ty / speed, -tx / speed])
    weights = (2 * np.pi / n_nodes) * speed

    shape = ObstacleShape(
        fourier_cos_coeffs=tuple(coeffs.tolist()),
        n_nodes=n_nodes,
        nodes=nodes,
        normals=normals,
        weights=weights,
        thetas=theta,
        speeds=speed,
    )
    _check_cell_fit(shape)
    return shape


def make_disk(radius: float, n_nodes: int) -> ObstacleShape:
    """Disk of given radius; the canonical test obstacle."""
    if not 0 < radius < 0.25:
        raise GeometryError(f"disk radius must lie in (0, 1/4), got {radius}")
    return make_shape([radius], n_nodes)


def _check_cell_fit(shape: ObstacleShape) -> None:
    x2 = shape.nodes[:, 1]
    if np.max(np.abs(x2)) >= STRIP_HEIGHT / 2:
        raise GeometryError("obstacle touches a waveguide wall")
    if shape.diameter >= 0.5 - 2 * DELTA_MAX:
        raise GeometryError(
            f"obstacle diameter {shape.diameter:.3f} too large for the dimerized cell"
        )


def reflect_indices(n_nodes: int) -> np.ndarray:
    """Node permutation realizing theta -> pi - theta: node j goes to N/2 - j,
    which needs an even node count (make_shape enforces it)."""
    if n_nodes % 2 != 0:
        raise GeometryError(f"reflection index map requires an even n_nodes, got {n_nodes}")
    k = np.arange(n_nodes)
    return (n_nodes // 2 - k) % n_nodes


_MIRROR_QUANTUM = 1e-9     # coordinate rounding that pairs points with their images
_PAIRING_CACHE: dict = {}
_PAIRING_CACHE_MAX = 256


def mirror_map(pts: np.ndarray) -> np.ndarray | None:
    """Permutation m with pts[m] = the mirror image of pts under the strip's
    mid-height mirror x2 -> 1/2 - x2, or None if the set is not invariant.

    Obstacles sit on the centerline and r(theta) is even in theta, so node
    j of an obstacle maps to node (N - j) mod N; the junction nodes on a
    vertical line map i -> m - 1 - i, and a uniform grid row by row.  All
    are symmetric only to a few ulps, so points are paired through their
    coordinates rounded to _MIRROR_QUANTUM and the pairing is accepted
    within 64 ulps of the largest coordinate.  Results are cached by the
    set's bytes: the solver evaluates the same few sets many times.
    """
    return _cached_pairing(pts, None)


def reflect_map(pts: np.ndarray, axis: float) -> np.ndarray | None:
    """Permutation r with pts[r] = the reflection of pts about the vertical
    line x1 = axis, (2 axis - x1, x2), or None if the set is not invariant.

    Each obstacle is reflection-symmetric about its own center and the cell
    pair about x1 = 1/2, so obstacle nodes (theta -> pi - theta), the cell
    sample grids and the junction nodes on a vertical line (each point its own
    image) are invariant.  Paired and cached as in mirror_map."""
    return _cached_pairing(pts, float(axis))


def _cached_pairing(pts: np.ndarray, axis: float | None) -> np.ndarray | None:
    """mirror_map (axis None) or reflect_map about x1 = axis, cached by the
    set's bytes and the axis."""
    pts = np.ascontiguousarray(pts, dtype=float)
    key = (axis, pts.shape, pts.tobytes())
    if key in _PAIRING_CACHE:
        return _PAIRING_CACHE[key]
    if axis is None:
        image = np.column_stack([pts[:, 0], STRIP_HEIGHT - pts[:, 1]])
    else:
        image = np.column_stack([2 * axis - pts[:, 0], pts[:, 1]])
    found = _pair_images(pts, image)
    if found is not None:
        found.setflags(write=False)  # shared by every caller through the cache
    if len(_PAIRING_CACHE) >= _PAIRING_CACHE_MAX:
        _PAIRING_CACHE.pop(next(iter(_PAIRING_CACHE)))
    _PAIRING_CACHE[key] = found
    return found


def half_shift_map(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(m, wrapped) with pts[m] = pts + HALF_SHIFT taken back into the
    period 0 <= x1 < 1, or None if the set is not invariant.

    wrapped flags the points whose image crossed x1 = 1: a quasi-periodic
    field at momentum p takes the factor e^{ip} there.  Points are paired
    through their coordinates as in mirror_map.
    """
    pts = np.asarray(pts, dtype=float)
    image = pts + HALF_SHIFT
    wrapped = image[:, 0] >= 1.0
    image[wrapped, 0] -= 1.0
    perm = _pair_images(pts, image)
    return None if perm is None else (perm, wrapped)


def _pair_images(pts: np.ndarray, image: np.ndarray) -> np.ndarray | None:
    """Permutation m with pts[m] = image within 64 ulps, or None."""
    q, q_image = np.round(pts / _MIRROR_QUANTUM), np.round(image / _MIRROR_QUANTUM)
    perm = np.empty(len(pts), dtype=int)
    perm[np.lexsort(q_image.T[::-1])] = np.lexsort(q.T[::-1])
    tol = 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(pts), initial=0.0)))
    return perm if np.all(np.abs(pts[perm] - image) <= tol) else None


def _check_delta(delta: float) -> None:
    if abs(delta) >= DELTA_MAX:
        raise GeometryError(f"|delta| must be < {DELTA_MAX}, got {delta}")


def pair_centers(delta: float) -> np.ndarray:
    """The two obstacle centers of the period-1 cell at dimerization delta.

    delta > 0 gives the pair (1/4 - delta, 3/4 + delta), i.e. intra-pair
    spacing 1/2 + 2*delta; delta < 0 the -|delta| pair, spacing 1/2 - 2|delta|.
    """
    _check_delta(delta)
    return np.array(
        [[0.25 - delta, CENTER_HEIGHT], [0.75 + delta, CENTER_HEIGHT]]
    )


def joint_centers(delta: float, n_cells: int) -> np.ndarray:
    """Obstacle centers (4 n_cells, 2) of the glued guide, n_cells obstacle
    pairs per side: the -delta pattern on x1 < 0 and the +delta one on
    x1 > 0, the centers z_n + delta (n even) or z_n - delta (n odd) for
    0 < |n| <= 2 n_cells.  Cell k >= 0 of the right half is
    pair_centers(delta) + k, cell k of the left half pair_centers(-delta) - k - 1.
    """
    _check_delta(delta)
    if n_cells < 1:
        raise GeometryError("n_cells must be >= 1")
    ns = [n for n in range(-2 * n_cells, 2 * n_cells + 1) if n != 0]
    xs = [(2 * abs(n) - 1) / 4 * np.sign(n) + (delta if n % 2 == 0 else -delta) for n in ns]
    return np.array([[x, CENTER_HEIGHT] for x in xs])
