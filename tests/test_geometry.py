"""Obstacle shapes and cell layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwg.errors import GeometryError
from diracwg.geometry import (
    CENTER_HEIGHT,
    DELTA_MAX,
    half_shift_map,
    joint_centers,
    make_disk,
    make_shape,
    mirror_map,
    pair_centers,
    reflect_indices,
    reflect_map,
)
from diracwg.layerops import cell_sample_points


def test_disk_perimeter():
    shape = make_disk(0.1, 64)
    assert abs(shape.perimeter - 0.2 * np.pi) < 1e-12


def test_disk_perimeter_against_dense_resampling():
    shape = make_shape([0.1, 0.015, -0.004], 64)
    n_dense = 4096
    theta = 2 * np.pi * np.arange(n_dense) / n_dense
    c = np.array(shape.fourier_cos_coeffs)
    r = c[0] + sum(cj * np.cos(2 * j * theta) for j, cj in enumerate(c[1:], 1))
    rp = sum(-2 * j * cj * np.sin(2 * j * theta) for j, cj in enumerate(c[1:], 1))
    dense = np.sum(np.hypot(rp, r)) * 2 * np.pi / n_dense
    assert abs(shape.perimeter - dense) / dense < 1e-10


def test_disk_reflection_symmetry_exact():
    shape = make_disk(0.1, 64)
    idx = reflect_indices(64)
    reflected = shape.nodes[idx] * np.array([-1.0, 1.0])
    assert np.max(np.abs(reflected - shape.nodes)) < 1e-14


@pytest.mark.parametrize("n", (16, 18, 24, 64))
def test_mirror_map_of_obstacle_nodes_gauss_lines_and_grids(n):
    # theta -> -theta: node j -> (N - j) mod N, also for a pair of obstacles
    nodes = make_shape([0.1, 0.015, -0.005, 0.003], n).nodes
    ring = (n - np.arange(n)) % n
    c1, c2 = pair_centers(0.02)
    assert np.array_equal(mirror_map(nodes + c1), ring)
    assert np.array_equal(mirror_map(np.vstack([nodes + c1, nodes + c2])), np.r_[ring, ring + n])
    s = 0.25 * (np.polynomial.legendre.leggauss(n)[0] + 1.0)
    assert np.array_equal(mirror_map(np.column_stack([np.full(n, 0.5), s])), n - 1 - np.arange(n))
    ys = (np.arange(9) + 0.5) * 0.5 / 9
    grid = np.column_stack([np.repeat(np.linspace(0.05, 4.0, n), 9), np.tile(ys, n)])
    m = mirror_map(grid)
    assert np.array_equal(m, (np.arange(len(grid)) // 9) * 9 + 8 - np.arange(len(grid)) % 9)
    # off the centerline, or one point short of symmetric: no mirror
    assert mirror_map(nodes + c1 + [0.0, 1e-6]) is None
    assert mirror_map(grid[1:]) is None
    rng = np.random.default_rng(4)
    assert mirror_map(rng.uniform(0.0, 0.5, (n, 2))) is None


@pytest.mark.parametrize("n", (16, 24, 64))
def test_reflect_map_of_obstacle_nodes_sample_grids_and_gauss_lines(n):
    # about an obstacle center: theta -> pi - theta, node j -> N/2 - j; about
    # x1 = 1/2: the cell pair at any delta (obstacle 1 to obstacle 2) and its
    # sample grids; a vertical line is its own image pointwise
    shape = make_shape([0.1, 0.015, -0.005, 0.003], n)
    c1, c2 = pair_centers(-0.02)
    assert np.array_equal(reflect_map(shape.nodes + c1, c1[0]), reflect_indices(n))
    pair = reflect_map(np.vstack([shape.nodes + c1, shape.nodes + c2]), 0.5)
    assert np.array_equal(pair, np.r_[reflect_indices(n) + n, reflect_indices(n)])
    for delta in (0.0, 0.01):
        pts = cell_sample_points(delta, shape)
        r = reflect_map(pts, 0.5)
        assert np.max(np.abs(pts[r] - pts * [-1.0, 1.0] - [1.0, 0.0])) < 1e-15
    s = 0.25 * (np.polynomial.legendre.leggauss(n)[0] + 1.0)
    assert np.array_equal(reflect_map(np.column_stack([np.zeros(n), s]), 0.0), np.arange(n))
    # about another line, or one point short of symmetric: no reflection
    assert reflect_map(shape.nodes + c1, c1[0] + 1e-6) is None
    assert reflect_map(pts[1:], 0.5) is None


def test_half_shift_map_of_the_swap_check_grid():
    # x1 -> x1 + 1/2 mod 1 maps column k of the 48-column sample grid to
    # column k + 24 mod 48, wrapping the right half; the delta = 0 mask is
    # invariant, a dimerized one or one point short of it is not
    shape = make_disk(0.1, 64)
    pts = cell_sample_points(0.0, shape, margin=0.06)
    m, wrapped = half_shift_map(pts)
    image = pts + [0.5, 0.0]
    image[image[:, 0] > 1.0, 0] -= 1.0
    assert np.max(np.abs(pts[m] - image)) < 1e-15
    assert np.array_equal(wrapped, pts[:, 0] > 0.5)
    assert half_shift_map(cell_sample_points(0.01, shape, margin=0.06)) is None
    assert half_shift_map(pts[1:]) is None


def test_disk_radius_out_of_range():
    with pytest.raises(GeometryError):
        make_disk(0.3, 64)


def test_shape_requires_even_node_count():
    with pytest.raises(GeometryError):
        make_disk(0.1, 33)
    with pytest.raises(GeometryError, match="even"):
        reflect_indices(33)


def test_normals_unit_and_outward():
    shape = make_shape([0.1, 0.02], 64)
    norms = np.linalg.norm(shape.normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-14)
    # outward: positive projection on the radial direction
    radial = shape.nodes / np.linalg.norm(shape.nodes, axis=1, keepdims=True)
    assert np.all(np.sum(shape.normals * radial, axis=1) > 0)


@settings(max_examples=25, deadline=None)
@given(
    r0=st.floats(0.06, 0.15),
    r1=st.floats(-0.01, 0.01),
    n=st.sampled_from([18, 30, 32, 64, 128]),  # theta -> pi - theta needs only an even N
)
def test_shape_reflection_property(r0, r1, n):
    shape = make_shape([r0, r1], n)
    idx = reflect_indices(n)
    reflected = shape.nodes[idx] * np.array([-1.0, 1.0])
    assert np.max(np.abs(reflected - shape.nodes)) < 1e-13
    assert np.allclose(shape.weights[idx], shape.weights)


def test_plus_delta_intra_cell_gap():
    centers = pair_centers(0.01)
    gap = centers[1, 0] - centers[0, 0]
    assert abs(gap - 0.52) < 1e-15


def test_minus_delta_intra_cell_gap():
    centers = pair_centers(-0.01)
    gap = centers[1, 0] - centers[0, 0]
    assert abs(gap - 0.48) < 1e-15


def test_plus_minus_are_mirror_images():
    # reflecting the +delta cell about x1 = 1/4 gives the -delta cell
    plus = pair_centers(0.013)[:, 0]
    minus = pair_centers(-0.013)[:, 0]
    reflected = np.sort((0.5 - plus) % 1.0)
    assert np.allclose(reflected, np.sort(minus), atol=1e-15)


def test_joint_interface_bond_is_half():
    xs = np.sort(joint_centers(0.01, 2)[:, 0])
    inner = xs[len(xs) // 2] - xs[len(xs) // 2 - 1]
    assert abs(inner - 0.5) < 1e-15


def test_joint_half_patterns():
    # right half carries the +delta pattern, left half the -delta one
    delta = 0.01
    xs = np.sort(joint_centers(delta, 2)[:, 0])
    right = xs[xs > 0]
    left = xs[xs < 0]
    assert abs((right[1] - right[0]) - (0.5 + 2 * delta)) < 1e-15
    assert abs((left[-1] - left[-2]) - (0.5 - 2 * delta)) < 1e-15


def test_delta_too_large():
    for delta in (DELTA_MAX, -DELTA_MAX, 0.2):
        with pytest.raises(GeometryError):
            pair_centers(delta)
        with pytest.raises(GeometryError):
            joint_centers(delta, 2)


def test_pair_centers_matches_layout():
    # cell k of the glued guide's right half is the +delta cell shifted by
    # k, cell k of its left half the -delta cell shifted by -k - 1
    n_cells = 3
    for delta in (0.01, -0.013, 0.0):
        centers = joint_centers(delta, n_cells)
        xs = np.sort(centers[:, 0])
        assert np.all(centers[:, 1] == CENTER_HEIGHT)
        right = [pair_centers(delta)[:, 0] + k for k in range(n_cells)]
        left = [pair_centers(-delta)[:, 0] - k - 1 for k in range(n_cells)]
        assert np.max(np.abs(xs[xs > 0] - np.sort(np.concatenate(right)))) <= 1e-15
        assert np.max(np.abs(xs[xs < 0] - np.sort(np.concatenate(left)))) <= 1e-15
