import dataclasses

import numpy as np
import pytest

from bdp import (
    Box,
    MapSequence,
    SeminormEstimate,
    SmoothMap,
    HypothesisBudget,
    estimate_seminorms,
    polynomial_map,
    quadratic_1d,
    rotation_map,
    run_1d,
)
from bdp.errors import OutOfRegionError
from bdp.jets import push_jet2
from bdp.maps import _direction_pairs, pointwise, second_derivatives


def affine_2d(mat, offset):
    mat = np.asarray(mat, dtype=float)
    offset = np.asarray(offset, dtype=float)
    return SmoothMap(2, pointwise(lambda x: mat @ x + offset), pointwise(lambda x: mat))


def test_inverse_norm_bounds_vector_shrinkage():
    # ‖v‖/‖Av‖ ≤ ‖A⁻¹‖ for invertible A
    rng = np.random.default_rng(99)
    done = 0
    while done < 200:
        a = rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-9:
            continue
        lhs = np.linalg.norm(v) / np.linalg.norm(a @ v)
        assert lhs <= np.linalg.norm(np.linalg.inv(a), 2) + 1e-12
        done += 1


def test_out_of_region_reports_step():
    m = SmoothMap(dim=1, func_batch=pointwise(lambda x: x + 1.0), region=Box([0.0], [2.0]))
    with pytest.raises(OutOfRegionError) as info:
        run_1d(MapSequence((m,) * 5), (0.5, 0.6), 2, HypothesisBudget(C=0.0))
    assert info.value.step == 3  # x reaches 2.5 entering step 3


@pytest.mark.parametrize(
    "lo, hi", [([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, np.nan], [1.0, 1.0])]
)
def test_a_box_with_a_nan_bound_is_rejected(lo, hi):
    with pytest.raises(ValueError, match="degenerate box"):
        Box(lo, hi)


def test_seminorms_affine_1d():
    m = SmoothMap(
        dim=1,
        func_batch=pointwise(lambda x: 0.5 * x + 0.25),
        jacobian_batch=pointwise(lambda x: np.array([[0.5]])),
        second_batch=pointwise(lambda x, u, v: np.zeros(1)),
    )
    est = estimate_seminorms(m, Box([0.0], [1.0]), resolution=9)
    assert est.c1 == pytest.approx(0.5)
    assert est.c1_inv == pytest.approx(2.0)
    assert est.c2 == 0.0
    assert est.provenance == "sampled"


def test_seminorms_rotation_isometry():
    est = estimate_seminorms(rotation_map(0.7), Box([-1, -1], [1, 1]), resolution=5)
    assert est.c1 == pytest.approx(1.0)
    assert est.c1_inv == pytest.approx(1.0)
    assert est.c2 == pytest.approx(0.0, abs=1e-12)


def test_seminorms_outside_the_maps_region_raise_instead_of_returning_a_bound():
    # f(x) = x/2 + x²/8 lives on [0, 1]; f'(2) = 1.0 would exceed any c1 of [0, 1]
    with pytest.raises(OutOfRegionError):
        estimate_seminorms(quadratic_1d(0.5, 0.125), Box([0.0], [2.0]), 5)


@pytest.mark.parametrize("bad", [{"c2": np.nan}, {"c1_inv": np.nan}], ids=["nan-c2", "nan-c1-inv"])
def test_a_seminorm_estimate_rejects_nan(bad):
    with pytest.raises(ValueError):
        SeminormEstimate(**{"c1": 1.0, "c1_inv": 1.0, "c2": 1.0, **bad})


def test_sampled_seminorms_below_analytic():
    m = quadratic_1d(0.5, 0.125)
    for res in (3, 5, 9):
        est = estimate_seminorms(m, Box([0.0], [1.0]), resolution=res)
        assert est.c1 <= 0.75 + 1e-12
        assert est.c1_inv <= 2.0 + 1e-12
        assert est.c2 <= 0.25 + 1e-12


def test_seminorms_monotone_in_nested_resolution():
    # nested grids: the refined maximum can only grow
    m = polynomial_map([[(0.3, (1, 0)), (0.05, (2, 0)), (0.04, (1, 1))], [(0.4, (0, 1))]])
    box = Box([-1, -1], [1, 1])
    prev = None
    for res in (3, 5, 9):
        est = estimate_seminorms(m, box, resolution=res)
        if prev is not None:
            assert est.c1 >= prev.c1 - 1e-15
            assert est.c1_inv >= prev.c1_inv - 1e-15
            assert est.c2 >= prev.c2 - 1e-15
        prev = est


def test_seminorms_of_a_table_take_one_second_derivative_call_per_direction_pair():
    m = polynomial_map(
        [[(0.3, (1, 0)), (0.05, (2, 0)), (0.04, (1, 1))], [(0.4, (0, 1)), (0.03, (0, 3))]]
    )
    calls = []

    def counted(pts, u, v):
        calls.append(len(pts))
        return m.second_batch(pts, u, v)

    region = Box([-1, -1], [1, 1])
    est = estimate_seminorms(dataclasses.replace(m, second_batch=counted), region, 5)
    assert calls == [25] * len(_direction_pairs(2))
    assert est.c2 == max(
        float(np.linalg.norm(push_jet2(m, x, u, v).second))
        for x in region.grid(5)
        for u, v in _direction_pairs(2)
    )


def test_second_derivatives_difference_an_analytic_jacobian():
    # f(x) = (x0², x0·x1) with its Jacobian but no ``second``: D²f(u, v) = (2u0v0, u0v1 + u1v0)
    m = SmoothMap(
        dim=2,
        func_batch=pointwise(lambda x: np.array([x[0] ** 2, x[0] * x[1]])),
        jacobian_batch=pointwise(lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]]])),
    )
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, size=(20, 2))
    u, v = rng.normal(size=2), rng.normal(size=2)
    exact = np.array([2 * u[0] * v[0], u[0] * v[1] + u[1] * v[0]])
    assert np.max(np.abs(second_derivatives(m, pts, u, v) - exact)) <= 1e-8
    box = Box([-1, -1], [1, 1])
    est = estimate_seminorms(m, box, resolution=5)
    second = lambda x, u, v: np.array([2 * u[0] * v[0], u[0] * v[1] + u[1] * v[0]])  # noqa: E731
    with_second = dataclasses.replace(m, second_batch=pointwise(second))
    assert est.c2 == pytest.approx(estimate_seminorms(with_second, box, 5).c2, abs=1e-8)


def test_second_derivatives_of_an_affine_map_with_a_jacobian_are_exactly_zero():
    m = affine_2d([[0.5, 0.1], [-0.3, 0.7]], [0.2, -0.1])
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(10, 2))
    assert np.all(second_derivatives(m, pts, np.array([1.0, 0.0]), np.array([0.6, 0.8])) == 0.0)
    assert estimate_seminorms(m, Box([-1, -1], [1, 1]), resolution=4).c2 == 0.0


def test_singular_grid_flags_infinite_inverse():
    # Jacobian vanishes at x = 0, which the grid contains
    m = SmoothMap(
        dim=1,
        func_batch=pointwise(lambda x: x**3),
        jacobian_batch=pointwise(lambda x: np.array([[3 * x[0] ** 2]])),
        second_batch=pointwise(lambda x, u, v: np.array([6 * x[0] * u[0] * v[0]])),
    )
    est = estimate_seminorms(m, Box([-1.0], [1.0]), resolution=5)
    assert est.c1_inv == np.inf


def test_map_sequence_validation():
    with pytest.raises(ValueError):
        MapSequence(())
    one_d = SmoothMap(dim=1, func_batch=lambda x: x)
    two_d = SmoothMap(dim=2, func_batch=lambda x: x)
    with pytest.raises(Exception):
        MapSequence((one_d, two_d))
