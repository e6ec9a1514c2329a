"""The one evaluator: ``images``, ``jacobians`` and ``second_derivatives``
for single points and batches, with one check order and one error per failure."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdp import (
    Box,
    HypothesisBudget,
    MapSequence,
    SmoothMap,
    estimate_seminorms,
    fibonacci_trace_map,
    images,
    jacobians,
    polynomial_map,
    push_jet1,
    push_jet2,
    quadratic_1d,
    rotation_map,
    run_1d,
    run_curve,
    second_derivatives,
    segment,
)
from bdp.errors import DimensionMismatchError, HypothesisViolationError, OutOfRegionError
from bdp.maps import STEP1, _direction_pairs, advance, pointwise
from bdp.scenarios import quadratic_map

# derandomized so that the suite stays deterministic; no example database on disk
deterministic = settings(derandomize=True, database=None, max_examples=60, deadline=None)

coords = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def polynomial_maps(draw):
    dim = draw(st.integers(1, 3))
    monomial = st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False), st.tuples(*[st.integers(0, 3)] * dim)
    )
    comps = [draw(st.lists(monomial, min_size=1, max_size=4)) for _ in range(dim)]
    return polynomial_map(comps)


def _builtin(name):
    if name == "quadratic-1d":
        return quadratic_1d(0.5, 0.125)
    if name == "rotation":
        return rotation_map(0.7)
    if name == "quadratic-planar":
        hessians = [[[0.1, 0.02], [0.0, -0.05]], [[0.0, 0.03], [0.03, 0.04]]]
        return quadratic_map(
            [[0.5, 0.1], [-0.2, 0.4]], [0.1, -0.1], hessians, Box([-1.0, -1.0], [1.0, 1.0])
        )
    return fibonacci_trace_map()


builtins = st.sampled_from(["quadratic-1d", "rotation", "quadratic-planar", "trace-map"]).map(
    _builtin
)


@st.composite
def lifted_maps(draw):
    """One-point callables lifted by ``pointwise``, with and without a Jacobian."""
    dim = draw(st.integers(1, 3))
    mat = np.array(draw(st.lists(coords, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    f = lambda x: np.sin(mat @ x) + x**3  # noqa: E731
    jac = lambda x: np.cos(mat @ x)[:, None] * mat + np.diag(3.0 * x**2)  # noqa: E731
    jacobian_batch = pointwise(jac) if draw(st.booleans()) else None
    return SmoothMap(dim, pointwise(f), jacobian_batch, name="lifted")


# in this order the 60 derandomized examples draw every builtin and both lifted kinds
@deterministic
@given(st.one_of(polynomial_maps(), lifted_maps(), builtins), st.data())
def test_single_points_are_the_rows_of_a_batch(m, data):
    lo = 0.0 if m.region is not None else -1.0  # quadratic-1d lives on [0, 1]
    row = st.lists(st.floats(lo, 1.0, allow_nan=False), min_size=m.dim, max_size=m.dim)
    pts = np.array(data.draw(st.lists(row, min_size=1, max_size=5)))
    u, v = (np.array(data.draw(st.lists(coords, min_size=m.dim, max_size=m.dim))) for _ in "uv")
    values, jacs = images(m, pts), jacobians(m, pts)
    seconds = second_derivatives(m, pts, u, v)
    assert values.shape == pts.shape and jacs.shape == (len(pts), m.dim, m.dim)
    assert seconds.shape == pts.shape
    # a polynomial table sums each row on its own, and ``pointwise`` calls a one-point
    # callable on each row alone: a point alone is its row, bit for bit
    tol = {"rtol": 0, "atol": 0} if m.name == "polynomial" else {"rtol": 1e-13, "atol": 1e-15}
    value_tol = {"rtol": 0, "atol": 0} if m.name == "lifted" else tol
    for k, x in enumerate(pts):
        np.testing.assert_allclose(m(x), values[k], **value_tol)
        np.testing.assert_allclose(m.func(x), values[k], **value_tol)
        np.testing.assert_allclose(jacobians(m, x)[0], jacs[k], **tol)
        deriv = push_jet1(m, x, v).deriv
        np.testing.assert_allclose(deriv, jacs[k] @ v, **tol)
        np.testing.assert_allclose(second_derivatives(m, x[None], u, v)[0], seconds[k], **tol)
        np.testing.assert_allclose(push_jet2(m, x, u, v).second, seconds[k], **tol)


def test_a_polynomial_table_row_does_not_depend_on_its_batch():
    # seeded uniform draws: hypothesis favours short binary fractions, whose sums are exact
    rng = np.random.default_rng(1)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        monomials = lambda: [(rng.uniform(-2, 2), tuple(rng.integers(0, 4, dim))) for _ in range(4)]  # noqa: E731
        m = polynomial_map([monomials() for _ in range(dim)])
        pts = rng.uniform(-1.0, 1.0, (7, dim))
        u, v = rng.normal(size=dim), rng.normal(size=dim)
        values, jacs = images(m, pts), jacobians(m, pts)
        seconds = second_derivatives(m, pts, u, v)
        for k, x in enumerate(pts):
            assert np.array_equal(m.func(x), values[k])
            assert np.array_equal(jacobians(m, x)[0], jacs[k])
            assert np.array_equal(push_jet2(m, x, u, v).second, seconds[k])


def _blowup_map(dim, bad, batch):
    def values(x):
        return np.full(np.shape(x), bad)

    if batch:
        jacs = lambda X: np.broadcast_to(np.eye(dim), (len(X), dim, dim))  # noqa: E731
        return SmoothMap(dim=dim, func_batch=values, jacobian_batch=jacs)
    return SmoothMap(dim, pointwise(values), pointwise(lambda x: np.eye(dim)))


@deterministic
@given(
    st.integers(1, 3),
    st.sampled_from([np.inf, -np.inf, np.nan]),
    st.booleans(),
    st.booleans(),
)
def test_a_non_finite_value_is_a_hypothesis_violation_everywhere(dim, bad, batch, fd):
    m = _blowup_map(dim, bad, batch)
    if fd:  # no Jacobian callback: the finite-difference probes meet the bad values first
        m = dataclasses.replace(m, jacobian_batch=None)
    x = np.full(dim, 0.5)
    ident = SmoothMap(dim, pointwise(lambda p: p), pointwise(lambda p: np.eye(dim)))
    budget = HypothesisBudget(C=1.0)
    calls = [
        lambda: m(x),
        lambda: push_jet1(m, x, np.ones(dim)),
        lambda: advance(m, x[None], step=4),
        lambda: run_curve(MapSequence((ident, m)), segment(0 * x, x), 2, 2, budget),
    ]
    for call, step in zip(calls, (None, None, 4, 2)):
        with pytest.raises(HypothesisViolationError) as info:
            call()
        assert info.value.step == step


@deterministic
@given(st.integers(1, 3), st.integers(1, 4))
def test_a_batch_output_of_the_wrong_shape_is_rejected(dim, n):
    wide = SmoothMap(
        dim=dim,
        func_batch=lambda X: np.hstack([X, X]),
        jacobian_batch=lambda X: np.broadcast_to(np.eye(dim), (len(X), dim, dim)),
    )
    pts = np.zeros((n, dim))
    for call in (lambda: advance(wide, pts), lambda: images(wide, pts), lambda: wide(pts[0])):
        with pytest.raises(DimensionMismatchError):
            call()


def test_inputs_of_the_wrong_shape_are_rejected_before_any_callback():
    def refuse(x):
        raise AssertionError("callback ran before the shape check")

    m = SmoothMap(dim=2, func_batch=refuse, jacobian_batch=refuse)
    for pts in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatchError):
            images(m, pts)
        with pytest.raises(DimensionMismatchError):
            jacobians(m, pts)


@pytest.mark.parametrize("name", ["trace-map", "quadratic-1d", "table"])
def test_directions_of_the_wrong_shape_are_rejected_before_any_callback(name):
    m = polynomial_map([[(0.5, (1,)), (0.125, (2,))]]) if name == "table" else _builtin(name)

    def refuse(*args):
        raise AssertionError("callback ran before the shape check")

    refusing = dataclasses.replace(m, func_batch=refuse, jacobian_batch=refuse, second_batch=refuse)
    differencing = dataclasses.replace(refusing, second_batch=None)
    pts, good = np.full((3, m.dim), 0.5), np.ones(m.dim)
    for bad in (np.ones(m.dim + 2), np.ones((1, m.dim)), np.float64(1.0)):
        for u, v in ((bad, good), (good, bad), (bad, bad)):
            for checked in (m, refusing, differencing):
                with pytest.raises(DimensionMismatchError):
                    second_derivatives(checked, pts, u, v)


def test_finite_difference_jacobians_match_the_one_point_formula_bit_for_bit():
    # central differences at step STEP1·max(1, ‖x‖), one column per axis
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        mat = rng.normal(size=(dim, dim))
        f = lambda x, mat=mat: np.sin(mat @ x) + x**3  # noqa: E731
        m = SmoothMap(dim=dim, func_batch=pointwise(f))
        pts = rng.normal(size=(20, dim)) * 3.0
        jacs = jacobians(m, pts)
        for x, jac in zip(pts, jacs):
            h = STEP1 * max(1.0, float(np.linalg.norm(x)))
            for i, e in enumerate(np.eye(dim)):
                assert np.array_equal(jac[:, i], (f(x + h * e) - f(x - h * e)) / (2.0 * h))


def test_finite_difference_jacobian_stays_inside_the_region():
    f = pointwise(lambda x: 0.5 * x + 0.1 * x**2)
    m = SmoothMap(dim=1, func_batch=f, region=Box([0.0], [1.0]))
    rep = run_1d(MapSequence((m,) * 3), (0, 1), 20, HypothesisBudget(C=1.0, L=2.0))
    assert np.isfinite(rep.empirical)
    assert jacobians(m, [[0.0]])[0, 0, 0] == pytest.approx(0.5, abs=1e-6)
    assert jacobians(m, [[1.0]])[0, 0, 0] == pytest.approx(0.7, abs=1e-6)
    with pytest.raises(OutOfRegionError):
        jacobians(m, [[1.5]])


def test_derived_one_point_callbacks_follow_a_replaced_batch_callback():
    # m(x) and m.func are one-point views of func_batch, so they read a replaced one
    m = quadratic_1d(0.5, 0.125)
    x = np.array([0.4])
    assert m.func(x) == pytest.approx(0.5 * 0.4 + 0.125 * 0.16)
    doubled = dataclasses.replace(m, func_batch=lambda X: 2.0 * X)
    assert np.array_equal(doubled.func(x), [0.8])
    assert np.array_equal(doubled(x), [0.8])
    assert np.array_equal(jacobians(doubled, x), jacobians(m, x))
    with pytest.raises(TypeError):  # a map needs its batch value callback
        SmoothMap(dim=1)


def test_a_derived_second_follows_a_replaced_second_batch():
    m = polynomial_map([[(0.5, (1,)), (0.125, (2,))]])
    x, one = np.array([0.4]), np.ones(1)
    assert np.array_equal(push_jet2(m, x, one, one).second, [0.25])
    calls = []

    def doubled(X, u, v):
        calls.append(len(X))
        return 2.0 * X * u * v

    replaced = dataclasses.replace(m, second_batch=doubled)
    assert np.array_equal(push_jet2(replaced, x, one, one).second, [0.8])
    assert calls == [1]


def test_an_analytic_second_derivative_gets_the_output_checks():
    def with_second(second):
        return SmoothMap(
            dim=1,
            func_batch=pointwise(lambda x: 0.5 * x + 0.1 * x**2),
            jacobian_batch=pointwise(lambda x: np.array([[0.5 + 0.2 * x[0]]])),
            second_batch=pointwise(second),
        )

    nan_second = with_second(lambda x, u, v: np.array([np.nan]))
    with pytest.raises(HypothesisViolationError):  # not a sampled C of max(0.0, nan) = 0.0
        run_1d(MapSequence((nan_second,)), (0.0, 1.0), 20, HypothesisBudget())
    with pytest.raises(HypothesisViolationError):
        estimate_seminorms(nan_second, Box([0.0], [1.0]), 5)
    wide = with_second(lambda x, u, v: np.array([0.2, 7.0]))
    with pytest.raises(DimensionMismatchError):  # not read as its first value
        second_derivatives(wide, np.zeros((3, 1)), np.ones(1), np.ones(1))


def test_stacked_seminorms_equal_the_per_point_maxima():
    m = fibonacci_trace_map()
    region = Box([-2.0] * 3, [2.0] * 3)
    est = estimate_seminorms(m, region, 5)
    pts = region.grid(5)
    jacs = [jacobians(m, x)[0] for x in pts]
    assert est.c1 == max(float(np.linalg.norm(j, 2)) for j in jacs)
    assert est.c1_inv == max(float(np.linalg.norm(np.linalg.inv(j), 2)) for j in jacs)
    assert est.c2 == max(
        float(np.linalg.norm(push_jet2(m, x, u, v).second))
        for x in pts
        for u, v in _direction_pairs(3)
    )
