"""The step function: one batched map call and one Jacobian call per walk."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdp import (
    Box,
    HypothesisBudget,
    MapSequence,
    ScenarioSpec,
    SmoothMap,
    arc_ratio_curve,
    build_sequence,
    interval_ratio_1d,
    polynomial_map,
    reparameterize_natural,
    run_1d,
    run_curve,
    run_curve_holder,
    segment,
)
from bdp.errors import HypothesisViolationError, OutOfRegionError
from bdp.maps import advance


def _counted(seq, names=("func_batch", "jacobian_batch")):
    """``seq`` with its callbacks ``names`` wrapped by call counters."""
    calls = dict.fromkeys(names, 0)

    def count(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    maps = tuple(
        dataclasses.replace(m, **{name: count(name, getattr(m, name)) for name in calls})
        for m in seq
    )
    return MapSequence(maps), calls


def _curve(engine, seq, gamma0, budget):
    if engine is arc_ratio_curve:
        a, b = gamma0.domain
        mid = (a + b) / 2
        return engine(seq, gamma0, (a, mid), (mid, b), 20, 32, budget)
    return engine(seq, gamma0, 20, 32, budget)


def _shear():
    spec = ScenarioSpec("planar-contraction-shear", n=4, seed=3, params={"epsilon": 0.5})
    return build_sequence(spec)


def _inline_planar():
    """Inline planar polynomial tables on a segment, with a stated C."""
    maps = tuple(
        polynomial_map([[(0.6, (1, 0)), (0.05 * k, (0, 2))], [(0.5, (0, 1)), (0.04, (1, 1))]])
        for k in range(4)
    )
    gamma0 = reparameterize_natural(segment([0.0, 0.0], [1.0, 0.5]), 64)
    return MapSequence(maps), gamma0, HypothesisBudget(C=1.0, epsilon=0.5)


@pytest.mark.parametrize(
    "engine, walks, inputs",
    [
        pytest.param(run_curve, 1, _shear, id="run_curve-1"),
        pytest.param(run_curve_holder, 1, _shear, id="run_curve_holder-1"),
        pytest.param(arc_ratio_curve, 1, _shear, id="arc_ratio_curve-1"),
        pytest.param(run_curve, 1, _inline_planar, id="run_curve-1-inline"),
        pytest.param(run_curve_holder, 1, _inline_planar, id="run_curve_holder-1-inline"),
        pytest.param(arc_ratio_curve, 1, _inline_planar, id="arc_ratio_curve-1-inline"),
    ],
)
def test_curve_engines_walk_the_orbit_once_per_batch(engine, walks, inputs):
    seq, gamma0, budget = inputs()
    counted, calls = _counted(seq)
    rep = _curve(engine, counted, gamma0, budget)
    assert calls == {"func_batch": walks * len(seq), "jacobian_batch": walks * len(seq)}
    assert rep.empirical == _curve(engine, seq, gamma0, budget).empirical


def _quadratic_1d(n=6):
    return build_sequence(ScenarioSpec("1d-quadratic-contraction", n=n))


def _inline_cubic(n=6):
    """Inline tables a·x + b·x² + c·x³ on [0, 1], no stated constant."""
    cubic = [(0.05, (2,)), (0.02, (3,))]
    maps = tuple(polynomial_map([[(0.4 + 0.02 * (k % 6), (1,)), *cubic]]) for k in range(n))
    return MapSequence(maps), (0.0, 1.0), HypothesisBudget()


@pytest.mark.parametrize(
    "ratio, walks, inputs",
    [
        pytest.param(False, 1, _quadratic_1d, id="False-1"),
        pytest.param(True, 1, _quadratic_1d, id="True-1"),
        pytest.param(False, 1, _inline_cubic, id="False-1-inline"),
        pytest.param(True, 1, _inline_cubic, id="True-1-inline"),
    ],
)
def test_1d_engines_walk_the_orbit_once_per_batch(ratio, walks, inputs):
    seq, interval, budget = inputs()
    counted, calls = _counted(seq)
    if ratio:
        interval_ratio_1d(counted, interval, (0.0, 0.4), (0.4, 1.0), 50, budget)
    else:
        run_1d(counted, interval, 50, budget)
    assert calls == {"func_batch": walks * len(seq), "jacobian_batch": walks * len(seq)}


def test_a_sampled_c_takes_one_second_derivative_call_per_step():
    builtin, unit_interval, _ = _quadratic_1d()  # its C left out, so sampled
    for seq, interval, budget in (_inline_cubic(), (builtin, unit_interval, HypothesisBudget())):
        counted, calls = _counted(seq, ("second_batch",))
        rep = run_1d(counted, interval, 50, budget)
        assert calls == {"second_batch": len(seq)}
        plain = run_1d(seq, interval, 50, budget)
        assert (rep.empirical, rep.theoretical_log_K) == (plain.empirical, plain.theoretical_log_K)


@pytest.mark.parametrize("inputs", [_quadratic_1d, _inline_cubic])
def test_the_interval_ratio_is_judged_against_its_base_bound_squared(inputs):
    seq, interval, budget = inputs()
    subs = ((0.0, 0.4), (0.4, 1.0))
    ratio = interval_ratio_1d(seq, interval, *subs, 50, budget)
    base = run_1d(seq, interval, 50, budget, subs)
    assert ratio.theoretical_log_K == 2.0 * base.theoretical_log_K


@pytest.mark.parametrize("inputs", [_shear, _inline_planar])
def test_the_arc_ratio_is_judged_against_its_base_bound_squared(inputs):
    seq, gamma0, budget = inputs()
    a, b = gamma0.domain
    subs = ((a, (a + b) / 2), ((a + b) / 2, b))
    ratio = arc_ratio_curve(seq, gamma0, *subs, 20, 32, budget)
    base = run_curve(seq, gamma0, 20, 32, budget, subs)
    assert ratio.theoretical_log_K == 2.0 * base.theoretical_log_K


def _subintervals(data, domain):
    a, b = domain
    point = st.floats(a, b, allow_nan=False)
    sub = st.tuples(point, point).filter(lambda s: abs(s[1] - s[0]) >= 1e-3)
    return data.draw(sub), data.draw(sub)


def _assert_same_base_run(plain, with_subs):
    """The subintervals' rows change nothing the base run reports."""
    assert "ratio" not in plain.extras and "image_lengths" not in plain.extras
    assert {key: with_subs.extras[key] for key in plain.extras} == plain.extras
    for name in ("per_step", "sum_L", "sum_alpha", "sup_abs_log_ratio", "quad_err"):
        assert getattr(with_subs.trace, name) == getattr(plain.trace, name)
    assert np.array_equal(with_subs.trace.sample_logs, plain.trace.sample_logs)
    assert (with_subs.empirical, with_subs.verdict) == (plain.empirical, plain.verdict)


# n <= 60 keeps every tangent norm inside [2^-256, 2^256], so no rescale fires
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.sampled_from([1, 7]), st.integers(1, 60), st.data())
def test_subinterval_nodes_leave_the_curve_run_untouched(seed, n, data):
    spec = ScenarioSpec("planar-contraction-shear", n=n, seed=seed, params={"epsilon": 0.5})
    seq, gamma0, budget = build_sequence(spec)
    gamma0 = reparameterize_natural(gamma0, 32)
    subs = _subintervals(data, gamma0.domain)
    plain = run_curve(seq, gamma0, 20, 32, budget)
    _assert_same_base_run(plain, run_curve(seq, gamma0, 20, 32, budget, subs))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.sampled_from([_quadratic_1d, _inline_cubic]), st.integers(1, 60), st.integers(2, 80),
       st.data())
def test_subinterval_nodes_leave_the_1d_run_untouched(inputs, n, samples, data):
    seq, interval, budget = inputs(n)
    subs = _subintervals(data, interval)
    plain = run_1d(seq, interval, samples, budget)
    _assert_same_base_run(plain, run_1d(seq, interval, samples, budget, subs))


def _batch_map(func_batch, jacobian_batch, region=None):
    return SmoothMap(dim=2, func_batch=func_batch, jacobian_batch=jacobian_batch, region=region)


def _unit_jacobians(pts):
    return np.ones((len(pts), 2, 2))


def test_advance_checks_the_region_before_evaluating():
    def refuse(pts):
        raise AssertionError("evaluated before the region check")

    m = _batch_map(refuse, refuse, region=Box([0.0, 0.0], [1.0, 1.0]))
    pts = np.array([[0.5, 0.5], [2.0, 0.5], [3.0, 0.5]])
    with pytest.raises(OutOfRegionError) as info:
        advance(m, pts, step=7)
    assert info.value.step == 7
    assert np.array_equal(info.value.point, [2.0, 0.5])


def test_advance_rejects_non_finite_images_and_pushes_tangents():
    blowup = _batch_map(lambda pts: np.full(pts.shape, np.inf), _unit_jacobians)
    with pytest.raises(HypothesisViolationError) as info:
        advance(blowup, np.zeros((3, 2)), step=2)
    assert info.value.step == 2

    ones = _batch_map(lambda pts: np.ones(pts.shape), _unit_jacobians)
    jac, image, pushed = advance(ones, np.zeros((3, 2)), np.eye(3, 2))
    assert jac.shape == (3, 2, 2) and np.all(image == 1.0)
    assert np.array_equal(pushed, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    assert advance(ones, np.zeros((3, 2)))[2] is None
