"""The step function: one batched map call and one Jacobian call per walk."""

import dataclasses

import numpy as np
import pytest

from bdp import (
    Box,
    MapSequence,
    ScenarioSpec,
    SmoothMap,
    arc_ratio_curve,
    build_sequence,
    interval_ratio_1d,
    run_1d,
    run_curve,
    run_curve_holder,
)
from bdp.errors import HypothesisViolationError, OutOfRegionError
from bdp.maps import advance


def _counted(seq):
    """``seq`` with its batch callbacks wrapped by call counters."""
    calls = {"func_batch": 0, "jacobian_batch": 0}

    def count(name, fn):
        def counted(pts):
            calls[name] += 1
            return fn(pts)

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


@pytest.mark.parametrize(
    "engine, walks",
    [(run_curve, 1), (run_curve_holder, 1), (arc_ratio_curve, 2)],
)
def test_curve_engines_walk_the_orbit_once_per_batch(engine, walks):
    spec = ScenarioSpec("planar-contraction-shear", n=4, seed=3, params={"epsilon": 0.5})
    seq, gamma0, budget = build_sequence(spec)
    counted, calls = _counted(seq)
    rep = _curve(engine, counted, gamma0, budget)
    assert calls == {"func_batch": walks * len(seq), "jacobian_batch": walks * len(seq)}
    assert rep.empirical == _curve(engine, seq, gamma0, budget).empirical


@pytest.mark.parametrize("ratio, walks", [(False, 1), (True, 2)])
def test_1d_engines_walk_the_orbit_once_per_batch(ratio, walks):
    seq, interval, budget = build_sequence(ScenarioSpec("1d-quadratic-contraction", n=6))
    counted, calls = _counted(seq)
    if ratio:
        interval_ratio_1d(counted, interval, (0.0, 0.4), (0.4, 1.0), 50, budget)
    else:
        run_1d(counted, interval, 50, budget)
    assert calls == {"func_batch": walks * len(seq), "jacobian_batch": walks * len(seq)}


def _batch_map(func_batch, jacobian_batch, region=None):
    return SmoothMap(
        dim=2, func=lambda x: x, region=region, func_batch=func_batch, jacobian_batch=jacobian_batch
    )


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
