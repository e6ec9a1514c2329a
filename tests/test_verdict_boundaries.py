"""Boundaries taken from each run's own measurement: a verdict, the coverage
check and a lemma step check flip within 1e-8 of where the rules put them,
and the error estimates and α equal independent recomputations."""

import dataclasses
import math

import numpy as np
import pytest

from bdp import (
    BOUND_HOLDS,
    BOUND_VIOLATED,
    UNVERIFIED,
    DistortionTrace,
    HypothesisBudget,
    MapSequence,
    ParamCurve,
    ScenarioSpec,
    build_sequence,
    images,
    jacobians,
    lemma_step_checks,
    polynomial_map,
    reparameterize_natural,
    rotation_map,
    run_1d,
    run_curve,
)
from bdp.curves import _simpson_nodes, max_angle_of_tangents, simpson_richardson
from bdp.distortion import StepRecord

TOL = 1e-9  # the absolute tolerance of the verdict rule and the lemma checks, restated
DELTA = 1e-8  # how far past (+) or short of (−) its boundary a stated constant is put
SAMPLES, RESOLUTION = 40, 64
ANALYTIC = {"c_prov": "analytic", "l_prov": "analytic", "a_prov": "analytic"}
FLIPS = [(DELTA, False), (-DELTA, True)]  # (delta, whether the check passes)


def _shear():
    return build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=7))


def _push(m, pts, tans):
    """(images, pushed tangents) of the rows ``pts`` and ``tans`` under ``m``."""
    return images(m, pts), np.einsum("kab,kb->ka", jacobians(m, pts), tans)


@pytest.mark.parametrize("delta, holds", FLIPS)
def test_the_curve_verdict_flips_at_the_bound_plus_tolerance_and_allowance(delta, holds):
    seq, gamma0, budget = _shear()
    measured = run_curve(seq, gamma0, SAMPLES, RESOLUTION, budget)
    trace = measured.trace
    c2 = (measured.empirical - TOL - delta) / (trace.sum_alpha + trace.sum_L + trace.quad_err)
    stated = HypothesisBudget(C=math.sqrt(c2), L=trace.sum_L, alpha=trace.sum_alpha, **ANALYTIC)
    rep = run_curve(seq, gamma0, SAMPLES, RESOLUTION, stated)
    assert rep.empirical == measured.empirical
    assert rep.verdict == (BOUND_HOLDS if holds else BOUND_VIOLATED)


@pytest.mark.parametrize("delta, holds", FLIPS)
def test_the_1d_verdict_flips_at_the_bound_plus_tolerance(delta, holds):
    seq, interval, budget = build_sequence(ScenarioSpec("1d-quadratic-contraction", n=6))
    measured = run_1d(seq, interval, SAMPLES, budget)
    c = (measured.empirical - TOL - delta) / measured.trace.sum_L
    stated = HypothesisBudget(C=c, L=measured.trace.sum_L, **ANALYTIC)
    rep = run_1d(seq, interval, SAMPLES, stated)
    assert rep.verdict == (BOUND_HOLDS if holds else BOUND_VIOLATED)


@pytest.mark.parametrize("delta, holds", FLIPS)
def test_a_length_budget_covers_the_measured_sum_up_to_tolerance_and_error(delta, holds):
    seq, gamma0, budget = _shear()
    trace = run_curve(seq, gamma0, SAMPLES, RESOLUTION, budget).trace
    stated = dataclasses.replace(budget, L=trace.sum_L - trace.quad_err - TOL - delta)
    rep = run_curve(seq, gamma0, SAMPLES, RESOLUTION, stated)
    assert rep.verdict == (BOUND_HOLDS if holds else UNVERIFIED)
    assert ("measured sums exceed the stated budget" in rep.trace.notes) is not holds


def test_each_1d_length_error_is_the_distance_from_the_endpoint_difference():
    # |f'| = 0.5 + x⁴ has degree 4, so the 2-point Gauss carry of the lengths is not exact
    seq, interval = MapSequence((polynomial_map([[(0.5, (1,)), (0.2, (5,))]]),) * 6), (0.0, 1.0)
    rep = run_1d(seq, interval, SAMPLES, HypothesisBudget())
    ends = np.array([[interval[0]], [interval[1]]])
    for rec, m in zip(rep.trace.per_step, seq):
        assert rec.length_err == abs(rec.length - abs(ends[1, 0] - ends[0, 0]))
        ends = images(m, ends)
    assert any(rec.length_err > 0 for rec in rep.trace.per_step)  # a scaled estimate would show


def test_each_curve_length_error_is_the_richardson_estimate_of_the_pushed_speeds():
    seq, gamma0, budget = _shear()
    rep = run_curve(seq, gamma0, SAMPLES, RESOLUTION, budget)
    nodes, h = _simpson_nodes(*gamma0.domain, RESOLUTION)
    pts, tans = gamma0.pos(nodes), gamma0.tan(nodes)
    for rec, m in zip(rep.trace.per_step, seq):
        length, err = simpson_richardson(np.linalg.norm(tans, axis=1), h)
        assert rec.length == pytest.approx(length, rel=1e-9)
        assert rec.length_err == pytest.approx(err, rel=1e-9)
        pts, tans = _push(m, pts, tans)


def test_alpha_is_the_max_angle_over_every_quadrature_and_sample_tangent():
    def wave(t):  # t ↦ (t, 0.3·sin 2πt): the tangent swings from +62° to −62° and back
        return np.stack([t, 0.3 * np.sin(2 * np.pi * t)], axis=1)

    def wave_tangent(t):
        return np.stack([np.ones_like(t), 0.6 * np.pi * np.cos(2 * np.pi * t)], axis=1)

    resolution, samples = 128, 2
    gamma0 = reparameterize_natural(ParamCurve((0.0, 1.0), wave, wave_tangent), resolution)
    seq = MapSequence((rotation_map(0.3), rotation_map(-1.1)))
    rep = run_curve(seq, gamma0, samples, resolution, HypothesisBudget(C=1.0))
    a, b = gamma0.domain
    nodes = np.concatenate([_simpson_nodes(a, b, resolution)[0], np.linspace(a, b, samples)])
    pts, tans = gamma0.pos(nodes), gamma0.tan(nodes)
    for rec, m in zip(rep.trace.per_step, seq):
        assert rec.alpha == pytest.approx(max_angle_of_tangents(tans), rel=1e-12)
        pts, tans = _push(m, pts, tans)


@pytest.mark.parametrize("delta, passed", FLIPS)
def test_a_lemma_step_check_flips_at_the_bound_plus_tolerance_and_allowance(delta, passed):
    increment, length, length_err = 0.3, 0.5, 0.01
    rec = StepRecord(1, length, 0.0, 0.0, increment, length_err, (0, 0), (0, 1))
    trace = DistortionTrace(1, [rec], length, 0.0, increment, np.linspace(0.0, 1.0, 2))
    c2 = (increment - TOL - delta) / (length + length_err)
    assert [check.passed for check in lemma_step_checks(trace, math.sqrt(c2))] == [passed]
