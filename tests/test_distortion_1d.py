import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdp import (
    HypothesisBudget,
    MapSequence,
    SmoothMap,
    interval_ratio_1d,
    polynomial_map,
    quadratic_1d,
    run_1d,
)
from bdp.distortion import BOUND_HOLDS, UNVERIFIED
from bdp.errors import HypothesisViolationError


def affine_1d(a, b):
    return SmoothMap(
        dim=1,
        func=lambda x: a * x + b,
        jacobian=lambda x: np.array([[a]]),
        second=lambda x, u, v: np.zeros(1),
    )


def quad_seq(n):
    return MapSequence((quadratic_1d(0.5, 0.125),) * n)


QUAD_BUDGET = HypothesisBudget(C=0.5, L=4.0, c_prov="analytic", l_prov="analytic")


@pytest.mark.parametrize("field", ["C", "L", "alpha"])
def test_a_nan_budget_constant_is_rejected(field):
    # NaN compares false with everything, so it would pass a `v < 0` test
    with pytest.raises(ValueError, match="nonnegative"):
        HypothesisBudget(**{field: float("nan")})


@pytest.mark.parametrize("field", ["c_prov", "l_prov", "a_prov"])
def test_an_unknown_provenance_is_rejected(field):
    # a misspelling must not read as an untrusted constant
    with pytest.raises(ValueError, match="provenance"):
        HypothesisBudget(**{field: "analytc"})


def test_a_one_d_verdict_ignores_a_stated_alpha():
    # e^{CL} reads no α, so a sampled one must not cap the verdict
    budget = dataclasses.replace(QUAD_BUDGET, alpha=0.3, epsilon=0.5, a_prov="sampled")
    rep = run_1d(quad_seq(5), (0.0, 1.0), 100, budget)
    assert rep.budget == QUAD_BUDGET
    assert rep.verdict == BOUND_HOLDS


def test_affine_sequence_zero_log_ratio():
    rng = np.random.default_rng(17)
    seq = MapSequence(
        tuple(affine_1d(rng.uniform(0.3, 0.9), rng.uniform(-0.05, 0.05)) for _ in range(8))
    )
    rep = run_1d(seq, (0.0, 1.0), 200, HypothesisBudget(C=1.0, L=10.0, c_prov="analytic", l_prov="analytic"))
    assert rep.empirical == 0.0
    assert rep.verdict == BOUND_HOLDS


def test_single_quadratic_step_log_ratio():
    # f'(0)/f'(1) = (1/2)/(3/4), directly from the derivative formula
    rep = run_1d(quad_seq(1), (0.0, 1.0), 2, QUAD_BUDGET)
    assert rep.empirical == pytest.approx(math.log(1.5), abs=1e-12)


def brute_force_sup_log_ratio(n, grid_size=1000):
    """Independent oracle: chain-rule product over a dense grid with fsum."""
    xs = np.linspace(0.0, 1.0, grid_size)
    logs = []
    for x0 in xs:
        terms = []
        x = x0
        for _ in range(n):
            terms.append(math.log(abs(0.5 + x / 4.0)))
            x = x / 2.0 + x * x / 8.0
        logs.append(math.fsum(terms))
    return max(logs) - min(logs)


def test_quadratic_family_at_scale_vs_oracle():
    for n in (1, 10, 50):
        rep = run_1d(quad_seq(n), (0.0, 1.0), 1000, QUAD_BUDGET)
        oracle = brute_force_sup_log_ratio(n)
        assert rep.empirical == pytest.approx(oracle, abs=1e-10)
        assert rep.empirical <= 2.0
        assert rep.verdict == BOUND_HOLDS


def test_stationary_reduction_uses_orbit_lengths():
    # with f_i = f the measured Σ|I_{j−1}| is the classical Σ|f^j(I)|
    n = 20
    rep = run_1d(quad_seq(n), (0.0, 1.0), 100, QUAD_BUDGET)
    lengths = []
    lo, hi = 0.0, 1.0
    f = lambda x: x / 2.0 + x * x / 8.0
    for _ in range(n):
        lengths.append(hi - lo)
        lo, hi = f(lo), f(hi)
    assert rep.trace.sum_L == pytest.approx(sum(lengths), abs=1e-12)
    assert [r.length for r in rep.trace.per_step] == pytest.approx(lengths, abs=1e-12)


def test_carried_lengths_of_cubic_maps_match_a_high_precision_orbit():
    # the 2-point Gauss mean of f' is exact for cubic f, so each L_i is the image length to rounding
    coefs = [(0.4 + 0.02 * k, 0.05, 0.02 + 0.01 * (k % 3)) for k in range(12)]
    maps = (polynomial_map([[(a, (1,)), (b, (2,)), (c, (3,))]]) for a, b, c in coefs)
    rep = run_1d(MapSequence(tuple(maps)), (0.0, 1.0), 50, HypothesisBudget(C=1.0))
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for (a, b, c), rec in zip(coefs, rep.trace.per_step):
            assert rec.length == pytest.approx(float(hi - lo), rel=1e-13, abs=0)
            lo, hi = (a * x + b * x**2 + c * x**3 for x in (lo, hi))


def test_telescoping_bound_1d():
    rep = run_1d(quad_seq(30), (0.0, 1.0), 300, QUAD_BUDGET)
    total = sum(r.lemma2_increment for r in rep.trace.per_step)
    assert rep.empirical <= total + 1e-9


def test_derivative_sign_change_is_hypothesis_violation():
    bad = SmoothMap(
        dim=1,
        func=lambda x: x**2,
        jacobian=lambda x: np.array([[2.0 * x[0]]]),
        second=lambda x, u, v: np.full(1, 2.0),
    )
    with pytest.raises(HypothesisViolationError):
        run_1d(MapSequence((bad,)), (-1.0, 1.0), 50, HypothesisBudget())


def test_sampled_constant_gives_unverified():
    rep = run_1d(quad_seq(5), (0.0, 1.0), 100, HypothesisBudget())
    assert rep.verdict == UNVERIFIED
    # the measured C must approximate sup |f''|/|f'| = 0.5 from below
    assert rep.budget.C <= 0.5 + 1e-12
    assert rep.budget.C == pytest.approx(0.5, abs=1e-2)


def test_budget_exceeded_gives_unverified():
    tight = HypothesisBudget(C=0.5, L=0.5, c_prov="analytic", l_prov="analytic")
    rep = run_1d(quad_seq(10), (0.0, 1.0), 100, tight)
    assert rep.verdict == UNVERIFIED


def test_interval_ratio_affine_exact():
    seq = MapSequence((affine_1d(0.7, 0.1),) * 6)
    budget = HypothesisBudget(C=0.0, L=10.0, c_prov="analytic", l_prov="analytic")
    rep = interval_ratio_1d(seq, (0.0, 1.0), (0.1, 0.3), (0.5, 0.9), 50, budget)
    assert rep.extras["ratio"] == pytest.approx(rep.extras["r"], rel=1e-12)
    assert rep.verdict == BOUND_HOLDS


unit_point = st.floats(0.0, 1.0, allow_nan=False)
subinterval = st.tuples(unit_point, unit_point).filter(lambda s: abs(s[1] - s[0]) >= 1e-3)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.floats(-0.95, 0.95).filter(lambda a: abs(a) >= 0.05), st.floats(-1.0, 1.0),
       st.integers(1, 300), subinterval, subinterval)
@example(0.4, 0.3, 2000, (0.0, 0.3), (0.3, 1.0))
def test_interval_ratio_of_affine_contractions_is_r_for_any_n(a, c, n, sub1, sub2):
    # F_n' is the constant aⁿ: both image lengths are exactly aⁿ times the
    # preimage lengths, however close together the image endpoints fall
    seq = MapSequence((polynomial_map([[(a, (1,)), (c, (0,))]]),) * n)
    L = 1.0 / (1.0 - abs(a)) + 1.0  # Σ |a|^j over the images of [0, 1], with room
    budget = HypothesisBudget(C=0.0, L=L, c_prov="analytic", l_prov="analytic")
    rep = interval_ratio_1d(seq, (0.0, 1.0), sub1, sub2, 50, budget)
    assert rep.extras["ratio"] == pytest.approx(rep.extras["r"], rel=1e-12)
    assert rep.verdict == BOUND_HOLDS


def test_interval_ratio_identical_subintervals():
    rep = interval_ratio_1d(quad_seq(5), (0.0, 1.0), (0.2, 0.6), (0.2, 0.6), 50, QUAD_BUDGET)
    assert rep.extras["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rep.verdict == BOUND_HOLDS


def test_interval_ratio_halves_against_mpmath_orbit():
    n = 50
    rep = interval_ratio_1d(quad_seq(n), (0.0, 1.0), (0.0, 0.5), (0.5, 1.0), 200, QUAD_BUDGET)

    with mpmath.workdps(50):
        def orbit(x):
            x = mpmath.mpf(x)
            for _ in range(n):
                x = x / 2 + x * x / 8
            return x

        pts = [orbit(v) for v in (0.0, 0.5, 1.0)]
        ratio_hp = float((pts[1] - pts[0]) / (pts[2] - pts[1]))

    assert rep.extras["ratio"] == pytest.approx(ratio_hp, rel=1e-9)
    # sandwich with K = (e^{CL})² = e⁴ and r = 1
    assert math.exp(-4.0) <= rep.extras["ratio"] <= math.exp(4.0)
    assert rep.verdict == BOUND_HOLDS


def test_interval_ratio_rejects_degenerate_subinterval():
    with pytest.raises(ValueError):
        interval_ratio_1d(quad_seq(2), (0.0, 1.0), (0.2, 0.2), (0.5, 1.0), 50, QUAD_BUDGET)


def test_interval_ratio_notes_a_sampled_constant_once():
    # the ratio verdict of an unverified base run keeps the base run's notes
    rep = interval_ratio_1d(quad_seq(5), (0.0, 1.0), (0.0, 0.4), (0.4, 1.0), 50, HypothesisBudget())
    assert rep.verdict == UNVERIFIED
    assert rep.trace.notes == ["sampled constants: verdict limited to hypothesis-unverified"]
