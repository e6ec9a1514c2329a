import dataclasses
import math

import mpmath
import numpy as np
import pytest

from bdp import (
    HypothesisBudget,
    MapSequence,
    ScenarioSpec,
    arc_ratio_curve,
    build_sequence,
    circle_arc,
    first_lemma_violation,
    lemma_step_checks,
    polynomial_map,
    reparameterize_natural,
    rotation_map,
    run_curve,
    run_curve_holder,
    segment,
)
from bdp.distortion import BOUND_HOLDS, UNVERIFIED
from bdp.errors import HypothesisViolationError
from bdp.maps import SmoothMap, images, jacobians, pointwise


def unit_segment():
    return reparameterize_natural(segment([0.0, 0.0], [1.0, 0.0]), 64)


def test_rotations_exact_zeros():
    seq = MapSequence(tuple(rotation_map(0.1) for _ in range(5)))
    budget = HypothesisBudget(C=1.0, L=5.0, alpha=0.0, c_prov="analytic", l_prov="analytic", a_prov="analytic")
    rep = run_curve(seq, unit_segment(), 64, 64, budget)
    assert rep.empirical == 0.0
    assert rep.verdict == BOUND_HOLDS
    for rec in rep.trace.per_step:
        assert rec.length == pytest.approx(1.0, abs=1e-12)
        assert rec.alpha == 0.0
        assert rec.lemma1_increment <= 1e-15
        assert rec.lemma2_increment <= 1e-15


def test_identity_sequence_keeps_lengths():
    ident = SmoothMap(
        dim=2,
        func_batch=pointwise(lambda x: x.copy()),
        jacobian_batch=pointwise(lambda x: np.eye(2)),
        second_batch=pointwise(lambda x, u, v: np.zeros(2)),
    )
    gamma0 = reparameterize_natural(circle_arc(1.0, 0.0, np.pi / 2), 128)
    seq = MapSequence((ident,) * 4)
    budget = HypothesisBudget(C=1.0, L=10.0, alpha=4 * np.pi, c_prov="analytic", l_prov="analytic", a_prov="analytic")
    rep = run_curve(seq, gamma0, 64, 128, budget)
    assert rep.empirical <= 1e-13
    for rec in rep.trace.per_step:
        assert rec.length == pytest.approx(np.pi / 2, abs=1e-8)


def shear_quad_map():
    # f(x, y) = (x + 0.1 y², y)
    return polynomial_map([[(1.0, (1, 0)), (0.1, (0, 2))], [(1.0, (0, 1))]])


def dense_fd_sup_log_ratio(m, gamma0, n_grid=4000):
    """Oracle: finite-difference tangents of the composed position."""
    a, b = gamma0.domain
    ts = np.linspace(a + 1e-6, b - 1e-6, n_grid)
    h = 1e-6
    logs = []
    for t in ts:
        diff = m.func(gamma0.pos(t + h)) - m.func(gamma0.pos(t - h))
        logs.append(math.log(np.linalg.norm(diff) / (2 * h)))
    return max(logs) - min(logs)


def test_single_nonlinear_map_matches_fd_oracle():
    m = shear_quad_map()
    gamma0 = reparameterize_natural(circle_arc(1.0, 0.0, np.pi / 2), 512)
    budget = HypothesisBudget(C=2.0, L=np.pi / 2, alpha=np.pi, c_prov="analytic", l_prov="analytic", a_prov="analytic")
    rep = run_curve(MapSequence((m,)), gamma0, 512, 512, budget)
    oracle = dense_fd_sup_log_ratio(m, gamma0)
    assert rep.empirical == pytest.approx(oracle, abs=1e-4)
    assert rep.verdict == BOUND_HOLDS
    assert rep.empirical <= rep.theoretical_log_K


def test_lemma_checks_affine():
    rng = np.random.default_rng(23)
    maps = []
    for _ in range(6):
        mat = rng.normal(size=(2, 2))
        while abs(np.linalg.det(mat)) < 0.3:
            mat = rng.normal(size=(2, 2))
        maps.append(
            SmoothMap(
                dim=2,
                func_batch=pointwise((lambda A: lambda x: A @ x)(mat)),
                jacobian_batch=pointwise((lambda A: lambda x: A)(mat)),
                second_batch=pointwise(lambda x, u, v: np.zeros(2)),
            )
        )
    gamma0 = reparameterize_natural(circle_arc(1.0, 0.0, 1.0), 128)
    c_bound = max(
        max(np.linalg.norm(j, 2), np.linalg.norm(np.linalg.inv(j), 2))
        for j in (jacobians(m, np.zeros(2))[0] for m in maps)
    )
    budget = HypothesisBudget(C=c_bound, c_prov="analytic")
    rep = run_curve(MapSequence(tuple(maps)), gamma0, 80, 128, budget)
    # affine: Jacobian constant in x, so the lemma-2 left side vanishes
    for rec in rep.trace.per_step:
        assert rec.lemma2_increment <= 1e-12
    checks = lemma_step_checks(rep.trace, c_bound)
    assert all(c.passed for c in checks)
    assert first_lemma_violation(checks) is None


def test_lemma1_zero_for_straight_line_single_map():
    m = shear_quad_map()
    gamma0 = unit_segment()
    budget = HypothesisBudget(C=2.0, c_prov="analytic")
    rep = run_curve(MapSequence((m,)), gamma0, 50, 64, budget)
    rec = rep.trace.per_step[0]
    assert rec.alpha == 0.0
    assert rec.lemma1_increment <= 1e-14


def test_seeded_quadratic_family_lemmas_and_telescoping():
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=12, seed=5))
    rep = run_curve(seq, gamma0, 120, 256, budget)
    checks = lemma_step_checks(rep.trace, budget.C)
    assert all(c.passed for c in checks)
    for c in checks:
        assert c.lemma1_slack >= -1e-9
    total = sum(r.lemma1_increment + r.lemma2_increment for r in rep.trace.per_step)
    assert rep.empirical <= total + 1e-9


@pytest.mark.parametrize("seed", [1, 7])
def test_lemma_increments_match_a_pointwise_double_loop(seed):
    # every sample point and tangent pushed on its own, every pair visited by a double loop
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=seed))
    rep = run_curve(seq, gamma0, 12, 32, budget)
    ts = np.linspace(*gamma0.domain, 12)
    xs, us = [gamma0.pos(t) for t in ts], [gamma0.tan(t) for t in ts]
    for m, rec in zip(seq, rep.trace.per_step):
        jac = [jacobians(m, x)[0] for x in xs]
        log_ju = [[math.log(np.linalg.norm(jk @ ul)) for ul in us] for jk in jac]
        log_u = [math.log(np.linalg.norm(u)) for u in us]
        lemma1 = lemma2 = -math.inf
        for k in range(12):
            for l in range(12):
                drift = abs(log_ju[k][k] - log_ju[k][l]) - abs(log_u[k] - log_u[l])
                lemma1 = max(lemma1, drift)
                lemma2 = max(lemma2, abs(log_ju[k][l] - log_ju[l][l]))
        assert rec.lemma1_increment == pytest.approx(lemma1, rel=0, abs=1e-13)
        assert rec.lemma2_increment == pytest.approx(lemma2, rel=0, abs=1e-13)
        xs = [images(m, x)[0] for x in xs]
        us = [jk @ u for jk, u in zip(jac, us)]


def test_antisymmetry_of_pairwise_logs():
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=4, seed=1))
    rep = run_curve(seq, gamma0, 40, 64, budget)
    logs = rep.trace.sample_logs
    diff = logs[:, None] - logs[None, :]
    assert np.allclose(diff, -diff.T, atol=1e-15)
    assert np.allclose(np.diag(diff), 0.0)


def test_holder_rotations_zero():
    seq = MapSequence(tuple(rotation_map(0.2) for _ in range(8)))
    budget = HypothesisBudget(
        C=1.0, L=8.0, alpha=0.0, epsilon=0.5,
        c_prov="analytic", l_prov="analytic", a_prov="analytic",
    )
    rep = run_curve_holder(seq, unit_segment(), 64, 64, budget)
    assert rep.empirical == 0.0
    assert rep.verdict == BOUND_HOLDS


def test_holder_accumulates_epsilon_powers():
    seq, gamma0, budget = build_sequence(
        ScenarioSpec("planar-contraction-shear", n=6, seed=5, params={"epsilon": 0.5})
    )
    rep = run_curve_holder(seq, gamma0, 60, 128, budget)
    plain = run_curve(seq, gamma0, 60, 128, budget)
    expected = sum(r.length**0.5 for r in plain.trace.per_step)
    assert rep.trace.sum_L == pytest.approx(expected, rel=1e-9)
    assert rep.verdict == BOUND_HOLDS


def test_arc_ratio_rotations_exact():
    seq = MapSequence(tuple(rotation_map(0.3) for _ in range(5)))
    gamma0 = unit_segment()
    budget = HypothesisBudget(C=1.0, L=5.0, alpha=0.0, c_prov="analytic", l_prov="analytic", a_prov="analytic")
    rep = arc_ratio_curve(seq, gamma0, (0.0, 0.25), (0.25, 1.0), 64, 128, budget)
    assert rep.extras["ratio"] == pytest.approx(rep.extras["r"], rel=1e-9)
    assert rep.verdict == BOUND_HOLDS


def test_arc_ratio_identical_subintervals():
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=5, seed=2))
    a, b = gamma0.domain
    rep = arc_ratio_curve(seq, gamma0, (a, (a + b) / 2), (a, (a + b) / 2), 50, 128, budget)
    assert rep.extras["ratio"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "reversed_subs", [(True, False), (False, True), (True, True)], ids=["sub1", "sub2", "both"]
)
def test_arc_ratio_reversed_subintervals_give_the_forward_result(reversed_subs):
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-rotations", n=3))
    a, b = gamma0.domain
    forward = ((a, (a + b) / 2), ((a + b) / 2, b))
    subs = [sub[::-1] if rev else sub for sub, rev in zip(forward, reversed_subs)]
    rep = arc_ratio_curve(seq, gamma0, *subs, 40, 64, budget)
    ref = arc_ratio_curve(seq, gamma0, *forward, 40, 64, budget)
    assert rep.extras["ratio"] == ref.extras["ratio"]
    assert rep.extras["arc_lengths"] == ref.extras["arc_lengths"]
    assert (rep.verdict, rep.empirical) == (ref.verdict, ref.empirical)


@pytest.mark.parametrize("n", [1, 3])
def test_arc_lengths_match_the_closed_form_ellipse_speed(n):
    # diag(1, 0.5)ⁿ takes the quarter circle's tangent (−sin t, cos t) to (−sin t, 0.5ⁿ cos t)
    diag = polynomial_map([[(1.0, (1, 0))], [(0.5, (0, 1))]])
    gamma0 = reparameterize_natural(circle_arc(1.0, 0.0, math.pi / 2), 32)
    subs = ((0.0, 0.6), (0.6, gamma0.domain[1]))
    rep = arc_ratio_curve(MapSequence((diag,) * n), gamma0, *subs, 20, 32, HypothesisBudget(C=1.0))
    with mpmath.workdps(30):
        c = mpmath.mpf(0.5) ** n
        speed = lambda t: mpmath.sqrt(mpmath.sin(t) ** 2 + (c * mpmath.cos(t)) ** 2)  # noqa: E731
        for (s0, s1), got in zip(subs, rep.extras["arc_lengths"]):
            t0, t1 = (float(np.interp(s, gamma0.s_table, gamma0.t_table)) for s in (s0, s1))
            assert got == pytest.approx(float(mpmath.quad(speed, [t0, t1])), rel=1e-11, abs=0)


def test_arc_ratio_rejects_degenerate():
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=3, seed=2))
    a, b = gamma0.domain
    with pytest.raises(ValueError):
        arc_ratio_curve(seq, gamma0, (a, a), (a, b), 50, 64, budget)


@pytest.mark.parametrize("nan_hi", [False, True], ids=["nan-lo", "nan-hi"])
def test_a_nan_subinterval_bound_is_a_bad_input(nan_hi):
    # not a vanished tangent, a hypothesis failure, once the engine has run
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=3, seed=2))
    a, b = gamma0.domain
    sub = ((a + b) / 2, math.nan) if nan_hi else (math.nan, (a + b) / 2)
    with pytest.raises(ValueError, match="not inside"):
        run_curve(seq, gamma0, 20, 32, budget, (sub,))
    with pytest.raises(ValueError, match="not inside"):
        arc_ratio_curve(seq, gamma0, sub, (a, b), 20, 32, budget)


def test_sampled_budget_cannot_violate():
    # a sampled C yields at best hypothesis-unverified, even with a tiny bound
    seq, gamma0, _ = build_sequence(ScenarioSpec("planar-contraction-shear", n=5, seed=3))
    rep = run_curve(seq, gamma0, 40, 64, HypothesisBudget(C=1e-6, c_prov="sampled"))
    assert rep.verdict == UNVERIFIED


def test_n_independence_of_contraction_family():
    values = {}
    for n in (5, 20, 40):
        seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=n, seed=9))
        rep = run_curve(seq, gamma0, 60, 128, budget)
        values[n] = rep.empirical
        assert rep.verdict == BOUND_HOLDS
    # longer sequences can only accumulate more distortion, and every value
    # stays far below the analytic budget
    assert values[5] <= values[20] + 1e-12
    assert values[20] <= values[40] + 1e-12
    assert values[40] < 2.0


@pytest.mark.parametrize("engine", ["run_curve", "run_curve_holder", "arc_ratio_curve"])
def test_curve_engines_hold_over_a_thousand_shrinking_steps(engine):
    # the tangents shrink about e^-0.85 per step, below the smallest double by
    # step 900; kept in range by powers of two, they still give every verdict
    spec = ScenarioSpec("planar-contraction-shear", n=1000, seed=7, params={"epsilon": 0.5})
    seq, gamma0, budget = build_sequence(spec)
    if engine == "arc_ratio_curve":
        a, b = gamma0.domain
        rep = arc_ratio_curve(seq, gamma0, (a, (a + b) / 2), ((a + b) / 2, b), 20, 16, budget)
        assert math.isfinite(rep.extras["ratio"]) and rep.extras["ratio"] > 0
    else:
        rep = {"run_curve": run_curve, "run_curve_holder": run_curve_holder}[engine](
            seq, gamma0, 20, 16, budget
        )
    assert rep.verdict == BOUND_HOLDS
    assert np.all(np.isfinite(rep.trace.sample_logs)) and math.isfinite(rep.empirical)
    assert first_lemma_violation(lemma_step_checks(rep.trace, budget.C)) is None


@pytest.mark.parametrize("engine", ["run_curve", "run_curve_holder", "arc_ratio_curve"])
def test_a_tangent_that_vanishes_names_its_step(engine):
    # two rotations, then (x, y) ↦ (x, 0), which kills the vertical segment's tangents
    flatten = polynomial_map([[(1.0, (1, 0))], [(0.0, (0, 0))]])
    seq = MapSequence((rotation_map(0.0), rotation_map(0.0), flatten, rotation_map(0.0)))
    gamma0 = reparameterize_natural(segment([0.0, 0.0], [0.0, 1.0]), 16)
    budget = HypothesisBudget(C=0.0, epsilon=0.5, c_prov="analytic")
    subs = ((0.0, 0.5), (0.5, 1.0)) if engine == "arc_ratio_curve" else ()
    run = {"run_curve": run_curve, "run_curve_holder": run_curve_holder}.get(engine, arc_ratio_curve)
    with pytest.raises(HypothesisViolationError, match="tangent vanished") as info:
        run(seq, gamma0, *subs, 10, 16, budget)
    assert info.value.step == 3


def _arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through dataclasses and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item, seen)]
    return []


def test_lemma_checks_fail_without_budget_and_trace_stays_small():
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=5, seed=2))
    samples = 60
    rep = run_curve(seq, gamma0, samples, 128, budget)

    # C = 0 leaves no room for the nonzero lemma maxima: every step fails
    checks = lemma_step_checks(rep.trace, 0.0)
    assert [c.passed for c in checks] == [False] * 5
    assert first_lemma_violation(checks) == (1, (23, 59))
    for c, rec in zip(checks, rep.trace.per_step):
        assert c.lemma1_slack == -rec.lemma1_increment
        assert c.lemma2_slack == -rec.lemma2_increment
        assert c.worst_pair in (rec.lemma1_pair, rec.lemma2_pair)

    checks = lemma_step_checks(rep.trace, budget.C)
    assert all(c.passed for c in checks)
    assert first_lemma_violation(checks) is None

    arrays = _arrays(rep.trace)
    assert arrays and max(a.size for a in arrays) <= samples


@pytest.mark.parametrize("engine", [run_curve, run_curve_holder, arc_ratio_curve])
@pytest.mark.parametrize("samples, resolution", [(1, 16), (0, 16), (20, 1), (20, 0)])
def test_curve_engines_reject_fewer_than_two_samples_or_resolution(engine, samples, resolution):
    seq, gamma0, budget = build_sequence(ScenarioSpec("planar-rotations", n=2))
    budget = dataclasses.replace(budget, epsilon=0.5)
    subs = ((0.0, 0.5), (0.5, 1.0)) if engine is arc_ratio_curve else ()
    with pytest.raises(ValueError, match="at least 2"):
        engine(seq, gamma0, *subs, samples, resolution, budget)
