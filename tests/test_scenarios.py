"""Scenario families: mechanical words, builders, trace-map dynamics."""

import dataclasses
import math

import numpy as np
import pytest

from bdp.curves import NaturalCurve
from bdp.distortion import run_1d, run_curve, UNVERIFIED
from bdp.maps import Box, MapSequence, estimate_seminorms, jacobians
from bdp.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    SturmianParams,
    build_sequence,
    fibonacci_trace_map,
    quadratic_1d_ratio_constants,
    sturmian_word,
    trace_map_invariant,
)
from bdp.scenarios import PARAMS

GOLDEN = 2.0 - (1.0 + math.sqrt(5.0)) / 2.0  # 2 - phi = 1/phi^2


# ---------------------------------------------------------------------------
# mechanical words


def test_word_slope_half():
    w = sturmian_word(SturmianParams(slope=0.5, intercept=0.0, length=6))
    assert w == [1, 0, 1, 0, 1, 0]


def test_word_fibonacci_prefix():
    w = sturmian_word(SturmianParams(slope=GOLDEN, intercept=0.0, length=5))
    assert w == [0, 1, 0, 0, 1]


def test_word_balance_property():
    # mechanical words are balanced: #1s in any prefix is within 1 of m*slope
    rng = np.random.default_rng(11)
    for _ in range(25):
        slope = float(rng.uniform(0.05, 0.95))
        intercept = float(rng.uniform(0.0, 1.0))
        word = sturmian_word(SturmianParams(slope=slope, intercept=intercept, length=400))
        for m in (1, 7, 50, 400):
            ones = sum(word[:m])
            assert abs(ones - m * slope) <= 1.0


def test_word_parameter_validation():
    with pytest.raises(ValueError):
        SturmianParams(slope=0.0)
    with pytest.raises(ValueError):
        SturmianParams(slope=1.5)
    with pytest.raises(ValueError):
        SturmianParams(slope=0.5, intercept=1.0)
    with pytest.raises(ValueError):
        SturmianParams(slope=0.5, length=0)


# ---------------------------------------------------------------------------
# builders


def test_registry_is_complete():
    for family, entry in SCENARIOS.items():
        assert entry["kind"] in ("1d", "curve")
        assert entry["description"]
        seq, domain, budget = build_sequence(ScenarioSpec(family, n=3, seed=1))
        assert isinstance(seq, MapSequence)
        assert len(seq.maps) == 3
        if entry["kind"] == "1d":
            lo, hi = domain
            assert lo < hi
        else:
            assert isinstance(domain, NaturalCurve)


def test_sturmian_assembly_order():
    # slope 1/2, n = 4 gives word 1010, so the ordered maps are [B, A, B, A]
    seq, _, _ = build_sequence(
        ScenarioSpec("sturmian-two-maps", n=4, params={"slope": 0.5})
    )
    names = [m.name for m in seq.maps]
    assert names == ["sturmian-B", "sturmian-A", "sturmian-B", "sturmian-A"]


def test_sturmian_budget_covers_both_maps():
    seq, interval, budget = build_sequence(ScenarioSpec("sturmian-two-maps", n=12))
    c_a, _ = quadratic_1d_ratio_constants(0.5, 0.125)
    c_b, _ = quadratic_1d_ratio_constants(1.0 / 3.0, 1.0 / 18.0)
    assert budget.C == pytest.approx(max(c_a, c_b))
    rep = run_1d(seq, interval, 200, budget)
    assert rep.empirical <= rep.theoretical_log_K


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_sequence(ScenarioSpec("no-such-family"))
    with pytest.raises(ValueError):
        build_sequence(ScenarioSpec("planar-rotations", n=0))


def test_build_is_deterministic():
    a1, _, b1 = build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=5))
    a2, _, b2 = build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=5))
    assert b1.C == b2.C and b1.L == b2.L and b1.alpha == b2.alpha
    x = np.array([0.3, -0.2])
    for m1, m2 in zip(a1.maps, a2.maps):
        assert np.array_equal(m1.func(x), m2.func(x))


def test_different_seeds_differ():
    a1, _, _ = build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=5))
    a2, _, _ = build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=6))
    x = np.array([0.3, -0.2])
    assert not np.array_equal(a1.maps[0].func(x), a2.maps[0].func(x))


def test_analytic_annotations_dominate_sampled_estimates():
    # the closed-form seminorm bounds must upper-bound grid maxima
    seq, _, _ = build_sequence(ScenarioSpec("planar-contraction-shear", n=4, seed=2))
    for m in seq.maps:
        ann = m.seminorms
        assert ann is not None and ann.provenance == "analytic"
        est = estimate_seminorms(dataclasses.replace(m, seminorms=None), ann.region, 9)
        assert est.c1 <= ann.c1 + 1e-12
        assert est.c2 <= ann.c2 + 1e-12
        assert est.c1_inv <= ann.c1_inv + 1e-10


# ---------------------------------------------------------------------------
# trace map


def test_trace_map_invariant_along_orbit():
    m = fibonacci_trace_map()
    p = np.array([0.5, 0.5, 0.5])
    g0 = trace_map_invariant(p)
    for _ in range(30):
        p = m.func(p)
        assert abs(trace_map_invariant(p) - g0) <= 1e-10


def test_trace_map_jacobian_determinant():
    m = fibonacci_trace_map()
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=3)
        assert np.linalg.det(jacobians(m, p)[0]) == pytest.approx(-1.0, abs=1e-12)


def test_trace_scenario_runs_and_stays_unverified():
    seq, gamma0, budget = build_sequence(ScenarioSpec("fibonacci-trace-map", n=3))
    assert budget.c_prov == "sampled"
    rep = run_curve(seq, gamma0, 24, 48, budget)
    assert rep.verdict == UNVERIFIED
    assert len(rep.trace.per_step) == 3
    for rec in rep.trace.per_step:
        assert np.isfinite(rec.length) and rec.length > 0


def test_an_unknown_parameter_is_rejected_by_name():
    with pytest.raises(ValueError, match="'bb'"):
        build_sequence(ScenarioSpec("1d-quadratic-contraction", n=3, params={"bb": 0.3}))
    with pytest.raises(ValueError, match="'center'"):
        build_sequence(ScenarioSpec("fibonacci-trace-map", n=2, params={"center": 0.5}))


def test_an_integer_parameter_takes_integral_values_only():
    with pytest.raises(ValueError, match="seminorm_resolution"):
        build_sequence(ScenarioSpec("fibonacci-trace-map", n=2, params={"seminorm_resolution": 3.7}))
    budgets = [
        build_sequence(ScenarioSpec("fibonacci-trace-map", n=2, params={"seminorm_resolution": r}))[2]
        for r in (9, 9.0)
    ]
    assert budgets[0] == budgets[1]


def test_parameters_are_the_builders_keyword_defaults():
    assert "params" not in SCENARIOS["fibonacci-trace-map"]
    assert PARAMS["fibonacci-trace-map"] == {
        "box_half_width": 2.0,
        "seminorm_resolution": 5,
        "segment_half_length": 0.05,
    }
    # a default passed explicitly builds the same budget as leaving it out
    for family, defaults in PARAMS.items():
        _, _, implicit = build_sequence(ScenarioSpec(family, n=3, seed=2))
        _, _, explicit = build_sequence(ScenarioSpec(family, n=3, seed=2, params=defaults))
        assert implicit == explicit


def test_budgets_come_from_the_maps_constants():
    _, _, sturmian = build_sequence(ScenarioSpec("sturmian-two-maps", n=5))
    assert (sturmian.C, sturmian.L) == (0.5, 4.0)
    _, _, rotations = build_sequence(ScenarioSpec("planar-rotations", n=4, params={"length": 2.0}))
    assert (rotations.C, rotations.L, rotations.alpha) == (1.0, 8.0, 0.0)
