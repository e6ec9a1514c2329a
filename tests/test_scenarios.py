"""Scenario families: mechanical words, builders, trace-map dynamics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdp.curves import NaturalCurve
from bdp.distortion import run_1d, run_curve, UNVERIFIED
from bdp.jets import fd_oracle, push_jet2
from bdp.maps import Box, MapSequence, estimate_seminorms, jacobians, second_derivatives
from bdp.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    SturmianParams,
    build_sequence,
    fibonacci_trace_map,
    quadratic_1d,
    quadratic_1d_ratio_constants,
    quadratic_constants,
    quadratic_map,
    rotation_map,
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


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_the_shear_budgets_c_bounds_every_maps_sampled_constant(seed):
    seq, _, budget = build_sequence(ScenarioSpec("planar-contraction-shear", n=6, seed=seed))
    assert budget.C >= max(estimate_seminorms(m, m.region, 9).constant for m in seq)


@pytest.mark.parametrize("epsilon", [None, 0.5])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_the_shear_length_budget_covers_the_sampled_contraction_rate(seed, epsilon):
    # L is Σ_{i<n} (length0·ρ^i)^ε, increasing in ρ, and every sampled c1 is at most the true ρ
    spec = ScenarioSpec("planar-contraction-shear", n=6, seed=seed, params={"epsilon": epsilon})
    seq, gamma0, budget = build_sequence(spec)
    rho = max(estimate_seminorms(m, m.region, 9).c1 for m in seq)
    power = 1.0 if epsilon is None else epsilon
    assert budget.L >= sum((gamma0.total_length * rho**i) ** power for i in range(len(seq)))


# ---------------------------------------------------------------------------
# quadratic maps: f(x) = A·x + c + (xᵀH_k x)_k, whose D²f(u, v) = (uᵀ(H_k + H_kᵀ)v)_k


SHEAR_HESSIANS = [[[0.004, -0.003], [0.001, 0.002]], [[-0.005, 0.002], [0.0, 0.003]]]
SHEAR_REGION = Box([-1.5, -1.5], [1.5, 1.5])
QUADRATICS = {  # map, its Hessians (none for an affine map), its region
    "quadratic-1d": (quadratic_1d(0.5, 0.125), [[[0.125]]], Box([0.0], [1.0])),
    "rotation": (rotation_map(0.7), [], Box([-1.0, -1.0], [1.0, 1.0])),
    "shear": (
        quadratic_map([[0.4, 0.05], [-0.1, 0.45]], [0.05, -0.02], SHEAR_HESSIANS, SHEAR_REGION),
        SHEAR_HESSIANS,
        SHEAR_REGION,
    ),
}


@pytest.mark.parametrize("name", sorted(QUADRATICS))
def test_a_builtin_quadratic_has_its_closed_form_second_on_every_row_from_one_call(name):
    m, hessians, region = QUADRATICS[name]
    rng = np.random.default_rng(11)
    pts = rng.uniform(region.lo, region.hi, (200, m.dim))
    u, v = rng.normal(size=m.dim), rng.normal(size=m.dim)
    calls = []

    def counted(X, *args):
        calls.append(len(X))
        return m.second_batch(X, *args)

    seconds = second_derivatives(dataclasses.replace(m, second_batch=counted), pts, u, v)
    assert calls == [len(pts)]
    if not hessians:
        assert seconds.shape == pts.shape and not seconds.any()  # exactly zero
    closed = [u @ (np.array(h) + np.array(h).T) @ v for h in hessians] or np.zeros(m.dim)
    np.testing.assert_allclose(seconds, np.tile(closed, (len(pts), 1)), rtol=1e-14, atol=0)


def test_a_quadratic_map_in_three_dimensions_agrees_with_the_finite_difference_oracle():
    rng = np.random.default_rng(5)
    mat, offset = rng.uniform(-0.5, 0.5, (3, 3)), rng.uniform(-0.1, 0.1, 3)
    m = quadratic_map(mat, offset, rng.uniform(-0.2, 0.2, (3, 3, 3)), Box([-1.0] * 3, [1.0] * 3))
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 3)
        u, v = rng.normal(size=3), rng.normal(size=3)
        ref, jet = fd_oracle(m, x, u, v), push_jet2(m, x, u, v)
        np.testing.assert_allclose(jet.first, ref.first, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(jet.second, ref.second, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(jet.value, ref.value, rtol=1e-14, atol=1e-15)


def test_a_quadratic_map_takes_one_hessian_per_output_or_none():
    with pytest.raises(ValueError, match="one per output"):
        quadratic_map(np.eye(2), [0.0, 0.0], [np.eye(2)])


def shear_quadratic(seed, d):
    """(mat, offset, Hessians, region) drawn as the contraction-shear family draws
    them, in any dimension: mat = s·Q·(I + U), Q orthogonal, U strictly upper
    triangular, on [-1.5, 1.5]^d."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.35, 0.5)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    shear = np.eye(d) + np.triu(rng.uniform(-0.15, 0.15, (d, d)), 1)
    mat = s * (q * np.sign(np.diag(r))) @ shear
    offset = rng.uniform(-0.1, 0.1, d)
    hessians = list(rng.uniform(-0.005, 0.005, (d, d, d)))
    return mat, offset, hessians, Box([-1.5] * d, [1.5] * d)


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 9))
def test_closed_form_constants_dominate_grid_estimates(d, seed, resolution):
    mat, offset, hessians, region = shear_quadratic(seed, d)
    c1, c1_inv, c2 = quadratic_constants(mat, hessians, region)
    est = estimate_seminorms(quadratic_map(mat, offset, hessians, region), region, resolution)
    assert est.c1 <= c1 + 1e-12
    assert est.c1_inv <= c1_inv + 1e-10
    assert est.c2 <= c2 + 1e-12


@pytest.mark.parametrize("epsilon", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_the_closed_form_holder_constant_bounds_every_grid_quotient(seed, epsilon):
    # ‖Df(x) − Df(y)‖₂ / ‖x − y‖^ε over every pair of a resolution-9 grid
    mat, offset, hessians, region = shear_quadratic(seed, 2)
    holder = quadratic_constants(mat, hessians, region, epsilon)[2]
    pts = region.grid(9)
    jac = jacobians(quadratic_map(mat, offset, hessians, region), pts)
    i, j = np.triu_indices(len(pts), 1)
    spread = np.linalg.norm(jac[i] - jac[j], 2, axis=(1, 2))
    quotients = spread / np.linalg.norm(pts[i] - pts[j], axis=1) ** epsilon
    assert quotients.max() <= holder + 1e-12


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
