import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from bdp import (
    HypothesisBudget,
    MapSequence,
    ParamCurve,
    circle_arc,
    length,
    max_angle,
    reparameterize_natural,
    run_curve,
    segment,
)
from bdp.curves import max_angle_of_tangents
from bdp.distortion import UNVERIFIED
from bdp.errors import RegularityError
from bdp.maps import pointwise
from bdp.scenarios import quadratic_map


def parabola():
    return ParamCurve(
        domain=(0.0, 1.0),
        position=lambda t: np.stack([t, t * t], axis=1),
        tangent=lambda t: np.stack([np.ones_like(t), 2.0 * t], axis=1),
    )


def test_length_half_circle():
    assert length(circle_arc(1.0, 0.0, np.pi), 200) == pytest.approx(np.pi, abs=1e-6)


def test_length_segment():
    assert length(segment([0.0, 0.0], [3.0, 4.0]), 16) == pytest.approx(5.0, abs=1e-9)


def test_length_parabola_against_quadrature_oracle():
    oracle, err = quad(lambda t: np.sqrt(1.0 + 4.0 * t * t), 0.0, 1.0)
    assert err < 1e-10
    assert oracle == pytest.approx(1.478943, abs=1e-5)
    assert length(parabola(), 256) == pytest.approx(oracle, abs=1e-5)


def test_max_angle_segment_zero():
    assert max_angle(segment([0.0, 1.0], [2.0, -1.0]), 64) == 0.0


def test_max_angle_half_circle():
    assert max_angle(circle_arc(1.0, 0.0, np.pi), 512) == pytest.approx(np.pi, abs=1e-3)


def test_max_angle_quarter_circle():
    assert max_angle(circle_arc(1.0, 0.0, np.pi / 2), 512) == pytest.approx(np.pi / 2, abs=1e-3)


def test_reparam_unit_speed_segment_identity():
    nat = reparameterize_natural(segment([0.0, 0.0], [1.0, 0.0]), 32)
    assert nat.domain == (0.0, pytest.approx(1.0, abs=1e-12))
    assert np.allclose(nat.t_table, nat.s_table, atol=1e-12)


def test_reparam_constant_speed_two():
    c = ParamCurve(
        domain=(0.0, 1.0),
        position=pointwise(lambda t: np.array([2.0 * t, 0.0])),
        tangent=pointwise(lambda t: np.array([2.0, 0.0])),
    )
    nat = reparameterize_natural(c, 64)
    assert nat.total_length == pytest.approx(2.0, abs=1e-12)
    for s in np.linspace(0, 2, 9):
        assert np.linalg.norm(nat.tan(s)) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(nat.pos(s), [s, 0.0], atol=1e-9)


def test_reparam_circle_radius_two():
    nat = reparameterize_natural(circle_arc(2.0, 0.0, np.pi), 512)
    assert nat.total_length == pytest.approx(2.0 * np.pi, abs=1e-8)
    for s in np.linspace(0, nat.total_length, 33):
        expected = np.array([2.0 * np.cos(s / 2.0), 2.0 * np.sin(s / 2.0)])
        assert np.allclose(nat.pos(s), expected, atol=1e-4)
        assert np.linalg.norm(nat.tan(s)) == pytest.approx(1.0, abs=1e-12)


def test_reparam_finite_difference_speed():
    nat = reparameterize_natural(parabola(), 1024)
    h = 1e-2
    for s in np.linspace(h, nat.total_length - h, 11):
        speed = np.linalg.norm(nat.pos(s + h) - nat.pos(s - h)) / (2 * h)
        assert speed == pytest.approx(1.0, abs=1e-3)


def test_length_additivity():
    c = parabola()
    total = length(c, 512)
    for split in (0.25, 0.5, 0.8):
        left = ParamCurve((0.0, split), c.position, c.tangent)
        right = ParamCurve((split, 1.0), c.position, c.tangent)
        assert length(left, 512) + length(right, 512) == pytest.approx(total, abs=1e-9)


def test_length_at_least_chord():
    for c in (parabola(), circle_arc(1.0, 0.2, 2.1)):
        a, b = c.domain
        chord = np.linalg.norm(c.pos(b) - c.pos(a))
        assert length(c, 256) >= chord - 1e-9


def test_reparam_preserves_length():
    c = parabola()
    nat = reparameterize_natural(c, 512)
    assert length(nat, 512) == pytest.approx(length(c, 512), rel=1e-6)


def test_max_angle_rotation_invariant():
    c = circle_arc(1.0, 0.1, 1.3)
    base = max_angle(c, 256)
    rotated = circle_arc(1.0, 0.1 + 0.83, 1.3 + 0.83)
    assert max_angle(rotated, 256) == pytest.approx(base, abs=1e-12)


def test_max_angle_monotone_in_resolution():
    c = circle_arc(1.0, 0.0, 2.5)
    prev = 0.0
    for res in (16, 32, 64, 128):
        val = max_angle(c, res)
        assert val >= prev - 1e-15
        prev = val


def test_vanishing_tangent_rejected():
    c = ParamCurve(
        domain=(-1.0, 1.0),
        position=pointwise(lambda t: np.array([t * t, 0.0])),
        tangent=pointwise(lambda t: np.array([2.0 * t, 0.0])),
    )
    with pytest.raises(RegularityError, match=r"^vanishing tangent near t=0\.0$"):
        length(c, 64)
    with pytest.raises(RegularityError, match=r"^vanishing tangent near t=0\.0$"):
        reparameterize_natural(c, 64)


def _exp700(t):
    with np.errstate(over="ignore"):
        return np.exp(700.0 * t)


#: t ↦ (t, e^{700t}/700) on [0, 1.1]: its tangent (1, e^{700t}) overflows near t ≈ 1.014;
#: before that its squares overflow, once e^{700t} passes √(float max), but its norm does not
OVERFLOWING = ParamCurve(
    domain=(0.0, 1.1),
    position=lambda t: np.stack([t, _exp700(t) / 700.0], axis=1),
    tangent=lambda t: np.stack([np.ones_like(t), _exp700(t)], axis=1),
)


@pytest.mark.parametrize(
    "measure, nodes",  # the size of each measure's grid on the domain at resolution 64
    [(length, 129), (max_angle, 65), (reparameterize_natural, 129)],
    ids=["length", "max_angle", "reparameterize_natural"],
)
def test_an_overflowing_tangent_norm_is_non_finite_at_its_first_parameter(measure, nodes):
    grid = np.linspace(0.0, 1.1, nodes)
    first = grid[grid > math.log(sys.float_info.max) / 700.0][0]
    with pytest.raises(RegularityError) as info:
        measure(OVERFLOWING, 64)
    assert str(info.value) == f"non-finite tangent norm near t={first}"


@pytest.mark.parametrize(
    "row, kind",
    [
        ([np.nan, 0.0], "non-finite tangent norm"),
        ([np.inf, 1.0], "non-finite tangent norm"),
        ([0.0, 0.0], "vanishing tangent"),
    ],
    ids=["nan", "inf", "zero"],
)
def test_a_bad_tangent_among_samples_is_named_by_its_row(row, kind):
    tans = np.array([[1.0, 0.0], [0.0, 1.0], row, [0.0, 0.0]])
    with pytest.raises(RegularityError) as info:
        max_angle_of_tangents(tans)
    assert str(info.value) == f"{kind} at sample row 2"


@pytest.mark.parametrize(
    "tans",
    [[[1.0, 0.0], [1e200, 1e200]], [[1e-170, 0.0], [1e-170, 1e-170]]],
    ids=["squares-overflow", "squares-underflow"],
)
def test_tangents_whose_squares_leave_the_doubles_keep_their_angle(tans):
    assert max_angle_of_tangents(tans) == pytest.approx(np.pi / 4, rel=1e-15)


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError):
        ParamCurve(domain=(1.0, 1.0), position=lambda t: np.array([t]))


def test_zero_radius_arc_rejected():
    # like a segment with equal ends: a bad input, not a vanishing tangent found later
    with pytest.raises(ValueError, match="radius"):
        circle_arc(0.0)


def differenced_parabola():
    # built without ``tangent``: central differences inside, one-sided at the ends
    return ParamCurve(domain=(0.0, 1.0), position=pointwise(lambda t: np.array([t, t * t])))


def test_finite_difference_tangent_of_the_parabola():
    c = differenced_parabola()
    exact = parabola().tan
    interior = max(np.max(np.abs(c.tan(t) - exact(t))) for t in np.linspace(0.01, 0.99, 99))
    assert interior <= 1e-10
    for t in (0.0, 1.0):
        assert np.max(np.abs(c.tan(t) - exact(t))) <= 1e-9
    oracle, _ = quad(lambda t: np.sqrt(1.0 + 4.0 * t * t), 0.0, 1.0)
    assert length(c, 256) == pytest.approx(oracle, abs=1e-8)


def test_a_position_only_helix_is_three_dimensional_and_runs_through_3d_maps():
    helix = ParamCurve(
        domain=(0.0, 2.0 * np.pi),
        position=lambda t: np.stack([0.5 * np.cos(t), 0.5 * np.sin(t), 0.1 * t], axis=1),
    )
    assert helix.dim == 3
    exact = np.array([-0.5 * np.sin(1.0), 0.5 * np.cos(1.0), 0.1])
    assert np.max(np.abs(helix.tan(1.0) - exact)) <= 1e-10
    seq = MapSequence([quadratic_map(0.5 * np.eye(3), np.zeros(3), []) for _ in range(3)])
    report = run_curve(seq, helix, 20, 32, HypothesisBudget(C=1.0, c_prov="analytic"))
    assert report.verdict == UNVERIFIED  # L and α are sampled
    assert report.empirical == pytest.approx(0.0, abs=1e-12)  # 0.5·I distorts nothing


ARRAY_CURVES = {
    "circle-arc": lambda: circle_arc(1.5, 0.2, 2.9),
    "differenced-parabola": differenced_parabola,
    "natural-circle-arc": lambda: reparameterize_natural(circle_arc(1.5, 0.2, 2.9), 64),
    "natural-differenced-parabola": lambda: reparameterize_natural(differenced_parabola(), 64),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CURVES))
def test_an_array_of_parameters_gives_the_stacked_one_point_results(name):
    c = ARRAY_CURVES[name]()
    ts = np.linspace(*c.domain, 37)  # both ends, where the differences are one-sided
    for method in (c.pos, c.tan):
        rows = method(ts)
        assert rows.shape == (37, 2)
        assert np.array_equal(rows, np.stack([method(t) for t in ts]))
        assert method(ts[5]).shape == (2,)
        assert np.array_equal(method(ts[5]), rows[5])
        assert np.array_equal(method(ts[5:6]), rows[5:6])
