import numpy as np
import pytest
from scipy.integrate import quad

from bdp import (
    ParamCurve,
    circle_arc,
    length,
    max_angle,
    reparameterize_natural,
    segment,
)
from bdp.errors import RegularityError
from bdp.maps import pointwise


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
        assert np.linalg.norm(nat.tangent(s)) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(nat.position(s), [s, 0.0], atol=1e-9)


def test_reparam_circle_radius_two():
    nat = reparameterize_natural(circle_arc(2.0, 0.0, np.pi), 512)
    assert nat.total_length == pytest.approx(2.0 * np.pi, abs=1e-8)
    for s in np.linspace(0, nat.total_length, 33):
        expected = np.array([2.0 * np.cos(s / 2.0), 2.0 * np.sin(s / 2.0)])
        assert np.allclose(nat.position(s), expected, atol=1e-4)
        assert np.linalg.norm(nat.tangent(s)) == pytest.approx(1.0, abs=1e-12)


def test_reparam_finite_difference_speed():
    nat = reparameterize_natural(parabola(), 1024)
    h = 1e-2
    for s in np.linspace(h, nat.total_length - h, 11):
        speed = np.linalg.norm(nat.position(s + h) - nat.position(s - h)) / (2 * h)
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
    with pytest.raises(RegularityError):
        length(c, 64)
    with pytest.raises(RegularityError):
        reparameterize_natural(c, 64)


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
        assert np.max(np.abs(c.tan(t) - exact(t))) <= 1e-5
    oracle, _ = quad(lambda t: np.sqrt(1.0 + 4.0 * t * t), 0.0, 1.0)
    assert length(c, 256) == pytest.approx(oracle, abs=1e-8)


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
