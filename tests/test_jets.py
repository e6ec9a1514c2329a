import numpy as np
import pytest

from bdp import fd_oracle, polynomial_map, push_jet1, push_jet2
from bdp.errors import DimensionMismatchError, OutOfRegionError
from bdp.maps import Box, SmoothMap, pointwise


def relerr(a, b, floor=1.0):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(floor, np.linalg.norm(b))


def bare_map(dim, func):
    """A map with no analytic callbacks, forcing finite differences."""
    return SmoothMap(dim=dim, func_batch=pointwise(func))


def square_1d():
    return bare_map(1, lambda x: np.array([x[0] ** 2]))


def test_jet1_linear_map():
    m = polynomial_map([[(2.0, (1, 0))], [(3.0, (0, 1))]])
    jet = push_jet1(m, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(jet.value, [2.0, 3.0])
    assert np.allclose(jet.deriv, [2.0, 0.0])


def test_jet1_square():
    jet = push_jet1(square_1d(), np.array([3.0]), np.array([1.0]))
    assert jet.value[0] == pytest.approx(9.0)
    assert jet.deriv[0] == pytest.approx(6.0, rel=1e-8)


def test_jet1_fd_matches_richardson():
    m = bare_map(2, lambda x: np.array([np.sin(x[0]) * x[1], np.exp(x[0])]))
    x = np.array([0.3, 1.2])
    v = np.array([0.7, -0.4])
    jet = push_jet1(m, x, v)
    # independent oracle: central differences at steps h and h/2, Richardson
    h = 1e-5
    d_h = (m.func(x + h * v) - m.func(x - h * v)) / (2 * h)
    d_h2 = (m.func(x + h / 2 * v) - m.func(x - h / 2 * v)) / h
    oracle = d_h2 + (d_h2 - d_h) / 3.0
    assert relerr(jet.deriv, oracle) <= 1e-6


def test_jet2_square_constant_second():
    for x0 in (0.0, 1.7, -2.3):
        jet = push_jet2(square_1d(), np.array([x0]), np.ones(1), np.ones(1))
        assert jet.second[0] == pytest.approx(2.0, abs=1e-6)


def test_jet2_affine_zero_second():
    m = polynomial_map(
        [[(2.0, (1, 0)), (0.5, (0, 1)), (1.0, (0, 0))], [(-1.0, (1, 0)), (3.0, (0, 1))]]
    )
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, u, v = rng.normal(size=(3, 2))
        jet = push_jet2(m, x, u, v)
        assert np.allclose(jet.second, 0.0)


def test_jet2_cross_term():
    # f(x, y) = (x², x·y): D²f((1,0), (0,1)) = (0, 1), hand differentiation
    m = polynomial_map([[(1.0, (2, 0))], [(1.0, (1, 1))]])
    jet = push_jet2(m, np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(jet.second, [0.0, 1.0], atol=1e-9)
    nested = push_jet2(
        SmoothMap(dim=2, func_batch=m.func_batch),
        np.array([1.0, 2.0]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    )
    assert np.allclose(nested.second, [0.0, 1.0], atol=1e-5)


def test_fd_oracle_identity():
    m = bare_map(3, lambda x: x.copy())
    rng = np.random.default_rng(11)
    x, u, v = rng.normal(size=(3, 3))
    jet = fd_oracle(m, x, u, v)
    assert np.allclose(jet.first, v, atol=1e-9)
    assert np.allclose(jet.second, 0.0, atol=1e-6)


def test_fd_oracle_cube():
    m = bare_map(1, lambda x: np.array([x[0] ** 3]))
    jet = fd_oracle(m, np.array([1.0]), np.ones(1), np.ones(1))
    assert jet.second[0] == pytest.approx(6.0, abs=1e-5)


def random_poly_map(rng, dim, degree=4):
    from itertools import product

    comps = []
    for _ in range(dim):
        terms = []
        for expo in product(range(degree + 1), repeat=dim):
            if 0 < sum(expo) <= degree and rng.uniform() < 0.5:
                terms.append((rng.uniform(-1, 1), expo))
        if not terms:
            terms.append((rng.uniform(-1, 1), (1,) + (0,) * (dim - 1)))
        comps.append(terms)
    return polynomial_map(comps)


def test_random_polynomials_against_fd_oracle():
    rng = np.random.default_rng(42)
    for case in range(100):
        dim = 1 + case % 3
        m = random_poly_map(rng, dim)
        x = rng.uniform(-0.5, 0.5, size=dim)
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        ref = fd_oracle(m, x, u, v)
        jet = push_jet2(m, x, u, v)
        assert relerr(jet.first, ref.first) <= 1e-6
        assert relerr(jet.second, ref.second) <= 1e-6


def test_linearity_of_first_derivative():
    rng = np.random.default_rng(5)
    m = random_poly_map(rng, 2)
    x = np.array([0.2, -0.3])
    v1, v2 = rng.normal(size=(2, 2))
    a, b = 1.3, -0.7
    lhs = push_jet1(m, x, a * v1 + b * v2).deriv
    rhs = a * push_jet1(m, x, v1).deriv + b * push_jet1(m, x, v2).deriv
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_second_derivative_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = random_poly_map(rng, 3)
        x = rng.uniform(-0.5, 0.5, size=3)
        u, v = rng.normal(size=(2, 3))
        assert np.allclose(
            push_jet2(m, x, u, v).second, push_jet2(m, x, v, u).second, atol=1e-8
        )


def test_chain_rule_through_composition():
    rng = np.random.default_rng(7)
    f = random_poly_map(rng, 2)
    g = random_poly_map(rng, 2)
    x = np.array([0.1, 0.2])
    v = rng.normal(size=2)
    inner = push_jet1(f, x, v)
    direct_second = push_jet1(g, inner.value, inner.deriv).deriv

    composed = SmoothMap(dim=2, func_batch=pointwise(lambda p: g.func(f.func(p))))
    fd = fd_oracle(composed, x, v, v)
    assert np.allclose(direct_second, fd.first, atol=1e-6)


def test_bilinearity_scaling():
    rng = np.random.default_rng(8)
    m = random_poly_map(rng, 2)
    x = np.array([0.25, -0.1])
    u, v = rng.normal(size=(2, 2))
    assert np.allclose(
        push_jet2(m, x, 3.0 * u, v).second, 3.0 * push_jet2(m, x, u, v).second, atol=1e-9
    )


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        push_jet1(square_1d(), np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(DimensionMismatchError):
        push_jet1(square_1d(), np.array([1.0]), np.array([1.0, 2.0]))


def test_out_of_region_is_explicit():
    m = SmoothMap(dim=1, func_batch=pointwise(lambda x: x.copy()), region=Box([0.0], [1.0]))
    with pytest.raises(OutOfRegionError):
        push_jet1(m, np.array([2.0]), np.ones(1))
