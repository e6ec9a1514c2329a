"""Jets: a map's value with its first, or first and second, directional
derivatives at one point, read from the evaluator in ``maps``.  ``fd_oracle``
evaluates the map alone, never a derivative callback, and serves as the
independent cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .maps import STEP1, STEP2, images, jacobians, second_derivatives


@dataclass(frozen=True)
class Jet1:
    value: np.ndarray
    deriv: np.ndarray


@dataclass(frozen=True)
class Jet2:
    value: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _as_vec(x, d, name):
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DimensionMismatchError(f"{name} must have shape ({d},), got {x.shape}")
    return x


def push_jet1(m, x, v):
    """Value and first directional derivative: (f(x), D_x f · v)."""
    x = _as_vec(x, m.dim, "x")
    v = _as_vec(v, m.dim, "v")
    return Jet1(images(m, x)[0], jacobians(m, x)[0] @ v)


def push_jet2(m, x, u, v):
    """Value, first derivative along v and bilinear second derivative D²_x f(u, v)
    (``maps.second_derivatives`` has the finite-difference fallbacks)."""
    x = _as_vec(x, m.dim, "x")
    u = _as_vec(u, m.dim, "u")
    v = _as_vec(v, m.dim, "v")
    value = images(m, x)[0]
    return Jet2(value, jacobians(m, x)[0] @ v, second_derivatives(m, x[None], u, v)[0])


def fd_oracle(m, x, u, v):
    """Purely finite-difference jet from map values alone.

    The second derivative uses the 4-point cross stencil, deliberately a
    different scheme from the nested differences of ``push_jet2``.
    """
    x = _as_vec(x, m.dim, "x")
    u = _as_vec(u, m.dim, "u")
    v = _as_vec(v, m.dim, "v")
    scale = max(1.0, float(np.linalg.norm(x)))
    h1, h = STEP1 * scale, STEP2 * scale
    cross = [x + h * u + h * v, x + h * u - h * v, x - h * u + h * v, x - h * u - h * v]
    f = images(m, [x, x + h1 * v, x - h1 * v, *cross])
    first = (f[1] - f[2]) / (2.0 * h1)
    second = (f[3] - f[4] - f[5] + f[6]) / (4.0 * h * h)
    return Jet2(f[0], first, second)
