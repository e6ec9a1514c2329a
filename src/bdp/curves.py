"""Regular C¹ curves: length, maximal angle and arc-length reparameterization."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import RegularityError
from .maps import _row_norms

_EPS = np.finfo(float).eps
#: the default grid size of ``length``, ``max_angle`` and ``reparameterize_natural``
SAMPLE_RESOLUTION = 512


def _at(t, f):
    """The batch callable ``f`` at ``t``: a (d,) row, or (N, d) rows for a 1-D array."""
    rows = np.asarray(f(np.atleast_1d(np.asarray(t, dtype=float))), dtype=float)
    return rows if np.ndim(t) else rows[0]


@dataclass(frozen=True)
class ParamCurve:
    """A regular C¹ curve t ↦ γ(t) on [a, b] with tangent access.

    ``position`` and ``tangent`` map a 1-D array of N parameters to (N, d)
    rows; ``maps.pointwise`` lifts a one-parameter callable to one.  ``pos``
    and ``tan`` take one parameter or a 1-D array of them.  Without an
    analytic ``tangent`` the tangent is taken by central finite differences
    of the position (one-sided at the endpoints).
    """

    domain: tuple
    position: Callable
    tangent: Optional[Callable] = None
    dim: int = 2

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError("curve domain must satisfy a < b")
        object.__setattr__(self, "domain", (float(a), float(b)))

    def pos(self, t):
        return _at(t, self.position)

    def tan(self, t):
        if self.tangent is not None:
            return _at(t, self.tangent)
        a, b = self.domain
        h = max(b - a, 1.0) * _EPS ** (1.0 / 3.0)
        t = np.asarray(t, dtype=float)
        lo, hi = np.maximum(a, t - h), np.minimum(b, t + h)
        return (self.pos(hi) - self.pos(lo)) / (hi - lo)[..., None]


def _speeds(curve, ts):
    tans = curve.tan(ts)
    sp = np.linalg.norm(tans, axis=-1)
    if np.any(sp <= 0) or not np.all(np.isfinite(sp)):
        bad = ts[int(np.argmin(sp))]
        raise RegularityError(f"vanishing tangent near t={bad}")
    return tans, sp


def _simpson(values, h):
    # composite Simpson over an even number of intervals
    return h / 3.0 * (values[0] + values[-1] + 4 * values[1:-1:2].sum() + 2 * values[2:-2:2].sum())


def _simpson_nodes(lo, hi, n):
    """2n' + 1 nodes on [lo, hi], n' = n rounded up to even, and their spacing."""
    n = int(n) + int(n) % 2
    return np.linspace(lo, hi, 2 * n + 1), (hi - lo) / (2 * n)


def simpson_richardson(values, h):
    """Composite Simpson of ``values`` at node spacing ``h``, refined by one
    Richardson step against spacing 2h: (value, error estimate).  The number
    of intervals must be a multiple of 4, as ``_simpson_nodes`` gives."""
    fine = _simpson(values, h)
    coarse = _simpson(values[::2], 2 * h)
    return fine + (fine - coarse) / 15.0, abs(fine - coarse) / 15.0


def length(curve, resolution=None):
    """Arc length ∫‖γ'‖ dt by composite Simpson with one Richardson refinement."""
    ts, h = _simpson_nodes(*curve.domain, resolution or SAMPLE_RESOLUTION)
    _, sp = _speeds(curve, ts)
    return simpson_richardson(sp, h)[0]


def max_angle_of_tangents(tans):
    """Maximal pairwise angle among tangent vectors, rows of ``tans``."""
    norms = np.linalg.norm(tans, axis=-1, keepdims=True)
    if np.any(norms <= 0):
        raise RegularityError("vanishing tangent among samples")
    unit = tans / norms
    gram = unit @ unit.T
    k, l = np.unravel_index(np.argmin(gram), gram.shape)
    # chord formula: exact at angle 0 where arccos(dot) loses ~1e-8 to round-off
    chord = np.linalg.norm(unit[k] - unit[l])
    return float(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))


def max_angle(curve, resolution=None):
    """Maximal angle between tangents over a sample grid (lower bound of the sup)."""
    n = resolution or SAMPLE_RESOLUTION
    tans, _ = _speeds(curve, np.linspace(*curve.domain, n + 1))
    return max_angle_of_tangents(tans)


@dataclass(frozen=True)
class NaturalCurve:
    """Arc-length (unit-speed) reparameterization of a regular C¹ curve.

    ``t_table``/``s_table`` map the original parameter to arc length; the
    natural domain is [0, total length].  The tangent is the normalized
    tangent of the underlying curve, hence unit speed up to the tolerance of
    the table inversion.  ``position`` and ``tangent`` interpolate one
    parameter or a 1-D array of them in one call.
    """

    original: ParamCurve
    t_table: np.ndarray
    s_table: np.ndarray

    @property
    def dim(self):
        return self.original.dim

    @property
    def domain(self):
        return (0.0, float(self.s_table[-1]))

    @property
    def total_length(self):
        return float(self.s_table[-1])

    def position(self, s):
        return self.original.pos(np.interp(s, self.s_table, self.t_table))

    def tangent(self, s):
        tans = self.original.tan(np.interp(s, self.s_table, self.t_table))
        return tans / _row_norms(tans)[..., None]

    pos = position
    tan = tangent


def reparameterize_natural(curve, resolution=None):
    """Unit-speed reparameterization via a cumulative arc-length table."""
    n = resolution or SAMPLE_RESOLUTION
    a, b = curve.domain
    ts = np.linspace(a, b, 2 * n + 1)
    _, sp = _speeds(curve, ts)
    h = (b - a) / n
    # per-interval Simpson with the midpoint samples
    seg = h / 6.0 * (sp[0:-2:2] + 4.0 * sp[1:-1:2] + sp[2::2])
    s_table = np.concatenate([[0.0], np.cumsum(seg)])
    if np.any(np.diff(s_table) <= 0):
        raise RegularityError("arc-length table not strictly increasing")
    return NaturalCurve(original=curve, t_table=ts[::2].copy(), s_table=s_table)


def segment(p0, p1):
    """Straight segment from p0 to p1, parameterized by arc length."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    gap = np.linalg.norm(p1 - p0)
    if gap == 0:
        raise ValueError("degenerate segment")
    direction = (p1 - p0) / gap
    return ParamCurve(
        domain=(0.0, gap),
        position=lambda t: p0 + t[:, None] * direction,
        tangent=lambda t: np.tile(direction, (len(t), 1)),
        dim=p0.size,
    )


def circle_arc(radius=1.0, t0=0.0, t1=np.pi / 2):
    """Planar circular arc (r cos t, r sin t) for t in [t0, t1]."""
    if radius == 0:
        raise ValueError("degenerate circle arc: radius 0")
    return ParamCurve(
        domain=(t0, t1),
        position=lambda t: np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1),
        tangent=lambda t: np.stack([-radius * np.sin(t), radius * np.cos(t)], axis=1),
        dim=2,
    )
