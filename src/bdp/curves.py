"""Regular C¹ curves: length, maximal angle, arc-length reparameterization,
and pushforward under smooth maps."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import RegularityError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ParamCurve:
    """A regular C¹ curve t ↦ γ(t) on [a, b] with tangent access.

    Without an analytic ``tangent`` the tangent is taken by central finite
    differences of the position (one-sided at the endpoints).
    """

    domain: tuple
    position: Callable
    tangent: Optional[Callable] = None
    dim: int = 2
    sample_resolution: int = 512

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError("curve domain must satisfy a < b")
        object.__setattr__(self, "domain", (float(a), float(b)))

    def pos(self, t):
        return np.asarray(self.position(t), dtype=float)

    def tan(self, t):
        if self.tangent is not None:
            return np.asarray(self.tangent(t), dtype=float)
        a, b = self.domain
        h = max(b - a, 1.0) * _EPS ** (1.0 / 3.0)
        lo, hi = max(a, t - h), min(b, t + h)
        return (self.pos(hi) - self.pos(lo)) / (hi - lo)

    def params(self, resolution):
        a, b = self.domain
        return np.linspace(a, b, resolution + 1)


def _speeds(curve, ts):
    tans = np.array([curve.tan(t) for t in ts])
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
    ts, h = _simpson_nodes(*curve.domain, resolution or curve.sample_resolution)
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
    n = resolution or curve.sample_resolution
    tans, _ = _speeds(curve, curve.params(n))
    return max_angle_of_tangents(tans)


@dataclass(frozen=True)
class NaturalCurve:
    """Arc-length (unit-speed) reparameterization of a regular C¹ curve.

    ``t_table``/``s_table`` map the original parameter to arc length; the
    natural domain is [0, total length].  The tangent is the normalized
    tangent of the underlying curve, hence unit speed up to the tolerance of
    the table inversion.
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

    @property
    def sample_resolution(self):
        return self.original.sample_resolution

    def _t_of(self, s):
        return float(np.interp(s, self.s_table, self.t_table))

    def position(self, s):
        return self.original.pos(self._t_of(s))

    def tangent(self, s):
        tan = self.original.tan(self._t_of(s))
        return tan / np.linalg.norm(tan)

    pos = position
    tan = tangent

    def locate(self, t_original):
        """Arc-length parameter of the original parameter ``t_original``."""
        return float(np.interp(t_original, self.t_table, self.s_table))

    def params(self, resolution):
        return np.linspace(0.0, self.total_length, resolution + 1)


def reparameterize_natural(curve, resolution=None):
    """Unit-speed reparameterization via a cumulative arc-length table."""
    n = resolution or curve.sample_resolution
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


def pushforward(curve, m):
    """The curve t ↦ f(γ(t)) with chain-rule tangent D_{γ(t)} f · γ'(t)."""

    def position(t):
        return jets.eval_map(m, curve.pos(t))

    def tangent(t):
        jet = jets.push_jet1(m, curve.pos(t), curve.tan(t))
        return jet.deriv

    return ParamCurve(
        domain=curve.domain,
        position=position,
        tangent=tangent,
        dim=m.dim,
        sample_resolution=getattr(curve, "sample_resolution", 512),
    )


def segment(p0, p1, unit_speed=True):
    """Straight segment from p0 to p1; unit-speed parameterization by default."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    gap = np.linalg.norm(p1 - p0)
    if gap == 0:
        raise ValueError("degenerate segment")
    if unit_speed:
        direction = (p1 - p0) / gap
        return ParamCurve(
            domain=(0.0, gap),
            position=lambda t: p0 + t * direction,
            tangent=lambda t: direction,
            dim=p0.size,
        )
    return ParamCurve(
        domain=(0.0, 1.0),
        position=lambda t: p0 + t * (p1 - p0),
        tangent=lambda t: p1 - p0,
        dim=p0.size,
    )


def circle_arc(radius=1.0, t0=0.0, t1=np.pi / 2, center=(0.0, 0.0)):
    """Planar circular arc (r cos t, r sin t) + center for t in [t0, t1]."""
    cx, cy = center

    return ParamCurve(
        domain=(t0, t1),
        position=lambda t: np.array([cx + radius * np.cos(t), cy + radius * np.sin(t)]),
        tangent=lambda t: np.array([-radius * np.sin(t), radius * np.cos(t)]),
        dim=2,
    )
