"""Smooth maps, sequences of maps, and seminorm estimation.

A ``SmoothMap`` bundles an evaluator with optional analytic derivative and
inverse callbacks and a validity region.  ``estimate_seminorms`` measures the
C¹/C²/Hölder seminorms on a grid; sampled values are lower bounds of the true
suprema, while maps may carry trusted analytic annotations.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import (
    DimensionMismatchError,
    HypothesisViolationError,
    OutOfRegionError,
    SingularJacobianError,
)

SINGULARITY_RTOL = 1e-14


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("degenerate box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.size

    def contains(self, x, pad=1e-12):
        """True where ``x``, one point or each row of a point batch, lies in the box."""
        return np.all(x >= self.lo - pad, axis=-1) & np.all(x <= self.hi + pad, axis=-1)

    def grid(self, resolution):
        """Cartesian grid with ``resolution`` points per axis, shape (N, d)."""
        if resolution < 2:
            raise ValueError("resolution must be >= 2 per axis")
        axes = [np.linspace(a, b, resolution) for a, b in zip(self.lo, self.hi)]
        return np.array(list(itertools.product(*axes)))

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))


@dataclass(frozen=True)
class SeminormEstimate:
    """Bounds on ‖f‖₁, ‖f⁻¹‖₁, ‖f‖₂ (and optionally ‖Df‖_ε) over a region.

    ``provenance`` is "analytic" for trusted upper bounds and "sampled" for
    grid maxima, which are lower bounds of the suprema.
    """

    c1: float
    c1_inv: float
    c2: float
    region: Optional[Box] = None
    holder: Optional[tuple] = None  # (epsilon, value)
    provenance: str = "sampled"

    def __post_init__(self):
        for v in (self.c1, self.c1_inv, self.c2):
            if v < 0:
                raise ValueError("seminorms must be nonnegative")
        if self.holder is not None:
            eps, val = self.holder
            if not (0 < eps < 1) or val < 0:
                raise ValueError("holder must be (epsilon in (0,1), value >= 0)")

    @property
    def constant(self):
        """The uniform constant max(‖f‖₁, ‖f⁻¹‖₁, ‖f‖₂)."""
        return max(self.c1, self.c1_inv, self.c2)


@dataclass(frozen=True)
class SmoothMap:
    """A C² map ℝ^d → ℝ^d with optional analytic structure.

    ``func`` maps a (d,) vector to a (d,) vector.  ``jacobian`` returns the
    (d, d) total derivative, ``second`` the bilinear directional second
    derivative D²_x f(u, v) as a (d,) vector.  ``region`` of None means all
    of ℝ^d.
    """

    dim: int
    func: Callable
    jacobian: Optional[Callable] = None
    second: Optional[Callable] = None
    inverse: Optional[Callable] = None
    region: Optional[Box] = None
    name: str = ""
    seminorms: Optional[SeminormEstimate] = None
    # optional vectorized evaluators over point batches of shape (N, d)
    func_batch: Optional[Callable] = None
    jacobian_batch: Optional[Callable] = None

    def __call__(self, x):
        return jets.eval_map(self, np.asarray(x, dtype=float))

    def jacobian_at(self, x):
        """The (d, d) Jacobian, analytic or column-by-column finite differences."""
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        cols = [jets.push_jet1(self, x, e).deriv for e in np.eye(self.dim)]
        return np.column_stack(cols)

    def with_seminorms(self, estimate):
        return replace(self, seminorms=estimate)


@dataclass(frozen=True)
class MapSequence:
    """Nonempty ordered maps f_1, ..., f_n of a common dimension."""

    maps: tuple

    def __post_init__(self):
        ms = tuple(self.maps)
        if not ms:
            raise ValueError("empty map sequence")
        d = ms[0].dim
        if any(m.dim != d for m in ms):
            raise DimensionMismatchError("maps of mixed dimension")
        object.__setattr__(self, "maps", ms)

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i):
        return self.maps[i]

    @property
    def dim(self):
        return self.maps[0].dim


def advance(m, pts, tans=None, step=None):
    """One step of the (N, d) batch ``pts`` through ``m``: (Jacobians, images, pushed).

    Checks the region first, as ``jets.eval_map`` does, then calls the Jacobian
    and the map once each on the whole batch; a non-finite image raises
    ``HypothesisViolationError``.  ``pushed`` is J_k·tans[k], or None without ``tans``."""
    pts = np.atleast_2d(pts)
    if m.region is not None:
        inside = m.region.contains(pts)
        if not inside.all():
            raise OutOfRegionError(pts[~inside][0], step=step)
    if m.jacobian_batch is not None:
        jac = np.asarray(m.jacobian_batch(pts), dtype=float)
    else:
        jac = np.array([m.jacobian_at(x) for x in pts], dtype=float)
    if m.func_batch is not None:
        image = np.asarray(m.func_batch(pts), dtype=float)
    else:
        image = np.array([m.func(x) for x in pts], dtype=float)
    if not np.all(np.isfinite(image)):
        raise HypothesisViolationError("non-finite image point", step=step)
    pushed = None if tans is None else np.einsum("kab,kb->ka", jac, tans)
    return jac, image, pushed


def apply_sequence(seq, x):
    """Orbit [x, F_1(x), ..., F_n(x)] of the compositions F_i = f_i ∘ ... ∘ f_1."""
    x = np.asarray(x, dtype=float)
    orbit = [x]
    for i, m in enumerate(seq):
        try:
            x = jets.eval_map(m, x)
        except OutOfRegionError as exc:
            raise OutOfRegionError(x, step=i + 1) from exc
        orbit.append(x)
    return orbit


def operator_norm(a):
    """Largest singular value (Euclidean operator norm)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix entries")
    return float(np.linalg.norm(a, 2))


def inverse_jacobian_norm(m, x):
    """‖(D_x f)⁻¹‖, raising if the Jacobian is singular at x."""
    jac = np.atleast_2d(m.jacobian_at(x))
    det = np.linalg.det(jac)
    scale = max(1.0, operator_norm(jac)) ** jac.shape[0]
    if abs(det) < SINGULARITY_RTOL * scale:
        raise SingularJacobianError(f"Jacobian singular at {x} (det={det:.3e})")
    return operator_norm(np.linalg.inv(jac))


def _direction_pairs(dim, extra=32, seed=2024):
    """Deterministic unit direction pairs: axes, diagonals, and a seeded set."""
    dirs = list(np.eye(dim))
    for signs in itertools.product((1.0, -1.0), repeat=dim):
        v = np.asarray(signs) / np.sqrt(dim)
        dirs.append(v)
    pairs = [(u, v) for u in dirs for v in dirs]
    rng = np.random.default_rng(seed)
    for _ in range(extra):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    return pairs


def estimate_seminorms(m, region, resolution, epsilon=None, max_pairs=100_000):
    """Grid estimate of the C¹, inverse-C¹, C² and optional Hölder seminorms.

    Returns the map's analytic annotations when it carries them; otherwise
    the sampled maxima, which are lower bounds of the suprema on ``region``.
    A singular Jacobian anywhere on the grid makes ``c1_inv`` infinite.
    """
    if m.seminorms is not None and m.seminorms.provenance == "analytic":
        est = m.seminorms
        if epsilon is not None and (est.holder is None or est.holder[0] != epsilon):
            raise HypothesisViolationError(
                f"map {m.name!r} has no analytic Hölder bound for epsilon={epsilon}"
            )
        return est

    pts = region.grid(resolution)
    pairs = _direction_pairs(region.dim)
    c1 = 0.0
    c1_inv = 0.0
    c2 = 0.0
    jacs = np.empty((len(pts), m.dim, m.dim))
    for k, x in enumerate(pts):
        jac = m.jacobian_at(x)
        jacs[k] = jac
        c1 = max(c1, operator_norm(jac))
        try:
            c1_inv = max(c1_inv, inverse_jacobian_norm(m, x))
        except SingularJacobianError:
            c1_inv = np.inf
        for u, v in pairs:
            c2 = max(c2, float(np.linalg.norm(jets.push_jet2(m, x, u, v).second)))

    holder = None
    if epsilon is not None:
        npairs = len(pts) * (len(pts) - 1) // 2
        stride = max(1, npairs // max_pairs)
        spacing = np.min((region.hi - region.lo) / (resolution - 1))
        best = 0.0
        striding = itertools.islice(
            itertools.combinations(range(len(pts)), 2), 0, None, stride
        )
        for i, j in striding:
            gap = np.linalg.norm(pts[i] - pts[j])
            if gap < spacing:
                continue
            diff = operator_norm(jacs[i] - jacs[j])
            best = max(best, diff / gap**epsilon)
        holder = (epsilon, best)

    return SeminormEstimate(
        c1=c1, c1_inv=c1_inv, c2=c2, region=region, holder=holder, provenance="sampled"
    )


def polynomial_map(components, region=None, name="polynomial"):
    """Build a SmoothMap from coefficient tables.

    ``components`` is a list of d monomial lists, one per output component;
    each monomial is ``(coef, exponents)`` with ``exponents`` a length-d tuple
    of nonnegative integers.  Analytic first and second derivatives are
    attached.
    """
    dim = len(components)
    comps = []
    for terms in components:
        parsed = []
        for coef, expo in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != dim or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for dimension {dim}")
            parsed.append((float(coef), expo))
        comps.append(parsed)

    def _mono(x, coef, expo):
        out = coef
        for xi, e in zip(x, expo):
            out *= xi**e
        return out

    def func(x):
        return np.array([sum(_mono(x, c, e) for c, e in terms) for terms in comps])

    def _d_mono(coef, expo, i):
        if expo[i] == 0:
            return 0.0, expo
        new = list(expo)
        new[i] -= 1
        return coef * expo[i], tuple(new)

    def jacobian(x):
        jac = np.zeros((dim, dim))
        for r, terms in enumerate(comps):
            for coef, expo in terms:
                for i in range(dim):
                    dc, de = _d_mono(coef, expo, i)
                    if dc:
                        jac[r, i] += _mono(x, dc, de)
        return jac

    def second(x, u, v):
        out = np.zeros(dim)
        for r, terms in enumerate(comps):
            for coef, expo in terms:
                for i in range(dim):
                    dc, de = _d_mono(coef, expo, i)
                    if not dc:
                        continue
                    for j in range(dim):
                        dc2, de2 = _d_mono(dc, de, j)
                        if dc2:
                            out[r] += _mono(x, dc2, de2) * u[i] * v[j]
        return out

    return SmoothMap(
        dim=dim, func=func, jacobian=jacobian, second=second, region=region, name=name
    )
