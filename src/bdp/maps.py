"""Smooth maps, map sequences, the evaluator, and seminorm estimation.

A ``SmoothMap`` bundles a batch value callback, optional analytic batch
derivative callbacks and a validity region; ``pointwise`` lifts a one-point
callable to a batch one.  ``images``, ``jacobians`` and
``second_derivatives`` are the one evaluator: a single point is a batch of
one, and maps without derivative callbacks get finite differences there.
``estimate_seminorms`` measures the C¹/C² seminorms on a grid; its values
are lower bounds of the true suprema, so a verdict never trusts them.  Maps
carry no seminorm bounds: which constants a verdict trusts is decided by the
budget (``distortion.PROVENANCES``), and the analytic ones come from the
closed forms of the scenario budgets.
"""

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import DimensionMismatchError, HypothesisViolationError, OutOfRegionError

_EPS = np.finfo(float).eps

#: finite-difference step scale for first derivatives (truncation/round-off balance)
STEP1 = _EPS ** (1.0 / 3.0)
#: finite-difference step scale for the nested differences of second derivatives
STEP2 = _EPS ** (1.0 / 4.0)
SINGULARITY_RTOL = 1e-14
#: how far outside a ``Box`` a point may lie and still count as inside it
BOX_PAD = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or not np.all(lo < hi):  # NaN fails lo < hi
            raise ValueError("degenerate box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.size

    def contains(self, x):
        """True where ``x``, one point or each row of a point batch, lies in
        the box widened by ``BOX_PAD``."""
        return np.all(x >= self.lo - BOX_PAD, axis=-1) & np.all(x <= self.hi + BOX_PAD, axis=-1)

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
    """Grid maxima of ‖f‖₁, ‖f⁻¹‖₁ and ‖f‖₂ over a region: lower bounds of
    the suprema, hence always of the "sampled" provenance."""

    c1: float
    c1_inv: float
    c2: float
    provenance: ClassVar[str] = "sampled"

    def __post_init__(self):
        for v in (self.c1, self.c1_inv, self.c2):
            if not v >= 0:  # NaN fails it too
                raise ValueError("seminorms must be nonnegative")

    @property
    def constant(self):
        """The uniform constant max(‖f‖₁, ‖f⁻¹‖₁, ‖f‖₂)."""
        return max(self.c1, self.c1_inv, self.c2)


@dataclass(frozen=True)
class SmoothMap:
    """A C² map ℝ^d → ℝ^d, evaluated through ``images``, ``jacobians`` and
    ``second_derivatives``.  It carries no seminorm bounds.

    Every callback takes a batch: ``func_batch``: (N, d) points → (N, d)
    values; ``jacobian_batch``: → (N, d, d); ``second_batch(X, u, v)``:
    D²_x f(u, v) at each row x, → (N, d).  A one-point callable becomes one
    by ``pointwise``.  A derivative left out is taken by finite differences.
    ``region`` of None means all of ℝ^d.  ``m(x)`` and ``m.func(x)`` are f at
    one (d,) point or at each row of a batch.
    """

    dim: int
    func_batch: Callable
    jacobian_batch: Optional[Callable] = None
    second_batch: Optional[Callable] = None
    region: Optional[Box] = None
    name: str = ""

    def __call__(self, x):
        """f at one (d,) point, or the (N, d) values of a point batch."""
        values = images(self, x)
        return values[0] if np.ndim(x) == 1 else values

    func = __call__


def pointwise(f):
    """The batch form of a one-point callable ``f(x, *args)``: ``f`` at each
    row of the batch, with the same ``args``.  The one loop over rows."""
    return lambda X, *args: np.array([f(x, *args) for x in X], dtype=float)


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

    @property
    def dim(self):
        return self.maps[0].dim


# ---------------------------------------------------------------------------
# the evaluator: every map value, Jacobian and second derivative goes through it


def _as_batch(m, pts, step, dirs=()):
    """One (d,) point or an (N, d) batch as an (N, d) float batch, checked
    for shape (and each direction of ``dirs`` for shape (d,)), then for the
    region."""
    pts = np.asarray(pts, dtype=float)
    batch = pts[None] if pts.ndim == 1 else pts
    if batch.ndim != 2 or batch.shape[1] != m.dim:
        raise DimensionMismatchError(f"points of shape {pts.shape} for a map on R^{m.dim}")
    for w in dirs:
        if np.shape(w) != (m.dim,):
            raise DimensionMismatchError(f"direction of shape {np.shape(w)} for a map on R^{m.dim}")
    if m.region is not None:
        inside = m.region.contains(batch)
        if not inside.all():
            raise OutOfRegionError(batch[~inside][0], step=step)
    return batch


def _call(pts, batch, shape, what, step, args=()):
    """One ``batch`` call on the points, given ``args`` after them; then the
    output shape and finiteness checks.  Overflow and invalid operations
    raise no numpy warning: their non-finite output is checked."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(batch(pts, *args), dtype=float)
    expected = (len(pts), *shape)
    if out.shape != expected:
        raise DimensionMismatchError(f"{what} have shape {out.shape}, expected {expected}")
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out.reshape(len(pts), -1)).all(axis=1)
        raise HypothesisViolationError(f"non-finite {what} at {pts[bad][0]}", step=step)
    return out


def _values(m, pts, step):
    return _call(pts, m.func_batch, (m.dim,), "map values", step)


def _jacobians(m, pts, step):
    if m.jacobian_batch is None:
        fd = lambda p: _fd_jacobians(m, p, step)  # noqa: E731
        return _call(pts, fd, (m.dim, m.dim), "Jacobians", step)
    return _call(pts, m.jacobian_batch, (m.dim, m.dim), "Jacobians", step)


def images(m, pts, step=None):
    """f at one (d,) point or at each row of an (N, d) batch: (N, d) values.

    Checks in order the input shape, the region (before any callback), one
    ``func_batch`` call, the output shape and finiteness, raising
    ``DimensionMismatchError``, ``OutOfRegionError(step)`` or
    ``HypothesisViolationError(step)``."""
    return _values(m, _as_batch(m, pts, step), step)


def jacobians(m, pts, step=None):
    """Df at one (d,) point or at each row of an (N, d) batch: (N, d, d)
    matrices, with the checks of ``images``.  Without a Jacobian callback
    they are central differences of ``images``, one-sided where a central
    probe would leave the region."""
    return _jacobians(m, _as_batch(m, pts, step), step)


def second_derivatives(m, pts, u, v):
    """D²_x f(u, v) at each row x of an (N, d) batch: one analytic
    ``second_batch`` call, with the checks of ``images`` (u and v must have
    shape (d,)), else differences along v of J·u, with J analytic (step
    STEP1) or itself differenced along u (both steps STEP2)."""
    pts = _as_batch(m, pts, None, (u, v))
    if m.second_batch is not None:
        return _call(pts, m.second_batch, (m.dim,), "second derivatives", None, (u, v))
    if m.jacobian_batch is not None:
        return _differences(lambda p: jacobians(m, p) @ u, pts, v, _steps(pts, STEP1), m.region)
    h = _steps(pts, STEP2)

    def along_u(p):  # the probe blocks along v repeat the rows of pts, so np.resize repeats h
        return _differences(lambda q: images(m, q), p, u, np.resize(h, len(p)), m.region)

    return _differences(along_u, pts, v, h, m.region)


def _row_norms(a):
    """Euclidean norms of the rows of ``a``, bit for bit as np.linalg.norm of one row."""
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def _steps(pts, scale):
    """Finite-difference steps scale·max(1, ‖x‖), one per row x of ``pts``."""
    return scale * np.maximum(1.0, _row_norms(pts))


def _differences(g, pts, dirs, h, region):
    """Derivative of the batch function ``g`` at each row of ``pts`` along
    ``dirs`` (a row per point, or one vector), from one call of ``g``: central
    differences, or second-order one-sided ones where exactly one central
    probe would leave ``region``."""
    n = len(pts)
    hd = h[:, None] * dirs
    plus, minus = pts + hd, pts - hd
    back = ahead = np.zeros(n, dtype=bool)
    if region is not None:
        out_plus, out_minus = ~region.contains(plus), ~region.contains(minus)
        back, ahead = out_plus & ~out_minus, out_minus & ~out_plus
    one_sided = (back | ahead)[:, None]
    sign = np.where(back, -1.0, 1.0)[:, None]
    near = np.where(back[:, None], minus, plus)
    far = np.where(one_sided, pts + 2.0 * sign * hd, minus)
    probes = [near, far, pts] if one_sided.any() else [near, far]
    vals = np.asarray(g(np.concatenate(probes))).reshape(len(probes), n, -1)
    central = (vals[0] - vals[1]) / (2.0 * h[:, None])
    if len(probes) == 2:
        return central
    side = sign * (4.0 * vals[0] - vals[1] - 3.0 * vals[2]) / (2.0 * h[:, None])
    return np.where(one_sided, side, central)


def _fd_jacobians(m, pts, step):
    """Finite-difference Jacobians: column i differences ``images`` along e_i."""
    n, d = pts.shape
    rows, axes, h = np.repeat(pts, d, axis=0), np.tile(np.eye(d), (n, 1)), _steps(pts, STEP1)
    cols = _differences(lambda p: images(m, p, step), rows, axes, np.repeat(h, d), m.region)
    return cols.reshape(n, d, d).transpose(0, 2, 1)


def advance(m, pts, tans=None, step=None):
    """One step of the (N, d) batch ``pts`` through ``m``: (Jacobians, images, pushed),
    with the checks of ``jacobians`` and ``images`` (shape and region once).
    ``pushed`` is J_k·tans[k] for every row, or None without ``tans``."""
    pts = _as_batch(m, pts, step)
    jac = _jacobians(m, pts, step)
    image = _values(m, pts, step)
    pushed = None if tans is None else np.einsum("kab,kb->ka", jac, tans)
    return jac, image, pushed


def _singular(jacs):
    """(singular mask, operator norms) of an (N, d, d) Jacobian stack: J is
    singular when |det J| < SINGULARITY_RTOL·max(1, ‖J‖)^d."""
    norms = np.linalg.norm(jacs, 2, axis=(1, 2))
    scale = np.maximum(1.0, norms) ** jacs.shape[1]
    return np.abs(np.linalg.det(jacs)) < SINGULARITY_RTOL * scale, norms


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


def estimate_seminorms(m, region, resolution):
    """Grid estimate of the C¹, inverse-C¹ and C² seminorms: the sampled
    maxima, which are lower bounds of the suprema on ``region``.  A singular
    Jacobian anywhere on the grid makes ``c1_inv`` infinite.
    """
    pts = region.grid(resolution)
    jacs = jacobians(m, pts)
    singular, norms = _singular(jacs)
    c1 = float(norms.max())
    if singular.any():
        c1_inv = np.inf
    else:
        c1_inv = float(np.linalg.norm(np.linalg.inv(jacs), 2, axis=(1, 2)).max())
    c2 = max(
        float(_row_norms(second_derivatives(m, pts, u, v)).max())
        for u, v in _direction_pairs(region.dim)
    )
    return SeminormEstimate(c1, c1_inv, c2)


def polynomial_map(components, region=None, name="polynomial"):
    """Build a SmoothMap from coefficient tables.

    ``components`` is a list of d monomial lists, one per output component;
    each monomial is ``(coef, exponents)`` with ``exponents`` a length-d tuple
    of nonnegative integers.  They become one exponent table, evaluated on
    whole batches, whose first and second partials are derived once.
    """
    dim = len(components)
    outs, expos, coefs = [], [], []
    for r, terms in enumerate(components):
        for coef, expo in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != dim or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for dimension {dim}")
            outs.append(r)
            expos.append(expo)
            coefs.append(float(coef))
    table = (np.array(expos, int).reshape(-1, dim), np.array(coefs), np.eye(dim)[outs], (dim,))
    first = _partials(table)
    hessians = partial(_table_values, _partials(first))
    # einsum, not @: BLAS may sum in another order, so a row's bits could depend on its batch
    seconds = lambda X, u, v: np.einsum("nrij,i,j->nr", hessians(X), u, v)  # noqa: E731
    values, jacobian = partial(_table_values, table), partial(_table_values, first)
    return SmoothMap(dim, values, jacobian, seconds, region=region, name=name)


def _partials(table):
    """The partials of a monomial table (exponents, coefficients, a one-hot row
    of outputs per term, output shape) as one table: by ∂ᵢ(c·xᵉ) = eᵢ·c·x^(e−1ᵢ)
    a term of output k gives one of output (k, i); zero terms (eᵢ = 0) are dropped."""
    expo, coef, gather, shape = table
    d = expo.shape[1]
    coefs = (coef[:, None] * expo).ravel()
    expos = (expo[:, None, :] - np.eye(d, dtype=int)).reshape(-1, d)
    gathers = np.kron(gather, np.eye(d))
    keep = coefs != 0
    return expos[keep], coefs[keep], gathers[keep], (*shape, d)


def _table_values(table, pts):
    """Each output's sum of the table's terms at each row of ``pts``: (N, *shape)."""
    expo, coef, gather, shape = table
    terms = coef * np.prod(pts[:, None, :] ** expo, axis=2)  # summed per row: batch-independent
    return (terms[:, None, :] @ gather)[:, 0].reshape(len(pts), *shape)
