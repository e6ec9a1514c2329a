"""Theorem engines: empirical distortion of nonstationary map compositions
against the explicit bounds e^{CL} (1D) and e^{C²(α+L)} (curves in ℝ^d).

All ratio accumulation happens in log space; bound comparisons are made in
log space so huge constants never overflow.  Every engine walks its orbit
once, in ``_walk``, with its tangents kept in range by exact powers of two,
so 10³-step runs work; no image length is an endpoint difference, so lengths
keep their relative accuracy near a fixed point.  Every engine's verdict is
made by ``_report``: a comparison that relies on any untrusted (sampled)
constant can be at best "hypothesis-unverified", never "bound-violated", since
sampled suprema are lower bounds.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .curves import NaturalCurve, _simpson_nodes, max_angle_of_tangents
from .curves import reparameterize_natural, simpson_richardson
from .errors import HypothesisViolationError
from .maps import advance, second_derivatives, trusted

BOUND_HOLDS = "bound-holds"
BOUND_VIOLATED = "bound-violated"
UNVERIFIED = "hypothesis-unverified"

#: absolute reporting tolerance in log space; quadrature allowances are added
REPORT_TOL = 1e-9
#: how far a subinterval end may lie outside a curve's computed natural domain
SUBINTERVAL_TOL = 1e-9
#: the 2-point Gauss nodes of an interval [a, b] are (a + b)/2 + (b − a)·GAUSS_NODES
GAUSS_NODES = np.array([-0.5, 0.5]) / math.sqrt(3.0)


#: each budget constant and its provenance field; a constant's [budget] key is its lower case
PROVENANCE_FIELDS = {"C": "c_prov", "L": "l_prov", "alpha": "a_prov"}


@dataclass(frozen=True)
class HypothesisBudget:
    """The constants C, L, α (and optionally ε) with per-constant provenance.

    A ``None`` value means "measure it from the run"; measured values are
    sampled by definition.  Each provenance is one of ``maps.PROVENANCES``.
    """

    C: Optional[float] = None
    L: Optional[float] = None
    alpha: Optional[float] = None
    epsilon: Optional[float] = None
    c_prov: str = "sampled"
    l_prov: str = "sampled"
    a_prov: str = "sampled"

    def __post_init__(self):
        for prov in PROVENANCE_FIELDS.values():
            trusted(getattr(self, prov))  # rejects an unknown provenance
        for v in (getattr(self, name) for name in PROVENANCE_FIELDS):
            if v is not None and not v >= 0:  # NaN fails it too
                raise ValueError("budget constants must be nonnegative numbers")
        if self.epsilon is not None and not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass
class StepRecord:
    """Measurements of step i on F_{i−1}∘γ0 (samples x_k, tangents u_k, J = Df_i).

    Curve runs: ``lemma1_increment`` is the max over sample pairs (k, l) of
    |log(‖J(x_k)u_k‖/‖J(x_k)u_l‖)| − |log(‖u_k‖/‖u_l‖)|, ``lemma2_increment``
    the max of |log(‖J(x_k)u_l‖/‖J(x_l)u_l‖)|, and ``lemma1_pair`` and
    ``lemma2_pair`` their argmax pairs (k, l).  1D runs: ``lemma2_increment``
    is the spread of log |f_i'| on the grid and both pairs are None.
    ``log_bound`` is C (1D) or C² (curves), the C of ``theoretical_log_K``,
    times the measured Σ_{j≤i} (α_j + L_j^ε), with ε = 1 except in the Hölder
    run.  Where the budget states L or α, ``theoretical_log_K`` uses those
    instead, so the last step's value can differ from it.
    """

    index: int
    length: float
    alpha: float
    lemma1_increment: float
    lemma2_increment: float
    length_err: float = 0.0
    lemma1_pair: Optional[tuple] = None
    lemma2_pair: Optional[tuple] = None
    log_bound: float = 0.0


@dataclass
class DistortionTrace:
    """Per-step records and run totals; the pairwise lemma data is kept as
    each step's maxima and argmax pairs, so a trace holds O(n + S) numbers."""

    n: int
    per_step: list
    sum_L: float
    sum_alpha: float
    sup_abs_log_ratio: float
    sample_params: np.ndarray
    sample_logs: Optional[np.ndarray] = None  # log ‖u_n‖ per sample parameter
    quad_err: float = 0.0
    notes: list = field(default_factory=list)


@dataclass
class BoundReport:
    empirical: float
    theoretical_log_K: float
    verdict: str
    budget: HypothesisBudget
    trace: DistortionTrace
    extras: dict = field(default_factory=dict)

    @property
    def slack(self):
        return self.theoretical_log_K - self.empirical


# ---------------------------------------------------------------------------
# the verdict rule, shared by every engine


def _resolve(budget, **measured):
    """``budget`` with each of the ``measured`` constants it leaves out
    (None) set to the run's measurement, marked sampled."""
    changes = {}
    for name, value in measured.items():
        if getattr(budget, name) is None:
            changes.update({name: value, PROVENANCE_FIELDS[name]: "sampled"})
    return replace(budget, **changes)


def _report(empirical, theo, budget, trace, allowance=0.0, extras=None):
    """The BoundReport on ``empirical`` against ``theo`` under the resolved
    ``budget``.  The verdict rule, in order: a measured sum above the one the
    budget states (a measured constant is its own sum), then any constant
    that is not trusted, makes the verdict
    hypothesis-unverified, with a note in the trace saying which; otherwise
    ``empirical <= theo + REPORT_TOL + allowance`` decides it."""
    covered = trace.sum_L <= budget.L + REPORT_TOL + trace.quad_err and (
        budget.alpha is None or trace.sum_alpha <= budget.alpha + REPORT_TOL
    )
    stated = [prov for name, prov in PROVENANCE_FIELDS.items() if getattr(budget, name) is not None]
    if not covered:
        note = "measured sums exceed the stated budget"
    elif not all(trusted(getattr(budget, prov)) for prov in stated):
        note = "sampled constants: verdict limited to hypothesis-unverified"
    else:
        verdict = BOUND_HOLDS if empirical <= theo + REPORT_TOL + allowance else BOUND_VIOLATED
        return BoundReport(empirical, theo, verdict, budget, trace, extras or {})
    if note not in trace.notes:  # a ratio form repeats its base run's checks
        trace.notes.append(note)
    return BoundReport(empirical, theo, UNVERIFIED, budget, trace, extras or {})


# ---------------------------------------------------------------------------
# the one orbit walk, shared by every engine


def _record_log_bounds(per_step, coef, eps=1.0):
    """Set each step's ``log_bound`` to Σ_{j≤i} coef·(α_j + L_j^ε) over the
    measured α_j and L_j, coef being C (1D, α_j = 0) or C² (curves) with the
    C of ``theoretical_log_K``, summed in step order."""
    cumulative = 0.0
    for rec in per_step:
        cumulative += coef * (rec.alpha + rec.length**eps)
        rec.log_bound = cumulative


def _rescaled(tans, scale, step):
    """(tans, norms, scale) for ``tans``, the true tangents times 2^scale: the row
    norms, taken once; past [2^-256, 2^256] for the largest, all rows get one
    power of two and ``scale`` follows.  A zero or non-finite norm raises; no
    tangents (None) give (None, None, scale)."""
    if tans is None:
        return None, None, scale
    norms = np.linalg.norm(tans, axis=1)
    lo, hi = norms.min(), norms.max()
    if not (lo > 0 and hi < np.inf):  # a NaN fails both
        raise HypothesisViolationError("tangent vanished or is not finite", step=step)
    top = math.frexp(hi)[1]
    if abs(top) > 256:
        tans, norms, scale = np.ldexp(tans, -top), np.ldexp(norms, -top), scale - top
    return tans, norms, scale


def _walk(seq, pts, tans, measure, reseat=None, eps=1.0):
    """The only loop over ``seq``: the (N, d) batch ``pts`` pushed through
    every f_i, with the tangents ``tans`` of all its rows (or None) kept in
    range by exact powers of two.  At step i, ``reseat(pts)``, if given, first
    returns the batch with the rows that do not follow the orbit moved; after
    the push, with the tangents rescaled (a vanished one raises),
    ``measure(i, f_i, jac, pts, tans, norms, scale)`` gets the Jacobians and
    the batch and tangents (times 2^scale) of F_{i−1}∘γ0, and returns the
    step's L_i, α_i, both lemma increments, the error estimate of L_i and the
    lemma pairs.  The sums take L_i^ε.  Returns the trace, its empirical
    fields left to the engine, and the last tangents' norms and scale.
    """
    tans, norms, scale = _rescaled(tans, 0, step=0)
    per_step = []
    for i, m in enumerate(seq, start=1):
        if reseat is not None:
            pts = reseat(pts)
        jac, image, pushed = advance(m, pts, tans, step=i)
        pushed = _rescaled(pushed, scale, step=i)
        per_step.append(StepRecord(i, *measure(i, m, jac, pts, tans, norms, scale)))
        pts, (tans, norms, scale) = image, pushed

    sum_L = sum(rec.length**eps for rec in per_step)  # each sum in step order
    sum_alpha = sum(rec.alpha for rec in per_step)
    quad_err = sum(rec.length_err for rec in per_step)
    trace = DistortionTrace(len(seq), per_step, sum_L, sum_alpha, None, None, quad_err=quad_err)
    return trace, norms, scale


# ---------------------------------------------------------------------------
# 1D engines


def _check_subintervals(domain, subs, tol=SUBINTERVAL_TOL):
    """Raise ``ValueError`` unless every (lo, hi) in ``subs`` is nondegenerate
    and lies in ``domain`` = (a, b), up to ``tol``."""
    a, b = float(domain[0]), float(domain[1])
    for sub in subs:
        if abs(sub[1] - sub[0]) < 1e-12:
            raise ValueError(f"degenerate subinterval {sub}")
        if not all(a - tol <= x <= b + tol for x in sub):  # NaN fails it too
            raise ValueError(f"subinterval {sub} not inside ({a}, {b})")


def check_1d(seq, interval, samples, subs=()):
    """The 1D engines' input rules: 1D maps, lo < hi, at least 2 samples and
    every subinterval inside [lo, hi] exactly, as the maps' region may end
    there.  Raises ``ValueError``; returns (lo, hi) as floats."""
    if seq.dim != 1:
        raise ValueError("run_1d requires 1D maps")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("degenerate initial interval")
    if int(samples) < 2:
        raise ValueError("run_1d needs at least 2 samples (both endpoints)")
    _check_subintervals((lo, hi), subs, tol=0.0)
    return lo, hi


def run_1d(seq, interval, samples, budget, subs=()):
    """Theorem engine for 1D compositions: sup |log(F_n'(x)/F_n'(y))| vs C·L.

    ``interval`` is (lo, hi); points are a deterministic grid of ``samples``
    points including both endpoints.  Derivative sign changes on the grid are
    hypothesis violations (f' must not vanish).  The length of each image
    interval is carried from step to step: times the 2-point Gauss mean of
    |f_i'| over it, exact when f_i is a polynomial of degree at most 4, so no
    endpoint difference enters it.  The lengths L_i are those of
    F_{i−1}([lo, hi]); the error estimate of L_i is its distance from the
    endpoint difference.  ``subs``, () or (sub1, sub2), are carried the same
    way; the extras gain their ``image_lengths`` and ``ratio``, the ratio
    |sub1|/|sub2| times each step's ratio of their Gauss means.
    """
    lo, hi = check_1d(seq, interval, samples, subs)
    grid = np.linspace(lo, hi, int(samples))
    ends = [(lo, hi), *(sorted(sub) for sub in subs)]  # each interval from its lower end
    # rows: each interval's ends, then its two Gauss nodes (placed by reseat); the grid
    pts = np.concatenate([np.tile(ends, 2).ravel(), grid])[:, None]
    g = 4 * len(ends)  # the first grid row
    log_sum = np.zeros(len(grid))
    measured_C = 0.0
    lengths = [math.frexp(b - a) for a, b in ends]  # (mantissa, exponent): no underflow ends them
    ratio = (ends[1][1] - ends[1][0]) / (ends[2][1] - ends[2][0]) if subs else None

    def reseat(pts):  # the Gauss nodes of [a, b], each interval's image F_{i−1}(ends)
        pts = pts.copy()
        rows = pts[:g, 0].reshape(-1, 4)
        a, b = rows[:, :1], rows[:, 1:2]
        rows[:, 2:] = (a + b) / 2 + (b - a) * GAUSS_NODES
        return pts

    def measure(j, m, jac, pts, *_):
        nonlocal log_sum, measured_C, ratio
        deriv = jac[g:, 0, 0]
        if not (deriv.min() > 0 or deriv.max() < 0):
            raise HypothesisViolationError(
                f"derivative vanishes or changes sign on step interval {j}", step=j
            )
        if budget.C is None:  # sampled sup |f''| / |f'| over the grid's images
            second = second_derivatives(m, pts[g:], np.ones(1), np.ones(1))[:, 0]
            measured_C = max(measured_C, float(np.max(np.abs(second) / np.abs(deriv))))
        step_logs = np.log(np.abs(deriv))
        log_sum += step_logs
        l_j = math.ldexp(*lengths[0])
        err = abs(l_j - abs(float(pts[1, 0] - pts[0, 0])))
        d = jac[:g, 0, 0].tolist()
        means = [abs(d[k + 2] + d[k + 3]) / 2 for k in range(0, g, 4)]
        for k, (mantissa, exponent) in enumerate(lengths):
            mantissa, shift = math.frexp(mantissa * means[k])
            lengths[k] = (mantissa, exponent + shift)
        if subs:
            ratio *= means[1] / means[2]
        return l_j, 0.0, 0.0, float(step_logs.max() - step_logs.min()), err, None, None

    trace = _walk(seq, pts, None, measure, reseat)[0]
    empirical = float(log_sum.max() - log_sum.min())
    trace.sup_abs_log_ratio, trace.sample_params, trace.sample_logs = empirical, grid, log_sum

    # e^{CL} reads no α or ε; a stated one kept here would enter the trust check
    budget = replace(budget, alpha=None, epsilon=None, a_prov="sampled")
    budget = _resolve(budget, C=measured_C, L=trace.sum_L)
    _record_log_bounds(trace.per_step, budget.C)
    image_lengths = tuple(math.ldexp(*v) for v in lengths[1:])
    extras = {"image_lengths": image_lengths, "ratio": ratio} if subs else None
    return _report(empirical, budget.C * budget.L, budget, trace, extras=extras)


def interval_ratio_1d(seq, interval, sub1, sub2, samples, budget):
    """Interval-image ratio form: the lengths ∫|F_n'| of F_n(sub1) and F_n(sub2)
    against the sandwich r·K^{∓1} with K = (e^{CL})²."""
    base = run_1d(seq, interval, samples, budget, (sub1, sub2))
    return _ratio_report(base, sub1, sub2, "image_gaps")


# ---------------------------------------------------------------------------
# curve engines


def check_curve(seq, gamma0, samples, resolution, budget, subs=(), holder=False):
    """The curve engines' input rules: at least 2 samples and a resolution of
    at least 2, a budget C (and ε for the Hölder run), maps of the curve's
    dimension and every subinterval inside the natural domain.  Raises
    ``ValueError``; returns ``gamma0`` reparameterized by arc length
    (unchanged if it already is)."""
    if int(samples) < 2:
        raise ValueError("curve engines need at least 2 samples")
    if int(resolution) < 2:
        raise ValueError("curve engines need a resolution of at least 2")
    if budget.C is None:
        raise ValueError("curve engines need a budget C (analytic or sampled)")
    if holder and budget.epsilon is None:
        raise ValueError("holder run requires budget epsilon")
    if seq.dim != gamma0.dim:
        raise ValueError("curve and maps have different dimensions")
    if not isinstance(gamma0, NaturalCurve):
        gamma0 = reparameterize_natural(gamma0, resolution)
    _check_subintervals(gamma0.domain, subs)
    return gamma0


def _angle_subset(n_quad_nodes, limit=257):
    stride = max(1, (n_quad_nodes - 1) // limit)
    return np.arange(0, n_quad_nodes, stride)


def _argmax_pair(a):
    k, l = np.unravel_index(np.argmax(a), a.shape)
    return float(a[k, l]), (int(k), int(l))


def _curve_run(seq, gamma0, samples, resolution, budget, holder=False, subs=()):
    """The curve engines' walk and report: C²(α + L), with a quadrature
    allowance C²·(the summed length error estimates)."""
    gamma0 = check_curve(seq, gamma0, samples, resolution, budget, subs, holder)
    eps = budget.epsilon if holder else 1.0  # x ** 1.0 == x

    a, b = gamma0.domain
    t_quad, h = _simpson_nodes(a, b, resolution)
    quads = [_simpson_nodes(*sorted(sub), resolution) for sub in subs]  # each from its lower end
    t_s = np.linspace(a, b, int(samples))
    # quadrature nodes first, then the subintervals', then the S samples: one batch per step
    nodes = np.concatenate([t_quad, *(t for t, _ in quads), t_s])
    n_q, n_0 = len(t_quad), len(nodes) - len(t_s)  # n_0: the first sample row
    angle_idx = _angle_subset(n_q)

    def measure(i, m, jac, pts, tans, norms, scale):
        l_i, err_i = (math.ldexp(v, -scale) for v in simpson_richardson(norms[:n_q], h))
        w_q, w_s = tans[:n_q], tans[n_0:]
        alpha_i = max_angle_of_tangents(np.vstack([w_q[angle_idx], w_s]))
        u_log = np.log(norms[n_0:])
        cross = np.einsum("kab,lb->kla", jac[n_0:], w_s)
        log_n = np.log(np.linalg.norm(cross, axis=2))  # log_n[k, l] = log ||J(x_k) u_l||
        lhs1 = np.abs(log_n.diagonal()[:, None] - log_n)
        base = np.abs(u_log[:, None] - u_log[None, :])
        lhs2 = np.abs(log_n - log_n.diagonal()[None, :])
        # both diagonals are exactly 0, so the lemma-1 maximum is never negative
        lemma1_inc, lemma1_pair = _argmax_pair(lhs1 - base)
        lemma2_inc, lemma2_pair = _argmax_pair(lhs2)
        return l_i, alpha_i, lemma1_inc, lemma2_inc, err_i, lemma1_pair, lemma2_pair

    trace, norms, scale = _walk(seq, gamma0.pos(nodes), gamma0.tan(nodes), measure, eps=eps)
    log_norms = np.log(norms[n_0:])
    empirical = float(log_norms.max() - log_norms.min())
    trace.sup_abs_log_ratio, trace.sample_params = empirical, t_s
    trace.sample_logs = log_norms - scale * math.log(2.0)

    c2 = budget.C * budget.C
    _record_log_bounds(trace.per_step, c2, eps)
    budget = _resolve(budget, L=trace.sum_L, alpha=trace.sum_alpha)
    allowance = c2 * trace.quad_err
    extras = {"holder": True} if holder else {}
    extras["quadrature_allowance"] = allowance
    if subs:  # each arc by the rule of L_i; the ratio is taken before the scale is applied back
        halves = np.split(norms[n_q:n_0], 2)  # both subintervals have the same node count
        len1, len2 = (simpson_richardson(v, h)[0] for v, (_, h) in zip(halves, quads))
        lengths = (math.ldexp(len1, -scale), math.ldexp(len2, -scale))
        extras.update(image_lengths=lengths, ratio=len1 / len2)
    return _report(empirical, c2 * (budget.alpha + budget.L), budget, trace, allowance, extras)


def run_curve(seq, gamma0, samples, resolution, budget, subs=()):
    """Main curve engine: sup |log(‖u_n‖/‖v_n‖)| against C²(α + L).  ``subs`` as in
    ``run_1d``, ``resolution`` intervals each, between the quadrature and sample rows."""
    return _curve_run(seq, gamma0, samples, resolution, budget, subs=subs)


def run_curve_holder(seq, gamma0, samples, resolution, budget):
    """Hölder (C^{1+ε}) variant: the length budget accumulates L_i^ε and the
    constant C is understood to bound ‖Df‖_ε in place of ‖f‖₂."""
    return _curve_run(seq, gamma0, samples, resolution, budget, holder=True)


def arc_ratio_curve(seq, gamma0, sub1, sub2, samples, resolution, budget):
    """Arc-length ratio form: L(F_n∘γ0 over sub1) / L(... over sub2) inside the
    sandwich r·K^{∓1} with K = (e^{C²(α+L)})²."""
    base = run_curve(seq, gamma0, samples, resolution, budget, (sub1, sub2))
    return _ratio_report(base, sub1, sub2, "arc_lengths", 2.0 * base.extras["quadrature_allowance"])


def _ratio_report(base, sub1, sub2, lengths_key, allowance=0.0):
    """The ratio forms' sandwich r·K^{∓1}, K the base run's bound squared, judged
    by the verdict rule on the base run's budget, trace and image lengths."""
    r = abs(sub1[1] - sub1[0]) / abs(sub2[1] - sub2[0])
    extras = {"ratio": base.extras["ratio"], "r": r, lengths_key: base.extras["image_lengths"]}
    empirical = abs(math.log(extras["ratio"] / r))
    theo = 2.0 * base.theoretical_log_K
    return _report(empirical, theo, base.budget, base.trace, allowance, extras)


@dataclass
class StepCheck:
    index: int
    passed: bool
    lemma1_slack: float
    lemma2_slack: float
    worst_pair: tuple


def lemma_step_checks(trace, C, tol=REPORT_TOL):
    """Verify the two per-step lemma inequalities for every sampled pair.

    Lemma 1: |log(‖J·u‖/‖J·v‖)| ≤ |log(‖u‖/‖v‖)| + C²·α(F_{i−1}∘γ0).
    Lemma 2: |log(‖J(x)·v‖/‖J(y)·v‖)| ≤ C²·L(F_{i−1}∘γ0).

    The right-hand sides do not depend on the pair, so the recorded maxima
    decide each step for any C.  Returns one StepCheck per step; the lemma-2
    tolerance includes a quadrature allowance C²·(length error estimate).
    """
    if trace.per_step[0].lemma1_pair is None:
        raise ValueError("trace carries no per-step pair data (1D run?)")
    checks = []
    for rec in trace.per_step:
        excess1 = rec.lemma1_increment - C * C * rec.alpha
        excess2 = rec.lemma2_increment - C * C * rec.length
        checks.append(
            StepCheck(
                index=rec.index,
                passed=bool(excess1 <= tol and excess2 <= tol + C * C * rec.length_err),
                lemma1_slack=-excess1,
                lemma2_slack=-excess2,
                worst_pair=rec.lemma1_pair if excess1 >= excess2 else rec.lemma2_pair,
            )
        )
    return checks


def first_lemma_violation(checks):
    """The first failing (step, pair) among the step checks, or None."""
    for c in checks:
        if not c.passed:
            return (c.index, c.worst_pair)
    return None
