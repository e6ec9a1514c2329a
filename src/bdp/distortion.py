"""Theorem engines: empirical distortion of nonstationary map compositions
against the explicit bounds e^{CL} (1D) and e^{C²(α+L)} (curves in ℝ^d).

All ratio accumulation happens in log space; bound comparisons are made in
log space so huge constants never overflow.  Verdict policy: a comparison
that relies on any sampled (non-analytic) constant can be at best
"hypothesis-unverified", never "bound-violated", since sampled suprema are
lower bounds.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import jets
from .curves import NaturalCurve, _simpson, _simpson_nodes, max_angle_of_tangents
from .curves import reparameterize_natural, simpson_richardson
from .errors import HypothesisViolationError
from .maps import advance

BOUND_HOLDS = "bound-holds"
BOUND_VIOLATED = "bound-violated"
UNVERIFIED = "hypothesis-unverified"

#: absolute reporting tolerance in log space; quadrature allowances are added
REPORT_TOL = 1e-9


@dataclass(frozen=True)
class HypothesisBudget:
    """The constants C, L, α (and optionally ε) with per-constant provenance.

    A ``None`` value means "measure it from the run"; measured values are
    sampled by definition.  Provenance "analytic" marks trusted upper bounds.
    """

    C: Optional[float] = None
    L: Optional[float] = None
    alpha: Optional[float] = None
    epsilon: Optional[float] = None
    c_prov: str = "sampled"
    l_prov: str = "sampled"
    a_prov: str = "sampled"

    def __post_init__(self):
        for v in (self.C, self.L, self.alpha):
            if v is not None and v < 0:
                raise ValueError("budget constants must be nonnegative")
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
    """

    index: int
    length: float
    alpha: float
    lemma1_increment: float
    lemma2_increment: float
    length_err: float = 0.0
    lemma1_pair: Optional[tuple] = None
    lemma2_pair: Optional[tuple] = None


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


def bound_1d(C, L):
    """The 1D distortion constant K = e^{CL}."""
    if C < 0 or L < 0:
        raise ValueError("C and L must be nonnegative")
    return math.exp(C * L)


def bound_curve(C, L, alpha):
    """The curve distortion constant K = e^{C²(α+L)}."""
    if C < 0 or L < 0 or alpha < 0:
        raise ValueError("constants must be nonnegative")
    return math.exp(C * C * (alpha + L))


# ---------------------------------------------------------------------------
# 1D engines


def _second_sup_1d(m, pts):
    """Sampled sup |f''(x)| / |f'(x)| of a 1D map over a point set."""
    best = 0.0
    for x in pts:
        jet = jets.push_jet2(m, np.atleast_1d(x), np.ones(1), np.ones(1))
        best = max(best, abs(float(jet.second[0])) / abs(float(jet.first[0])))
    return best


def run_1d(seq, interval, samples, budget):
    """Theorem engine for 1D compositions: sup |log(F_n'(x)/F_n'(y))| vs C·L.

    ``interval`` is (lo, hi); points are a deterministic grid of ``samples``
    points including both endpoints.  Derivative sign changes on the grid are
    hypothesis violations (f' must not vanish).
    """
    if seq.dim != 1:
        raise ValueError("run_1d requires 1D maps")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("degenerate initial interval")
    if int(samples) < 2:
        raise ValueError("run_1d needs at least 2 samples (both endpoints)")
    grid = np.linspace(lo, hi, int(samples))
    pts = grid[:, None]

    log_sum = np.zeros(len(grid))
    per_step = []
    sum_L = 0.0
    measured_C = 0.0
    need_c = budget.C is None
    for j, m in enumerate(seq, start=1):
        jac, image, _ = advance(m, pts, step=j)
        deriv = jac[:, 0, 0]
        if np.any(deriv == 0) or (np.any(deriv > 0) and np.any(deriv < 0)):
            raise HypothesisViolationError(
                f"derivative vanishes or changes sign on step interval {j}", step=j
            )
        if need_c:
            measured_C = max(measured_C, _second_sup_1d(m, pts[:, 0]))
        step_logs = np.log(np.abs(deriv))
        log_sum += step_logs
        seg = abs(float(pts[-1, 0] - pts[0, 0]))  # the grid ends are lo and hi
        sum_L += seg
        per_step.append(
            StepRecord(
                index=j,
                length=seg,
                alpha=0.0,
                lemma1_increment=0.0,
                lemma2_increment=float(step_logs.max() - step_logs.min()),
            )
        )
        pts = image

    empirical = float(log_sum.max() - log_sum.min())
    trace = DistortionTrace(
        n=len(seq),
        per_step=per_step,
        sum_L=sum_L,
        sum_alpha=0.0,
        sup_abs_log_ratio=empirical,
        sample_params=grid,
        sample_logs=log_sum,
    )

    c_used = budget.C if budget.C is not None else measured_C
    c_prov = budget.c_prov if budget.C is not None else "sampled"
    l_used = budget.L if budget.L is not None else sum_L
    l_prov = budget.l_prov if budget.L is not None else "sampled"
    theo = c_used * l_used
    verdict, notes = _resolve_verdict(
        empirical, theo, [c_prov, l_prov], budget_ok=(budget.L is None or sum_L <= budget.L + REPORT_TOL)
    )
    trace.notes.extend(notes)
    resolved = HypothesisBudget(C=c_used, L=l_used, c_prov=c_prov, l_prov=l_prov)
    return BoundReport(
        empirical=empirical,
        theoretical_log_K=theo,
        verdict=verdict,
        budget=resolved,
        trace=trace,
    )


def interval_ratio_1d(seq, interval, sub1, sub2, samples, budget):
    """Interval-image ratio form: |F_n(b1)−F_n(a1)| / |F_n(b2)−F_n(a2)| against
    the sandwich r·K^{∓1} with K = (e^{CL})²."""
    for sub in (sub1, sub2):
        if abs(sub[1] - sub[0]) < 1e-12:
            raise ValueError(f"degenerate subinterval {sub}")
        if sub[0] < interval[0] - 1e-12 or sub[1] > interval[1] + 1e-12:
            raise ValueError(f"subinterval {sub} not inside {interval}")
    base = run_1d(seq, interval, samples, budget)

    ends = np.array([[sub1[0]], [sub1[1]], [sub2[0]], [sub2[1]]])
    for j, m in enumerate(seq, start=1):
        _, ends, _ = advance(m, ends, step=j)
    num = abs(float(ends[1, 0] - ends[0, 0]))
    den = abs(float(ends[3, 0] - ends[2, 0]))
    ratio = num / den
    r = abs(sub1[1] - sub1[0]) / abs(sub2[1] - sub2[0])
    empirical = abs(math.log(ratio / r))
    theo = 2.0 * base.theoretical_log_K
    verdict, notes = _resolve_verdict(
        empirical, theo, [base.budget.c_prov, base.budget.l_prov], budget_ok=True
    )
    if base.verdict == UNVERIFIED:
        verdict = UNVERIFIED
    base.trace.notes.extend(notes)
    return BoundReport(
        empirical=empirical,
        theoretical_log_K=theo,
        verdict=verdict,
        budget=base.budget,
        trace=base.trace,
        extras={"ratio": ratio, "r": r, "image_gaps": (num, den)},
    )


# ---------------------------------------------------------------------------
# curve engines


def _prepare_curve(gamma0, resolution):
    if not isinstance(gamma0, NaturalCurve):
        gamma0 = reparameterize_natural(gamma0, resolution)
    return gamma0


def _angle_subset(n_quad_nodes, limit=257):
    stride = max(1, (n_quad_nodes - 1) // limit)
    return np.arange(0, n_quad_nodes, stride)


def _argmax_pair(a):
    k, l = np.unravel_index(np.argmax(a), a.shape)
    return float(a[k, l]), (int(k), int(l))


def _curve_run(seq, gamma0, samples, resolution, budget, holder=False):
    if budget.C is None:
        raise ValueError("curve engines need a budget C (analytic or sampled)")
    eps = budget.epsilon
    if holder and eps is None:
        raise ValueError("holder run requires budget epsilon")
    gamma0 = _prepare_curve(gamma0, resolution)
    if seq.dim != gamma0.dim:
        raise ValueError("curve and maps have different dimensions")
    a, b = gamma0.domain
    t_quad, h = _simpson_nodes(a, b, resolution)
    t_s = np.linspace(a, b, int(samples))
    # quadrature nodes first, then the S sample nodes: one batch per step
    nodes = np.concatenate([t_quad, t_s])
    pts = np.array([gamma0.pos(t) for t in nodes])
    tans = np.array([gamma0.tan(t) for t in nodes])
    n_q = len(t_quad)
    angle_idx = _angle_subset(n_q)

    per_step = []
    sum_L = 0.0
    sum_alpha = 0.0
    quad_err = 0.0
    for i, m in enumerate(seq, start=1):
        w_q, w_s = tans[:n_q], tans[n_q:]
        speeds = np.linalg.norm(w_q, axis=1)
        if np.any(speeds <= 0):
            raise HypothesisViolationError(
                "image tangent vanished (singular Jacobian along curve)", step=i
            )
        l_i, err_i = simpson_richardson(speeds, h)
        alpha_i = max_angle_of_tangents(np.vstack([w_q[angle_idx], w_s]))

        jac, pts, tans = advance(m, pts, tans, step=i)  # w_q, w_s still view the old tans
        cross = np.einsum("kab,lb->kla", jac[n_q:], w_s)
        norms = np.linalg.norm(cross, axis=2)  # norms[k, l] = ||J(x_k) u_l||
        if np.any(norms.diagonal() <= 0):
            raise HypothesisViolationError("singular Jacobian at a sample point", step=i)
        log_n = np.log(norms)
        u_log = np.log(np.linalg.norm(w_s, axis=1))
        lhs1 = np.abs(log_n.diagonal()[:, None] - log_n)
        base = np.abs(u_log[:, None] - u_log[None, :])
        lhs2 = np.abs(log_n - log_n.diagonal()[None, :])
        # both diagonals are exactly 0, so the lemma-1 maximum is never negative
        lemma1_inc, lemma1_pair = _argmax_pair(lhs1 - base)
        lemma2_inc, lemma2_pair = _argmax_pair(lhs2)

        sum_L += l_i**eps if holder else l_i
        sum_alpha += alpha_i
        quad_err += err_i
        per_step.append(
            StepRecord(
                index=i,
                length=l_i,
                alpha=alpha_i,
                lemma1_increment=lemma1_inc,
                lemma2_increment=lemma2_inc,
                length_err=err_i,
                lemma1_pair=lemma1_pair,
                lemma2_pair=lemma2_pair,
            )
        )

    final_norms = np.linalg.norm(tans[n_q:], axis=1)
    if np.any(final_norms <= 0):
        raise HypothesisViolationError("final tangent vanished", step=len(seq))
    log_norms = np.log(final_norms)
    empirical = float(log_norms.max() - log_norms.min())

    trace = DistortionTrace(
        n=len(seq),
        per_step=per_step,
        sum_L=sum_L,
        sum_alpha=sum_alpha,
        sup_abs_log_ratio=empirical,
        sample_params=t_s,
        sample_logs=log_norms,
        quad_err=quad_err,
    )
    return trace, empirical


def _resolve_verdict(empirical, theo_log_k, provenances, budget_ok, allowance=0.0):
    notes = []
    if not budget_ok:
        notes.append("measured sums exceed the stated budget")
        return UNVERIFIED, notes
    if any(p != "analytic" for p in provenances):
        notes.append("sampled constants: verdict limited to hypothesis-unverified")
        return UNVERIFIED, notes
    if empirical <= theo_log_k + REPORT_TOL + allowance:
        return BOUND_HOLDS, notes
    return BOUND_VIOLATED, notes


def _finish_curve_report(trace, empirical, budget, extras=None):
    c_used = budget.C
    l_used = budget.L if budget.L is not None else trace.sum_L
    l_prov = budget.l_prov if budget.L is not None else "sampled"
    a_used = budget.alpha if budget.alpha is not None else trace.sum_alpha
    a_prov = budget.a_prov if budget.alpha is not None else "sampled"
    theo = c_used * c_used * (a_used + l_used)
    allowance = c_used * c_used * trace.quad_err
    budget_ok = (budget.L is None or trace.sum_L <= budget.L + REPORT_TOL + trace.quad_err) and (
        budget.alpha is None or trace.sum_alpha <= budget.alpha + REPORT_TOL
    )
    verdict, notes = _resolve_verdict(
        empirical, theo, [budget.c_prov, l_prov, a_prov], budget_ok, allowance
    )
    trace.notes.extend(notes)
    resolved = HypothesisBudget(
        C=c_used,
        L=l_used,
        alpha=a_used,
        epsilon=budget.epsilon,
        c_prov=budget.c_prov,
        l_prov=l_prov,
        a_prov=a_prov,
    )
    extras = dict(extras or {})
    extras.setdefault("quadrature_allowance", allowance)
    return BoundReport(
        empirical=empirical,
        theoretical_log_K=theo,
        verdict=verdict,
        budget=resolved,
        trace=trace,
        extras=extras,
    )


def run_curve(seq, gamma0, samples, resolution, budget):
    """Main curve engine: sup |log(‖u_n‖/‖v_n‖)| against C²(α + L)."""
    trace, empirical = _curve_run(seq, gamma0, samples, resolution, budget)
    return _finish_curve_report(trace, empirical, budget)


def run_curve_holder(seq, gamma0, samples, resolution, budget):
    """Hölder (C^{1+ε}) variant: the length budget accumulates L_i^ε and the
    constant C is understood to bound ‖Df‖_ε in place of ‖f‖₂."""
    trace, empirical = _curve_run(seq, gamma0, samples, resolution, budget, holder=True)
    return _finish_curve_report(trace, empirical, budget, extras={"holder": True})


def arc_ratio_curve(seq, gamma0, sub1, sub2, samples, resolution, budget):
    """Arc-length ratio form: L(F_n∘γ0 over sub1) / L(... over sub2) inside the
    sandwich r·K^{∓1} with K = (e^{C²(α+L)})²."""
    gamma0 = _prepare_curve(gamma0, resolution)
    a, b = gamma0.domain
    for sub in (sub1, sub2):
        if abs(sub[1] - sub[0]) < 1e-12:
            raise ValueError(f"degenerate subinterval {sub}")
        if sub[0] < a - 1e-9 or sub[1] > b + 1e-9:
            raise ValueError(f"subinterval {sub} outside curve domain ({a}, {b})")
    base = run_curve(seq, gamma0, samples, resolution, budget)

    # both subcurves' nodes in one batch; plain Simpson on each half
    ts1, h1 = _simpson_nodes(sub1[0], sub1[1], resolution)
    ts2, h2 = _simpson_nodes(sub2[0], sub2[1], resolution)
    nodes = np.concatenate([ts1, ts2])
    pts = np.array([gamma0.pos(t) for t in nodes])
    tans = np.array([gamma0.tan(t) for t in nodes])
    for i, m in enumerate(seq, start=1):
        _, pts, tans = advance(m, pts, tans, step=i)
    speeds = np.linalg.norm(tans, axis=1)
    len1 = _simpson(speeds[: len(ts1)], h1)
    len2 = _simpson(speeds[len(ts1) :], h2)
    ratio = len1 / len2
    r = abs(sub1[1] - sub1[0]) / abs(sub2[1] - sub2[0])
    empirical = abs(math.log(ratio / r))
    theo = 2.0 * base.theoretical_log_K
    verdict = base.verdict
    if verdict != UNVERIFIED:
        verdict, _ = _resolve_verdict(
            empirical,
            theo,
            [base.budget.c_prov, base.budget.l_prov, base.budget.a_prov],
            budget_ok=True,
            allowance=2.0 * base.extras.get("quadrature_allowance", 0.0),
        )
    return BoundReport(
        empirical=empirical,
        theoretical_log_K=theo,
        verdict=verdict,
        budget=base.budget,
        trace=base.trace,
        extras={"ratio": ratio, "r": r, "arc_lengths": (len1, len2)},
    )


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
