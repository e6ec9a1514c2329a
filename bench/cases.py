"""Workload generators, case execution and the correctness oracle.

Every case is built from ``(seed, cycle, slot)``: the seed picks the values
(map coefficients, angles, scenario seeds, split points) and the slot fixes
the sizes (n steps, S samples, resolution R), so the work per case does not
depend on the seed.  Each cycle draws fresh values, so no two timed cases see
identical inputs and a cache keyed on inputs cannot serve a repeat.

A case carries an ``Expect``: the verdicts and exit codes its construction
predicts.  ``judge`` compares an ``Outcome`` against it.
"""

import gc
import hashlib
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

HOLDS = "bound-holds"
VIOLATED = "bound-violated"
UNVERIFIED = "hypothesis-unverified"

SHEAR = "planar-contraction-shear"


@dataclass(frozen=True)
class Expect:
    """What a case's construction predicts.

    ``verdicts`` and ``run_codes`` are the allowed outcomes; ``check_codes``
    the allowed ``bdp check`` exit codes of a CLI case that runs ``bdp check``
    before ``bdp run`` (empty: it does not).  ``lemmas`` asks for
    every ``lemma_step_checks`` step to pass.  ``defect`` names a known
    defect the case exposes.
    """

    verdicts: frozenset
    run_codes: frozenset = frozenset()
    check_codes: frozenset = frozenset()
    lemmas: bool = False
    defect: str = ""


@dataclass
class Case:
    id: str
    slot: str
    steps: int
    samples: int
    expect: Expect
    api: dict = None
    config: str = None
    path: Path = None


@dataclass
class Outcome:
    seconds: float = 0.0
    scaled: float = math.nan  # seconds at the reference speed (run.scaled_execute)
    error: str = ""
    verdict: str = None
    run_code: int = None
    check_code: int = None
    digest: str = ""
    empirical: float = math.nan
    log_k: float = math.nan
    allowance: float = 0.0
    lemmas_passed: bool = None
    rows: dict = field(default_factory=dict)
    bytes_written: int = 0


# ---------------------------------------------------------------------------
# workloads


def _rng(seed, cycle, slot):
    return np.random.default_rng([seed, cycle, slot])


def _fmt(x):
    return format(float(x), ".17g")


def _curve_pairwise(seed, cycle):
    """Library runs on seeded contraction+shear sequences, n=100, R=256.

    Five slots whose costs are about 20% apart (0.5 s to 1.2 s here), so with
    whole cycles the median falls in the middle of the third-costliest slot
    and p70 in the middle of the fourth, never between two slots.
    """
    slots = [
        ("arc_ratio_curve", 100),
        ("run_curve", 140),
        ("run_curve_holder", 150),
        ("arc_ratio_curve", 160),
        ("run_curve", 200),
    ]
    cases = []
    for k, (engine, samples) in enumerate(slots):
        rng = _rng(seed, cycle, k)
        api = {
            "engine": engine,
            "scenario_seed": int(rng.integers(0, 2**31)),
            "samples": samples,
            "resolution": 256,
        }
        if engine == "run_curve_holder":
            api["epsilon"] = float(rng.choice([0.3, 0.5, 0.7]))
        if engine == "arc_ratio_curve":
            api["split"] = float(rng.uniform(0.3, 0.7))
        cases.append(
            Case(
                id=f"c{cycle}-{engine}-{samples}",
                slot=f"{engine}-{samples}",
                steps=100,
                samples=samples,
                expect=Expect(frozenset({HOLDS}), lemmas=True),
                api=api,
            )
        )
    return cases


def _poly_terms(coefs, exps):
    return "; ".join(f"{_fmt(c)} {' '.join(str(e) for e in ex)}" for c, ex in zip(coefs, exps))


def _planar_poly_config(rng, n, samples, resolution, budget):
    """Inline 2D polynomial contractions A·x + c + quadratic terms."""
    exps = [(1, 0), (0, 1), (0, 0), (2, 0), (1, 1), (0, 2)]
    lines = [
        "[experiment]",
        "engine = main-thm",
        f"samples = {samples}",
        f"resolution = {resolution}",
        "",
    ]
    for j in range(1, n + 1):
        s = rng.uniform(0.5, 0.8)
        th = rng.uniform(-0.5, 0.5)
        mat = s * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        off = rng.uniform(-0.1, 0.1, size=2)
        quad = rng.uniform(-0.05, 0.05, size=(2, 3))
        lines.append(f"[map.{j}]")
        for r in range(2):
            coefs = [mat[r, 0], mat[r, 1], off[r], *quad[r]]
            lines.append(f"comp{r} = {_poly_terms(coefs, exps)}")
        lines.append("")
    p0 = rng.uniform(-0.5, -0.1, size=2)
    p1 = rng.uniform(0.1, 0.5, size=2)
    lines += ["[curve]", "type = segment", f"p0 = {_fmt(p0[0])} {_fmt(p0[1])}", f"p1 = {_fmt(p1[0])} {_fmt(p1[1])}", ""]
    if budget:
        lines += ["[budget]", f"c = {budget}", "provenance = sampled", ""]
    return "\n".join(lines)


def _line_poly_config(rng, n, samples):
    """Inline 1D contractions a·x + b·x² + c·x³ on [0, 1], no [budget]."""
    lines = ["[experiment]", "engine = thm-2.1", f"samples = {samples}", ""]
    for j in range(1, n + 1):
        a = rng.uniform(0.3, 0.5)
        b = rng.uniform(0.0, 0.1)
        c = rng.uniform(0.0, 0.05)
        lines += [f"[map.{j}]", f"comp0 = {_poly_terms([a, b, c], [(1,), (2,), (3,)])}", ""]
    lines += ["[interval]", "lo = 0", "hi = 1", ""]
    return "\n".join(lines)


def _scenario_config(engine, family, n, samples, resolution=None, scenario=None, extra=None):
    lines = ["[experiment]", f"engine = {engine}", f"samples = {samples}"]
    if resolution is not None:
        lines.append(f"resolution = {resolution}")
    lines += ["", "[scenario]", f"family = {family}", f"n = {n}"]
    for key, value in (scenario or {}).items():
        lines.append(f"{key} = {value}")
    lines.append("")
    for section, values in (extra or {}).items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def _unverified(check_codes=frozenset()):
    return Expect(frozenset({UNVERIFIED}), frozenset({2}), check_codes)


def _pointwise_maps(seed, cycle):
    """CLI runs whose maps lack batch callbacks or whose constants are sampled.

    Four inline-polynomial slots with costs about 30% apart, then the
    resolution-9 seminorm case, which costs several times more.  The median
    falls in the middle of the third slot and p70 in the middle of the fourth.
    A grid case costs over 2 s here, so a run cannot hold the twenty of them
    that would put p70 steadily inside their cluster.
    """
    rng = [_rng(seed, cycle, k) for k in range(5)]
    tracemap = _scenario_config(
        "main-thm",
        "fibonacci-trace-map",
        6,
        100,
        128,
        {
            "seminorm_resolution": 9,
            "box_half_width": _fmt(rng[4].uniform(1.8, 2.2)),
            "segment_half_length": _fmt(rng[4].uniform(0.03, 0.06)),
        },
    )
    return [
        Case(f"c{cycle}-poly1d-24", "poly1d-24", 24, 120, _unverified(),
             config=_line_poly_config(rng[0], 24, 120)),
        Case(f"c{cycle}-poly2d-10", "poly2d-10", 10, 120, _unverified(),
             config=_planar_poly_config(rng[1], 10, 120, 96, budget="1.0")),
        Case(f"c{cycle}-poly1d-45", "poly1d-45", 45, 120, _unverified(),
             config=_line_poly_config(rng[2], 45, 120)),
        Case(f"c{cycle}-poly2d-18", "poly2d-18", 18, 120, _unverified(),
             config=_planar_poly_config(rng[3], 18, 120, 96, budget="1.0")),
        Case(f"c{cycle}-tracemap9", "tracemap9", 6, 100, _unverified(), config=tracemap),
    ]


def _config_sweep(seed, cycle):
    """Small `bdp check` + `bdp run` pairs at the sizes of the shipped configs.

    Fifteen slots cover all five engines and exit codes 0-3.  The last two are
    the known defects: both should exit 2 or 3, but at the seed commit the
    exception escapes `cli.main`, so they count as failed cases.
    """
    r = [_rng(seed, cycle, k) for k in range(15)]
    ok = frozenset({0})
    holds = Expect(frozenset({HOLDS}), frozenset({0}), ok)
    config_error = Expect(frozenset({None}), frozenset({3}), frozenset({3}))
    quad, split = _quadratic_params, _subintervals
    rot_len = r[4].uniform(0.5, 2.0)
    quarter = 1.5707963  # just inside the natural domain of the quarter circle
    qa, qb = r[10].uniform(0.4, 0.6), r[10].uniform(0.05, 0.15)
    slots = [
        ("quad21", holds, 100, 1000, _scenario_config(
            "thm-2.1", "1d-quadratic-contraction", 100, 1000, scenario=quad(r[0]))),
        ("sturm21", holds, 100, 1000, _scenario_config(
            "thm-2.1", "sturmian-two-maps", 100, 1000,
            scenario={"slope": _fmt(r[1].uniform(0.2, 0.8)), "intercept": _fmt(r[1].uniform(0, 0.9))})),
        ("quad22", holds, 100, 1000, _scenario_config(
            "thm-2.2", "1d-quadratic-contraction", 100, 1000, scenario=quad(r[2]),
            extra={"subintervals": split(r[2], 1.0)})),
        ("rot-main", holds, 5, 128, _scenario_config(
            "main-thm", "planar-rotations", 5, 128, 128,
            scenario={"angle": _fmt(r[3].uniform(-0.5, 0.5))})),
        ("rot-nbdp", holds, 5, 128, _scenario_config(
            "nbdp", "planar-rotations", 5, 128, 128,
            scenario={"angle": _fmt(r[4].uniform(-0.5, 0.5)), "length": _fmt(rot_len)},
            extra={"subintervals": split(r[4], rot_len)})),
        ("shear-main", holds, 15, 150, _scenario_config(
            "main-thm", SHEAR, 15, 150, 256, scenario={"seed": int(r[5].integers(0, 2**31))})),
        ("shear-nbdp", holds, 20, 150, _scenario_config(
            "nbdp", SHEAR, 20, 150, 256, scenario={"seed": int(r[6].integers(0, 2**31))},
            extra={"subintervals": split(r[6], quarter)})),
        ("shear-holder", holds, 10, 150, _scenario_config(
            "holder", SHEAR, 10, 150, 256,
            scenario={"seed": int(r[7].integers(0, 2**31)), "epsilon": r[7].choice([0.3, 0.5, 0.7])})),
        ("tracemap5", _unverified(ok), 6, 100, _scenario_config(
            "main-thm", "fibonacci-trace-map", 6, 100, 128,
            scenario={"seminorm_resolution": 5, "box_half_width": _fmt(r[8].uniform(1.8, 2.2))})),
        ("violated", Expect(frozenset({VIOLATED}), frozenset({1}), ok), 10, 500, _scenario_config(
            "thm-2.1", "1d-quadratic-contraction", 10, 500, scenario=quad(r[9]),
            extra={"budget": {"c": "0.001", "l": "4.0", "provenance": "analytic"}})),
        ("sampled-budget", _unverified(ok), 50, 500, _scenario_config(
            "thm-2.1", "1d-quadratic-contraction", 50, 500,
            scenario={"a": _fmt(qa), "b": _fmt(qb)},
            extra={"budget": {"c": _fmt(2 * qb / qa), "provenance": "sampled"}})),
        ("missing-subintervals", config_error, 10, 100, _scenario_config(
            "nbdp", SHEAR, 10, 100, 128, scenario={"seed": int(r[11].integers(0, 2**31))})),
        ("wrong-kind", config_error, 5, 100, _scenario_config(
            "thm-2.1", "planar-rotations", 5, 100,
            scenario={"angle": _fmt(r[12].uniform(-0.5, 0.5))})),
        ("defect-no-budget", _defect("inline curve without [budget]"), 4, 50,
         _planar_poly_config(r[13], 4, 50, 64, budget=None)),
        ("defect-overflow", _defect("overflowing inline 1D map"), 6, 50, _overflow_config(r[14], 6, 50)),
    ]
    return [
        Case(f"c{cycle}-{slot}", slot, n, s, expect, config=text)
        for slot, expect, n, s, text in slots
    ]


def _quadratic_params(rng):
    """a·x + b·x² with a + 2b < 1, a contraction of [0, 1]."""
    return {"a": _fmt(rng.uniform(0.4, 0.6)), "b": _fmt(rng.uniform(0.05, 0.15))}


def _subintervals(rng, length):
    mid = _fmt(rng.uniform(0.3, 0.7) * length)
    return {"sub1": f"0 {mid}", "sub2": f"{mid} {_fmt(length)}"}


def _defect(what):
    # ROADMAP open item 4: should exit 2 or 3, never 0 or 1; `bdp check`
    # may accept the config (0) or reject it (3).
    return Expect(
        frozenset({None, UNVERIFIED}), frozenset({2, 3}), frozenset({0, 3}), defect=what
    )


def _overflow_config(rng, n, samples):
    """Inline maps c·x⁵ on an interval above 1: the orbit overflows in a few steps."""
    lo = rng.uniform(1.0, 1.5)
    lines = ["[experiment]", "engine = thm-2.1", f"samples = {samples}", ""]
    for j in range(1, n + 1):
        lines += [f"[map.{j}]", f"comp0 = {_fmt(rng.uniform(5.0, 20.0))} 5", ""]
    lines += ["[interval]", f"lo = {_fmt(lo)}", f"hi = {_fmt(lo + 0.5)}", ""]
    return "\n".join(lines)


WORKLOADS = {
    "curve-pairwise": _curve_pairwise,
    "pointwise-maps": _pointwise_maps,
    "config-sweep": _config_sweep,
}


def make_cycle(workload, seed, cycle, tmp_dir):
    """The cases of one cycle, with CLI configs written under ``tmp_dir``."""
    cases = WORKLOADS[workload](seed, cycle)
    for case in cases:
        if case.config is not None:
            case.path = Path(tmp_dir) / f"{case.id}.cfg"
            case.path.write_text(case.config)
    return cases


# ---------------------------------------------------------------------------
# execution


def execute(case, bdp, out_dir):
    """Run one case and time it from input to verdict (CLI: to written files)."""
    out = Outcome()
    if case.config is not None:
        for f in out_dir.iterdir():
            f.unlink()
    sink = StringIO()
    gc.collect()  # start each case from the same collector state
    t0 = perf_counter()
    try:
        if case.api is not None:
            result = _run_api(case, bdp)
        else:
            with redirect_stdout(sink), redirect_stderr(sink):
                if case.expect.check_codes:
                    out.check_code = bdp.cli.main(["check", str(case.path)])
                out.run_code = bdp.cli.main(["run", str(case.path), "--output-dir", str(out_dir)])
    except Exception as exc:  # a crash is a failed case, never a verdict
        out.seconds = perf_counter() - t0
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.seconds = perf_counter() - t0
    if case.api is not None:
        _read_api(out, *result)
    else:
        _read_cli(out, out_dir)
    return out


def _run_api(case, bdp):
    distortion, scenarios = bdp.distortion, bdp.scenarios
    a = case.api
    params = {"epsilon": a["epsilon"]} if "epsilon" in a else {}
    spec = scenarios.ScenarioSpec(SHEAR, n=case.steps, seed=a["scenario_seed"], params=params)
    seq, gamma0, budget = scenarios.build_sequence(spec)
    if a["engine"] == "arc_ratio_curve":
        lo, hi = gamma0.domain
        mid = lo + a["split"] * (hi - lo)
        report = distortion.arc_ratio_curve(
            seq, gamma0, (lo, mid), (mid, hi), a["samples"], a["resolution"], budget
        )
    else:
        engine = getattr(distortion, a["engine"])
        report = engine(seq, gamma0, a["samples"], a["resolution"], budget)
    checks = distortion.lemma_step_checks(report.trace, budget.C)
    return report, checks


def _read_api(out, report, checks):
    out.verdict = report.verdict
    out.empirical = report.empirical
    out.log_k = report.theoretical_log_K
    c = report.budget.C
    # the arc-ratio verdict allows twice the base run's quadrature allowance
    out.allowance = report.extras.get("quadrature_allowance", 2.0 * c * c * report.trace.quad_err)
    out.lemmas_passed = all(ch.passed for ch in checks)
    trace = report.trace
    canon = {
        "verdict": report.verdict,
        "empirical": _fmt(report.empirical),
        "log_k": _fmt(report.theoretical_log_K),
        "extras": {k: [_fmt(x) for x in np.atleast_1d(v)] for k, v in sorted(report.extras.items())
                   if isinstance(v, (float, tuple))},
        "steps": [[_fmt(x) for x in (s.length, s.alpha, s.lemma1_increment, s.lemma2_increment)]
                  for s in trace.per_step],
        "sample_logs": hashlib.sha256(np.ascontiguousarray(trace.sample_logs).tobytes()).hexdigest(),
        "checks": [[ch.passed, _fmt(ch.lemma1_slack), _fmt(ch.lemma2_slack), list(ch.worst_pair)]
                   for ch in checks],
    }
    out.digest = _sha(json.dumps(canon, sort_keys=True).encode())


def _read_cli(out, out_dir):
    files = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    out.bytes_written = sum(len(b) for b in files.values())
    out.rows = {name: data.count(b"\n") - 1 for name, data in files.items() if name.endswith(".csv")}
    digest_parts = [f"check={out.check_code} run={out.run_code}".encode()]
    if "report.json" in files:
        rep = json.loads(files["report.json"])
        out.verdict = rep["verdict"]
        out.empirical = float(rep["empirical_sup_log_ratio"])
        out.log_k = float(rep["theoretical_log_K"])
        c = float(rep["budget"]["C"] or 0.0)
        quad_err = float(rep["measured"]["quadrature_err"])
        default = 2.0 * c * c * quad_err if rep["engine"] == "nbdp" else 0.0
        out.allowance = float(rep["extras"].get("quadrature_allowance", default))
        digest_parts.append(files["report.json"])
    out.digest = _sha(b"\n".join(digest_parts))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# oracle

#: the package's reporting tolerance in log space (bdp.distortion.REPORT_TOL),
#: restated here so the oracle does not take it from the code under test
REPORT_TOL = 1e-9


def judge(case, out):
    """Problems with ``out`` against the case's prediction; empty means pass."""
    exp = case.expect
    if out.error:
        return [f"raised {out.error}"]
    problems = []
    if out.verdict not in exp.verdicts:
        problems.append(f"verdict {out.verdict!r}, predicted {sorted(map(str, exp.verdicts))}")
    if case.config is not None:
        if out.run_code not in exp.run_codes:
            problems.append(f"run exit {out.run_code}, predicted {sorted(exp.run_codes)}")
        if exp.check_codes and out.check_code not in exp.check_codes:
            problems.append(f"check exit {out.check_code}, predicted {sorted(exp.check_codes)}")
        if out.check_code == 3 and out.run_code != 3:
            problems.append("check rejected the config but run accepted it")
        if out.verdict is not None:
            want = {"steps.csv": case.steps, "logratio.csv": case.samples}
            if out.rows != want:
                problems.append(f"csv rows {out.rows}, expected {want}")
    limit = out.log_k + REPORT_TOL + out.allowance
    if out.verdict == HOLDS and not out.empirical <= limit:
        problems.append(f"bound-holds but empirical {out.empirical!r} > {limit!r}")
    if out.verdict == VIOLATED and not out.empirical > out.log_k + REPORT_TOL:
        problems.append(f"bound-violated but empirical {out.empirical!r} <= log K {out.log_k!r}")
    if exp.lemmas and out.lemmas_passed is not True:
        problems.append("a lemma_step_checks step failed")
    return problems
