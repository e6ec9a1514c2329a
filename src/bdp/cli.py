"""Batch experiment runner.

Configs are INI files with nested sections; see the configs/ directory for
examples.  Exit codes: 0 bound-holds, 1 bound-violated, 2 hypothesis
unverified or violated (including a map that fails on the orbit), 3 config
error, 4 internal error (an unexpected exception; its traceback is printed).
"""

import argparse
import configparser
import json
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, curves, distortion, scenarios
from .distortion import BOUND_HOLDS, BOUND_VIOLATED, UNVERIFIED, HypothesisBudget
from .errors import BdpError, ConfigError
from .maps import MapSequence, polynomial_map


class Engine(NamedTuple):
    function: str  # the engine's name in ``distortion``
    kind: str  # the scenario kind it runs on: "1d" or "curve"
    subintervals: bool  # takes a [subintervals] section


ENGINES = {
    "thm-2.1": Engine("run_1d", "1d", False),
    "thm-2.2": Engine("interval_ratio_1d", "1d", True),
    "main-thm": Engine("run_curve", "curve", False),
    "nbdp": Engine("arc_ratio_curve", "curve", True),
    "holder": Engine("run_curve_holder", "curve", False),
}

# [budget] key -> HypothesisBudget field, provenance field; epsilon and provenance are read apart
BUDGET_FIELDS = (("c", "C", "c_prov"), ("l", "L", "l_prov"), ("alpha", "alpha", "a_prov"))

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_UNVERIFIED = 2
EXIT_CONFIG = 3
EXIT_ERROR = 4


def _fmt(x):
    return None if x is None else format(float(x), ".17g")


@dataclass
class ExperimentConfig:
    engine: str
    samples: int = 200
    resolution: int = 256
    seed: int = 0
    scenario: scenarios.ScenarioSpec = None
    inline: dict = field(default_factory=dict)
    subintervals: tuple = ()
    budget: dict = field(default_factory=dict)  # HypothesisBudget fields from [budget]
    outputs: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)


def _parse_pair(text, section, key):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"[{section}] {key}: expected two numbers, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_config(path):
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    engine = exp.get("engine")
    if engine not in ENGINES:
        raise ConfigError(f"[experiment] engine must be one of {tuple(ENGINES)}, got {engine!r}")
    cfg = ExperimentConfig(
        engine=engine,
        samples=exp.getint("samples", fallback=200),
        resolution=exp.getint("resolution", fallback=256),
        seed=exp.getint("seed", fallback=0),
    )

    if "scenario" in parser:
        if any(s.startswith("map.") for s in parser.sections()):
            raise ConfigError("config may use either [scenario] or inline [map.*] sections, not both")
        sc = parser["scenario"]
        family = sc.get("family")
        if family not in scenarios.SCENARIOS:
            raise ConfigError(
                f"[scenario] family must be one of {sorted(scenarios.SCENARIOS)}, got {family!r}"
            )
        params = {}
        for key, value in sc.items():
            if key in ("family", "n", "seed"):
                continue
            try:
                params[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"[scenario] {key}: not a number: {value!r}") from exc
        cfg.scenario = scenarios.ScenarioSpec(
            family=family,
            n=sc.getint("n", fallback=10),
            seed=sc.getint("seed", fallback=cfg.seed),
            params=params,
        )
    else:
        cfg.inline = _parse_inline(parser)
        if not cfg.inline:
            raise ConfigError("config needs a [scenario] section or inline [map.*] sections")

    if ENGINES[engine].subintervals:
        if "subintervals" not in parser:
            raise ConfigError(f"engine {engine} requires a [subintervals] section")
        subs = parser["subintervals"]
        for key in ("sub1", "sub2"):
            if key not in subs:
                raise ConfigError(f"[subintervals] missing field {key!r}")
        cfg.subintervals = (
            _parse_pair(subs["sub1"], "subintervals", "sub1"),
            _parse_pair(subs["sub2"], "subintervals", "sub2"),
        )

    if "budget" in parser:
        bud = parser["budget"]
        known = [key for key, _, _ in BUDGET_FIELDS] + ["epsilon", "provenance"]
        for key in bud:
            if key not in known:
                raise ConfigError(f"[budget] unknown key {key!r}; expected one of {known}")
        prov = bud.get("provenance", "analytic")
        for key, name, prov_name in BUDGET_FIELDS:
            if key in bud:
                cfg.budget.update({name: bud.getfloat(key), prov_name: prov})
        if "epsilon" in bud:
            cfg.budget["epsilon"] = bud.getfloat("epsilon")
        if prov not in ("analytic", "sampled"):
            raise ConfigError("[budget] provenance must be analytic or sampled")

    if "output" in parser:
        cfg.outputs = dict(parser["output"])

    cfg.echo = {section: dict(parser[section]) for section in parser.sections()}
    return cfg


def _parse_inline(parser):
    """Inline map/curve definitions: [map.N] sections with polynomial
    coefficient tables ("coef e1 ... ed" monomials, ';'-separated), plus an
    [interval] or [curve] section."""
    map_sections = sorted(
        (s for s in parser.sections() if s.startswith("map.")),
        key=lambda s: int(s.split(".", 1)[1]),
    )
    if not map_sections:
        return {}
    maps = []
    for section in map_sections:
        comps = []
        keys = sorted(parser[section], key=lambda k: int(k.replace("comp", "") or 0))
        for key in keys:
            terms = []
            for chunk in parser[section][key].split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                nums = chunk.split()
                try:
                    terms.append((float(nums[0]), tuple(int(e) for e in nums[1:])))
                except (ValueError, IndexError) as exc:
                    raise ConfigError(f"[{section}] {key}: bad monomial {chunk!r}") from exc
            comps.append(terms)
        dims = {len(e) for c in comps for _, e in c}
        if dims and dims != {len(comps)}:
            raise ConfigError(f"[{section}]: exponent length must equal component count")
        maps.append(polynomial_map(comps, name=section))

    inline = {"maps": maps}
    if "interval" in parser:
        iv = parser["interval"]
        for key in ("lo", "hi"):
            if key not in iv:
                raise ConfigError(f"[interval] missing field {key!r}")
        inline["interval"] = (iv.getfloat("lo"), iv.getfloat("hi"))
    elif "curve" in parser:
        cv = parser["curve"]
        kind = cv.get("type")
        if kind == "segment":
            p0 = [float(v) for v in cv.get("p0", "").split()]
            p1 = [float(v) for v in cv.get("p1", "").split()]
            inline["curve"] = curves.segment(p0, p1)
        elif kind == "circle-arc":
            inline["curve"] = curves.circle_arc(
                cv.getfloat("radius", fallback=1.0),
                cv.getfloat("t0", fallback=0.0),
                cv.getfloat("t1", fallback=float(np.pi / 2)),
            )
        else:
            raise ConfigError(f"[curve] type must be segment or circle-arc, got {kind!r}")
    else:
        raise ConfigError("inline maps need an [interval] or [curve] section")
    return inline


def _materialize(cfg):
    """The engine's inputs (seq, domain, budget), checked by the engine's own
    rules, so that ``bdp check`` accepts exactly what ``bdp run`` runs."""
    engine = ENGINES[cfg.engine]
    if engine.kind == "1d" and cfg.resolution < 2:  # read by no 1D engine
        raise ConfigError("[experiment] resolution must be >= 2")
    if cfg.scenario is not None:
        seq, domain, budget = scenarios.build_sequence(cfg.scenario)
        kind = scenarios.SCENARIOS[cfg.scenario.family]["kind"]
    else:
        seq = MapSequence(tuple(cfg.inline["maps"]))
        kind = "1d" if "interval" in cfg.inline else "curve"
        domain = cfg.inline["interval" if kind == "1d" else "curve"]
        budget = HypothesisBudget()
    if kind != engine.kind:
        raise ConfigError(
            f"engine {cfg.engine} needs a {engine.kind} scenario, got a {kind} scenario"
        )
    budget = replace(budget, **cfg.budget)
    if kind == "1d":
        distortion.check_1d(seq, domain, cfg.samples, cfg.subintervals)
    else:
        holder = cfg.engine == "holder"
        sizes = (cfg.samples, cfg.resolution)
        domain = distortion.check_curve(seq, domain, *sizes, budget, cfg.subintervals, holder)
    return seq, domain, budget


def run_experiment(cfg):
    """Execute the configured engine; returns (report dict, step rows, exit code)."""
    seq, domain, budget = _materialize(cfg)
    engine = ENGINES[cfg.engine]
    sizes = (cfg.samples,) if engine.kind == "1d" else (cfg.samples, cfg.resolution)
    # looked up at run time, so a patched engine is the one that runs
    report = getattr(distortion, engine.function)(seq, domain, *cfg.subintervals, *sizes, budget)

    code = {BOUND_HOLDS: EXIT_HOLDS, BOUND_VIOLATED: EXIT_VIOLATED, UNVERIFIED: EXIT_UNVERIFIED}[
        report.verdict
    ]
    return _report_dict(cfg, report), _step_rows(report), code, report


def _report_dict(cfg, report):
    budget = report.budget
    extras = {
        k: (_fmt(v) if isinstance(v, float) else [_fmt(x) for x in v] if isinstance(v, tuple) else v)
        for k, v in report.extras.items()
    }
    return {
        "version": __version__,
        "engine": cfg.engine,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "resolution": cfg.resolution,
        "config": cfg.echo,
        "verdict": report.verdict,
        "empirical_sup_log_ratio": _fmt(report.empirical),
        "theoretical_log_K": _fmt(report.theoretical_log_K),
        "slack": _fmt(report.slack),
        "budget": {
            "C": _fmt(budget.C),
            "L": _fmt(budget.L),
            "alpha": _fmt(budget.alpha),
            "epsilon": _fmt(budget.epsilon),
            "provenance": {"C": budget.c_prov, "L": budget.l_prov, "alpha": budget.a_prov},
        },
        "measured": {
            "n": report.trace.n,
            "sum_L": _fmt(report.trace.sum_L),
            "sum_alpha": _fmt(report.trace.sum_alpha),
            "sup_abs_log_ratio": _fmt(report.trace.sup_abs_log_ratio),
            "quadrature_err": _fmt(report.trace.quad_err),
        },
        "extras": extras,
        "notes": list(report.trace.notes),
    }


def _step_rows(report):
    return [
        [
            rec.index,
            _fmt(rec.length),
            _fmt(rec.alpha),
            _fmt(rec.lemma1_increment),
            _fmt(rec.lemma2_increment),
            _fmt(rec.log_bound),
        ]
        for rec in report.trace.per_step
    ]


def _write_outputs(cfg, report_dict, rows, out_dir, json_only, trace):
    out_dir = Path(out_dir) if out_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / cfg.outputs.get("report", "report.json")
    report_path.write_text(json.dumps(report_dict, indent=2, sort_keys=True) + "\n")
    written = [report_path]
    if not json_only:
        table_path = out_dir / cfg.outputs.get("table", "steps.csv")
        header = "step_index,length_i,alpha_i,lemma1_increment,lemma2_increment,cumulative_log_bound"
        lines = [header] + [",".join(str(c) for c in row) for row in rows]
        table_path.write_text("\n".join(lines) + "\n")
        written.append(table_path)
        if trace.sample_logs is not None:
            plot_path = out_dir / cfg.outputs.get("plot", "logratio.csv")
            ref = trace.sample_logs[0]
            plines = ["parameter,log_ratio"]
            for t, lg in zip(trace.sample_params, trace.sample_logs):
                plines.append(f"{_fmt(t)},{_fmt(lg - ref)}")
            plot_path.write_text("\n".join(plines) + "\n")
            written.append(plot_path)
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config")
    check_p = sub.add_parser("check", help="validate a config without executing")
    check_p.add_argument("config")
    sub.add_parser("list-scenarios", help="list builtin scenario families")

    for p in (run_p, check_p):
        p.add_argument("--output-dir", default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json-only", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(scenarios.SCENARIOS):
            info = scenarios.SCENARIOS[name]
            print(f"{name} [{info['kind']}] params={scenarios.PARAMS[name]}")
            print(f"    {info['description']}")
        return EXIT_HOLDS

    try:
        cfg = parse_config(args.config)
        for attr in ("samples", "resolution", "seed"):
            value = getattr(args, attr)
            if value is not None:
                setattr(cfg, attr, value)
                if attr == "seed" and cfg.scenario is not None:
                    cfg.scenario = replace(cfg.scenario, seed=value)
        if args.command == "check":
            _materialize(cfg)
            print(f"config ok: engine={cfg.engine}")
            return EXIT_HOLDS
        report_dict, rows, code, report = run_experiment(cfg)
        written = _write_outputs(
            cfg, report_dict, rows, args.output_dir, args.json_only, report.trace
        )
    except (ConfigError, ValueError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BdpError as exc:
        step = getattr(exc, "step", None)
        print(f"hypothesis failure{f' at step {step}' if step else ''}: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except Exception:  # a crash must never read as a verdict
        traceback.print_exc()
        return EXIT_ERROR

    print(f"verdict: {report_dict['verdict']}")
    for path in written:
        print(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
