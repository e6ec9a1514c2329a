"""Batch experiment runner.

Configs are INI files with nested sections; see the configs/ directory for
examples.  Exit codes: 0 bound-holds, 1 bound-violated, 2 hypothesis
unverified or violated (including a map that fails on the orbit), 3 config or
usage error, 4 internal error (an unexpected exception; its traceback is
printed).
"""

import argparse
import configparser
import json
import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

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

#: [experiment] keys besides engine, with their defaults; the flags of the same names override them
EXPERIMENT = {"samples": 200, "resolution": 256, "seed": 0}
#: [output] keys, with the default names of the files a run writes
OUTPUTS = {"report": "report.json", "table": "steps.csv", "plot": "logratio.csv"}

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_UNVERIFIED = 2
EXIT_CONFIG = 3
EXIT_ERROR = 4
EXIT_CODES = {BOUND_HOLDS: EXIT_HOLDS, BOUND_VIOLATED: EXIT_VIOLATED, UNVERIFIED: EXIT_UNVERIFIED}


def _fmt(x):
    return None if x is None else format(float(x), ".17g")


@dataclass
class ExperimentConfig:
    """A config read by ``parse_config``: the engine, the fields the report
    echoes, and the engine's checked arguments."""

    engine: str
    samples: int
    resolution: int
    seed: int
    args: tuple  # (seq, domain, *subintervals, *sizes, budget)
    outputs: dict
    echo: dict


def _read(parser, name, required=(), optional=()):
    """Section ``name`` as a dict: every ``required`` key and any of the
    ``optional`` ones, and no other key.  A section with no required key may
    be left out; it then reads as {}."""
    if name not in parser:
        if required:
            raise ConfigError(f"missing [{name}] section")
        return {}
    section = dict(parser[name])
    known = [*required, *optional]
    for key in section:
        if key not in known:
            raise ConfigError(f"[{name}] unknown key {key!r}; expected one of {known}")
    for key in required:
        if key not in section:
            raise ConfigError(f"[{name}] missing field {key!r}")
    return section


def _floats(text, where, count=None, integral=False):
    """The numbers of the value ``text`` of ``where`` ("[section] key"),
    separated by spaces or commas: each finite, and an int if ``integral``
    (200 or 200.0, not 2.5); ``count`` of them if given."""
    tokens = text.replace(",", " ").split()
    try:
        values = tuple(float(v) for v in tokens)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if count is not None and len(values) != count:
        raise ConfigError(f"{where}: expected {count} number{'s' * (count != 1)}, got {text!r}")
    if not all(math.isfinite(v) and (v.is_integer() or not integral) for v in values):
        raise ConfigError(f"{where}: {text!r} is not {'integral' if integral else 'finite'}")
    if integral:  # an integer literal is read exactly, beyond a float's 53 bits
        return tuple(int(t) if t.lstrip("+-").isdigit() else int(v) for t, v in zip(tokens, values))
    return values


def _number(table, key, section, integral=False):
    """The one number ``table[key]`` of [``section``], read by ``_floats``."""
    return _floats(table[key], f"[{section}] {key}", 1, integral)[0]


def parse_config(path, samples=None, resolution=None, seed=None):
    """Read a config in one pass into an ``ExperimentConfig`` whose engine
    arguments have passed the engine's own input checks, so that ``bdp
    check`` accepts exactly what ``bdp run`` runs.  ``samples``,
    ``resolution`` and ``seed``, where given, override the config; the seed
    of a [scenario] is ``seed``, else its own, else the [experiment] one."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")

    exp = _read(parser, "experiment", ("engine",), EXPERIMENT)
    name = exp.pop("engine")
    if name not in ENGINES:
        raise ConfigError(f"[experiment] engine must be one of {tuple(ENGINES)}, got {name!r}")
    engine = ENGINES[name]
    settings = {**EXPERIMENT, **{k: _number(exp, k, "experiment", integral=True) for k in exp}}
    flags = {"samples": samples, "resolution": resolution, "seed": seed}
    settings.update({key: value for key, value in flags.items() if value is not None})
    if engine.kind == "1d" and settings["resolution"] < 2:  # read by no 1D engine
        raise ConfigError("[experiment] resolution must be >= 2")

    maps = [s for s in parser.sections() if s.startswith("map.")]
    if "scenario" in parser:
        source, sections = "a [scenario]", ["scenario"]
    else:
        source, sections = "inline maps", maps + ["interval" if engine.kind == "1d" else "curve"]
    sections += ["experiment", "budget", "output"]
    if engine.subintervals:
        sections.append("subintervals")
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"engine {name} with {source} reads no [{section}], only {sections}")

    if "scenario" in parser:
        family = parser["scenario"].get("family")
        if family not in scenarios.SCENARIOS:
            raise ConfigError(
                f"[scenario] family must be one of {sorted(scenarios.SCENARIOS)}, got {family!r}"
            )
        if (kind := scenarios.SCENARIOS[family]["kind"]) != engine.kind:  # before the build
            raise ConfigError(f"engine {name} needs a {engine.kind} scenario, got a {kind} scenario")
        sc = _read(parser, "scenario", ("family",), ("n", "seed", *scenarios.PARAMS[family]))
        del sc["family"]
        params = {key: _number(sc, key, "scenario", integral=key in ("n", "seed")) for key in sc}
        n = params.pop("n", scenarios.ScenarioSpec.n)
        own_seed = params.pop("seed", settings["seed"])
        settings["seed"] = own_seed if seed is None else seed  # the report gives the seed used
        spec = scenarios.ScenarioSpec(family, n, settings["seed"], params)
        seq, domain, budget = scenarios.build_sequence(spec)
    else:
        seq, domain = _inline(parser, maps, engine.kind)
        budget = HypothesisBudget()

    # every engine reads c and l, the curve engines alpha too, and only holder reads epsilon
    constants = ["c", "l", "alpha"] if engine.kind == "curve" else ["c", "l"]
    bud = _read(parser, "budget", (), constants + ["epsilon"] * (name == "holder") + ["provenance"])
    if "provenance" in bud and not any(key in bud for key in constants):
        raise ConfigError("[budget] provenance applies to c, l or alpha, and none is given")
    prov = bud.pop("provenance", "analytic")
    changes = {"epsilon": _number(bud, "epsilon", "budget")} if "epsilon" in bud else {}
    for constant, prov_field in distortion.PROVENANCE_FIELDS.items():
        if constant.lower() in bud:
            changes.update({constant: _number(bud, constant.lower(), "budget"), prov_field: prov})
    budget = replace(budget, **changes)

    subs = ()
    if engine.subintervals:
        table = _read(parser, "subintervals", ("sub1", "sub2"))
        subs = tuple(_floats(table[key], f"[subintervals] {key}", 2) for key in ("sub1", "sub2"))
    if engine.kind == "1d":
        distortion.check_1d(seq, domain, settings["samples"], subs)
        sizes = (settings["samples"],)
    else:
        sizes = (settings["samples"], settings["resolution"])
        domain = distortion.check_curve(seq, domain, *sizes, budget, subs, name == "holder")

    outputs = {**OUTPUTS, **_read(parser, "output", (), OUTPUTS)}
    for key, value in outputs.items():  # each a file of its own in the output directory
        if value in ("", ".", "..") or Path(value).name != value:
            raise ConfigError(f"[output] {key} must be a plain file name, got {value!r}")
    if len(set(outputs.values())) < len(outputs):
        raise ConfigError(f"[output] names must differ, got {outputs}")

    return ExperimentConfig(
        engine=name,
        **settings,
        args=(seq, domain, *subs, *sizes, budget),
        outputs=outputs,
        echo={section: dict(parser[section]) for section in parser.sections()},
    )


def _inline(parser, map_sections, kind):
    """(seq, domain) of the inline [map.N] sections, in the order of their
    distinct integers N, whose keys comp0 ... comp{d-1} are polynomial
    coefficient tables ("coef e1 ... ed" monomials, ';'-separated), and an
    [interval] (1D engines) or [curve] section."""
    if not map_sections:
        raise ConfigError("config needs a [scenario] section or inline [map.*] sections")
    numbered = {}
    for section in map_sections:
        try:
            number = int(section.split(".", 1)[1])
        except ValueError:
            raise ConfigError(f"[{section}]: a map section is [map.N], N an integer") from None
        if numbered.setdefault(number, section) != section:
            raise ConfigError(f"[{section}] and [{numbered[number]}] are both map {number}")
    maps = []
    for _, section in sorted(numbered.items()):
        keys = [f"comp{i}" for i in range(len(parser[section]))]
        table = _read(parser, section, keys)
        comps = []
        for key in keys:
            where, terms = f"[{section}] {key}", []
            for chunk in filter(str.strip, table[key].split(";")):
                coef, *expo = chunk.split()
                expo = _floats(" ".join(expo), where, integral=True)
                terms.append((_floats(coef, where, 1)[0], expo))
            if not terms:  # not the zero polynomial: an empty value is a slip
                raise ConfigError(f"{where}: no monomials")
            comps.append(terms)
        maps.append(polynomial_map(comps, name=section))
    seq = MapSequence(tuple(maps))

    if kind == "1d":
        iv = _read(parser, "interval", ("lo", "hi"))
        return seq, (_number(iv, "lo", "interval"), _number(iv, "hi", "interval"))
    shape = parser.get("curve", "type", fallback=None)
    if shape == "segment":
        cv = _read(parser, "curve", ("type", "p0", "p1"))
        return seq, curves.segment(*(_floats(cv[key], f"[curve] {key}") for key in ("p0", "p1")))
    if shape == "circle-arc":
        cv = _read(parser, "curve", ("type",), ("radius", "t0", "t1"))
        del cv["type"]
        return seq, curves.circle_arc(**{key: _number(cv, key, "curve") for key in cv})
    raise ConfigError(f"[curve] type must be segment or circle-arc, got {shape!r}")


def run_experiment(cfg):
    """Execute the configured engine; returns its ``BoundReport``."""
    # looked up at run time, so a patched engine is the one that runs
    return getattr(distortion, ENGINES[cfg.engine].function)(*cfg.args)


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
            "provenance": {c: getattr(budget, p) for c, p in distortion.PROVENANCE_FIELDS.items()},
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


def _write_outputs(cfg, report, out_dir, json_only):
    """Write the report JSON and, unless ``json_only``, the step table and the
    log-ratio plot data into the directory ``out_dir``; returns the paths written."""
    report_path = out_dir / cfg.outputs["report"]
    report_path.write_text(json.dumps(_report_dict(cfg, report), indent=2, sort_keys=True) + "\n")
    written = [report_path]
    trace = report.trace
    if not json_only:
        table_path = out_dir / cfg.outputs["table"]
        header = "step_index,length_i,alpha_i,lemma1_increment,lemma2_increment,cumulative_log_bound"
        fields = ("length", "alpha", "lemma1_increment", "lemma2_increment", "log_bound")
        rows = [[rec.index] + [_fmt(getattr(rec, f)) for f in fields] for rec in trace.per_step]
        lines = [header] + [",".join(str(c) for c in row) for row in rows]
        table_path.write_text("\n".join(lines) + "\n")
        written.append(table_path)
        if trace.sample_logs is not None:
            plot_path = out_dir / cfg.outputs["plot"]
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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the "unverified" code
        return EXIT_CONFIG if exc.code else EXIT_HOLDS

    if args.command == "list-scenarios":
        for name in sorted(scenarios.SCENARIOS):
            info = scenarios.SCENARIOS[name]
            print(f"{name} [{info['kind']}] params={scenarios.PARAMS[name]}")
            print(f"    {info['description']}")
        return EXIT_HOLDS

    try:
        cfg = parse_config(args.config, args.samples, args.resolution, args.seed)
        if args.command == "check":
            print(f"config ok: engine={cfg.engine}")
            return EXIT_HOLDS
        out_dir = Path(args.output_dir) if args.output_dir else Path.cwd()
        try:  # before the engine runs, so that an unusable directory costs no run
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--output-dir {args.output_dir}: {exc.strerror or exc}") from exc
        report = run_experiment(cfg)
        written = _write_outputs(cfg, report, out_dir, args.json_only)
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

    print(f"verdict: {report.verdict}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_CODES[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
