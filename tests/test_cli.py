"""Command-line front end: configs, exit codes, report files, determinism."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bdp import distortion, scenarios
from bdp.cli import (
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_HOLDS,
    EXIT_UNVERIFIED,
    EXIT_VIOLATED,
    main,
    parse_config,
)
from bdp.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# check / list-scenarios


def test_check_valid_config(capsys):
    code = run_cli("check", str(CONFIGS / "rotations_main.cfg"))
    assert code == EXIT_HOLDS
    assert "config ok" in capsys.readouterr().out


def test_check_missing_file():
    assert run_cli("check", "no/such/file.cfg") == EXIT_CONFIG


def test_check_missing_subintervals():
    # ratio engines need a [subintervals] section
    code = run_cli("check", str(CONFIGS / "missing_subintervals.cfg"))
    assert code == EXIT_CONFIG


def test_check_rejects_bad_engine(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nengine = warp-drive\n[scenario]\nfamily = planar-rotations\n")
    assert run_cli("check", str(bad)) == EXIT_CONFIG


def test_a_scenario_of_the_wrong_kind_fails_before_it_is_built(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "wrong_kind.cfg"
    cfg.write_text("[experiment]\nengine = thm-2.1\n[scenario]\nfamily = fibonacci-trace-map\n")

    def must_not_build(spec):
        raise AssertionError("the scenario was built before its kind was checked")

    monkeypatch.setattr(scenarios, "build_sequence", must_not_build)
    assert run_cli("check", str(cfg)) == EXIT_CONFIG
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_CONFIG
    assert "engine thm-2.1 needs a 1d scenario, got a curve scenario" in capsys.readouterr().err


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == EXIT_HOLDS
    out = capsys.readouterr().out
    for family in (
        "1d-quadratic-contraction",
        "planar-rotations",
        "planar-contraction-shear",
        "sturmian-two-maps",
        "fibonacci-trace-map",
    ):
        assert family in out


# ---------------------------------------------------------------------------
# run: the four exit codes


def test_run_bound_holds(tmp_path, capsys):
    code = run_cli("run", str(CONFIGS / "rotations_main.cfg"), "--output-dir", str(tmp_path))
    assert code == EXIT_HOLDS
    assert "verdict: bound-holds" in capsys.readouterr().out
    report = json.loads((tmp_path / "rotations_report.json").read_text())
    assert report["verdict"] == "bound-holds"


def test_run_bound_violated(tmp_path):
    code = run_cli("run", str(CONFIGS / "violated_budget.cfg"), "--output-dir", str(tmp_path))
    assert code == EXIT_VIOLATED


def test_run_unverified(tmp_path):
    code = run_cli("run", str(CONFIGS / "tracemap.cfg"), "--output-dir", str(tmp_path))
    assert code == EXIT_UNVERIFIED


def test_run_config_error(tmp_path):
    code = run_cli("run", str(CONFIGS / "missing_subintervals.cfg"), "--output-dir", str(tmp_path))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_every_shipped_config_exits_as_its_expect_line_states(tmp_path, name):
    text = (CONFIGS / name).read_text()
    expect = re.search(r"^# expect: check=(\d) run=(\d)$", text, re.MULTILINE)
    assert expect, f"{name} has no '# expect: check=N run=N' line"
    path = str(CONFIGS / name)
    codes = (run_cli("check", path), run_cli("run", path, "--output-dir", str(tmp_path)))
    assert codes == tuple(map(int, expect.groups()))


# ---------------------------------------------------------------------------
# run: failures are never read as verdicts

INLINE_CURVE_NO_BUDGET = (
    "[experiment]\nengine = main-thm\nsamples = 20\nresolution = 16\n"
    "[map.0]\ncomp0 = 0.5 1 0\ncomp1 = 0.5 0 1\n"
    "[curve]\ntype = segment\np0 = 0 0\np1 = 1 0\n"
)


def test_inline_curve_without_budget_is_a_config_error(tmp_path, monkeypatch):
    cfg = tmp_path / "nobudget.cfg"
    cfg.write_text(INLINE_CURVE_NO_BUDGET)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran before the missing budget was reported")

    monkeypatch.setattr(distortion, "run_curve", must_not_run)
    assert run_cli("check", str(cfg)) == EXIT_CONFIG
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_CONFIG


def test_overflowing_inline_map_is_unverified(tmp_path):
    # c·x⁵ on [1.2, 1.7]: the orbit overflows within the six steps
    maps = "".join(f"[map.{j}]\ncomp0 = 10 5\n" for j in range(1, 7))
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "[experiment]\nengine = thm-2.1\nsamples = 50\n" + maps + "[interval]\nlo = 1.2\nhi = 1.7\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_UNVERIFIED
    assert not (tmp_path / "report.json").exists()


def test_an_overflowing_map_is_unverified_without_a_numpy_warning(tmp_path):
    # the overflow becomes a non-finite value, which the evaluator reports; no warning escapes
    maps = "".join(f"[map.{j}]\ncomp0 = 10 5\n" for j in range(1, 7))
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "[experiment]\nengine = thm-2.1\nsamples = 50\n" + maps + "[interval]\nlo = 1.2\nhi = 1.7\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_UNVERIFIED


def test_unparsable_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "noheader.cfg"
    cfg.write_text("engine = main-thm\n")
    assert run_cli("check", str(cfg)) == EXIT_CONFIG


def test_internal_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("simulated engine bug")

    monkeypatch.setattr(distortion, "run_curve", crash)
    code = run_cli("run", str(CONFIGS / "rotations_main.cfg"), "--output-dir", str(tmp_path))
    assert code == EXIT_ERROR
    assert code not in (EXIT_HOLDS, EXIT_VIOLATED, EXIT_UNVERIFIED, EXIT_CONFIG)
    assert "simulated engine bug" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report content


def test_report_fields_and_csv_header(tmp_path):
    run_cli("run", str(CONFIGS / "quadratic_thm21.cfg"), "--output-dir", str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    for key in ("version", "engine", "seed", "verdict", "budget", "measured", "config"):
        assert key in report
    assert report["engine"] == "thm-2.1"

    csv_text = (tmp_path / "steps.csv").read_text().splitlines()
    assert csv_text[0] == (
        "step_index,length_i,alpha_i,lemma1_increment,lemma2_increment,cumulative_log_bound"
    )
    assert len(csv_text) == 1 + int(report["config"]["scenario"]["n"])
    assert all(len(line.split(",")) == 6 for line in csv_text[1:])


def test_json_only_skips_tables(tmp_path):
    run_cli(
        "run", str(CONFIGS / "rotations_main.cfg"),
        "--output-dir", str(tmp_path), "--json-only",
    )
    assert (tmp_path / "rotations_report.json").exists()
    assert not (tmp_path / "rotations_steps.csv").exists()


def test_reruns_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        run_cli("run", str(CONFIGS / "quadratic_thm21.cfg"), "--output-dir", str(d))
    for name in ("report.json", "steps.csv", "logratio.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_seed_override_changes_seeded_scenario(tmp_path):
    cfg = tmp_path / "shear.cfg"
    cfg.write_text(
        "[experiment]\nengine = main-thm\nsamples = 32\nresolution = 32\n"
        "[scenario]\nfamily = planar-contraction-shear\nn = 4\nseed = 1\n"
    )
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    run_cli("run", str(cfg), "--output-dir", str(d1))
    run_cli("run", str(cfg), "--output-dir", str(d2), "--seed", "99")
    r1 = json.loads((d1 / "report.json").read_text())
    r2 = json.loads((d2 / "report.json").read_text())
    assert r1["measured"]["sup_abs_log_ratio"] != r2["measured"]["sup_abs_log_ratio"]
    assert (r1["seed"], r2["seed"]) == (1, 99)  # the seeds the scenario was built with


# ---------------------------------------------------------------------------
# inline map configs


def test_inline_polynomial_map_config(tmp_path):
    cfg = tmp_path / "inline.cfg"
    # f(x) = 0.5 x + 0.125 x^2 on [0, 1], four times
    cfg.write_text(
        "[experiment]\nengine = thm-2.1\nsamples = 64\n"
        "[map.0]\ncomp0 = 0.5 1; 0.125 2\n"
        "[map.1]\ncomp0 = 0.5 1; 0.125 2\n"
        "[interval]\nlo = 0.0\nhi = 1.0\n"
        "[budget]\nc = 0.5\nl = 4.0\nprovenance = analytic\n"
    )
    code = run_cli("run", str(cfg), "--output-dir", str(tmp_path))
    assert code == EXIT_HOLDS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "bound-holds"


def test_parse_config_rejects_conflicting_sources(tmp_path):
    cfg = tmp_path / "conflict.cfg"
    cfg.write_text(
        "[experiment]\nengine = thm-2.1\n"
        "[scenario]\nfamily = 1d-quadratic-contraction\nn = 2\n"
        "[map.0]\ncomp0 = 0.5 1\n"
        "[interval]\nlo = 0\nhi = 1\n"
    )
    with pytest.raises(ConfigError):
        parse_config(cfg)


# ---------------------------------------------------------------------------
# subintervals are checked against the interval or natural curve domain

QUADRATIC_1D = "[scenario]\nfamily = 1d-quadratic-contraction\nn = 3\n"
BAD_SUBINTERVALS = {
    "thm-2.2": ("thm-2.2", QUADRATIC_1D + "[subintervals]\nsub1 = 0 0.4\nsub2 = 0.4 1.7\n"),
    # 1D subintervals are held to [0, 1] exactly: a Simpson node past it leaves the region
    "thm-2.2-below-lo": (
        "thm-2.2", QUADRATIC_1D + "[subintervals]\nsub1 = -5e-10 0.4\nsub2 = 0.4 1\n"
    ),
    "thm-2.2-above-hi": (
        "thm-2.2", QUADRATIC_1D + "[subintervals]\nsub1 = 0 0.4\nsub2 = 0.4 1.0000000005\n"
    ),
    # the quarter circle has natural domain [0, pi/2]
    "nbdp": (
        "nbdp",
        "[scenario]\nfamily = planar-contraction-shear\nn = 3\n"
        "[subintervals]\nsub1 = 0 0.7\nsub2 = 0.7 2.0\n",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SUBINTERVALS))
def test_subinterval_outside_the_domain_fails_check_and_run(tmp_path, case):
    engine, body = BAD_SUBINTERVALS[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[experiment]\nengine = {engine}\nsamples = 20\nresolution = 16\n" + body)
    assert run_cli("check", str(cfg)) == EXIT_CONFIG
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# `bdp check` runs the engines' own input checks, after the flags are applied

ONE_D_MAP = "[map.0]\ncomp0 = 0.5 1\n"
ONE_D_HEAD = "[experiment]\nengine = thm-2.1\nsamples = 20\n" + ONE_D_MAP
INLINE_CURVE = (
    "[experiment]\nengine = main-thm\nsamples = 20\nresolution = 16\n"
    "[map.0]\ncomp0 = 0.5 1 0\ncomp1 = 0.5 0 1\n[budget]\nc = 1\n"
)
INTERVAL = "[interval]\nlo = 0\nhi = 1\n"
BAD_INPUTS = {
    "reversed-interval": (ONE_D_HEAD + "[interval]\nlo = 1\nhi = 0\n", ()),
    "3d-segment-2d-maps": (
        "[experiment]\nengine = main-thm\nsamples = 20\nresolution = 16\n"
        "[map.0]\ncomp0 = 0.5 1 0\ncomp1 = 0.5 0 1\n"
        "[curve]\ntype = segment\np0 = 0 0 0\np1 = 1 0 0\n[budget]\nc = 1\n",
        (),
    ),
    "interval-without-lo": (ONE_D_HEAD + "[interval]\nhi = 1\n", ()),
    "resolution-0": ((CONFIGS / "rotations_main.cfg").read_text(), ("--resolution", "0")),
    "samples-0": ((CONFIGS / "rotations_main.cfg").read_text(), ("--samples", "0")),
    "samples-1": ((CONFIGS / "rotations_main.cfg").read_text(), ("--samples", "1")),
    "samples-1-1d": ((CONFIGS / "quadratic_thm21.cfg").read_text(), ("--samples", "1")),
    "nan-budget-c": ((CONFIGS / "quadratic_thm21.cfg").read_text() + "[budget]\nc = nan\n", ()),
    "fractional-seminorm-resolution": (
        (CONFIGS / "tracemap.cfg").read_text() + "seminorm_resolution = 3.7\n", ()
    ),
    "zero-radius-arc": (INLINE_CURVE + "[curve]\ntype = circle-arc\nradius = 0\n", ()),
    "unknown-family": ("[experiment]\nengine = main-thm\n[scenario]\nfamily = warp-drive\n", ()),
    "spiral-curve": (INLINE_CURVE + "[curve]\ntype = spiral\n", ()),
    "no-scenario-or-maps": ("[experiment]\nengine = thm-2.1\n" + INTERVAL, ()),
    "thm-2.1-on-2d-maps": (
        "[experiment]\nengine = thm-2.1\nsamples = 20\n"
        "[map.0]\ncomp0 = 0.5 1 0\ncomp1 = 0.5 0 1\n" + INTERVAL,
        (),
    ),
    "holder-without-epsilon": (
        "[experiment]\nengine = holder\nsamples = 20\nresolution = 16\n"
        "[scenario]\nfamily = planar-rotations\nn = 2\n",
        (),
    ),
    "holder-epsilon-1.5": (
        "[experiment]\nengine = holder\nsamples = 20\nresolution = 16\n"
        "[scenario]\nfamily = planar-rotations\nn = 2\n[budget]\nepsilon = 1.5\n",
        (),
    ),
    "resolution-1-1d": ((CONFIGS / "quadratic_thm21.cfg").read_text(), ("--resolution", "1")),
}
DISTORTION_ENGINES = (
    "run_1d", "interval_ratio_1d", "run_curve", "run_curve_holder", "arc_ratio_curve"
)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_engine_inputs_fail_check_and_run_before_the_engine(tmp_path, monkeypatch, case):
    text, flags = BAD_INPUTS[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran on inputs that check should reject")

    for name in DISTORTION_ENGINES:
        monkeypatch.setattr(distortion, name, must_not_run)
    assert run_cli("check", str(cfg), *flags) == EXIT_CONFIG
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path), *flags) == EXIT_CONFIG
    assert not any(tmp_path.glob("*report.json"))


def test_interval_without_hi_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "nohi.cfg"
    cfg.write_text(ONE_D_HEAD + "[interval]\nlo = 0\n")
    assert run_cli("check", str(cfg)) == EXIT_CONFIG
    assert "[interval] missing field 'hi'" in capsys.readouterr().err


INLINE_CURVES = {
    "segment": "[curve]\ntype = segment\np0 = 0 0\np1 = 1 0.5\n",
    "circle-arc": "[curve]\ntype = circle-arc\nradius = 2\nt1 = 1\n",
}


@pytest.mark.parametrize("shape", sorted(INLINE_CURVES))
def test_an_inline_curve_runs_end_to_end(tmp_path, shape):
    cfg = tmp_path / "curve.cfg"
    cfg.write_text(INLINE_CURVE + INLINE_CURVES[shape])
    assert run_cli("check", str(cfg)) == EXIT_HOLDS
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):  # the budget states C only, so L and alpha are sampled
        assert run_cli("run", str(cfg), "--output-dir", str(d)) == EXIT_UNVERIFIED
    assert float(json.loads((d1 / "report.json").read_text())["measured"]["sum_L"]) > 0
    for name in ("report.json", "steps.csv", "logratio.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


SUBS = "[subintervals]\nsub1 = 0 0.5\nsub2 = 0.5 1\n"
ONE_D_BODY = ONE_D_MAP + INTERVAL
ROTATIONS = "[scenario]\nfamily = planar-rotations\nn = 2\n"
ENGINE_CALLS = {  # config engine: (distortion function, body, arguments after seq and domain)
    "thm-2.1": ("run_1d", ONE_D_BODY, (20,)),
    "thm-2.2": ("interval_ratio_1d", ONE_D_BODY + SUBS, ((0.0, 0.5), (0.5, 1.0), 20)),
    "main-thm": ("run_curve", ROTATIONS, (20, 16)),
    "holder": ("run_curve_holder", ROTATIONS + "[budget]\nepsilon = 0.5\n", (20, 16)),
    "nbdp": ("arc_ratio_curve", ROTATIONS + SUBS, ((0.0, 0.5), (0.5, 1.0), 20, 16)),
}


@pytest.mark.parametrize("engine", sorted(ENGINE_CALLS))
def test_run_calls_the_engine_looked_up_at_run_time(tmp_path, monkeypatch, engine):
    function, body, args = ENGINE_CALLS[engine]
    real = getattr(distortion, function)
    calls = []

    def spy(seq, domain, *rest):
        calls.append(rest[:-1])
        return real(seq, domain, *rest)

    monkeypatch.setattr(distortion, function, spy)
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(f"[experiment]\nengine = {engine}\nsamples = 20\nresolution = 16\n" + body)
    code = run_cli("run", str(cfg), "--output-dir", str(tmp_path))
    assert code in (EXIT_HOLDS, EXIT_UNVERIFIED)
    assert calls == [args]


# ---------------------------------------------------------------------------
# a key or section that nothing reads is a config error, found before any engine


@pytest.mark.parametrize(
    "config, extra",
    [
        ("quadratic_thm21.cfg", ("scenario", "bb = 0.3")),
        ("rotations_main.cfg", ("scenario", "angel = 0.2")),
        ("violated_budget.cfg", ("budget", "provenence = sampled")),
        ("rotations_main.cfg", ("experiment", "sampels = 3")),
        ("nbdp_halves.cfg", ("subintervals", "sub3 = 0 1")),
        ("rotations_main.cfg", ("output", "reprot = r.json")),
    ],
)
def test_a_misspelled_key_fails_check_and_run(tmp_path, monkeypatch, capsys, config, extra):
    section, line = extra
    text = (CONFIGS / config).read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran on a config with an unknown key")

    for name in DISTORTION_ENGINES:
        monkeypatch.setattr(distortion, name, must_not_run)
    assert run_cli("check", str(cfg)) == EXIT_CONFIG
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_CONFIG
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err
    assert not any(tmp_path.glob("*report.json"))


UNREAD = {  # config text, what stderr must name
    "interval-mid": (ONE_D_HEAD + INTERVAL + "mid = 0.5\n", "unknown key 'mid'"),
    "curve-raduis": (INLINE_CURVE + "[curve]\ntype = circle-arc\nraduis = 2\n", "unknown key 'raduis'"),
    "map-x": (ONE_D_HEAD + "x = 1 0\n" + INTERVAL, "unknown key 'x'"),
    "map-comp": (ONE_D_HEAD + "comp = 0.1 0\n" + INTERVAL, "unknown key 'comp'"),
    "budjet": ((CONFIGS / "rotations_main.cfg").read_text() + "[budjet]\nc = 1\n", "[budjet]"),
    "subintervals-on-main-thm": ((CONFIGS / "rotations_main.cfg").read_text() + SUBS, "[subintervals]"),
    "interval-beside-scenario": ((CONFIGS / "quadratic_thm21.cfg").read_text() + INTERVAL, "[interval]"),
    "interval-and-curve": (
        ONE_D_HEAD + INTERVAL + "[curve]\ntype = segment\np0 = 0\np1 = 1\n", "[curve]"
    ),
    "epsilon-on-main-thm": (
        (CONFIGS / "rotations_main.cfg").read_text() + "[budget]\nepsilon = 0.5\n",
        "unknown key 'epsilon'",
    ),
    "alpha-on-thm-2.1": (
        (CONFIGS / "quadratic_thm21.cfg").read_text() + "[budget]\nalpha = 0.3\n",
        "unknown key 'alpha'",
    ),
    "epsilon-on-thm-2.1": (
        (CONFIGS / "quadratic_thm21.cfg").read_text() + "[budget]\nepsilon = 0.2\n",
        "unknown key 'epsilon'",
    ),
    "map-section-x": (ONE_D_HEAD + "[map.x]\ncomp0 = 0.5 1\n" + INTERVAL, "[map.x]"),
    "map-1-and-01": (
        ONE_D_HEAD + "[map.1]\ncomp0 = 0.5 1\n[map.01]\ncomp0 = 0.5 1\n" + INTERVAL, "[map.01]"
    ),
}


def _fails_check_and_run_naming(tmp_path, monkeypatch, capsys, text, named):
    """The config ``text`` makes check and run exit 3 before any engine runs,
    and each names ``named`` on stderr."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran on a config that check rejects")

    for name in DISTORTION_ENGINES:
        monkeypatch.setattr(distortion, name, must_not_run)
    assert run_cli("check", str(cfg)) == EXIT_CONFIG
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err.count(named) == 2
    assert not any(tmp_path.glob("*report.json"))


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_a_key_or_section_nothing_reads_fails_check_and_run(tmp_path, monkeypatch, capsys, case):
    _fails_check_and_run_naming(tmp_path, monkeypatch, capsys, *UNREAD[case])


ROTATIONS_MAIN = (CONFIGS / "rotations_main.cfg").read_text()
VIOLATED_BUDGET = (CONFIGS / "violated_budget.cfg").read_text()
BAD_VALUES = {  # config text, what stderr must name
    "nan-angle": (ROTATIONS_MAIN.replace("angle = 0.1", "angle = nan"), "[scenario] angle"),
    "inf-length": (ROTATIONS_MAIN.replace("angle = 0.1", "length = inf"), "[scenario] length"),
    "nan-box-half-width": (
        (CONFIGS / "tracemap.cfg").read_text() + "box_half_width = nan\n", "[scenario] box_half_width"
    ),
    "nan-subinterval": (
        ONE_D_HEAD.replace("thm-2.1", "thm-2.2") + INTERVAL + SUBS.replace("0 0.5", "nan 0.5"),
        "[subintervals] sub1",
    ),
    "nan-radius": (INLINE_CURVE + "[curve]\ntype = circle-arc\nradius = nan\n", "[curve] radius"),
    "nan-coefficient": (ONE_D_HEAD + "[map.1]\ncomp0 = nan 1\n" + INTERVAL, "[map.1] comp0"),
    "inf-constant-term": (ONE_D_HEAD + "[map.1]\ncomp0 = 0.5 1; inf 0\n" + INTERVAL, "[map.1] comp0"),
    "fractional-exponent": (ONE_D_HEAD + "[map.1]\ncomp0 = 0.5 1.5\n" + INTERVAL, "[map.1] comp0"),
    "fractional-samples": (
        ROTATIONS_MAIN.replace("samples = 128", "samples = 2.5"), "[experiment] samples"
    ),
    "fractional-n": (ROTATIONS_MAIN.replace("n = 5", "n = 2.5"), "[scenario] n"),
    "misspelled-provenance": (VIOLATED_BUDGET.replace("= analytic", "= analytc"), "'analytc'"),
    "provenance-without-a-constant": (
        ROTATIONS_MAIN + "[budget]\nprovenance = sampled\n", "[budget] provenance"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_a_bad_value_fails_check_and_run_naming_its_key(tmp_path, monkeypatch, capsys, case):
    _fails_check_and_run_naming(tmp_path, monkeypatch, capsys, *BAD_VALUES[case])


def test_integral_floats_are_integers_and_integer_literals_are_exact(tmp_path):
    cfg = tmp_path / "integers.cfg"
    cfg.write_text(
        "[experiment]\nengine = thm-2.1\nsamples = 20.0\nseed = 9007199254740993\n"
        "[scenario]\nfamily = 1d-quadratic-contraction\nn = 4.0\n"
    )
    assert run_cli("run", str(cfg), "--output-dir", str(tmp_path)) == EXIT_HOLDS
    report = json.loads((tmp_path / "report.json").read_text())
    read = [report["samples"], report["seed"], report["measured"]["n"]]
    assert read == [20, 2**53 + 1, 4] and all(type(v) is int for v in read)


@pytest.mark.parametrize("resolution", ["9", "9.0"])
def test_an_integral_float_is_an_integer_parameter(tmp_path, resolution):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text((CONFIGS / "tracemap.cfg").read_text() + f"seminorm_resolution = {resolution}\n")
    assert run_cli("check", str(cfg)) == EXIT_HOLDS


# ---------------------------------------------------------------------------
# usage errors exit 3, never 2 (argparse's code), which reads as a verdict


@pytest.mark.parametrize(
    "argv", [["run", str(CONFIGS / "rotations_main.cfg"), "--samples", "abc"], ["run"], []]
)
def test_a_usage_error_is_a_config_error_not_a_verdict(argv):
    assert run_cli(*argv) == EXIT_CONFIG


def test_help_exits_0(capsys):
    assert run_cli("--help") == EXIT_HOLDS
    assert "usage: bdp" in capsys.readouterr().out


def test_list_scenarios_shows_every_parameter_and_its_default(capsys):
    assert run_cli("list-scenarios") == EXIT_HOLDS
    out = capsys.readouterr().out
    assert "'seminorm_resolution': 5" in out
    assert "'segment_half_length': 0.05" in out
    assert "center" not in out


# ---------------------------------------------------------------------------
# steps.csv: the cumulative bound is the engine's own budget


def test_holder_cumulative_bound_sums_epsilon_powers_of_the_lengths(tmp_path):
    cfg = tmp_path / "holder.cfg"
    cfg.write_text(
        "[experiment]\nengine = holder\nsamples = 60\nresolution = 128\nseed = 0\n"
        "[scenario]\nfamily = planar-contraction-shear\nn = 8\nepsilon = 0.5\n"
    )
    run_cli("run", str(cfg), "--output-dir", str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    c, eps = float(report["budget"]["C"]), float(report["budget"]["epsilon"])
    lines = (tmp_path / "steps.csv").read_text().split()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 8 and eps == 0.5
    expected = c * c * (sum(r["alpha_i"] for r in rows) + sum(r["length_i"] ** eps for r in rows))
    assert rows[-1]["cumulative_log_bound"] == pytest.approx(expected, rel=1e-12)


def test_affine_ratio_lengths_shrink_by_0_4_each_step_up_to_the_fixed_point(tmp_path):
    # by step 42 the image endpoints round to one double near 0.5; the carried length does not
    run_cli("run", str(CONFIGS / "affine_ratio.cfg"), "--output-dir", str(tmp_path))
    rows = (tmp_path / "steps.csv").read_text().split()[1:]
    lengths = [float(row.split(",")[1]) for row in rows]
    assert len(lengths) == 45
    for i, length in enumerate(lengths, start=1):
        assert length == pytest.approx(0.4 ** (i - 1), rel=1e-12, abs=0), f"step {i}"


def test_one_d_cumulative_bound_ends_at_c_times_the_summed_lengths(tmp_path):
    run_cli("run", str(CONFIGS / "quadratic_thm21.cfg"), "--output-dir", str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    lines = (tmp_path / "steps.csv").read_text().split()
    last = float(lines[-1].split(",")[-1])
    c, sum_l = float(report["budget"]["C"]), float(report["measured"]["sum_L"])
    assert last == pytest.approx(c * sum_l, rel=1e-12)
