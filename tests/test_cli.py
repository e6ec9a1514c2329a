"""Command-line front end: configs, exit codes, report files, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from bdp import distortion
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
