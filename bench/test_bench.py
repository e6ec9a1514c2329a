"""Smoke tests of the benchmark's oracle and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses

import pytest

import cases
import run
import tracing

BDP = run.import_bdp()


def _small(case, steps, samples):
    api = dict(case.api, samples=samples, resolution=32)
    return dataclasses.replace(case, steps=steps, samples=samples, api=api)


@pytest.fixture
def out_dir(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    return path


def _config_case(tmp_path, slot):
    found = [c for c in cases.make_cycle("config-sweep", 5, 0, tmp_path) if c.slot == slot]
    return found[0]


def test_oracle_accepts_a_true_prediction_and_rejects_a_wrong_one(out_dir):
    case = _small(cases.make_cycle("curve-pairwise", 5, 0, out_dir)[0], 5, 12)
    outcome = cases.execute(case, BDP, out_dir)
    assert outcome.verdict == cases.HOLDS
    assert cases.judge(case, outcome) == []

    wrong = dataclasses.replace(case, expect=cases.Expect(frozenset({cases.VIOLATED})))
    assert any("verdict" in p for p in cases.judge(wrong, outcome))


def test_oracle_checks_exit_codes_and_the_bound(tmp_path, out_dir):
    case = _config_case(tmp_path, "violated")
    outcome = cases.execute(case, BDP, out_dir)
    assert cases.judge(case, outcome) == []

    predicted_holds = dataclasses.replace(
        case, expect=cases.Expect(frozenset({cases.HOLDS}), frozenset({0}), frozenset({0}))
    )
    problems = cases.judge(predicted_holds, outcome)
    assert any("run exit 1" in p for p in problems)

    # a holds verdict whose measurement exceeds log K is rejected too
    forged = dataclasses.replace(outcome, verdict=cases.HOLDS, run_code=0)
    assert any("empirical" in p for p in cases.judge(predicted_holds, forged))


def test_a_crash_is_a_failed_case_not_a_verdict(tmp_path, out_dir):
    case = _config_case(tmp_path, "defect-overflow")
    outcome = cases.execute(case, BDP, out_dir)
    problems = cases.judge(case, outcome)
    if outcome.error:  # the defect of ROADMAP item 4 is present
        assert problems == [f"raised {outcome.error}"]
    else:
        assert outcome.run_code in (2, 3) and problems == []


def test_tracing_leaves_outcomes_unchanged_and_counts_layers(tmp_path, out_dir):
    api_case = _small(cases.make_cycle("curve-pairwise", 6, 0, out_dir)[0], 4, 10)
    cli_case = _config_case(tmp_path, "tracemap5")
    tracer = tracing.Tracer()
    for case in (api_case, cli_case):
        plain = cases.execute(case, BDP, out_dir)
        tracer.new_case(case.id)
        patches = tracing.Patches(tracer, BDP)
        try:
            traced = cases.execute(case, BDP, out_dir)
        finally:
            patches.close()
        assert traced.digest == plain.digest
    assert BDP.distortion.run_curve.__name__ == "run_curve"  # patches undone
    assert tracer.totals["distortion.arc_ratio_curve"][0] == 1
    assert tracer.totals["distortion.run_curve"][0] == 2  # arc walk + tracemap run
    assert tracer.totals["maps.batch"][0] > 0
    assert tracer.totals["maps.estimate_seminorms"][0] == 2  # check and run
    assert tracer.counters["seminorm_points"] == 2 * 5**3
    assert tracer.counters["pair_evals"] == 4 * 10**2 + 6 * 100**2
