#!/usr/bin/env python3
"""The bdp benchmark: time to verdict, throughput and peak memory per workload.

    python3 bench/run.py --workload curve-pairwise --seed 1 --seconds 25 --trace 0

One workload runs per process, so the peak memory belongs to it.  Inputs are
generated from ``--seed`` (see cases.py); the package sees only scenario
specs, map sequences and config files, which go to a temporary directory
under ``.bench_tmp/``.  Cases run in whole cycles until ``--seconds`` have
been measured and the tail percentile has at least ten cases beyond it.

``--trace 0`` reports the end-to-end metrics.  Each case then runs between two
timings of ``reference()``, and case times are scaled to the reference speed,
because the machine's speed drifts by tens of percent within seconds.

``--trace 1`` runs every case twice, untraced and traced in alternating
order, checks that both give the same report digest, reports the per-layer
metrics and writes the spans to ``.bench_out/``.

The last line of standard output is the result object.  See DESIGN.md for
the choices behind the workloads and metrics.
"""

import os

# One BLAS thread (at most nproc): each workload is a single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import cases
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: tail percentile per workload: the highest that keeps ten cases beyond it
#: at the parent's case count, fixed so that runs compare like with like
TAIL = {"curve-pairwise": 70, "pointwise-maps": 70, "config-sweep": 90}
SETUP_REPEATS = 5
#: nominal time of ``reference()``: its usual time on a 2-vCPU VM in a quiet phase
REFERENCE_S = 0.025
#: measured time after which a run stops even short of its case minimum
HARD_CAP_S = 120.0
MODULES = ("cli", "curves", "distortion", "jets", "maps", "scenarios")


def import_bdp():
    """The bdp modules from this checkout's ``src/``; exits if they are absent."""
    init = SRC / "bdp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no bdp sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    bdp = importlib.import_module("bdp")
    if Path(bdp.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported bdp from {bdp.__file__}, not from src/")
    return SimpleNamespace(**{name: importlib.import_module(f"bdp.{name}") for name in MODULES})


def time_import():
    """Seconds to import bdp (numpy included) in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import bdp; "
        "print(time.perf_counter() - t, bdp.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=60, check=True,
    )
    seconds, where = done.stdout.split()
    if Path(where).resolve() != (SRC / "bdp" / "__init__.py").resolve():
        sys.exit(f"bench: child imported bdp from {where}")
    return float(seconds)


def measure_setup(workload, seed, tmp):
    """Median over repeats of (import bdp + generate the first cycle's inputs)."""
    totals = []
    for k in range(SETUP_REPEATS):
        imported = time_import()
        target = tmp / f"setup{k}"
        target.mkdir()
        t0 = perf_counter()
        cases.make_cycle(workload, seed, 0, target)
        totals.append(imported + perf_counter() - t0)
    return statistics.median(totals)


def reference():
    """Seconds for a fixed numpy workload that does not touch bdp.

    It mixes what bdp's cases spend their time on: small-array numpy calls in
    a Python loop, and a vectorized pairwise kernel.  Timed around each case,
    it tracks the machine's speed at that moment.
    """
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(2, 2))
    pts = rng.normal(size=(300, 2))
    jac = np.broadcast_to(mat, (300, 2, 2))
    t0 = perf_counter()
    acc = 0.0
    for x in pts[:120]:
        acc += float(np.linalg.norm(mat @ x)) + x[0] ** 3 * x[1]
    for _ in range(2):
        cross = np.einsum("kab,lb->kla", jac, pts)
        acc += float(np.log(np.linalg.norm(cross, axis=2)).max())
    return perf_counter() - t0


def scaled_execute(case, bdp, out_dir):
    """``execute`` bracketed by ``reference()``; sets ``outcome.scaled``.

    The scaled time is the case's wall time × REFERENCE_S / (mean of the two
    reference times), i.e. the wall time at the reference speed.
    """
    before = reference()
    outcome = cases.execute(case, bdp, out_dir)
    after = reference()
    outcome.scaled = outcome.seconds * REFERENCE_S / (0.5 * (before + after))
    return outcome


def min_cases(workload):
    return math.ceil(10 / (1 - TAIL[workload] / 100) - 1e-9)


def cycles(workload, seed, seconds, tmp, first, run, least):
    """Yield whole cycles until ``seconds`` are measured and ``least`` cases run."""
    cycle = 0
    while True:
        yield first if cycle == 0 else cases.make_cycle(workload, seed, cycle, tmp)
        cycle += 1
        enough = run.measured >= seconds and len(run.records) >= least
        if enough or run.measured >= HARD_CAP_S:
            return


class Run:
    """Outcomes of one measured run and the checks made on them."""

    def __init__(self):
        self.records = []  # (case, outcome, problems)
        self.mismatches = []
        self.measured = 0.0

    def add(self, case, outcome):
        problems = cases.judge(case, outcome)
        self.records.append((case, outcome, problems))
        return problems

    @property
    def failed(self):
        return [(c, o, p) for c, o, p in self.records if p]

    @property
    def correct(self):
        # a raised exception is a failed case; a wrong output is incorrect
        wrong = [p for _, o, p in self.failed if not o.error]
        return not wrong and not self.mismatches


def plain_run(args, bdp, tmp):
    out_dir = tmp / "out"
    out_dir.mkdir()
    first = cases.make_cycle(args.workload, args.seed, 0, tmp)
    warm = scaled_execute(first[0], bdp, out_dir)  # warm-up, and the rerun's reference
    run = Run()
    least = min_cases(args.workload)
    for batch in cycles(args.workload, args.seed, args.seconds, tmp, first, run, least):
        for case in batch:
            outcome = scaled_execute(case, bdp, out_dir)
            run.measured += outcome.seconds
            run.add(case, outcome)
    if run.records[0][1].digest != warm.digest:
        run.mismatches.append(f"{first[0].id}: rerun digest differs from the first run")
    return run


def traced_run(args, bdp, tmp):
    """Each case untraced and traced, alternating which goes first."""
    out_dir = tmp / "out"
    out_dir.mkdir()
    tracer = tracing.Tracer()
    run = Run()
    seconds = {"plain": 0.0, "traced": 0.0}
    first = cases.make_cycle(args.workload, args.seed, 0, tmp)
    cases.execute(first[0], bdp, out_dir)  # warm-up
    # per-layer figures are per-case means over whole cycles: no case minimum
    for batch in cycles(args.workload, args.seed, args.seconds, tmp, first, run, 1):
        for case in batch:
            order = ("plain", "traced") if len(run.records) % 2 == 0 else ("traced", "plain")
            got = {}
            for mode in order:
                if mode == "traced":
                    tracer.new_case(case.id)
                    patches = tracing.Patches(tracer, bdp)
                    try:
                        got[mode] = cases.execute(case, bdp, out_dir)
                    finally:
                        patches.close()
                    tracer.count("bytes_written", got[mode].bytes_written)
                else:
                    got[mode] = cases.execute(case, bdp, out_dir)
                seconds[mode] += got[mode].seconds
                run.measured += got[mode].seconds
            plain, traced = got["plain"], got["traced"]
            if (plain.digest, plain.error) != (traced.digest, traced.error):
                run.mismatches.append(f"{case.id}: traced outcome differs from untraced")
            run.add(case, plain)
    return run, tracer, seconds


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, run, setup_s):
    times = np.array([o.scaled for _, o, _ in run.records])
    steps = sum(c.steps * c.samples for c, o, p in run.records if not p and o.verdict is not None)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    passed = len(run.records) - len(run.failed)
    return {
        "setup_s": _metric(setup_s, "s"),
        "case_s.p50": _metric(np.median(times), "s"),
        "case_s.tail": _metric(np.percentile(times, TAIL[workload]), "s"),
        "sample_steps_per_s": _metric(steps / times.sum(), "1/s"),
        "peak_mem_mb": _metric(peak, "MB"),
        "pass_ratio": _metric(passed / len(run.records), "ratio"),
    }


def per_layer(tracer, run, seconds):
    n = len(run.records)
    tot = tracer.totals
    ctr = tracer.counters
    engine_self = sum(tot[f"distortion.{e}"][3] for e in tracing.ENGINES)
    batch_calls, batch_rows, batch_s, _ = tot["maps.batch"]
    point_calls, _, point_s, _ = tot["maps.point"]
    layer = {
        "distortion.engine_s": (ctr["engine_s"] / n, "s"),
        "distortion.self_s": (engine_self / n, "s"),
        "distortion.pair_evals": (ctr["pair_evals"] / n, "count"),
        "distortion.pairs_per_s": (_share(ctr["pair_evals"], engine_self), "1/s"),
        "distortion.trace_mb": (ctr["trace_bytes"] / n / 1e6, "MB"),
        "distortion.lemma_checks_s": (tot["distortion.lemma_step_checks"][2] / n, "s"),
        "maps.batch_calls": (batch_calls / n, "count"),
        "maps.batch_rows": (batch_rows / n, "count"),
        "maps.batch_s": (batch_s / n, "s"),
        "maps.batch_calls_per_step": (_share(batch_calls, ctr["steps"]), "ratio"),
        "maps.point_calls": (point_calls / n, "count"),
        "maps.point_s": (point_s / n, "s"),
        "maps.point_share": (_share(point_calls, point_calls + batch_rows), "ratio"),
        "maps.seminorm_s": (tot["maps.estimate_seminorms"][2] / n, "s"),
        "maps.seminorm_points": (ctr["seminorm_points"] / n, "count"),
        "jets.push_jet2_calls": (tot["jets.push_jet2"][0] / n, "count"),
        "jets.push_jet2_s": (tot["jets.push_jet2"][2] / n, "s"),
        "jets.eval_map_calls": (tot["jets.eval_map"][0] / n, "count"),
        "curves.max_angle_s": (tot["curves.max_angle_of_tangents"][2] / n, "s"),
        "curves.max_angle_rows": (tot["curves.max_angle_of_tangents"][1] / n, "count"),
        "curves.sample_s": (tot["curves.sample"][2] / n, "s"),
        "curves.reparameterize_s": (tot["curves.reparameterize_natural"][2] / n, "s"),
        "scenarios.build_s": (tot["scenarios.build_sequence"][2] / n, "s"),
        "cli.parse_s": (tot["cli.parse_config"][2] / n, "s"),
        "cli.self_s": (tot["cli.main"][3] / n, "s"),
        "cli.bytes_written": (ctr["bytes_written"] / n, "count"),
        "trace_overhead": (seconds["traced"] / seconds["plain"], "ratio"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in layer.items()}


def _share(part, whole):
    return part / whole if whole else 0.0


def shares(tracer, seconds):
    """The measured shares behind the per-layer predictions in DESIGN.md."""
    tot = tracer.totals
    engine = tracer.counters["engine_s"]
    kernel = sum(tot[f"distortion.{e}"][3] for e in tracing.ENGINES)
    kernel += tot["curves.max_angle_of_tangents"][2]
    return {
        "kernel_and_angle_of_engine": _share(kernel, engine),
        "fallback_of_traced_case_time": _share(tracer.counters["fallback_s"], seconds["traced"]),
    }


def run_record(args, run):
    """Where and on what the run was made, and what failed."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    failures = {}
    for case, outcome, problems in run.failed:
        entry = failures.setdefault(case.slot, {"count": 0, "problems": problems})
        entry["count"] += 1
        if case.expect.defect:
            entry["known_defect"] = case.expect.defect
    by_slot = {}
    for case, outcome, _ in run.records:
        by_slot.setdefault(case.slot, []).append(outcome.seconds)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cases": len(run.records),
        "measured_s": run.measured,
        "tail_percentile": TAIL[args.workload],
        "slot_median_wall_s": {k: statistics.median(v) for k, v in by_slot.items()},
        "fail_ratio": len(run.failed) / len(run.records),
        "failures": failures,
        "mismatches": run.mismatches,
    }


def _git_sha():
    # read, not run git: the benchmark's checkout need not be a repository
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bdp = import_bdp()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        setup_s = measure_setup(args.workload, args.seed, tmp)
        if args.trace:
            run, tracer, seconds = traced_run(args, bdp, tmp)
            metrics = per_layer(tracer, run, seconds)
        else:
            run = plain_run(args, bdp, tmp)
            metrics = end_to_end(args.workload, run, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    record = run_record(args, run)
    if not args.trace:
        wall = np.array([o.seconds for _, o, _ in run.records])
        record["wall_p50_s"] = float(np.median(wall))
        record["wall_tail_s"] = float(np.percentile(wall, TAIL[args.workload]))
        record["scale_median"] = statistics.median(o.scaled / o.seconds for _, o, _ in run.records)
    if args.trace:
        record["shares"] = shares(tracer, seconds)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}.json", record)
    print("record:", json.dumps(record, sort_keys=True))
    result = {
        "correct": run.correct,
        "attempted": len(run.records),
        "failed": len(run.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
