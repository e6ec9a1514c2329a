"""Planted faults in the engines, the closed-form scenario constants, the
curves and the difference rule that the tier-1 tests must catch.

Each mutant is one (file, old, new) triple.  The script copies ``src/``,
``tests/``, ``configs/`` and ``pyproject.toml`` into a temporary directory
and runs the tier-1 tests there with ``-x``: first on the unmutated copy,
which must pass, then once per mutant with the one occurrence of ``old`` in
``file`` replaced by ``new``.  A mutant is killed only when pytest reports
failed tests (exit 1); a passing run (exit 0) means it survived, and any
other exit code is an error.  The exit status is 1 if the unmutated copy
fails, a mutant is not killed, or a triple no longer matches its file
exactly once, else 0.

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/bdp/distortion.py"
SCENARIOS = "src/bdp/scenarios.py"
CURVES = "src/bdp/curves.py"
MAPS = "src/bdp/maps.py"

MUTANTS = {  # name: (file, old, new)
    "tolerance": (ENGINE, "REPORT_TOL = 1e-9", "REPORT_TOL = 1e-3"),
    "curve-allowance": (
        ENGINE,
        "allowance = c2 * trace.quad_err",
        "allowance = 100 * c2 * trace.quad_err + 1e-6",
    ),
    "curve-length-error": (
        ENGINE,
        "return l_i, alpha_i, lemma1_inc, lemma2_inc, err_i,",
        "return l_i, alpha_i, lemma1_inc, lemma2_inc, 10 * err_i,",
    ),
    "1d-length-error": (
        ENGINE,
        "err = abs(l_j - abs(float(pts[1, 0] - pts[0, 0])))",
        "err = 10 * abs(l_j - abs(float(pts[1, 0] - pts[0, 0])))",
    ),
    "coverage-slack": (
        ENGINE,
        "budget.L + REPORT_TOL + trace.quad_err and",
        "budget.L + REPORT_TOL + 100 * trace.quad_err + 1e-6 and",
    ),
    "lemma-length-allowance": (
        ENGINE,
        "excess2 <= tol + C * C * rec.length_err",
        "excess2 <= tol + 100 * C * C * rec.length_err + 1e-6",
    ),
    "angle-subset": (ENGINE, "limit=257", "limit=9"),
    "lemma2-increment": (
        ENGINE,
        "_argmax_pair(lhs2)",
        "_argmax_pair(0.999 * lhs2)",
    ),
    "gauss-mean": (
        ENGINE,
        "abs(d[k + 2] + d[k + 3]) / 2 for",
        "abs(d[k + 2] + d[k + 3]) / 2 * (1 + 1e-9) for",
    ),
    "quadratic-c1": (
        SCENARIOS,
        "c1 = float(np.linalg.norm(mat, 2)) + h2 * radius",
        "c1 = float(np.linalg.norm(mat, 2))",
    ),
    "quadratic-c1-inv": (SCENARIOS, "c1_inv = inv_norm / (1.0 - delta)", "c1_inv = inv_norm"),
    "quadratic-c2": (SCENARIOS, "h2 = 2.0 *", "h2 = 1.0 *"),
    "ratio-c": (SCENARIOS, "c = 2 * b / a", "c = b / a"),
    "ratio-length": (
        SCENARIOS,
        "length_budget = 1.0 / (1.0 - slope_sup)",
        "length_budget = 1.0 / (1.0 - a)",
    ),
    "holder-diameter": (
        SCENARIOS,
        "h2 * region.diameter ** (1.0 - epsilon)",
        "h2",
    ),
    "shear-rate": (SCENARIOS, "rho = max(rho, c1)", "rho = max(rho, 0.9 * c1)"),
    "curve-dimension": (CURVES, '"dim", len(self.pos(a))', '"dim", 2'),
    "one-sided-order": (
        MAPS,
        "side = sign * (4.0 * vals[0] - vals[1] - 3.0 * vals[2]) / (2.0 * h[:, None])",
        "side = sign * (vals[0] - vals[2]) / h[:, None]",
    ),
    "scaled-norm": (
        CURVES,
        "norms[redo] = big * np.linalg.norm(tans[redo] / big[:, None], axis=-1)",
        "norms[redo] = np.linalg.norm(tans[redo], axis=-1)",
    ),
}

COPIED = ("src", "tests", "configs", "pyproject.toml")


def tier1(file=None, text=None):
    """pytest's exit code for tier-1 on a fresh copy, with ``file`` set to ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            copy = shutil.copytree if (ROOT / name).is_dir() else shutil.copy
            copy(ROOT / name, Path(tmp) / name)
        if file is not None:
            (Path(tmp) / file).write_text(text)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]
        cmd += ["-p", "no:cacheprovider"]
        return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True).returncode


def outcome(file, old, new):
    """'killed', 'SURVIVED', 'NO MATCH' or an error for the fault old → new in ``file``."""
    text = (ROOT / file).read_text()
    if text.count(old) != 1:
        return "NO MATCH"
    code = tier1(file, text.replace(old, new))
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")


def main():
    code = tier1()
    if code != 0:
        print(f"unmutated copy: pytest exit {code}, expected 0")
        return 1
    failed = False
    for name, triple in MUTANTS.items():
        result = outcome(*triple)
        print(f"{name}: {result}", flush=True)
        failed |= result != "killed"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
