"""Check that the command line behaves on every shipped config as it does at
a git revision.

``git archive`` extracts REF's ``src/`` (default ``HEAD``) into a temporary
directory.  Then ``bdp check`` and ``bdp run`` run on each ``configs/*.cfg``
of the working tree twice: under REF's package and under the working tree's,
each side in a temporary directory of its own, with the same relative output
directory and ``PYTHONWARNINGS=error``.  One line per config says whether
the exit codes, stdout, stderr and written files are identical, and names
what differs otherwise.  The exit status is 1 if anything differs, else 0.

    python scripts/same_outputs.py [REF]
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "run")


def extract(ref, dest):
    """REF's ``src/`` extracted under ``dest``; its path."""
    archive = subprocess.run(
        ["git", "archive", ref, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def outputs(src, workdir, config):
    """{what: bytes} for ``config`` under the package at ``src``, run in
    ``workdir``: each command's exit code, stdout and stderr, then each file
    the run wrote."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}
    out_dir = Path(config.stem)  # relative, so both sides print the same paths
    seen = {}
    for cmd in COMMANDS:
        argv = [sys.executable, "-m", "bdp", cmd, str(config), "--output-dir", str(out_dir)]
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True)
        seen[f"{cmd} exit"] = str(proc.returncode).encode()
        seen[f"{cmd} stdout"], seen[f"{cmd} stderr"] = proc.stdout, proc.stderr
    for path in sorted((workdir / out_dir).glob("*")):
        seen[path.name] = path.read_bytes()
    return seen


def main(argv):
    ref = argv[0] if argv else "HEAD"
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"ref": extract(ref, tmp), "tree": ROOT / "src"}
        for side in sides:
            (tmp / side).mkdir()
        for config in configs:
            got = {side: outputs(src, tmp / side, config) for side, src in sides.items()}
            keys = sorted(set(got["ref"]) | set(got["tree"]))
            diffs = [key for key in keys if got["ref"].get(key) != got["tree"].get(key)]
            codes = ", ".join(f"{cmd} exit {got['tree'][f'{cmd} exit'].decode()}" for cmd in COMMANDS)
            state = f"differs in {', '.join(diffs)}" if diffs else "identical"
            print(f"{config.name}: {state} ({codes})", flush=True)
            differ |= bool(diffs)
    print(f"{'some configs differ' if differ else f'all {len(configs)} configs identical'} at {ref}")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
