"""Smoke test of the command line scripts in ``scripts/``: each runs to exit 0.

The scripts call the public API directly, so a renamed or removed name
breaks them before anything else notices.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# script and arguments -> pattern its last line of output must match
RUNS = {
    ("full_verify.py", "2", "8"): r"total \d+\.\ds",
    ("group_census.py", "12", "--two-orbits"): r"12 sublattices, 12 distinct signatures",
    ("simplicity_scan.py", "2", "40"): r"no disagreements",
}


@pytest.mark.parametrize("argv", sorted(RUNS), ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(RUNS[argv], done.stdout.splitlines()[-1])
