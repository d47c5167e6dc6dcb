"""Smoke test of the command line scripts in ``scripts/``: each runs to exit 0.

The scripts call the public API directly, so a renamed or removed name
breaks them before anything else notices.
"""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ratcirc import InternalConsistencyError, full_verify
from ratcirc.lattice import DEFAULT_MAX_ORACLE_N

REPO = Path(__file__).resolve().parent.parent

# script and arguments -> pattern its last line of output must match
RUNS = {
    ("full_verify.py", "2", "8"): r"total \d+\.\ds",
    ("group_census.py", "12", "--two-orbits"): r"12 sublattices, 12 distinct signatures",
    ("simplicity_scan.py", "2", "40"): r"no disagreements",
}


def run_script(argv, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("argv", sorted(RUNS), ids=lambda argv: argv[0])
def test_script_runs(argv, src_env):
    done = run_script(argv, src_env)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(RUNS[argv], done.stdout.splitlines()[-1])


def test_full_verify_skips_moduli_over_the_divisor_bound(src_env):
    # tau(120) = 16: 32768 divisor subsets, over the bound of 2048.
    done = run_script(("full_verify.py", "119", "120"), src_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].startswith("n=120: skipped, instance too large")


def test_full_verify_prints_seconds_per_modulus(src_env):
    done = run_script(("full_verify.py", "6", "8"), src_env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    for line in lines[:-1]:
        assert re.fullmatch(r"n= *\d+: +\d+ rational circulants, \d+ verified, \d+\.\d\ds", line)


@pytest.fixture
def full_verify_script():
    """``scripts/full_verify.py`` imported in-process as a fresh module."""
    spec = importlib.util.spec_from_file_location(
        "full_verify_script", REPO / "scripts" / "full_verify.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_verify_oracle_bound_default_follows_the_oracle(full_verify_script):
    args = full_verify_script.build_parser().parse_args(["2", "8"])
    assert args.max_oracle_n == DEFAULT_MAX_ORACLE_N


def test_full_verify_reports_an_internal_error_and_goes_on(
    full_verify_script, monkeypatch, capsys
):
    def broken_at_7(n, **kwargs):
        if n == 7:
            raise InternalConsistencyError("orbit product 6 != chain order 7")
        return full_verify(n, **kwargs)

    monkeypatch.setattr(full_verify_script, "full_verify", broken_at_7)
    assert full_verify_script.main(["6", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "n=  7: INTERNAL ERROR: orbit product 6 != chain order 7"
    assert lines[0].startswith("n=  6: ") and lines[2].startswith("n=  8: ")
    assert re.fullmatch(r"total \d+\.\ds", lines[-1])
