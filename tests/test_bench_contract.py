"""The benchmark's traced run must find every span it requires.

Each workload in ``bench/workloads.py`` names ``must_run`` spans: layer
functions that its traced run (``bench/run.py --trace 1``) requires to record
calls.  A refactor that stops calling one of them through the name the tracer
wraps would otherwise surface only when the benchmark is traced.  Here a
small request of the same kind as each workload runs through
``bench/child.py`` in trace mode, and every required span must show calls.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# workload -> (a small request of the same kind, its expected exit code)
SMALL_REQUESTS = {
    "verify-small": (("enumerate", "6", "--verify", "--format", "json"), 0),
    "analyze-large": (("analyze", "60", "--divisors", "2,3", "--format", "json"), 0),
    "generators-mid": (("analyze", "12", "--divisors", "2,3", "--generators", "--format", "json"), 0),
    "reject-nonrational": (("analyze", "12", "--set", "1,2"), 2),
}


@pytest.mark.parametrize("workload", sorted(SMALL_REQUESTS))
def test_traced_request_runs_every_required_span(workload, tmp_path, bench_workloads, bench_tracer,
                                                 src_env):
    argv, exit_code = SMALL_REQUESTS[workload]
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(REPO / "bench" / "child.py"), str(report), "trace", *argv],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == exit_code, done.stderr
    calls, _, _ = bench_tracer.summarise(json.loads(report.read_text()))
    silent = [name for name in bench_workloads.WORKLOADS[workload].must_run if not calls.get(name)]
    assert not silent, f"{workload}: no calls recorded for {silent}"
