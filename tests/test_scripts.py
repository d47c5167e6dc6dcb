"""Smoke test of the command line scripts in ``scripts/``: each runs to exit 0.

The scripts call the public API directly, so a renamed or removed name
breaks them before anything else notices.
"""
import importlib.util
import json
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


def test_full_verify_rejects_a_negative_oracle_bound(full_verify_script, capsys):
    with pytest.raises(SystemExit) as exc:
        full_verify_script.build_parser().parse_args(["2", "8", "--max-oracle-n", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --max-oracle-n: must be at least 0, got -1\n")


@pytest.fixture
def bench_pairs_script():
    """``scripts/bench_pairs.py`` imported in-process as a fresh module."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs_script", REPO / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(wall: float, rss: float, failed: int = 0, rate: float = 10.0) -> str:
    """Stdout of one ``bench/run.py`` run, reduced to a progress line and its result line."""
    metrics = {"adj_wall_s": {"value": wall, "unit": "s"},
               "adj_instances_per_s": {"value": rate, "unit": "1/s"},
               "peak_rss_mib": {"value": rss, "unit": "MiB"}}
    return "pass 1 order [0]: wall 0.300 s, failed 0/3\n" + json.dumps(
        {"correct": True, "attempted": 12, "failed": failed, "metrics": metrics}) + "\n"


def test_bench_pairs_summary(bench_pairs_script):
    spec = [{"name": "adj_wall_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mib", "better": "lower", "bound": 0.05}]
    parent = [0.360, 0.362, 0.364, 0.366, 0.368, 0.370, 0.372, 0.374, 0.376, 0.378]
    # The change is faster in 9 of 10 pairs by about 0.03 s; its RSS is higher in every pair.
    change = [w - 0.03 for w in parent[:9]] + [0.380]
    read = bench_pairs_script.result_line
    pairs = [{"parent": read(canned_run(p, 16.0 + k / 100)),
              "change": read(canned_run(c, 16.1 + k / 100, failed=int(k == 3)))}
             for k, (p, c) in enumerate(zip(parent, change))]
    assert bench_pairs_script.summarise(pairs, spec) == [
        "10 pairs; failed requests: parent 0/120, change 1/120",
        "adj_wall_s (lower is better): parent 0.369 [0.3635, 0.3745], "
        "change 0.339 [0.3335, 0.3445], -8.1%; change won 9/10; gain rule holds",
        "peak_rss_mib (lower is better): parent 16.045 [16.0175, 16.0725], "
        "change 16.145 [16.1175, 16.1725], +0.6%; change won 0/10; gain rule fails",
    ]
    # 8 wins of 10 do not make a gain, however large.
    pairs[0]["change"] = json.loads(json.dumps(pairs[0]["parent"]))
    assert bench_pairs_script.summarise(pairs, spec)[1].endswith("change won 8/10; gain rule fails")
    # Nor does a median gap inside the parent's interquartile range.
    for p in pairs:
        wall = p["parent"]["metrics"]["adj_wall_s"]["value"]
        p["change"]["metrics"]["adj_wall_s"]["value"] = wall - 0.001
    summary = bench_pairs_script.summarise(pairs, spec)
    assert summary[1].endswith("change won 10/10; gain rule fails")


CLAIM_SPEC = [{"name": "adj_wall_s", "better": "lower", "bound": 0.25},
              {"name": "adj_instances_per_s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mib", "better": "lower", "bound": 0.05}]


def rss_pairs(read, wall_factor=1.0, rate_factor=1.0, rss_drop=0.7):
    """Ten pairs in which the change's RSS is lower by ``rss_drop`` MiB and its
    wall time and rate are the parent's times the given factors."""
    return [{"parent": read(canned_run(0.40 + k / 1000, 16.3 + k / 1000)),
             "change": read(canned_run((0.40 + k / 1000) * wall_factor,
                                       16.3 - rss_drop + k / 1000, rate=10.0 * rate_factor))}
            for k in range(10)]


def test_bench_pairs_claim_holds(bench_pairs_script):
    read = bench_pairs_script.result_line
    assert bench_pairs_script.claim_faults(rss_pairs(read), CLAIM_SPEC, "peak_rss_mib") == []
    # Other metrics may worsen within their bounds.
    pairs = rss_pairs(read, wall_factor=1.2, rate_factor=0.8)
    assert bench_pairs_script.claim_faults(pairs, CLAIM_SPEC, "peak_rss_mib") == []


def test_bench_pairs_claim_fails_on_a_metric_over_its_bound(bench_pairs_script):
    read = bench_pairs_script.result_line
    pairs = rss_pairs(read, wall_factor=1.3, rate_factor=0.7)
    assert bench_pairs_script.claim_faults(pairs, CLAIM_SPEC, "peak_rss_mib") == [
        "adj_wall_s: median 30.0% worse, over its bound of 25%",
        "adj_instances_per_s: median 30.0% worse, over its bound of 25%",
    ]


def test_bench_pairs_claim_fails_without_a_gain(bench_pairs_script):
    read = bench_pairs_script.result_line
    # Equal wall times win no pair; a drop inside the parent's IQR is no gain.
    assert bench_pairs_script.claim_faults(rss_pairs(read), CLAIM_SPEC, "adj_wall_s") == [
        "adj_wall_s: gain rule fails"]
    assert bench_pairs_script.claim_faults(rss_pairs(read, rss_drop=0.001), CLAIM_SPEC,
                                           "peak_rss_mib") == ["peak_rss_mib: gain rule fails"]


@pytest.mark.parametrize("wall_factor, code", [(1.0, 0), (1.3, 1)])
def test_bench_pairs_claim_sets_the_exit_code(bench_pairs_script, monkeypatch, tmp_path, capsys,
                                              wall_factor, code):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": CLAIM_SPEC}))
    runs = iter(rss_pairs(bench_pairs_script.result_line, wall_factor=wall_factor))
    pair = {}

    def run_bench(root, workload, seed):
        if not pair:
            pair.update(next(runs))
        return pair.pop(root.name)

    monkeypatch.setattr(bench_pairs_script, "run_bench", run_bench)
    argv = [str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "w", "--claim", "peak_rss_mib"]
    assert bench_pairs_script.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["pair 1 parent: peak_rss_mib 16.3000", "pair 1 change: peak_rss_mib 15.6000"]
    assert lines[-1] == ("claim peak_rss_mib: holds" if code == 0 else
                         "claim peak_rss_mib: adj_wall_s: median 30.0% worse, over its bound of 25%")


def test_bench_pairs_claim_must_name_an_end_to_end_metric(bench_pairs_script, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": CLAIM_SPEC}))
    with pytest.raises(SystemExit) as exc:
        bench_pairs_script.main([str(tmp_path), str(tmp_path), "--workload", "w",
                                 "--claim", "wall_s"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --claim: 'wall_s' is not one of "
        "adj_wall_s, adj_instances_per_s, peak_rss_mib\n")
