#!/usr/bin/env python3
"""End-to-end benchmark of the ratcirc command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-small [--seed 0] [--seconds 16] [--trace 0]

One client sends the workload's requests in a closed loop: each request is
a fresh ``python3 bench/child.py`` subprocess, which behaves like
``python -m ratcirc.cli ...`` under an address-space cap of 1.5 GiB that it
sets on itself, and reports its own peak RSS.  Each starts only after the
previous one exits.  The seed only permutes the request order.  A run makes
passes over the request list until they have taken ``--seconds`` in all;
every output is checked after its pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics: medians over passes, and as
setup_s the median of fresh ``import ratcirc.cli`` interpreters sampled
between passes.  setup_s and the ``adj_`` metrics, which BENCHMARK.json
bounds, scale each child's time by REFERENCE_NOMINAL_S over the time of a
fixed loop run in the same child (``child.py``), because the host's speed
swings by up to 1.8x between and within runs; the unscaled wall_s,
instances_per_s, slowest_request_s and unscaled_setup_s are printed beside
them.  ``--trace 1`` makes one untraced pass between two passes whose
requests install ``tracer.py``'s wrappers around each layer's public
functions, and reports per-layer self time, call and size counters.  The
traced run fails if wrapping is incomplete, if traced stdout differs from
untraced stdout, or if the counters of the two traced passes differ.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A request fails when its exit code or its
checked output differs from the expected one; ``correct`` is false when any
request fails other than one marked ``known_defect`` in workloads.py.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import SIZES, TIMED, span_name, summarise
from workloads import WORKLOADS, Request

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 3  # per slot: before each pass and after the last
DEFAULT_SEED = 0
# child.py's reference loop took about this long on a 2-core Xeon VM in a
# fast spell, so adjusted times read close to wall times on that host.
REFERENCE_NOMINAL_S = 0.020

CALL_METRICS = ("sring.generate_sring", "sring.is_rational", "sring.trace",
                "perms.PermutationGroup.order", "oracle.brute_force_aut")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class PassResult:
    seconds: dict[int, float]  # request index -> wall time, reference loops excluded
    adjusted: dict[int, float]  # the same, scaled to the nominal reference speed
    peak_rss_kib: int = 0
    instances: int = 0
    failures: dict[int, str] = field(default_factory=dict)  # request index -> what was wrong
    exits: dict[int, int] = field(default_factory=dict)
    stdout: dict[int, bytes] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())


# -- running children -----------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], tag: str, env: dict[str, str]) -> tuple[float, int]:
    """Run one child to completion: (seconds, exit code)."""
    with open(WORK / f"{tag}.out", "wb") as out, open(WORK / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        code = subprocess.run(cmd, stdout=out, stderr=err, env=env).returncode
        return time.perf_counter() - start, code


def check_import_location(env: dict[str, str]) -> None:
    """Fail unless the children import ratcirc from this checkout's src/."""
    probe = "import ratcirc.cli, sys; sys.stdout.write(ratcirc.cli.__file__)"
    _, code = run_child([sys.executable, "-c", probe], "setup", env)
    location = (WORK / "setup.out").read_text()
    if code != 0 or not Path(location).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ratcirc.cli did not import from {SRC}: exit {code}, {location!r}")


def read_report(path: Path, seconds: float) -> tuple[dict | None, float, float]:
    """A child's report (None if it wrote none), its time without the
    reference loops, and that time scaled to the nominal reference speed."""
    if not path.exists():
        return None, seconds, seconds
    report = json.loads(path.read_text())
    path.unlink()
    reference = report["reference_s"]
    bare = seconds - sum(reference)
    return report, bare, bare * REFERENCE_NOMINAL_S * len(reference) / sum(reference)


def time_imports(env: dict[str, str], samples: int) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) for fresh interpreters that only import ratcirc.cli."""
    out = []
    for _ in range(samples):
        report_path = WORK / "setup.report"
        report_path.unlink(missing_ok=True)
        seconds, code = run_child([sys.executable, str(CHILD), str(report_path), "import"],
                                  "setup", env)
        report, bare, scaled = read_report(report_path, seconds)
        if code != 0 or report is None:
            raise BenchError(f"import ratcirc.cli failed: exit {code}")
        out.append((bare, scaled))
    return out


def run_pass(requests: list[Request], order: list[int], traced: bool,
             env: dict[str, str]) -> PassResult:
    stats = {}
    for i in order:
        report_path = WORK / f"{i}.report"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(report_path), "trace" if traced else "run",
               *requests[i].argv]
        stats[i] = run_child(cmd, str(i), env)

    result = PassResult({}, {})
    for i, (seconds, code) in stats.items():
        out = (WORK / f"{i}.out").read_bytes()
        err = (WORK / f"{i}.err").read_bytes()
        result.exits[i], result.stdout[i] = code, out
        problem, instances = check(requests[i], code, out, err)
        report, result.seconds[i], result.adjusted[i] = read_report(WORK / f"{i}.report", seconds)
        if report is None:
            problem = problem or "the child wrote no report"
        else:
            result.peak_rss_kib = max(result.peak_rss_kib, report["peak_rss_kib"])
            if traced:
                result.spans.append(report)
        if problem is None:
            result.instances += instances
        else:
            result.failures[i] = problem
    if traced and len(result.spans) != len(requests):
        raise BenchError("a traced request wrote no spans")
    return result


# -- output checks ----------------------------------------------------------


def orbit(n: int, d: int) -> list[int]:
    return [x for x in range(1, n) if math.gcd(x, n) == d]


def factorial_factored(w: int) -> dict[int, int]:
    out = {}
    for p in range(2, w + 1):
        if all(p % q for q in range(2, p)):
            e, q = 0, p
            while q <= w:
                e, q = e + w // q, q * p
            out[p] = e
    return out


def order_from_poset(poset: dict) -> dict[str, int]:
    """prod_i (w_i!)^(product of the weights strictly above i), factored."""
    weights = poset["weights"]
    exponents = [1] * len(weights)
    for i, j in poset["relations"]:
        exponents[i - 1] *= weights[j - 1]
    out: dict[int, int] = {}
    for w, m in zip(weights, exponents):
        for p, e in factorial_factored(w).items():
            out[p] = out.get(p, 0) + e * m
    return {str(p): e for p, e in sorted(out.items())}


def automorphism_problem(n: int, connection: list[int], gens: list[list[int]]) -> str | None:
    """None iff every generator is a permutation of Z_n preserving Cay(Z_n, S)."""
    if any(len(image) != n for image in gens):
        return "a generator is not a permutation of Z_n"
    g = np.asarray(gens, dtype=np.int64)
    if not (np.sort(g, axis=1) == np.arange(n)).all():
        return "a generator is not a permutation of Z_n"
    in_s = np.zeros(n, dtype=bool)
    in_s[connection] = True
    points = np.arange(n)
    for s in connection:
        if not in_s[(g[:, (points + s) % n] - g) % n].all():
            return f"a generator breaks the arc x -> x+{s}"
    return None


def check(req: Request, code: int, out: bytes, err: bytes) -> tuple[str | None, int]:
    """(problem or None, rational circulants answered) for one request."""
    if req.kind == "reject":
        s = sorted(set(req.residues))
        x = min(y for y in s if not set(orbit(req.n, math.gcd(y, req.n))) <= set(s))
        diag = f"not rational: trace of {{{x}}} is {{{','.join(map(str, orbit(req.n, math.gcd(x, req.n))))}}}"
        if code != 2:
            return f"exit {code}, expected 2", 0
        if out or diag not in err.decode(errors="replace"):
            return f"diagnostic differs from {diag[:60]}...", 0
        return None, 1
    if code != 0:
        return f"exit {code}, expected 0", 0
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON: {e}", 0
    if req.kind == "enumerate":
        want = 2 ** (sum(1 for d in range(1, req.n + 1) if req.n % d == 0) - 1)
        records = payload.get("records", [])
        if payload.get("all_match") is not True or payload.get("count") != want or len(records) != want:
            return f"all_match/count differ (want all_match and {want} records)", 0
        if any(r.get("match") is not True for r in records):
            return "a record is not oracle-matched", 0
        return None, want
    for key, value in req.expected.items():
        if payload.get(key) != value:
            return f"{key} differs from the pinned value", 0
    if payload["order_factored"] != order_from_poset(payload["poset"]):
        return "order_factored disagrees with the poset's closed formula", 0
    connection = sorted(set().union(*(orbit(req.n, d) for d in req.divisors)))
    if payload.get("connection_set") != connection:
        return "connection_set differs", 0
    if req.kind == "generators":
        gens = payload.get("generators", [])
        if len(gens) != req.generator_count:
            return f"{len(gens)} generators, expected {req.generator_count}", 0
        problem = automorphism_problem(req.n, connection, gens)
        if problem:
            return problem, 0
    return None, 1


# -- metrics ----------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def measure_passes(requests, rng, seconds, env, setup_samples):
    """Untraced passes until their wall times add up to ``seconds``.

    The setup samples are spread over the run (before every pass and after
    the last) so that a slow spell of the host does not bias all of them.
    """
    setup: list[tuple[float, float]] = []
    passes: list[PassResult] = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        setup += time_imports(env, setup_samples)
        order = rng.sample(range(len(requests)), len(requests))
        passes.append(run_pass(requests, order, False, env))
        print(f"pass {len(passes)} order {order}: wall {passes[-1].wall_s:.3f} s, "
              f"failed {len(passes[-1].failures)}/{len(requests)}", flush=True)
    setup += time_imports(env, setup_samples)
    return setup, passes


def end_to_end(passes: list[PassResult], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(the metrics BENCHMARK.json bounds, the unscaled timings printed beside them)."""
    med = statistics.median

    def timings(prefix: str, per_request) -> dict:
        walls = [sum(per_request(p).values()) for p in passes]
        return {
            f"{prefix}wall_s": (med(walls), "s"),
            f"{prefix}instances_per_s": (med(p.instances / w for p, w in zip(passes, walls)), "1/s"),
            f"{prefix}slowest_request_s": (med(max(per_request(p).values()) for p in passes), "s"),
        }

    bounded = {
        "setup_s": (med(scaled for _, scaled in setup), "s"),
        **timings("adj_", lambda p: p.adjusted),
        "peak_rss_mib": (med(p.peak_rss_kib / 1024 for p in passes), "MiB"),
    }
    unscaled = {"unscaled_setup_s": (med(bare for bare, _ in setup), "s"),
                **timings("", lambda p: p.seconds)}
    return bounded, unscaled


def layer_totals(p: PassResult):
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for record in p.spans:
        c, s, z = summarise(record)
        for src, dst in ((c, calls), (s, self_s), (z, sizes)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return calls, self_s, sizes


def per_layer(workload: str, untraced: list[PassResult], traced: list[PassResult]) -> dict:
    requests = WORKLOADS[workload].requests
    base = untraced[-1]
    for p in traced:
        for i, out in p.stdout.items():
            if out != base.stdout[i] or p.exits[i] != base.exits[i]:
                raise BenchError(f"traced output differs from untraced: {' '.join(requests[i].argv)}")
    (calls, self_a, sizes), (calls_b, self_b, sizes_b) = (layer_totals(p) for p in traced)
    if calls != calls_b or sizes != sizes_b:
        raise BenchError(f"counters differ between traced passes: {calls} {sizes} / {calls_b} {sizes_b}")
    silent = [name for name in WORKLOADS[workload].must_run if not calls.get(name)]
    if silent:
        raise BenchError(f"spans recorded no calls on {workload}: {', '.join(silent)}")

    self_s = {k: (self_a.get(k, 0.0) + self_b.get(k, 0.0)) / 2 for k in set(self_a) | set(self_b)}
    wall = statistics.median(p.wall_s for p in untraced)
    metrics = {}
    for module, qualname in TIMED:
        name = span_name(module, qualname)
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, _ in SIZES.values():
        metrics[name] = (sizes.get(name, 0), "count")
    instances = traced[0].instances
    metrics["sring.is_rational.calls_per_request"] = (
        calls.get("sring.is_rational", 0) / len(requests), "calls/request")
    metrics["perms.PermutationGroup.order.calls_per_instance"] = (
        calls.get("perms.PermutationGroup.order", 0) / instances if instances else 0.0,
        "calls/instance")
    traced_wall = sum(p.wall_s for p in traced) / len(traced)
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")

    stressed = WORKLOADS[workload].stressed
    share = sum(self_s.get(name, 0.0) for name in stressed) / traced_wall
    print(f"stress {' + '.join(stressed)} self time / traced wall_s = {share:.3f}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"permutes the request order only (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ratcirc" / "cli.py").is_file():
        print(f"error: no ratcirc sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    requests = WORKLOADS[args.workload].requests
    env = child_env()
    rng = random.Random(args.seed)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: {len(requests)} requests, seed {args.seed} "
          f"(default {DEFAULT_SEED}), trace {args.trace}", flush=True)

    try:
        check_import_location(env)
        if args.trace:
            # One untraced pass between two traced ones, so that a steady
            # drift of the host's speed cancels out of trace.overhead_s.
            def shuffled():
                return rng.sample(range(len(requests)), len(requests))

            first = run_pass(requests, shuffled(), True, env)
            passes = [run_pass(requests, shuffled(), False, env)]
            traced = [first, run_pass(requests, shuffled(), True, env)]
            every = passes + traced
            metrics = per_layer(args.workload, passes, traced)
        else:
            setup, passes = measure_passes(requests, rng, args.seconds, env, SETUP_SAMPLES)
            every = passes
            metrics, unscaled = end_to_end(passes, setup)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = len(requests) * len(every)
    failures = {(i, problem) for p in every for i, problem in p.failures.items()}
    failed = sum(len(p.failures) for p in every)
    for i, problem in sorted(failures):
        known = " (known defect)" if requests[i].known_defect else ""
        print(f"failed{known}: {' '.join(requests[i].argv)}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in unscaled.items():
            print(f"metric {name} = {value:.6g} {unit}")
        print(f"metric failed_frac = {failed / attempted:.6g} 1")
    print(json.dumps({
        "correct": all(requests[i].known_defect for i, _ in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
