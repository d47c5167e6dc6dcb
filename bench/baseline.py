#!/usr/bin/env python3
"""Reproduce the ROADMAP baseline table with the benchmark's layer timings.

Usage, from the root of a checkout (about 90 s on a 2-core Xeon, most of it
the verified transport at n=720):

    python3 bench/baseline.py

The CLI rows run as capped subprocesses, like the benchmark's requests.
The library rows run in this process with the layer wrappers of
``tracer.py`` installed, and report the total or self time of the named
spans.  Each row runs once; the results are recorded in NOTES.md.
"""
from __future__ import annotations

import sys
import time

from run import CHILD, SRC, WORK, child_env, run_child
from tracer import Tracer, summarise

sys.path.insert(0, str(SRC))


def timed_row(tracer: Tracer, fn):
    """(wall seconds, calls, self seconds, total seconds per span name) of fn()."""
    tracer.spans.clear()
    tracer.counters.clear()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    calls, self_s, _ = summarise({"spans": tracer.spans, "counters": {}})
    total: dict[str, float] = {}
    for name, _, begin, end in tracer.spans:
        total[name] = total.get(name, 0.0) + end - begin
    return wall, calls, self_s, total


def main() -> int:
    WORK.mkdir(exist_ok=True)
    env = child_env()
    for argv in (["enumerate", "20", "--verify", "--format", "json"],
                 ["analyze", "36", "--divisors", "2,3,4,6", "--oracle"]):
        seconds, code = run_child([sys.executable, str(CHILD), str(WORK / "baseline.report"), "run",
                                   *argv], "baseline", env)
        print(f"CLI {' '.join(argv)}: {seconds:.2f} s (exit {code})", flush=True)

    tracer = Tracer()
    tracer.install()
    import ratcirc as rc
    from ratcirc.cli import AnalysisRequest, _analysis_payload

    wall, calls, self_s, _ = timed_row(tracer, lambda: rc.full_verify(20))
    print(f"full_verify(20): {wall:.2f} s, {calls['oracle.brute_force_aut']} instances, "
          f"chain (PermutationGroup.order self) {self_s['perms.PermutationGroup.order']:.2f} s",
          flush=True)

    def pipeline(n, divisors):
        s = set().union(*(rc.orbit_set(n, d) for d in divisors))
        ring = rc.generate_sring(n, s)
        poset = rc.lattice_to_poset(rc.group_basis(ring).lattice)
        return ring, poset, rc.gwp_generators(poset, max_degree=n)

    state = {}
    wall, _, _, total = timed_row(tracer, lambda: state.update(zip("rpg", pipeline(720, (2, 3, 5, 8, 9)))))
    print(f"n=720 (rank {state['r'].rank}, {len(state['g'])} generators): "
          f"ring {total['sring.generate_sring']:.2f} s, "
          f"generators {total['gwp.gwp_generators']:.2f} s", flush=True)
    for verify in (False, True):
        wall, *_ = timed_row(tracer, lambda: rc.transport(state["g"], state["p"], verify=verify))
        print(f"n=720 transport(verify={verify}): {wall:.2f} s", flush=True)

    _, poset, gens = pipeline(420, (2, 3, 5, 7))
    gens = rc.transport(gens, poset, verify=False)
    wall, _, self_s, _ = timed_row(tracer, lambda: rc.PermutationGroup(420, gens).order())
    print(f"n=420 Schreier-Sims order: {self_s['perms.PermutationGroup.order']:.2f} s", flush=True)

    for n in (2520, 5040):
        req = AnalysisRequest(n=n, residues=None, divisor_subset=(2, 3, 5, 7, 8, 9))
        wall, _, self_s, _ = timed_row(tracer, lambda: _analysis_payload(req))
        print(f"_analysis_payload n={n}: {wall:.2f} s; self time "
              f"is_rational {self_s['sring.is_rational']:.2f} s, "
              f"generate_sring {self_s['sring.generate_sring']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
