#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

Both trees are copied, without version control or bytecode caches, into
fresh sibling directories ``parent`` and ``change`` of one new temporary
directory, so their paths have equal length: ``peak_rss_mib`` moves with the
path of the checkout.  Pair k runs ``bench/run.py`` in both copies, the
parent first in even pairs and the change first in odd ones.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles (``statistics.quantiles``, exclusive method), how many pairs the
change won (by the metric's ``better``), and whether the gain rule holds:
the change wins at least nine pairs in ten, and the medians differ, in the
better direction, by more than the parent's interquartile range.

With ``--claim METRIC`` each progress line shows METRIC (else
``adj_wall_s``), and the script exits 1 unless the gain rule holds for METRIC
and no other end-to-end metric's median for the change is worse than the
parent's by more than that metric's ``bound`` in ``BENCHMARK.json`` (a
fraction of the parent's median).

Example, from the root of a checkout:
    python3 scripts/bench_pairs.py ../parent . --workload generators-mid --pairs 10 --seed 11 \
        --claim peak_rss_mib
"""
import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")  # equal-length directory names
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".bench_work", ".pytest_cache",
                              ".hypothesis", ".benchmarks")


def result_line(stdout: str) -> dict:
    """The JSON object on the last line of ``bench/run.py``'s stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def compare(pairs: list[dict], spec: dict) -> dict:
    """One end-to-end metric ``spec`` (an entry of ``BENCHMARK.json``) over ``pairs``.

    Gives each side's quartiles, the change's wins, whether the gain rule
    holds, and ``worse_by``: how much worse the change's median is than the
    parent's, as a fraction of the parent's (negative when better).
    """
    name, lower = spec["name"], spec["better"] == "lower"
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(values[side], n=4) for side in SIDES)
    gain = (cm - pm) * (-1 if lower else 1)
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "holds": wins >= math.ceil(0.9 * len(pairs)) and gain > p3 - p1,
            "worse_by": -gain / pm}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """Report lines for ``pairs``, each {"parent": result, "change": result}.

    A result is the last-line object of ``bench/run.py``; ``end_to_end`` is
    the list of that name in ``BENCHMARK.json``.
    """
    count = len(pairs)
    lines = [f"{count} pairs; failed requests: " + ", ".join(
        f"{side} {sum(p[side]['failed'] for p in pairs)}/{sum(p[side]['attempted'] for p in pairs)}"
        for side in SIDES)]
    for spec in end_to_end:
        c = compare(pairs, spec)
        (p1, pm, p3), (c1, cm, c3) = c["parent"], c["change"]
        lines.append(
            f"{spec['name']} ({spec['better']} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}], "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}], {(cm - pm) / pm:+.1%}; "
            f"change won {c['wins']}/{count}; gain rule {'holds' if c['holds'] else 'fails'}"
        )
    return lines


def claim_faults(pairs: list[dict], end_to_end: list[dict], claim: str) -> list[str]:
    """Why ``pairs`` do not show a gain on ``claim``; empty when they do.

    The gain rule must hold for ``claim``, and no other metric's median may
    be worse than the parent's by more than its bound.
    """
    faults = []
    for spec in end_to_end:
        c = compare(pairs, spec)
        if spec["name"] == claim:
            if not c["holds"]:
                faults.append(f"{claim}: gain rule fails")
        elif c["worse_by"] > spec["bound"]:
            faults.append(f"{spec['name']}: median {c['worse_by']:.1%} worse, "
                          f"over its bound of {spec['bound']:.0%}")
    return faults


def run_bench(root: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {root}:\n{done.stderr}")
    return result_line(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric the change claims a gain on; exit 1 unless it holds")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("argument --pairs: at least 2 are needed for quartiles")

    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in spec]
    if args.claim is not None and args.claim not in names:
        ap.error(f"argument --claim: {args.claim!r} is not one of {', '.join(names)}")
    shown = args.claim or "adj_wall_s"
    # A kill then unwinds through the finally below, which removes the copies.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        roots = {}
        for side, tree in zip(SIDES, (args.parent_dir, args.change_dir)):
            roots[side] = base / side
            shutil.copytree(tree, roots[side], ignore=SKIP)
        pairs = []
        for k in range(args.pairs):
            pair = {}
            for side in SIDES[::-1] if k % 2 else SIDES:
                pair[side] = run_bench(roots[side], args.workload, args.seed)
                value = pair[side]["metrics"][shown]["value"]
                print(f"pair {k + 1} {side}: {shown} {value:.4f}", flush=True)
            pairs.append(pair)
    finally:
        shutil.rmtree(base)
    print("\n".join(summarise(pairs, spec)))
    if args.claim is None:
        return 0
    faults = claim_faults(pairs, spec, args.claim)
    print(f"claim {args.claim}: " + ("; ".join(faults) if faults else "holds"))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
