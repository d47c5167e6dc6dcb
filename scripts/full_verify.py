#!/usr/bin/env python3
"""Cross-validate the constructive pipeline against brute force over a range of n.

For every n in the range and every divisor subset, computes the group
order twice (closed formula vs. backtracking search) and reports any
mismatch, with the seconds each modulus took.  Writes the full
per-instance JSON report when --out is given.
An n with more than 12 divisors is skipped, with the bound it exceeds.
An internal inconsistency (the oracle's own cross-check failing) is
reported for its n and counted as a failure; the range goes on.

Example:
    python3 scripts/full_verify.py 2 20 --out verify_report.json
"""
import argparse
import json
import sys
import time

from ratcirc import BoundExceededError, InternalConsistencyError, full_verify
from ratcirc.cli import non_negative_int
from ratcirc.lattice import DEFAULT_MAX_ORACLE_N


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("lo", type=int, help="first modulus (inclusive)")
    ap.add_argument("hi", type=int, help="last modulus (inclusive)")
    ap.add_argument("--max-oracle-n", type=non_negative_int, default=DEFAULT_MAX_ORACLE_N)
    ap.add_argument("--out", help="path for the JSON report")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    reports = []
    bad = 0
    t0 = time.perf_counter()
    for n in range(args.lo, args.hi + 1):
        t_n = time.perf_counter()
        try:
            rep = full_verify(n, use_oracle=n <= args.max_oracle_n)
        except BoundExceededError as e:
            print(f"n={n:3d}: skipped, {e}")
            continue
        except InternalConsistencyError as e:
            print(f"n={n:3d}: INTERNAL ERROR: {e}")
            bad += 1
            continue
        reports.append(rep.to_json_dict())
        verified = sum(1 for r in rep.records if r.match is True)
        failed = sum(1 for r in rep.records if r.match is False)
        bad += failed
        mode = "pipeline-only" if verified + failed == 0 else f"{verified} verified"
        print(f"n={n:3d}: {len(rep.records):4d} rational circulants, {mode}"
              + (f", {failed} MISMATCHES" if failed else "")
              + f", {time.perf_counter() - t_n:.2f}s")
    print(f"total {time.perf_counter() - t0:.1f}s")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
