#!/usr/bin/env python3
"""Census of the distinct automorphism groups of rational circulants on Z_n.

Lists every sublattice of the divisor lattice with its group order and
symbolic expression, then counts distinct groups by their (order,
2-orbit partition) signature.

Example:
    python3 scripts/group_census.py 12
"""
import argparse
import sys

from ratcirc import (
    PermutationGroup,
    gwp_generators,
    gwp_order,
    lattice_to_poset,
    render_group_expression,
    sublattices,
    transport,
)
from ratcirc.arith import factored_str, factored_value
from ratcirc.claims import two_orbits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("n", type=int)
    ap.add_argument("--two-orbits", action="store_true",
                    help="refine the census by 2-orbit partitions (needs n <= 200)")
    args = ap.parse_args()

    lattices = sublattices(args.n)
    signatures = set()
    for lat in lattices:
        poset = lattice_to_poset(lat)
        order = gwp_order(poset)
        expr = render_group_expression(poset)
        sig = tuple(sorted(order.items()))
        if args.two_orbits:
            gens = transport(gwp_generators(poset), poset, verify=False)
            sig = (sig, frozenset(two_orbits(PermutationGroup(args.n, gens))))
        signatures.add(sig)
        lattice_txt = "{" + ",".join(map(str, lat.elements)) + "}"
        print(f"{lattice_txt:<40} |G| = {factored_str(order):<18} = {factored_value(order):<12} {expr.text()}")
    print(f"{len(lattices)} sublattices, {len(signatures)} distinct signatures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
