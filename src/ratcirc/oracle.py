"""The harness that runs the pipeline and compares it with the ground truth.

The ground truth itself lives in ``groundtruth``, which cannot reach the
code checked here.  ``full_verify``, ``pipeline_order`` and
``brute_force_aut`` stay reachable in this namespace because the
benchmark's tracer wraps them by these names.  ``full_verify`` searches
once per complementary pair of divisor subsets, whose graphs have the
same automorphism group, and compares both records with that order.
"""
from __future__ import annotations

from itertools import combinations

from ._record import frozen
from .errors import BoundExceededError
from .groundtruth import CirculantGraph, brute_force_aut
from .lattice import DEFAULT_MAX_ORACLE_N, DEFAULT_MAX_TAU, DivisorLattice, divisors, tau
from .posets import WeightedPoset
from .gwp import gwp_order
from .pipeline import rational_chain
from . import sring


@frozen
class VerifyRecord:
    """Pipeline and oracle results for one divisor subset."""

    n: int
    subset: tuple[int, ...]
    lattice: tuple[int, ...]
    poset: dict
    order_factored: dict[int, int]
    oracle_order_factored: dict[int, int] | None
    match: bool | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "divisors": list(self.subset),
            "lattice": list(self.lattice),
            "poset": self.poset,
            "order_factored": {str(p): e for p, e in sorted(self.order_factored.items())},
            "oracle_order_factored": None
            if self.oracle_order_factored is None
            else {str(p): e for p, e in sorted(self.oracle_order_factored.items())},
            "match": self.match,
        }


@frozen
class VerifyReport:
    n: int
    records: tuple[VerifyRecord, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match is not False for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "count": len(self.records),
            "all_match": self.all_match,
            "records": [r.to_json_dict() for r in self.records],
        }


def pipeline_order(
    n: int, connection
) -> tuple[DivisorLattice, WeightedPoset, dict[int, int]]:
    """Lattice, weighted poset and factored group order for a rational connection set."""
    _, lat, poset = rational_chain(n, connection)
    return lat, poset, gwp_order(poset)


def full_verify(n: int, use_oracle: bool | None = None) -> VerifyReport:
    """Run the pipeline over every divisor subset, comparing with brute force.

    Oracle comparison is skipped (match None) unless ``use_oracle``; None
    means n <= ``DEFAULT_MAX_ORACLE_N``.  The 2^(tau(n) - 1) subsets are
    bounded like ``sublattices``: tau(n) <= ``DEFAULT_MAX_TAU``, checked
    before the first subset.

    The orbits O_d, d a proper divisor, partition Z_n minus 0, so a subset
    D and its complement among the proper divisors give complementary
    circulants, and a graph and its complement have the same automorphisms.
    The oracle searches once per such pair, and the later subset's record
    is compared with the order found for the earlier one: 2^(tau(n) - 2)
    searches.  The pipeline still runs on every subset.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    t = tau(n)
    if t > DEFAULT_MAX_TAU:
        raise BoundExceededError(
            f"instance too large: n={n} has {t} divisors, so {2 ** (t - 1)} divisor "
            f"subsets (bound {2 ** (DEFAULT_MAX_TAU - 1)}, tau <= {DEFAULT_MAX_TAU})"
        )
    if use_oracle is None:
        use_oracle = n <= DEFAULT_MAX_ORACLE_N
    proper = [d for d in divisors(n) if d != n]
    records = []
    complement_orders: dict[tuple[int, ...], dict[int, int]] = {}
    for k in range(len(proper) + 1):
        for subset in combinations(proper, k):
            connection = sring.orbit_union(n, subset)
            lat, poset, order = pipeline_order(n, connection)
            oracle_order = None
            match = None
            if use_oracle:
                oracle_order = complement_orders.pop(subset, None)
                if oracle_order is None:
                    graph = CirculantGraph.of(n, connection)
                    oracle_order = brute_force_aut(graph, max_n=n).order_factored()
                    complement = tuple(d for d in proper if d not in subset)
                    complement_orders[complement] = oracle_order
                match = oracle_order == order
            records.append(
                VerifyRecord(
                    n=n,
                    subset=subset,
                    lattice=lat.elements,
                    poset=poset.to_json_dict(),
                    order_factored=order,
                    oracle_order_factored=oracle_order,
                    match=match,
                )
            )
    return VerifyReport(n, tuple(records))
