"""Checks of the paper's secondary claims; no CLI request loads this module.

Sublattice enumeration, block partitions of Z_n and their orthogonality,
the crested product, the simplicity criterion, the interval-complement
identity, the Schur-ring axioms, 2-orbits and Schurity, generator subsets,
and the count and comparison of rational circulants.  They call the chain that every
request runs (``sring``, ``lattice``, ``posets``, ``gwp``, ``perms``); the
chain never calls them.
"""
from __future__ import annotations

import math
from itertools import combinations, permutations, product

from ._record import frozen
from .arith import factorize
from .errors import BoundExceededError, InternalConsistencyError, NotRationalError
from .gwp import gwp_generators, transport
from .lattice import DEFAULT_MAX_TAU, DivisorLattice, divisors, lattice_closure, tau
from .perms import PermutationGroup
from .posets import (WeightedPoset, _principal_products, find_n_subposet, lattice_to_poset,
                     weak_iso_map)
from . import sring

MAX_TWO_ORBIT_DEGREE = 200


def trivial_lattice(n: int) -> DivisorLattice:
    """The two-element lattice {1, n} (a single point when n is 1)."""
    return DivisorLattice.of(n, {1, n})


def full_lattice(n: int) -> DivisorLattice:
    """The complete divisor lattice L(n)."""
    return DivisorLattice(n, tuple(divisors(n)))


def sublattices(n: int) -> list[DivisorLattice]:
    """All sublattices of L(n) containing 1 and n, in a deterministic order.

    Enumerates subsets of the inner divisors with a gcd/lcm closure check,
    so the divisor count of n is bounded by ``DEFAULT_MAX_TAU``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if tau(n) > DEFAULT_MAX_TAU:
        raise BoundExceededError(
            f"instance too large: n={n} has {tau(n)} divisors (bound {DEFAULT_MAX_TAU})"
        )
    inner = [d for d in divisors(n) if d not in (1, n)]
    # {1, n} is always closed, so only an out-of-range n makes this raise.
    found = [trivial_lattice(n)]
    for r in range(1, len(inner) + 1):
        for combo in combinations(inner, r):
            try:
                found.append(DivisorLattice.of(n, {*combo, 1, n}))
            except ValueError:  # not gcd/lcm-closed
                pass
    found.sort(key=lambda L: (len(L.elements), L.elements))
    return found


@frozen
class ComplementIdentityWitness:
    """Both sides of the interval-complement identity for one (L, m) choice.

    For a maximal m in L minus the top and s the smallest member outside
    the interval below m, the set L minus that interval equals
    {x * s / gcd(m, s) : x in L, x | m, gcd(m, s) | x}.
    """

    lattice: DivisorLattice
    m: int
    s: int
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return self.left == self.right


def complement_identity_check(
    L: DivisorLattice, m: int | None = None
) -> ComplementIdentityWitness:
    """Evaluate the complement identity, choosing m deterministically if omitted.

    The default m is that of the first step of ``L.peel()``; any maximal
    element of L minus the top is a valid override.
    """
    if len(L) < 2:
        raise ValueError("need at least two elements")
    if m is None:
        m = L.peel()[0][1]
    elif m not in L.maximal_elements():
        raise ValueError(f"{m} is not a maximal element of L minus its top")
    below = set(L.below(m).elements)
    left = tuple(x for x in L if x not in below)
    s = left[0]
    g = math.gcd(m, s)
    right = tuple(sorted(x * s // g for x in L.below(m).above(g)))
    return ComplementIdentityWitness(L, m, s, left, right)


def crested_product(l1: DivisorLattice, d: int, l2: DivisorLattice) -> DivisorLattice:
    """Mixed crossing/nesting product of lattices at the pivot d in l2.

    Members are products x*y with x = 1 and y in l2, or x in l1 and y in
    l2 divisible by d.  Requires gcd(n1, n2/d) = 1; crossing is d = 1 and
    nesting is d = n2.
    """
    n1, n2 = l1.modulus, l2.modulus
    if d not in l2:
        raise ValueError(f"pivot {d} is not a member of the second lattice")
    if math.gcd(n1, n2 // d) != 1:
        raise ValueError(f"gcd({n1}, {n2}/{d}) must be 1")
    members = set(l2.elements)
    members.update(x * y for x in l1.elements for y in l2.above(d))
    return DivisorLattice.of(n1 * n2, members)


def poset_isomorphic(p: WeightedPoset, q: WeightedPoset) -> bool:
    """Weighted-poset isomorphism by exhaustive relabeling; fine for small r."""
    if p.size != q.size or sorted(p.weights) != sorted(q.weights):
        return False
    r = p.size
    for perm in permutations(range(r)):
        if all(p.weights[i] == q.weights[perm[i]] for i in range(r)) and all(
            p.leq[i][j] == q.leq[perm[i]][perm[j]] for i in range(r) for j in range(r)
        ):
            return True
    return False


def ancestral_sets(p: WeightedPoset) -> tuple[frozenset[int], ...]:
    """All up-closed subsets of a poset, ordered by (size, members)."""
    r = p.size
    found = []
    for bits in range(1 << r):
        members = frozenset(i for i in range(r) if bits >> i & 1)
        if all(p.up_set(i) <= members for i in members):
            found.append(members)
    found.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(found)


def poset_to_lattice(p: WeightedPoset) -> DivisorLattice:
    """Lattice of weight products over all down-sets (complements of ancestral sets).

    A down-set's product is the lcm of its principal down-sets' products: a
    node in one but not another is incomparable to the other's nodes, so
    their weights are coprime.  Hence the closure of the r principal products.
    """
    return lattice_closure(p.total, _principal_products(p))


@frozen
class SimplicityReport:
    """Whether a lattice decomposes by crossing and nesting alone.

    ``certificate`` is a 4-tuple of poset nodes (0-based) inducing the
    obstructing N shape when the lattice is not simple.
    """

    is_simple: bool
    certificate: tuple[int, int, int, int] | None
    poset: WeightedPoset


def is_simple_lattice(lat: DivisorLattice) -> SimplicityReport:
    """A lattice is simple iff its poset has no induced N subposet."""
    p = lattice_to_poset(lat)
    quad = find_n_subposet(p)
    return SimplicityReport(quad is None, quad, p)


def simple_reduction_applies(n: int) -> bool:
    """True iff every sublattice for this modulus is simple.

    Holds exactly when n is a prime power, a prime power times one other
    prime, or a product of three distinct primes.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    exps = sorted(factorize(n).values(), reverse=True)
    if len(exps) == 1:
        return True
    if len(exps) == 2 and exps[1] == 1:
        return True
    if exps == [1, 1, 1]:
        return True
    return False


@frozen
class PartitionOfZn:
    """Partition of Z_n into blocks, ordered by smallest member."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        elems = sorted(x for b in self.blocks for x in b)
        if elems != list(range(self.n)):
            raise ValueError("blocks do not partition Z_n")
        if list(self.blocks) != sorted(self.blocks, key=min):
            raise ValueError("blocks must be ordered by smallest member")

    @classmethod
    def of(cls, n: int, blocks) -> "PartitionOfZn":
        return cls(n, tuple(sorted((frozenset(b) for b in blocks), key=min)))

    def adjacency(self) -> np.ndarray:
        import numpy as np

        a = np.zeros((self.n, self.n), dtype=np.int64)
        for b in self.blocks:
            idx = sorted(b)
            for x in idx:
                a[x, idx] = 1
        return a


def coset_partition(n: int, order: int) -> PartitionOfZn:
    """Cosets of the subgroup of the given order in Z_n.

    Order 1 gives the equality partition and order n the universal one.
    """
    h = subgroup(n, order)
    return PartitionOfZn.of(n, [{c + x for x in h} for c in range(n // order)])


def poset_block_partition(p: WeightedPoset, j) -> PartitionOfZn:
    """Image on Z_n of the tuple partition 'agree on all coordinates in J'.

    Equals the coset partition of the subgroup whose order is the product
    of the weights outside J.
    """
    j = frozenset(j)
    if not all(p.up_set(i) <= j for i in j):
        raise ValueError(f"{sorted(j)} is not ancestral")
    blocks: dict[tuple[int, ...], set[int]] = {}
    tuples = product(*(range(w) for w in p.weights))
    for t, v in zip(tuples, weak_iso_map(p).points):
        key = tuple(t[i] for i in sorted(j))
        blocks.setdefault(key, set()).add(v)
    return PartitionOfZn.of(p.total, blocks.values())


def orthogonality_check(e: PartitionOfZn, f: PartitionOfZn) -> bool:
    """True iff the 0/1 relation matrices of the two partitions commute."""
    if e.n != f.n:
        raise ValueError("partitions live on different moduli")
    import numpy as np

    a, b = e.adjacency(), f.adjacency()
    return bool(np.array_equal(a @ b, b @ a))


def subgroup(n: int, order: int) -> frozenset[int]:
    """The unique subgroup of Z_n of the given order (multiples of n/order)."""
    if order < 1 or n % order != 0:
        raise ValueError(f"no subgroup of order {order} in Z_{n}")
    step = n // order
    return frozenset(range(0, n, step))


def is_trace_closed(n: int, s) -> bool:
    """True iff s mod n fills every orbit O_d it meets."""
    return not sring._gcd_classes(n, frozenset(x % n for x in s))[1]


def structure_constants(ring: sring.SchurRing) -> dict[tuple[int, int, int], int]:
    """Exact counts p[i,j,k] = #{(a,b) in T_i x T_j : a + b = x}, any x in T_k.

    Raises if a count varies within a class, i.e. the partition is not
    actually convolution-stable.
    """
    import numpy as np

    n, r = ring.n, ring.rank
    sets = [np.fromiter(t, dtype=np.int64) for t in ring.basic_sets]
    out: dict[tuple[int, int, int], int] = {}
    for i in range(r):
        for j in range(r):
            sums = (sets[i][:, None] + sets[j][None, :]).ravel() % n
            counts = np.bincount(sums, minlength=n)
            for k in range(r):
                vals = counts[sets[k]]
                if vals.min() != vals.max():
                    raise InternalConsistencyError(
                        f"convolution of classes {i},{j} not constant on class {k}"
                    )
                out[(i, j, k)] = int(vals[0])
    return out


def validate(ring: sring.SchurRing) -> None:
    """Check the Schur-ring axioms; raises ValueError on violation."""
    n = ring.n
    all_elems = [x for t in ring.basic_sets for x in t]
    if sorted(all_elems) != list(range(n)):
        raise ValueError("basic sets do not partition Z_n")
    if ring.basic_sets[0] != frozenset({0}):
        raise ValueError("first basic set must be {0}")
    family = set(ring.basic_sets)
    for t in ring.basic_sets:
        if frozenset((-x) % n for x in t) not in family:
            raise ValueError(f"negation of {sorted(t)} is not a basic set")
    structure_constants(ring)


def generator_subset(lat: DivisorLattice) -> frozenset[int]:
    """A trace-closed subset whose generated Schur ring has group basis ``lat``.

    Walks ``lat.peel()`` from the bottom up.  At a step (top, m, s) the set
    built so far generates the interval below m inside Z_m; it is embedded
    as the subgroup of order m in Z_top and joined by the subgroup of
    order s stripped of the one of order gcd(m, s).  The result never
    contains 0, and it is checked by generating its ring and reading back
    that ring's lattice.
    """
    r: frozenset[int] = frozenset()
    for n, m, s in reversed(lat.peel()):
        # The interval below m needs a generator of Z_m on the correct side
        # of r; switch to the complement in Z_m \ {0} when it is not.
        unit_set = set(sring.units(m))
        if (not r & unit_set) if s < n else unit_set <= r:
            r = frozenset(range(1, m)) - r
        stripped = subgroup(n, s) - subgroup(n, math.gcd(m, s))
        r = frozenset(x * (n // m) % n for x in r) | stripped
    got = sring.group_basis(sring.generate_sring(lat.modulus, r)).lattice
    if got != lat:
        raise InternalConsistencyError(
            f"generator subset for {lat.elements} closed to {got.elements}"
        )
    return r


def two_orbits(group: PermutationGroup) -> tuple[frozenset[tuple[int, int]], ...]:
    """Orbits of the group's coordinatewise action on ordered pairs.

    Classes appear in order of their lexicographically smallest pair.
    """
    n = group.degree
    if n > MAX_TWO_ORBIT_DEGREE:
        raise BoundExceededError(f"degree {n} exceeds two-orbit bound {MAX_TWO_ORBIT_DEGREE}")
    images = [g.image for g in group.generators]
    seen = [False] * (n * n)
    classes = []
    for rep in range(n * n):
        if seen[rep]:
            continue
        comp, stack = [], [rep]
        seen[rep] = True
        while stack:
            code = stack.pop()
            a, b = divmod(code, n)
            comp.append((a, b))
            for im in images:
                nxt = im[a] * n + im[b]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        classes.append(frozenset(comp))
    return tuple(classes)


def schurity_check(lat: DivisorLattice) -> bool:
    """2-orbits of the constructed group vs. arc relations of the basic sets.

    Always true in theory; a False return means the pipeline broke.
    """
    n = lat.modulus
    p = lattice_to_poset(lat)
    gens = transport(gwp_generators(p), p, verify=False)
    orbit_partition = set(two_orbits(PermutationGroup(n, gens)))

    basic = sring.basic_sets_from_lattice(lat).ring.basic_sets
    arc_partition = {
        frozenset((x, (x + s) % n) for x in range(n) for s in t) for t in basic
    }
    return orbit_partition == arc_partition


def rational_iso_test(n: int, s, r) -> bool:
    """Whether two trace-closed connection sets are equal mod n.

    This compares the sets and proves no isomorphism: reading False as "the
    two graphs are not isomorphic" rests on So's conjecture (*Integral
    circulant graphs*, Discrete Math. 306, 2006).  A certificate computed
    from the two graphs is an open ROADMAP item.
    """
    s = frozenset(x % n for x in s)
    r = frozenset(x % n for x in r)
    if not is_trace_closed(n, s) or not is_trace_closed(n, r):
        raise NotRationalError(
            "isomorphism testing here covers trace-closed sets only"
        )
    return s == r


def count_rational_circulants(n: int) -> int:
    """Number of loopless rational circulants on Z_n: 2^(tau(n) - 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 ** (tau(n) - 1)
