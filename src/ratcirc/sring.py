"""Schur rings over Z_n, represented by their basic-set partitions.

A Schur ring is a partition of Z_n whose classes contain {0}, are closed
under negation as a family, and whose pairwise convolutions are constant
on every class.  ``generate_sring`` computes the smallest such partition
containing a given subset.  Rational rings are the ones whose classes are
unions of the multiplicative orbits O_d = {x : gcd(x, n) = d}; each is the
ring of one divisor lattice L (x lands in the class of the least member of
L divisible by its order n/d, the class's owner), and both directions of
that dictionary live here.  A subset that is not trace-closed (not a union
of orbits) is refined by fingerprint stabilization on the orbits of its
multipliers M = {m in Z_n^* : mS = S}, which fix every class (Schur's
theorem on multipliers): the row of an orbit's least element x lists,
sorted, the codes of the class pairs (class(u), class(x - u)) over all u in
Z_n, and classes are split by their rows until nothing moves.  That path
refuses n > ``MAX_POINT_N`` up front, and more than ``MAX_POINT_PAIRS``
orbit-point pairs a round before it builds any row; its rows are pure
Python.  No such subset generates a rational ring: it is a union of
classes, and the classes of a rational ring are trace-closed.

A trace-closed S, the union of the O_d over d in D, is read off a lattice
instead.  Its ring <S> is rational: a unit multiplier fixes S, and the
refinement is equivariant, so it fixes every class.  A coarser rational
ring is the ring of a sublattice, so <S> is the ring of the least lattice
L* whose ring has S as a union of classes.  The fixpoint starts from
L = {1, n}; in each class of L's ring it takes the orders n/d whose
membership in S differs from that of the owner's own orbit, adds the
divisibility-maximal ones to L, closes L under gcd and lcm, and stops when
nothing is added.  Each added order o lies in L*, so L stays inside L*:
were o's owner in L* some m != o, then m, a multiple of o in L*, would lie
in o's class of L's ring, and by maximality share the owner's membership,
so o and m would be one class of L*'s ring with two memberships.  At the
fixpoint every class has one membership, so L contains L*, and L = L*.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from operator import add

from ._record import frozen
from .arith import factorize, totient
from .errors import BoundExceededError, InternalConsistencyError, NotRationalError
from .lattice import DivisorLattice, divisors, lattice_closure

# Largest modulus refined point by point: a round may sort an n x n code matrix.
MAX_POINT_N = 4096
# Largest (multiplier orbits) * n pairs of a round of ``_point_sring``.
MAX_POINT_PAIRS = 1 << 17


def orbit_union(n: int, ds) -> frozenset[int]:
    """Union of the orbits {x in Z_n : gcd(x, n) = d} over d in ds.

    Each orbit is enumerated directly as d * (Z_{n/d})^*, so the union costs
    the sum of n/d over d in ds in gcds (sigma(n) for all divisors), not n.
    """
    ds = frozenset(ds)
    for d in ds:
        if n < 1 or d < 1 or n % d != 0:
            raise ValueError(f"{d} does not divide {n}")
    out: list[int] = []
    for d in ds:
        out.extend(d * u for u in units(n // d))
    return frozenset(out)


def orbit_set(n: int, d: int) -> frozenset[int]:
    """The multiplicative-unit orbit {x in Z_n : gcd(x, n) = d}; needs d | n."""
    return orbit_union(n, (d,))


def subgroup(n: int, order: int) -> frozenset[int]:
    """The unique subgroup of Z_n of the given order (multiples of n/order)."""
    if n % order != 0:
        raise ValueError(f"no subgroup of order {order} in Z_{n}")
    step = n // order
    return frozenset(range(0, n, step))


def units(n: int) -> tuple[int, ...]:
    """The residues in Z_n coprime to n, ascending; (0,) for n = 1.

    Sieved: the multiples of each prime of n are struck from range(n).
    """
    mask = bytearray([1]) * n
    for p in factorize(n):
        mask[::p] = bytes(len(range(0, n, p)))
    return tuple(compress(range(n), mask))


def trace(n: int, s) -> frozenset[int]:
    """Union of all unit multiples mS; always a union of orbit sets.

    The units act transitively on each orbit {x : gcd(x, n) = d}, so the
    trace is the union of the orbits that meet s: |s| gcds to find them,
    and the sum of n/d over the orbits O_d met to enumerate them.
    """
    return orbit_union(n, {math.gcd(x, n) for x in s})


def is_trace_closed(n: int, s) -> bool:
    """True iff s mod n fills every orbit O_d it meets."""
    return not _gcd_classes(n, frozenset(x % n for x in s))[1]


def _gcd_classes(n: int, s: frozenset[int]) -> tuple[set[int], set[int]]:
    """The gcds d = gcd(x, n) of the members x of s, and the short ones among them.

    s must be reduced mod n.  O_d is short when s holds fewer than its
    phi(n/d) members; s is trace-closed exactly when no O_d is short.
    """
    counts = Counter(math.gcd(x, n) for x in s)
    return set(counts), {d for d, c in counts.items() if c < totient(n // d)}


@frozen
class SchurRing:
    """Basic-set partition of Z_n, classes ordered by smallest element."""

    n: int
    basic_sets: tuple[frozenset[int], ...]

    @property
    def rank(self) -> int:
        return len(self.basic_sets)

    def is_union_of_classes(self, s) -> bool:
        s = frozenset(s)
        return all(t <= s or not (t & s) for t in self.basic_sets)

    def structure_constants(self) -> dict[tuple[int, int, int], int]:
        """Exact counts p[i,j,k] = #{(a,b) in T_i x T_j : a + b = x}, any x in T_k.

        Raises if a count varies within a class, i.e. the partition is not
        actually convolution-stable.
        """
        import numpy as np

        n, r = self.n, self.rank
        sets = [np.fromiter(t, dtype=np.int64) for t in self.basic_sets]
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

    def validate(self) -> None:
        """Check the Schur-ring axioms; raises ValueError on violation."""
        n = self.n
        all_elems = [x for t in self.basic_sets for x in t]
        if sorted(all_elems) != list(range(n)):
            raise ValueError("basic sets do not partition Z_n")
        if self.basic_sets[0] != frozenset({0}):
            raise ValueError("first basic set must be {0}")
        family = set(self.basic_sets)
        for t in self.basic_sets:
            if frozenset((-x) % n for x in t) not in family:
                raise ValueError(f"negation of {sorted(t)} is not a basic set")
        self.structure_constants()

    def to_json_dict(self) -> dict:
        try:
            basis = list(group_basis(self).lattice.elements)
        except NotRationalError:
            basis = None
        return {
            "n": self.n,
            "rank": self.rank,
            "basic_sets": [sorted(t) for t in self.basic_sets],
            "rational": basis is not None,
            "group_basis": basis,
        }


def generate_sring(n: int, s) -> SchurRing:
    """Basic sets of the smallest Schur ring over Z_n containing the subset s.

    A trace-closed s gives the ring of the least lattice that splits it
    (``_lattice_sring``).  Any other s is refined by exact convolution
    fingerprints on the orbits of its multipliers (``_point_sring``), which
    raises ``BoundExceededError`` for n > ``MAX_POINT_N`` or more than
    ``MAX_POINT_PAIRS`` orbit-point pairs a round.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    s = frozenset(x % n for x in s)
    if n == 1:
        return SchurRing(1, (frozenset({0}),))
    met, short = _gcd_classes(n, s)
    if short:
        return _point_sring(n, s)
    return _lattice_sring(n, met)


def _lattice_sring(n: int, met: set[int]) -> SchurRing:
    """The ring of the union of the orbits O_d, d in ``met``, with n >= 2.

    Runs the lattice fixpoint of the module docstring on the tau(n) orbits;
    the owner l's own orbit is O_{n/l}.  The divisors d ascend, so their
    orders n/d descend: an order is maximal among its class's mismatches
    when no order kept before it is a multiple.  Only the final classes
    touch the n points.
    """
    ds = divisors(n)
    members: tuple[int, ...] = (1, n)
    while True:
        owner = _owners(n, members, ds)
        tops: dict[int, list[int]] = {}  # owner -> its class's maximal mismatched orders
        for d, l in zip(ds, owner):
            o, kept = n // d, tops.setdefault(l, [])
            if (d in met) != (n // l in met) and all(m % o for m in kept):
                kept.append(o)
        added = [o for kept in tops.values() for o in kept]
        if not added:
            return _orbit_ring(n, [d % n for d in ds], owner)
        members = lattice_closure(n, [*members, *added]).elements


def _owners(n: int, members: tuple[int, ...], ds: list[int]) -> list[int]:
    """The owner of each orbit O_d, d in ``ds``: the least member divisible by n/d.

    ``members`` are a lattice's, ascending; O_d lies in the owner's class of its ring.
    """
    return [next(l for l in members if l % (n // d) == 0) for d in ds]


def _point_sring(n: int, s: frozenset[int]) -> SchurRing:
    """``generate_sring`` refined on the orbits of the multipliers of s.

    s must be reduced mod n, with n >= 2.  A unit m with mS = S is an
    automorphism of (Z_n, +) fixing {0}, s and -s, so x and mx get equal
    rows at every round: every class is a union of orbits of
    M = {m : mS = S} (Schur's theorem on multipliers, Wielandt, *Finite
    Permutation Groups*, ch. IV).  Only the least element of each orbit gets
    a row, and only in a class of two or more orbits; a class that is one
    orbit keeps its label.  Refinement stops when nothing splits or every
    class is one orbit.

    The initial classes are the keys (x == 0, x in s, -x in s).  A row is
    the label of x, then the sorted codes a * k + b of the labels a of u and
    b of x - u over all u in Z_n.  The ordered pair (A, B) occurs c_AB(x)
    times there, and c_AB(x) = c_BA(x), so these rows split the points
    exactly as the per-pair counts do.  The class of -x needs no column:
    negation maps {0}, s and -s onto {0}, -s and s, so it permutes the
    initial classes, and a round that starts with classes negation permutes
    ends with such classes.  The class of -x is thus a function of the
    class of x.

    A round costs (orbits) * n pairs.  n <= ``MAX_POINT_N`` is checked
    before anything is computed, and (orbits) * n <= ``MAX_POINT_PAIRS``
    before any row is built.
    """
    if n > MAX_POINT_N:
        raise BoundExceededError(
            f"instance too large: n={n} is refined point by point, so {n * n} point "
            f"pairs per round (bound {MAX_POINT_N * MAX_POINT_N}, n <= {MAX_POINT_N})"
        )
    mult = _multipliers(n, s)
    orbit = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if orbit[x] < 0:
            for m in mult:
                orbit[m * x % n] = len(reps)
            reps.append(x)
    if len(reps) * n > MAX_POINT_PAIRS:
        raise BoundExceededError(
            f"instance too large: n={n} has {len(reps)} multiplier orbits, so "
            f"{len(reps) * n} orbit-point pairs per round (bound {MAX_POINT_PAIRS})"
        )
    number: dict = {}
    labels = [number.setdefault((x == 0, x in s, (-x) % n in s), len(number)) for x in reps]
    old_k, k = 0, len(number)
    while old_k < k < len(reps):
        size = [0] * k
        for a in labels:
            size[a] += 1
        busy = [i for i, a in enumerate(labels) if size[a] > 1]
        ids = dict(zip(busy, _rows([labels[o] for o in orbit], k, [reps[i] for i in busy])))
        number = {}
        labels = [number.setdefault((a, ids.get(i)), len(number)) for i, a in enumerate(labels)]
        old_k, k = k, len(number)
        del ids, number  # this round's rows go before the next round builds its own
    classes = _groups(range(n), [labels[o] for o in orbit])
    return SchurRing(n, tuple(frozenset(xs) for xs in classes))


def _multipliers(n: int, s: frozenset[int]) -> list[int]:
    """M = {m in Z_n^* : mS = S}, a subgroup, tested one coset at a time.

    A unit outside the part of M found so far rules out its whole coset,
    and one inside joins the subgroup it generates with that part.
    """
    group, seen = [1], {1}
    for m in units(n):
        if m in seen:
            continue
        if all(m * x % n in s for x in s):
            old, p = set(group), m
            while p not in old:
                group.extend([p * h % n for h in old])
                p = p * m % n
        seen.update(m * h % n for h in group)
    return group


def _rows(lab: list[int], k: int, xs: list[int]) -> list[tuple[int, ...]]:
    """The rows of the points xs, less their own label, for point labels ``lab``."""
    n = len(lab)
    lk = [a * k for a in lab]
    lab2 = lab + lab  # lab2[x + n - u] = lab[x - u]
    return [tuple(sorted(map(add, lk, lab2[x + n:x:-1]))) for x in xs]


def _orbit_ring(n: int, reps: list[int], labels: list[int]) -> SchurRing:
    """The ring whose classes join the orbits O_gcd(x, n), x in ``reps``, of equal label.

    ``reps`` are the orbits' least elements (d mod n), so a class's least
    element is its least representative: ``_groups`` orders the classes.
    """
    return SchurRing(n, tuple(
        orbit_union(n, {math.gcd(x, n) for x in xs}) for xs in _groups(reps, labels)
    ))


def _groups(nodes, labels: list[int]) -> list[list[int]]:
    """``nodes`` grouped by their labels, the groups ordered by least node."""
    by_label: dict[int, list[int]] = {}
    for x, label in zip(nodes, labels):
        by_label.setdefault(label, []).append(x)
    return sorted(by_label.values(), key=min)


def is_rational(ring: SchurRing) -> bool:
    """True iff every basic set equals its own trace (a union of orbit sets)."""
    return all(trace(ring.n, t) == t for t in ring.basic_sets)


@frozen
class RationalSRing:
    """A rational Schur ring together with its classifying divisor lattice."""

    ring: SchurRing
    lattice: DivisorLattice


def group_basis(ring: SchurRing) -> RationalSRing:
    """Extract the divisor lattice {l : Z_l is a union of basic sets}.

    Defined for rational rings only, and the one place a caller needs to
    check rationality: raises ``NotRationalError`` otherwise.  Members are
    read on the tau(n) orbits O_d.  The reconstruction from the lattice is
    cross-checked before returning.
    """
    if not is_rational(ring):
        raise NotRationalError("group basis exists only for rational Schur rings")
    n = ring.n
    # Z_l is the union of the O_d with (n/l) | d, each within the class of d.
    ds = divisors(n)
    index = {d: next(i for i, t in enumerate(ring.basic_sets) if d % n in t) for d in ds}
    inside = {l: {index[d] for d in ds if d % (n // l) == 0} for l in ds}
    members = [l for l in ds if all(index[d] not in inside[l] for d in ds if d % (n // l))]
    lat = DivisorLattice.of(n, members)
    rebuilt = basic_sets_from_lattice(lat)
    if rebuilt.ring != ring:
        raise InternalConsistencyError(
            f"lattice {lat.elements} does not reconstruct the ring over Z_{n}"
        )
    return RationalSRing(ring, lat)


def basic_sets_from_lattice(lat: DivisorLattice) -> RationalSRing:
    """Rational Schur ring with one basic set per lattice member.

    Element x of Z_n generates a subgroup of some order o(x); it lands in
    the class of the smallest lattice member divisible by o(x).  This is
    the subgroup Z_l stripped of all smaller lattice subgroups.  The order
    is n/d on the whole orbit O_d, so ``_owners`` applies the rule once per
    divisor d.
    """
    if not lat.is_unital:
        raise ValueError("lattice must contain 1")
    n = lat.modulus
    ds = divisors(n)
    return RationalSRing(_orbit_ring(n, [d % n for d in ds], _owners(n, lat.elements, ds)), lat)


def generator_subset(lat: DivisorLattice, verify: bool = True) -> frozenset[int]:
    """A trace-closed subset whose generated Schur ring has group basis ``lat``.

    Walks ``lat.peel()`` from the bottom up.  At a step (top, m, s) the set
    built so far generates the interval below m inside Z_m; it is embedded
    as the subgroup of order m in Z_top and joined by the subgroup of
    order s stripped of the one of order gcd(m, s).  The result never
    contains 0 and is verified by closure unless disabled.
    """
    if not lat.is_unital:
        raise ValueError("lattice must contain 1")
    r: frozenset[int] = frozenset()
    for n, m, s in reversed(lat.peel()):
        # The interval below m needs a generator of Z_m on the correct side
        # of r; switch to the complement in Z_m \ {0} when it is not.
        unit_set = set(units(m))
        if (not r & unit_set) if s < n else unit_set <= r:
            r = frozenset(range(1, m)) - r
        stripped = subgroup(n, s) - subgroup(n, math.gcd(m, s))
        r = frozenset(x * (n // m) % n for x in r) | stripped
    if verify:
        got = group_basis(generate_sring(lat.modulus, r)).lattice
        if got != lat:
            raise InternalConsistencyError(
                f"generator subset for {lat.elements} closed to {got.elements}"
            )
    return r
