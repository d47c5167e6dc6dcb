"""Schur rings over Z_n, represented by their basic-set partitions.

A Schur ring is a partition of Z_n whose classes contain {0}, are closed
under negation as a family, and whose pairwise convolutions are constant
on every class.  ``generate_sring`` computes the smallest such partition
containing a given subset by fingerprint stabilization: classes are
repeatedly split by their exact convolution counts against every class
pair until nothing moves.  Rational rings are the ones whose
classes are unions of the multiplicative orbits {x : gcd(x, n) = d};
those are classified by divisor lattices, and both directions of that
dictionary live here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NotRationalError
from .lattice import DivisorLattice, divisors


def orbit_union(n: int, ds) -> frozenset[int]:
    """Union of the orbits {x in Z_n : gcd(x, n) = d} over d in ds, in one pass over Z_n."""
    ds = frozenset(ds)
    for d in ds:
        if n < 1 or d < 1 or n % d != 0:
            raise ValueError(f"{d} does not divide {n}")
    return frozenset(x for x in range(n) if math.gcd(x, n) in ds)


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
    return tuple(m for m in range(n) if math.gcd(m, n) == 1)


def trace(n: int, s) -> frozenset[int]:
    """Union of all unit multiples mS; always a union of orbit sets.

    The units act transitively on each orbit {x : gcd(x, n) = d}, so the
    trace is the union of the orbits that meet s, found in one pass over
    Z_n with O(n + |s|) gcds.
    """
    return orbit_union(n, {math.gcd(x, n) for x in s})


def is_trace_closed(n: int, s) -> bool:
    s = frozenset(x % n for x in s)
    return trace(n, s) == s


@dataclass(frozen=True)
class SchurRing:
    """Basic-set partition of Z_n, classes ordered by smallest element."""

    n: int
    basic_sets: tuple[frozenset[int], ...]

    @property
    def rank(self) -> int:
        return len(self.basic_sets)

    def class_index(self) -> list[int]:
        """class_index()[x] is the position of x's basic set."""
        idx = [-1] * self.n
        for i, t in enumerate(self.basic_sets):
            for x in t:
                idx[x] = i
        return idx

    def is_union_of_classes(self, s) -> bool:
        s = frozenset(s)
        return all(t <= s or not (t & s) for t in self.basic_sets)

    def structure_constants(self) -> dict[tuple[int, int, int], int]:
        """Exact counts p[i,j,k] = #{(a,b) in T_i x T_j : a + b = x}, any x in T_k.

        Raises if a count varies within a class, i.e. the partition is not
        actually convolution-stable.
        """
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

    Starts from the splitting induced by {0}, s and -s, then refines by
    exact convolution fingerprints (the class of -x, and the number of
    ways x = a + b for each unordered class pair) until the partition is
    stable.  Each round numbers the distinct fingerprints by an exact
    lexicographic sort of their columns.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    s = frozenset(x % n for x in s)
    if n == 1:
        return SchurRing(1, (frozenset({0}),))

    key_to_label: dict[tuple[bool, bool, bool], int] = {}
    labels = np.empty(n, dtype=np.int64)
    for x in range(n):
        key = (x == 0, x in s, (-x) % n in s)
        if key not in key_to_label:
            key_to_label[key] = len(key_to_label)
        labels[x] = key_to_label[key]

    neg = (-np.arange(n)) % n
    while True:
        k = int(labels.max()) + 1
        idx = [np.flatnonzero(labels == a) for a in range(k)]
        cols = [labels, labels[neg]]
        # Addition commutes, so the column of (b, a) equals that of (a, b).
        for a in range(k):
            for b in range(a, k):
                sums = np.add.outer(idx[a], idx[b]).ravel()
                # a + b < 2n: count both laps, then fold the second onto the first.
                counts = np.bincount(sums, minlength=2 * n)
                cols.append(counts[:n] + counts[n:])
        new_labels = _number_rows(cols)
        if int(new_labels.max()) + 1 == k:
            break
        labels = new_labels

    by_label: dict[int, list[int]] = {}
    for x in range(n):
        by_label.setdefault(int(labels[x]), []).append(x)
    classes = sorted((frozenset(v) for v in by_label.values()), key=min)
    return SchurRing(n, tuple(classes))


def _number_rows(cols: list[np.ndarray]) -> np.ndarray:
    """Number the distinct rows of the matrix whose columns are ``cols``.

    Sorts the rows lexicographically (``lexsort`` takes its primary key
    last), then starts a new number wherever a row differs from the one
    before it in that order; equal rows get equal numbers.
    """
    order = np.lexsort(cols[::-1])
    changed = np.zeros(len(order), dtype=bool)
    for col in cols:
        ranked = col[order]
        changed[1:] |= ranked[1:] != ranked[:-1]
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = np.cumsum(changed)
    return labels


def is_rational(ring: SchurRing) -> bool:
    """True iff every basic set equals its own trace (a union of orbit sets)."""
    return all(trace(ring.n, t) == t for t in ring.basic_sets)


@dataclass(frozen=True)
class RationalSRing:
    """A rational Schur ring together with its classifying divisor lattice."""

    ring: SchurRing
    lattice: DivisorLattice


def group_basis(ring: SchurRing) -> RationalSRing:
    """Extract the divisor lattice {l : Z_l is a union of basic sets}.

    Defined for rational rings only, and the one place a caller needs to
    check rationality: raises ``NotRationalError`` otherwise.  The
    reconstruction from the lattice is cross-checked before returning.
    """
    if not is_rational(ring):
        raise NotRationalError("group basis exists only for rational Schur rings")
    n = ring.n
    members = [l for l in divisors(n) if ring.is_union_of_classes(subgroup(n, l))]
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
    the subgroup Z_l stripped of all smaller lattice subgroups.
    """
    if not lat.is_unital:
        raise ValueError("lattice must contain 1")
    n = lat.modulus
    owner = {o: min(l for l in lat.elements if l % o == 0) for o in divisors(n)}
    classes: dict[int, set[int]] = {l: set() for l in lat.elements}
    for x in range(n):
        classes[owner[n // math.gcd(x, n)]].add(x)
    parts = sorted((frozenset(v) for v in classes.values()), key=min)
    ring = SchurRing(n, tuple(parts))
    return RationalSRing(ring, lat)


def generator_subset(lat: DivisorLattice, verify: bool = True) -> frozenset[int]:
    """A trace-closed subset whose generated Schur ring has group basis ``lat``.

    Follows the recursive construction: peel a maximal element m, generate
    the interval below it inside the subgroup of order m, and adjoin the
    stripped subgroup of the smallest member outside the interval.  The
    result never contains 0 and is verified by closure unless disabled.
    """
    if not lat.is_unital:
        raise ValueError("lattice must contain 1")
    s = _generator_subset_rec(lat)
    if verify:
        got = group_basis(generate_sring(lat.modulus, s)).lattice
        if got != lat:
            raise InternalConsistencyError(
                f"generator subset for {lat.elements} closed to {got.elements}"
            )
    return s


def _generator_subset_rec(lat: DivisorLattice) -> frozenset[int]:
    n = lat.modulus
    if lat.elements == (1,):
        return frozenset()
    if lat.elements == (1, n):
        return frozenset(range(1, n))

    m = max(lat.maximal_elements())
    r = _generator_subset_rec(lat.below(m))
    s = min(x for x in lat.elements if m % x != 0)
    g = math.gcd(m, s)
    stripped = subgroup(n, s) - subgroup(n, g)

    # The recursion needs a generator of the order-m subgroup on the correct
    # side of r; switch to the complement in Z_m \ {0} when it is not.
    unit_set = set(units(m))
    if s < n:
        if not (r & unit_set):
            r = frozenset(range(1, m)) - r
    else:
        if unit_set <= r:
            r = frozenset(range(1, m)) - r

    embedded = frozenset((x * (n // m)) % n for x in r)
    return embedded | stripped
