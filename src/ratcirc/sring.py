"""Schur rings over Z_n, represented by their basic-set partitions.

A Schur ring is a partition of Z_n whose classes contain {0}, are closed
under negation as a family, and whose pairwise convolutions are constant
on every class.  ``generate_sring`` computes the smallest such partition
containing a given subset by fingerprint stabilization: classes are
repeatedly split by their exact convolution counts against every class
pair until nothing moves.  Rational rings are the ones whose
classes are unions of the multiplicative orbits {x : gcd(x, n) = d};
those are classified by divisor lattices, and both directions of that
dictionary live here.  A trace-closed subset (a union of those orbits)
generates a rational ring, and ``generate_sring`` refines it on the tau(n)
orbits instead of on the n points.  Other subsets are refined on the
orbits of their multipliers M = {m in Z_n^* : mS = S}, which fix every
class (Schur's theorem on multipliers): the row of an orbit's least
element x lists, sorted, the codes of the class pairs (class(u),
class(x - u)) over all u in Z_n.  That path refuses n > ``MAX_POINT_N`` up
front.  Up to ``MAX_PYTHON_PAIRS`` orbit-point pairs a round its rows are
pure Python, which costs less than importing numpy; above it numpy sorts
them as one matrix, 4-10x faster on fine rings with n >= 1000.  No such
subset generates a rational ring: it is a union of classes, and the
classes of a rational ring are trace-closed.

The orbit refinement needs the counts #{(a, b) in O_d x O_e : a + b = x}
for x in O_f.  By the Chinese remainder theorem they are products over the
prime powers p^k || n of local counts on Z_{p^k}.  There V_i = {u : v_p(u)
= i} has phi(p^(k-i)) elements (V_k = {0}), and the number
N(i, j | l) of u in V_i with x - u in V_j, for a fixed x in V_l, is

* |V_i| if i != l and j = min(i, l), and 0 for any other j;
* |V_j| if i = l < k and j > l, and p^(k-l-1) (p - 2) if i = j = l < k;
* 1 if i = j = l = k.

Only the nonzero products are kept, and each unordered pair {d, e} once:
4947 entries at n = 5040, where the dense tau(n)^3 tensor has 216000 (9300
of them nonzero).  The orbit path is pure Python.
"""
from __future__ import annotations

import math
from itertools import compress
from operator import add

from ._record import frozen
from .arith import factorize, totient
from .errors import BoundExceededError, InternalConsistencyError, NotRationalError
from .lattice import DivisorLattice, divisors

# Largest modulus refined point by point: a round may sort an n x n code matrix.
MAX_POINT_N = 4096
# Largest (orbits) * n pairs a round whose rows ``_point_sring`` builds in
# pure Python; above it numpy builds them.
MAX_PYTHON_PAIRS = 1 << 17
# Rows of the numpy path that ``_number_rows`` copies at once to compare neighbours.
_NUMBER_BLOCK_BYTES = 1 << 18


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
    """True iff s mod n fills the orbits O_d it meets: their sizes phi(n/d) sum to |s|."""
    s = frozenset(x % n for x in s)
    return sum(totient(n // d) for d in {math.gcd(x, n) for x in s}) == len(s)


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

    Starts from the splitting induced by {0}, s and -s, then refines by
    exact convolution fingerprints (how often each unordered class pair
    {class(a), class(b)} has a + b = x) until the partition is stable.
    Each round numbers the distinct fingerprints.

    A trace-closed s is refined on the tau(n) orbits {x : gcd(x, n) = d}
    instead of the n points (``_orbit_sring``); any other s on the orbits of
    its multipliers (``_point_sring``), which raises ``BoundExceededError``
    for n > ``MAX_POINT_N``.  Both give the classes of the refinement on all
    n points round by round.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    s = frozenset(x % n for x in s)
    if n == 1:
        return SchurRing(1, (frozenset({0}),))
    if is_trace_closed(n, s):
        return _orbit_sring(n, s)
    return _point_sring(n, s)


def _initial_labels(n: int, s: frozenset[int], points) -> tuple[list[int], int]:
    """Number the keys (x == 0, x in s, -x in s) of ``points`` in order of first appearance.

    Returns the labels and the number of distinct keys.
    """
    key_to_label: dict[tuple[bool, bool, bool], int] = {}
    labels = [key_to_label.setdefault((x == 0, x in s, (-x) % n in s), len(key_to_label))
              for x in points]
    return labels, len(key_to_label)


def _refine(labels, k: int, split):
    """Split the k classes of ``labels`` by fingerprint rows until none splits.

    ``split(labels, k)`` numbers the nodes' rows and returns the new labels
    and their count.  A node's row is its label, then how often each
    unordered class pair {a, b} sums to the node: the orbit path lists
    (pair code, count) items, the point path the sorted ordered pair codes
    a * k + b of all ways x = u + (x - u).  The class of -x needs no column:
    negation maps {0}, s and -s onto {0}, -s and s, so it permutes the
    initial classes, and a round that starts with classes negation permutes
    ends with such classes.  The class of -x is thus a function of the
    class of x.
    """
    while True:
        new_labels, new_k = split(labels, k)
        if new_k == k:
            return labels
        labels, k = new_labels, new_k


def _point_sring(n: int, s: frozenset[int]) -> SchurRing:
    """``generate_sring`` refined on the orbits of the multipliers of s.

    s must be reduced mod n, with n >= 2; n <= ``MAX_POINT_N`` is checked
    before anything is computed.  A unit m with mS = S is an automorphism of
    (Z_n, +) fixing {0}, s and -s, so x and mx get equal rows at every round:
    every class is a union of orbits of M = {m : mS = S} (Schur's theorem on
    multipliers, Wielandt, *Finite Permutation Groups*, ch. IV).  Only the
    least element of each orbit gets a row, and only in a class of two or
    more orbits; a class that is one orbit keeps its label.  Refinement
    stops when nothing splits or every class is one orbit.

    A row is the label of x, then the sorted codes a * k + b of the labels
    a of u and b of x - u over all u in Z_n.  The ordered pair (A, B) occurs
    c_AB(x) times there, and c_AB(x) = c_BA(x), so these rows split the
    points exactly as the per-pair counts do.  A round costs (orbits) * n
    pairs.  Up to ``MAX_PYTHON_PAIRS`` the rows are sorted tuples
    (``_python_rows``): the whole refinement then costs less
    than importing numpy.  Above it numpy sorts them as one matrix
    (``_numpy_rows``), 4-10x faster on fine rings with n >= 1000; the
    crossover is near 2^18 pairs.
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
    rows = _python_rows if len(reps) * n <= MAX_PYTHON_PAIRS else _numpy_rows

    def split(labels: list[int], k: int) -> tuple[list[int], int]:
        if k == len(reps):  # every class is one orbit: nothing left to split
            return labels, k
        size = [0] * k
        for a in labels:
            size[a] += 1
        busy = [i for i, a in enumerate(labels) if size[a] > 1]
        ids = dict(zip(busy, rows([labels[o] for o in orbit], k, [reps[i] for i in busy])))
        number: dict = {}
        new = [number.setdefault((a, ids.get(i)), len(number)) for i, a in enumerate(labels)]
        return new, len(number)

    labels = _refine(*_initial_labels(n, s, reps), split)
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


def _python_rows(lab: list[int], k: int, xs: list[int]) -> list[tuple[int, ...]]:
    """The rows of the points xs, less their own label, for point labels ``lab``."""
    n = len(lab)
    lk = [a * k for a in lab]
    lab2 = lab + lab  # lab2[x + n - u] = lab[x - u]
    return [tuple(sorted(map(add, lk, lab2[x + n:x:-1]))) for x in xs]


def _numpy_rows(lab: list[int], k: int, xs: list[int]) -> list[int]:
    """``_python_rows`` as one numpy matrix, its rows numbered by ``_number_rows``."""
    import numpy as np

    n = len(lab)
    lab = np.array(lab, dtype=np.int32)
    lab2 = np.concatenate((lab, lab))
    rows = np.empty((len(xs), n), dtype=np.int32)
    for row, x in zip(rows, xs):
        row[:] = lab2[x + n:x:-1]
    rows += lab * k  # a * k + b < k * k <= 2^24
    rows.sort(axis=1)
    return _number_rows(rows).tolist()


def _orbit_sring(n: int, s: frozenset[int]) -> SchurRing:
    """``generate_sring`` refined on the orbits O_d = {x : gcd(x, n) = d}.

    s must be a union of orbits, reduced mod n, with n >= 2.  Multiplying
    by a unit is an automorphism of (Z_n, +) that fixes s, so it maps each
    class onto itself at every round: every class is a union of orbits, and
    every point has the row of its orbit's least element.  Nodes are the
    orbits in order of least element (0, then the proper divisors of n), so
    the classes are those of ``_point_sring`` round by round.

    A row's counts are sums of counts[d, e, f] = #{(a, b) in O_d x O_e :
    a + b = x}, x in O_f, over the nonzero entries of ``_count_tensor``: the
    product over p^k || n of the local counts N_p(v_p(d), v_p(e) | v_p(f))
    given in the module docstring.  A row is the label followed by its
    nonzero (class pair, count) items.  Only the final classes touch all n
    points.
    """
    nodes = sorted(divisors(n), key=lambda d: d % n)
    by_target = _count_tensor(n, {d: i for i, d in enumerate(nodes)})

    def split(labels: list[int], k: int) -> tuple[list[int], int]:
        rows = []
        for f, entries in enumerate(by_target):
            counts: dict[int, int] = {}
            for d, e, c, c_same in entries:
                a, b = labels[d], labels[e]
                if a < b:
                    key = a * k + b
                elif a > b:
                    key = b * k + a
                else:
                    key, c = a * k + a, c_same
                counts[key] = counts.get(key, 0) + c
            rows.append((labels[f], *sorted(counts.items())))
        number = {row: i for i, row in enumerate(sorted(set(rows)))}
        return [number[row] for row in rows], len(number)

    reps = [d % n for d in nodes]
    return _orbit_ring(n, reps, _refine(*_initial_labels(n, s, reps), split))


def _orbit_ring(n: int, reps: list[int], labels: list[int]) -> SchurRing:
    """The ring whose classes join the orbits O_gcd(x, n), x in ``reps``, of equal label.

    ``reps`` are the orbits' least elements (d mod n), so a class's least
    element is its least representative: ``_groups`` orders the classes.
    """
    return SchurRing(n, tuple(
        orbit_union(n, {math.gcd(x, n) for x in xs}) for xs in _groups(reps, labels)
    ))


def _local_counts(p: int, k: int) -> list[tuple[int, int, int, int]]:
    """The nonzero local counts N(i, j | l) on Z_{p^k}, as (p^i, p^j, p^l, N).

    The closed form is the one in the module docstring.
    """
    size = [totient(p ** (k - i)) for i in range(k + 1)]
    out = []
    for l in range(k + 1):
        out.extend((p ** i, p ** min(i, l), p ** l, size[i]) for i in range(k + 1) if i != l)
        out.extend((p ** l, p ** j, p ** l, size[j]) for j in range(l + 1, k + 1))
        if l == k:
            out.append((p ** k, p ** k, p ** k, 1))
        elif p > 2:
            out.append((p ** l, p ** l, p ** l, p ** (k - l - 1) * (p - 2)))
    return out


def _count_tensor(n: int, index: dict[int, int]) -> list[list[tuple[int, int, int, int]]]:
    """The nonzero counts[d, e, f] of ``_orbit_sring``, grouped by f.

    ``index`` numbers the divisors of n (n for the orbit {0}).  Entry
    (index[d], index[e], c, c_same) of list index[f] is counts[d, e, f] = c.
    counts[d, e, f] = counts[e, d, f], so each unordered pair {d, e} is
    kept once: c_same = 2c is what the pair adds to a class that holds
    both, and c_same = c when d = e.
    """
    # The kept order of (d, e) is lexicographic on their exponent vectors;
    # ``tie`` marks entries whose exponents have agreed on every prime so far.
    entries = [(1, 1, 1, 1, True)]
    for p, k in factorize(n).items():
        local = _local_counts(p, k)
        entries = [
            (d * pi, e * pj, f * pl, c * m, tie and pi == pj)
            for d, e, f, c, tie in entries
            for pi, pj, pl, m in local
            if not tie or pi <= pj
        ]
    by_target: list[list[tuple[int, int, int, int]]] = [[] for _ in index]
    for d, e, f, c, tie in entries:
        by_target[index[f]].append((index[d], index[e], c, c if tie else 2 * c))
    return by_target


def _groups(nodes, labels: list[int]) -> list[list[int]]:
    """``nodes`` grouped by their labels, the groups ordered by least node."""
    by_label: dict[int, list[int]] = {}
    for x, label in zip(nodes, labels):
        by_label.setdefault(label, []).append(x)
    return sorted(by_label.values(), key=min)


def _number_rows(rows: np.ndarray) -> np.ndarray:
    """Number the distinct rows of a C-contiguous matrix.

    Reads each row as one byte string, sorts those strings, then starts a
    new number wherever one differs from the one before it; equal rows get
    equal numbers.  Neighbours in sorted order are compared a block of
    ``_NUMBER_BLOCK_BYTES`` at a time, so no sorted copy of the matrix is
    made.
    """
    import numpy as np

    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = keys.argsort()
    changed = np.zeros(len(order), dtype=bool)
    block = max(1, _NUMBER_BLOCK_BYTES // keys.itemsize)
    for start in range(1, len(order), block):
        ranked = keys[order[start - 1:start + block]]
        changed[start:start + block] = ranked[1:] != ranked[:-1]
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = np.cumsum(changed)
    return labels


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
    is n/d on the whole orbit O_d, so the rule is applied once per divisor d.
    """
    if not lat.is_unital:
        raise ValueError("lattice must contain 1")
    n = lat.modulus
    ds = divisors(n)
    owner = [min(l for l in lat.elements if l % (n // d) == 0) for d in ds]
    return RationalSRing(_orbit_ring(n, [d % n for d in ds], owner), lat)


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
