"""Weighted posets, ancestral sets, block partitions and lattice products.

The dictionary implemented here: a sublattice of the divisor lattice of n
containing 1 and n corresponds to an increasing poset on [r] with integer
weights (each at least 2, pairwise coprime across incomparable nodes,
multiplying to n).  The lattice is distributive, so by Birkhoff's
representation theorem (Davey & Priestley, *Introduction to Lattices and
Order*, ch. 5) the poset is its join-irreducibles ordered by divisibility,
read off ``DivisorLattice.peel``; the lattice members are the weight
products over the down-sets.  Ancestral (up-closed) subsets index the
partitions of the associated block structure on Z_n.  ``weak_iso_map`` is
the point bijection between weight tuples and Z_n.

Node labels are 0-based internally; JSON and DOT output use 1-based
labels to match the usual diagram conventions.
"""
from __future__ import annotations

import math
from itertools import permutations, product

from ._record import frozen
from .errors import InternalConsistencyError
from .lattice import DivisorLattice, lattice_closure
from .arith import factorize


@frozen
class WeightedPoset:
    """An increasing partial order on r nodes with node weights.

    ``leq[i][j]`` holds iff i precedes-or-equals j.  Validity means: leq is
    reflexive, antisymmetric, transitive and increasing (i below j implies
    i <= j); every weight is at least 2; weights of incomparable nodes are
    coprime.
    """

    weights: tuple[int, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        r = len(self.weights)
        if len(self.leq) != r or any(len(row) != r for row in self.leq):
            raise ValueError("relation matrix shape does not match weight count")
        if any(w < 2 for w in self.weights):
            raise ValueError(f"weights must all be at least 2: {self.weights}")
        leq = self.leq
        for i in range(r):
            if not leq[i][i]:
                raise ValueError("relation must be reflexive")
            for j in range(r):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ValueError("relation must be antisymmetric")
                if leq[i][j] and i > j:
                    raise ValueError("labeling must be increasing (i below j needs i <= j)")
                for k in range(r):
                    if leq[i][j] and leq[j][k] and not leq[i][k]:
                        raise ValueError("relation must be transitive")
        for i in range(r):
            for j in range(i + 1, r):
                if not leq[i][j] and not leq[j][i]:
                    if math.gcd(self.weights[i], self.weights[j]) != 1:
                        raise ValueError(
                            f"incomparable nodes {i},{j} have non-coprime weights"
                        )

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        n = 1
        for w in self.weights:
            n *= w
        return n

    def strict_pairs(self) -> list[tuple[int, int]]:
        """All pairs (i, j) with i strictly below j."""
        return [
            (i, j)
            for i in range(self.size)
            for j in range(self.size)
            if i != j and self.leq[i][j]
        ]

    def up_set(self, i: int) -> frozenset[int]:
        """Strict ancestors {j : i strictly below j}."""
        return frozenset(j for j in range(self.size) if j != i and self.leq[i][j])

    def down_set(self, i: int) -> frozenset[int]:
        """All j below-or-equal i, including i itself."""
        return frozenset(j for j in range(self.size) if self.leq[j][i])

    def covers(self) -> list[tuple[int, int]]:
        out = []
        for i, j in self.strict_pairs():
            if not any(k != i and k != j and self.leq[i][k] and self.leq[k][j]
                       for k in range(self.size)):
                out.append((i, j))
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {
            "r": self.size,
            "relations": [[i + 1, j + 1] for i, j in sorted(self.strict_pairs())],
            "weights": list(self.weights),
        }

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram with weight labels, edges pointing upward."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i, w in enumerate(self.weights):
            lines.append(f'  "{i + 1}" [label="{i + 1} [{w}]"];')
        for i, j in self.covers():
            lines.append(f'  "{i + 1}" -> "{j + 1}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def poset_from_pairs(weights, pairs) -> WeightedPoset:
    """Build a poset from strict-order pairs (0-based), closing transitively."""
    r = len(tuple(weights))
    leq = [[i == j for j in range(r)] for i in range(r)]
    for i, j in pairs:
        leq[i][j] = True
    for k in range(r):
        for i in range(r):
            if leq[i][k]:
                for j in range(r):
                    if leq[k][j]:
                        leq[i][j] = True
    return WeightedPoset(tuple(weights), tuple(tuple(row) for row in leq))


def antichain(weights) -> WeightedPoset:
    return poset_from_pairs(weights, [])


def chain(weights) -> WeightedPoset:
    ws = tuple(weights)
    return poset_from_pairs(ws, [(i, i + 1) for i in range(len(ws) - 1)])


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


@frozen
class AncestralFamily:
    """All up-closed subsets of a poset, ordered by (size, members)."""

    poset: WeightedPoset
    sets: tuple[frozenset[int], ...]


def ancestral_sets(p: WeightedPoset) -> AncestralFamily:
    r = p.size
    found = []
    for bits in range(1 << r):
        members = frozenset(i for i in range(r) if bits >> i & 1)
        if all(p.up_set(i) <= members for i in members):
            found.append(members)
    found.sort(key=lambda s: (len(s), sorted(s)))
    return AncestralFamily(p, tuple(found))


def complement_weight_product(p: WeightedPoset, j: frozenset[int]) -> int:
    out = 1
    for i in range(p.size):
        if i not in j:
            out *= p.weights[i]
    return out


def poset_to_lattice(p: WeightedPoset) -> DivisorLattice:
    """Lattice of weight products over all down-sets (complements of ancestral sets).

    A down-set's product is the lcm of its principal down-sets' products: a
    node in one but not another is incomparable to the other's nodes, so
    their weights are coprime.  Hence the closure of the r principal products.
    """
    return lattice_closure(p.total, _principal_products(p))


def _principal_products(p: WeightedPoset) -> tuple[int, ...]:
    """Weight product of each node's principal down-set: the lattice's r join-irreducibles."""
    return tuple(math.prod(p.weights[i] for i in p.down_set(j)) for j in range(p.size))


def lattice_to_poset(lat: DivisorLattice) -> WeightedPoset:
    """Inverse construction: the join-irreducibles of the lattice, by divisibility.

    They are the s of the steps (top, m, s) of ``lat.peel()``.  Node i is
    step i from the bottom, with weight top // m, and lies below node j
    exactly when s_i divides s_j; its principal down-set must multiply to s_i.
    """
    n = lat.modulus
    if n < 2:
        raise ValueError("no poset for modulus 1")
    if not lat.is_unital:
        raise ValueError("lattice must contain 1")
    steps = lat.peel()[::-1]
    weights = tuple(top // m for top, m, _ in steps)
    irreducibles = [s for _, _, s in steps]
    leq = tuple(tuple(b % a == 0 for b in irreducibles) for a in irreducibles)
    for j, s in enumerate(irreducibles):
        below = math.prod(w for w, row in zip(weights, leq) if row[j])
        if below != s:
            raise InternalConsistencyError(
                f"down-set of node {j + 1} multiplies to {below}, not {s}, in {lat.elements}"
            )
    return WeightedPoset(weights, leq)


def _strides(weights: tuple[int, ...]) -> tuple[int, ...]:
    """Mixed-radix place values of weight tuples: the last coordinate varies fastest."""
    out = [1] * len(weights)
    for i in range(len(weights) - 2, -1, -1):
        out[i] = out[i + 1] * weights[i + 1]
    return tuple(out)


class TransportMap:
    """Bijection between weight tuples and Z_n given by the coefficient form.

    Coordinate i carries the coefficient prod of weights of all nodes not
    below-or-equal i; a tuple maps to the coefficient-weighted sum mod n.
    ``points[k]`` is the image of the k-th tuple in mixed-radix order (the
    order of ``_strides``).  The point table, and with it the check that the
    map is a bijection, is built on first read of ``points``: the
    coefficients alone never cost n.
    """

    def __init__(self, poset: WeightedPoset) -> None:
        self.poset = poset
        self.n = poset.total
        self.coefficients = tuple(
            complement_weight_product(poset, poset.down_set(i))
            for i in range(poset.size)
        )
        self._points: tuple[int, ...] | None = None

    @property
    def points(self) -> tuple[int, ...]:
        """The point table, built and checked once, on first read."""
        if self._points is None:
            self._points = self._point_table()
        return self._points

    def _point_table(self) -> tuple[int, ...]:
        n = self.n
        points = [0]
        for w, c in zip(self.poset.weights, self.coefficients):
            points = [(v + c * x) % n for v in points for x in range(w)]
        if len(dict.fromkeys(points)) != n:
            raise InternalConsistencyError(
                f"coefficient map {self.coefficients} is not a bijection mod {n}"
            )
        return tuple(points)

    def tuple_to_point(self, t: tuple[int, ...]) -> int:
        return sum(c * x for c, x in zip(self.coefficients, t)) % self.n

    def point_to_tuple(self, v: int) -> tuple[int, ...]:
        k, ws = self.points.index(v % self.n), self.poset.weights
        return tuple(k // s % w for s, w in zip(_strides(ws), ws))


def weak_iso_map(p: WeightedPoset) -> TransportMap:
    """The tuple-to-residue bijection for a valid weighted poset, verified when its points are read."""
    return TransportMap(p)


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

    @property
    def is_uniform(self) -> bool:
        sizes = {len(b) for b in self.blocks}
        return len(sizes) == 1

    def adjacency(self) -> np.ndarray:
        import numpy as np

        a = np.zeros((self.n, self.n), dtype=np.int64)
        for b in self.blocks:
            idx = sorted(b)
            for x in idx:
                a[x, idx] = 1
        return a


def equality_partition(n: int) -> PartitionOfZn:
    return PartitionOfZn.of(n, [{x} for x in range(n)])


def universal_partition(n: int) -> PartitionOfZn:
    return PartitionOfZn.of(n, [set(range(n))])


def coset_partition(n: int, order: int) -> PartitionOfZn:
    """Cosets of the subgroup of the given order in Z_n."""
    if order < 1 or n % order != 0:
        raise ValueError(f"no subgroup of order {order} in Z_{n}")
    step = n // order
    return PartitionOfZn.of(
        n, [set(range(c, n, step)) for c in range(step)]
    )


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
    members.update(x * y for x in l1.elements for y in l2.above(d).elements)
    return DivisorLattice.of(n1 * n2, members)


@frozen
class SimplicityReport:
    """Whether a lattice decomposes by crossing and nesting alone.

    ``certificate`` is a 4-tuple of poset nodes (0-based) inducing the
    obstructing N shape when the lattice is not simple.
    """

    is_simple: bool
    certificate: tuple[int, int, int, int] | None
    poset: WeightedPoset


_N_PATTERN = poset_from_pairs((3, 2, 3, 2), [(0, 2), (1, 2), (1, 3)]).leq
# weights above are placeholders; only the relation template matters


def find_n_subposet(p: WeightedPoset) -> tuple[int, int, int, int] | None:
    """First 4-tuple of nodes, in ``permutations`` order, inducing the N relation pattern.

    The tuple is built one node at a time and dropped as soon as one relation
    to the nodes before it differs from the pattern.  A repeated node is
    dropped too: a node is below itself both ways, and the pattern, being
    antisymmetric, relates no two of its nodes both ways.
    """
    leq = p.leq
    nodes = range(p.size)
    (_, n01, n02, n03), (n10, _, n12, n13), (n20, n21, _, n23), (n30, n31, n32, _) = _N_PATTERN
    for a in nodes:
        la = leq[a]
        for b in nodes:
            lb = leq[b]
            if la[b] != n01 or lb[a] != n10:
                continue
            for c in nodes:
                lc = leq[c]
                if la[c] != n02 or lc[a] != n20 or lb[c] != n12 or lc[b] != n21:
                    continue
                for d in nodes:
                    ld = leq[d]
                    if (la[d] == n03 and ld[a] == n30 and lb[d] == n13 and ld[b] == n31
                            and lc[d] == n23 and ld[c] == n32):
                        return a, b, c, d
    return None


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
