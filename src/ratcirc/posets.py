"""Weighted posets, the lattice-to-poset dictionary and the point bijection.

The dictionary implemented here: a sublattice of the divisor lattice of n
containing 1 and n corresponds to an increasing poset on [r] with integer
weights (each at least 2, pairwise coprime across incomparable nodes,
multiplying to n).  The lattice is distributive, so by Birkhoff's
representation theorem (Davey & Priestley, *Introduction to Lattices and
Order*, ch. 5) the poset is its join-irreducibles ordered by divisibility,
read off ``DivisorLattice.peel``; the lattice members are the weight
products over the down-sets.  ``weak_iso_map`` is the point bijection
between weight tuples and Z_n.

Node labels are 0-based internally; JSON and DOT output use 1-based
labels to match the usual diagram conventions.
"""
from __future__ import annotations

import math

from ._record import frozen
from .errors import InternalConsistencyError
from .lattice import DivisorLattice, cover_pairs, hasse_dot


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
        return cover_pairs(range(self.size), lambda i, j: self.leq[i][j])

    def to_json_dict(self) -> dict:
        return {
            "r": self.size,
            "relations": [[i + 1, j + 1] for i, j in sorted(self.strict_pairs())],
            "weights": list(self.weights),
        }

    def to_dot(self) -> str:
        """Hasse diagram with weight labels, edges pointing upward."""
        nodes = {i + 1: f' [label="{i + 1} [{w}]"]' for i, w in enumerate(self.weights)}
        return hasse_dot("poset", nodes, [(i + 1, j + 1) for i, j in self.covers()])


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
    below-or-equal i: n over its principal down-set's product, the
    join-irreducible ``_principal_products`` gives.  A tuple maps to the
    coefficient-weighted sum mod n.
    ``points[k]`` is the image of the k-th tuple in mixed-radix order (the
    order of ``_strides``).  The point table, and with it the check that the
    map is a bijection, is built on first read of ``points``: the
    coefficients alone never cost n.
    """

    def __init__(self, poset: WeightedPoset) -> None:
        self.poset = poset
        self.n = poset.total
        self.coefficients = tuple(self.n // s for s in _principal_products(poset))
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


def weak_iso_map(p: WeightedPoset) -> TransportMap:
    """The tuple-to-residue bijection for a valid weighted poset, verified when its points are read."""
    return TransportMap(p)


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
