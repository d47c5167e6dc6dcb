"""Generalized wreath products of symmetric groups over a weighted poset.

The group acts on tuples: coordinate i may be permuted by any element of
the symmetric group on its weight, chosen independently for every value
of the projection onto the strict ancestors of i.  Generators are one
adjacent transposition per coordinate per ancestor pattern, which is
enough to generate the whole product while keeping the generating set
linear in the degree.  Each generator declares its support, the points it
swaps, so ``transport`` and its check pay per moved point, not per point
of Z_n.  ``transport`` conjugates the action onto Z_n via
the coefficient bijection and checks that it keeps the group block
structure of the poset's lattice L: the coset partition of Z_l for every
l in L.  That is the same check as one against every basic Cayley graph
of L's rational ring.  There the class of z is the least l in L with z in
Z_l, and L is gcd-closed, so z lies in Z_l exactly when class(z) divides
l.  Hence class(g(y) - g(x)) = class(y - x) for all x, y exactly when,
for every l in L, y - x lies in Z_l if and only if g(y) - g(x) does.
Only the r join-irreducibles of L are checked, the principal down-set
products of the poset (L is distributive; Bailey, Praeger, Rowley & Speed,
*Generalized wreath products of permutation groups*, 1983).  A bijection
that permutes the cosets of Z_a and of Z_b permutes those of
Z_a + Z_b = Z_lcm(a,b), and every member of L is the lcm of the
join-irreducibles below it, so the r checks pass exactly when all |L| do.
The same step names a failure without the rest of L: a member that is not
join-irreducible is lcm(a, b) for members a, b strictly below it, and if
Z_lcm(a,b) fails then Z_a or Z_b fails, so the least failing member of L
is a join-irreducible.

Wreath products are written active part first: in A wr C the group A
permutes the blocks and C acts inside each block, so |A wr C| equals
|A| * |C| ^ (number of blocks).  Over a disjoint union of posets the
product is direct, and over an ordinal sum (every node of one part below
every node of the other) it is the wreath product with the upper part
active.  A poset is built from single nodes by those two operations
exactly when it has no induced N (Valdes, Tarjan & Lawler, *The
recognition of series parallel digraphs*, SIAM J. Comput. 11, 1982), so
``render_group_expression`` reads the expression off the poset whenever
``find_n_subposet`` finds no N, and keeps the gwp descriptor otherwise.
Each leaf of such an expression is one poset node, and a wreath product
raises its lower part to the degree of its upper part, the product of that
part's weights, so the expression's factors (w!)^m are exactly the poset's
(w_i!)^(m_i), one per node.  The expression is checked on those factor
lists, which is stronger than comparing orders: (2!)^3 = (2!)^2 * 2!.
"""
from __future__ import annotations

import math
from itertools import product

from ._record import frozen
from .arith import factorial_items
from .errors import BoundExceededError, InternalConsistencyError
from . import perms, posets
from .posets import (
    WeightedPoset,
    _principal_products,
    find_n_subposet,
    weak_iso_map,
)

# Image entries of the generating set, n per generator.  The CLI hands each
# tuple-space generator to ``transport`` and drops it before the next one, so
# one set is alive: 8 bytes an entry (a tuple slot; every image shares the
# int objects of one range), so 2^27 entries need about 1.04 GiB with the
# supports, under a 1.5 GiB address-space cap.
MAX_GENERATOR_ENTRIES = 1 << 27


def gwp_exponents(p: WeightedPoset) -> tuple[int, ...]:
    """Exponent of each coordinate group: product of its strict ancestor weights."""
    out = []
    for i in range(p.size):
        m = 1
        for j in p.up_set(i):
            m *= p.weights[j]
        out.append(m)
    return tuple(out)


def gwp_order(p: WeightedPoset) -> dict[int, int]:
    """Factored order: product over i of (w_i!)^(ancestor weight product), primes ascending.

    The primes of a smaller factorial are a prefix of those of a larger one,
    so the largest weight lays out every prime, in ascending order, and the
    others add into that one dict.
    """
    order: dict[int, int] = {}
    for w, m in sorted(zip(p.weights, gwp_exponents(p)), reverse=True):
        if order:
            for q, e in factorial_items(w):
                order[q] += e * m
        else:
            order = {q: e * m for q, e in factorial_items(w)}
    return order


def gwp_generators(p: WeightedPoset, *, max_degree: int | None = None) -> list[perms.Perm]:
    """Coxeter-style generators on mixed-radix encoded weight tuples.

    One generator per (coordinate i, ancestor pattern u, adjacent swap k):
    it swaps the values k and k+1 in coordinate i exactly on the points
    whose ancestor projection equals u.  Each image is written directly from
    the strides: the swapped points are lo + f and lo + f + stride_i, where
    lo encodes u and k and f runs over the offsets of the other coordinates.
    Once per node i, before its images, the 2 |offsets| positions f and
    f + stride_i must be distinct and, shifted by every lo, lie in Z_n:
    then each image is a product of disjoint transpositions, a permutation,
    and is stored unchecked with those 2 |offsets| swapped points declared
    as its support.  The check reads the offsets, not n points per image,
    and raises ``InternalConsistencyError`` when it fails.
    The sum m_i (w_i - 1) images of degree n are refused before the first is
    built when they hold more than ``MAX_GENERATOR_ENTRIES`` entries.
    ``max_degree`` is ignored; it is accepted because ``bench/baseline.py``
    still passes it from the degree bound that this one replaced.
    """
    n = p.total
    count = sum(m * (w - 1) for m, w in zip(gwp_exponents(p), p.weights))
    if n * count > MAX_GENERATOR_ENTRIES:
        raise BoundExceededError(
            f"instance too large: n={n} needs {count} generators of degree {n}, "
            f"so {n * count} image entries (bound {MAX_GENERATOR_ENTRIES})"
        )
    weights = p.weights
    strides = posets._strides(weights)
    points = tuple(range(n))  # every image shares these int objects

    gens: list[perms.Perm] = []
    for i in range(p.size):
        anc = sorted(p.up_set(i))
        free = [j for j in range(p.size) if j != i and j not in anc]
        # offsets of the points that agree on coordinate i and the ancestors
        offsets = [
            sum(x * strides[j] for x, j in zip(t, free))
            for t in product(*(range(weights[j]) for j in free))
        ]
        si = strides[i]
        # lo sums x * stride_j over the ancestors j and k * si, each factor
        # from 0 up, so its extremes are the sums of the terms' extremes.
        swapped = offsets + [f + si for f in offsets]
        reach = [(weights[j] - 1) * strides[j] for j in anc] + [(weights[i] - 2) * si]
        if (len(set(swapped)) != len(swapped)
                or sum(min(x, 0) for x in reach) + min(swapped) < 0
                or sum(max(x, 0) for x in reach) + max(swapped) >= n):
            raise InternalConsistencyError(
                f"the swaps of poset node {i + 1} (stride {si}) "
                f"are not disjoint transpositions of Z_{n}"
            )
        half = len(offsets)
        for u in product(*(range(weights[j]) for j in anc)):
            start = sum(x * strides[j] for x, j in zip(u, anc))
            for k in range(weights[i] - 1):
                lo = start + k * si
                support = [points[lo + x] for x in swapped]
                image = list(points)
                # the first half swaps with the second
                for x, y in zip(support, support[half:] + support[:half]):
                    image[x] = y
                gens.append(perms.Perm._unchecked(tuple(image), tuple(support)))
    return gens


def transport(
    tuple_gens, p: WeightedPoset, verify: bool = True
) -> list[perms.Perm]:
    """Conjugate generators from tuple space onto Z_n via the coefficient map.

    ``tuple_gens`` is iterated once and no input is kept, so a caller that
    passes an iterator which drops each generator as it yields it holds one
    tuple-space generator at a time beside the transported set.

    The image maps to_zn[x] to to_zn[g(x)]: it is written into a copy of
    the identity from g's support alone, so it costs one n-entry copy plus
    |support| steps, and the to_zn images of the support are declared as
    its support.  An input that declares none finds its support by one scan.
    Each input is a ``Perm`` of degree n and the point table is a bijection,
    checked once when ``TransportMap.points`` is built, so every result is a
    permutation and is stored unchecked.  With verification on, every
    transported generator must permute the cosets of Z_l for each l in the
    poset's lattice (so it preserves every basic Cayley graph), which costs
    |support| * r steps per generator over the r join-irreducibles; a
    failure means the pipeline is inconsistent.
    """
    to_zn = weak_iso_map(p).points
    n = p.total
    points = tuple(range(n))  # every image shares these int objects
    out = []
    for g in tuple_gens:
        image = g.image
        if len(image) != n:
            raise ValueError("degree mismatch")
        h = list(points)
        moved = []
        for x in g.support:
            z = to_zn[x]
            h[z] = to_zn[image[x]]
            moved.append(z)
        out.append(perms.Perm._unchecked(tuple(h), tuple(moved)))

    if verify:
        _check_block_structure(out, p)
    return out


def _check_block_structure(gens, p: WeightedPoset) -> None:
    """Raise unless each permutation permutes the cosets of Z_l for every inner l of p's lattice.

    Only the r join-irreducibles are checked, which is exact, and only the
    support of each permutation is read: |support| * r steps.  The error
    names the first failing generator and the least join-irreducible it
    breaks, which is the least member of the lattice it breaks (see the
    module docstring).
    """
    n = p.total
    members = _principal_products(p)
    for g in gens:
        support = g.support
        targets = [g.image[x] for x in support]
        failed = [l for l in members if not _permutes_cosets(support, targets, n, l)]
        if failed:
            raise InternalConsistencyError(
                f"transported generator {g} does not permute the cosets "
                f"of the subgroup of order {min(failed)}"
            )


def _permutes_cosets(support, targets: list[int], n: int, l: int) -> bool:
    """Whether a permutation g maps each coset of Z_l into one coset.

    ``targets`` holds g(x) for each x in the support of g, in order.  The
    cosets of Z_l are the residue classes mod n/l, all of size l, so g
    permutes them when each class maps into one class.  A class that holds a
    fixed point (fewer than l moved points) must map into itself, so only
    the support of g is read.
    """
    m = n // l
    images: dict[int, list[int]] = {}  # class mod m -> its moved points' images mod m
    for x, y in zip(support, targets):
        c = x % m
        if c in images:
            images[c].append(y % m)
        else:
            images[c] = [y % m]
    for c, targets in images.items():
        want = c if len(targets) < l else targets[0]
        if targets.count(want) != len(targets):
            return False
    return True


# -- symbolic expression of the group ------------------------------------


@frozen
class GroupExpression:
    """Expression tree over symmetric-group leaves.

    ``kind`` is one of sym, cross, wreath, gwp.  A wreath node's first
    child is the active block-permuting part, the second acts inside each
    block.  A gwp node stands for a product that direct and wreath
    products alone cannot express.
    """

    kind: str
    weight: int | None = None
    children: tuple["GroupExpression", ...] = ()
    poset: WeightedPoset | None = None

    @property
    def degree(self) -> int:
        if self.kind == "sym":
            return self.weight
        if self.kind == "gwp":
            return self.poset.total
        d = 1
        for c in self.children:
            d *= c.degree
        return d

    def _factorial_powers(self, k: int, out: list) -> list:
        """Append (w, m) to ``out`` for each factor (w!)^m of this order to the power k.

        A wreath node raises its inner part to the number of blocks, the
        degree of its active part.
        """
        if self.kind == "sym":
            out.append((self.weight, k))
        elif self.kind == "cross":
            for c in self.children:
                c._factorial_powers(k, out)
        else:
            top, bottom = self.children
            top._factorial_powers(k, out)
            bottom._factorial_powers(k * top.degree, out)
        return out

    def text(self) -> str:
        if self.kind == "sym":
            return f"S_{self.weight}"
        if self.kind == "gwp":
            rel = ", ".join(f"{i + 1}<{j + 1}" for i, j in sorted(self.poset.strict_pairs()))
            ws = ", ".join(map(str, self.poset.weights))
            return f"gwp([{rel}], weights=[{ws}])"
        if self.kind == "cross":
            parts = []
            for c in self._flatten("cross"):
                t = c.text()
                parts.append(f"({t})" if c.kind == "wreath" else t)
            return " × ".join(parts)
        parts = []
        for c in self._flatten("wreath"):
            t = c.text()
            parts.append(f"({t})" if c.kind == "cross" else t)
        return " ≀ ".join(parts)

    def _flatten(self, kind: str) -> list["GroupExpression"]:
        if self.kind != kind:
            return [self]
        out: list[GroupExpression] = []
        for c in self.children:
            out.extend(c._flatten(kind))
        return out


def _decompose(p: WeightedPoset, nodes: list[int]) -> GroupExpression | None:
    """Series-parallel decomposition of the subposet on ``nodes`` (ascending).

    Comparability components multiply, smallest weight product first.  A
    connected subposet is an ordinal sum when a suffix of its increasing
    labels lies wholly above the rest; the least such suffix permutes the
    blocks.  None when neither rule applies.
    """
    if len(nodes) == 1:
        return GroupExpression("sym", weight=p.weights[nodes[0]])
    components: list[set[int]] = []
    for i in nodes:
        linked = [c for c in components if any(p.leq[i][j] or p.leq[j][i] for j in c)]
        components = [c for c in components if c not in linked] + [{i}.union(*linked)]
    if len(components) > 1:
        components.sort(key=lambda c: math.prod(p.weights[i] for i in c))
        kind, parts = "cross", [sorted(c) for c in components]
    else:
        cut = next((k for k in range(len(nodes) - 1, 0, -1)
                    if all(p.leq[i][j] for i in nodes[:k] for j in nodes[k:])), None)
        if cut is None:
            return None
        kind, parts = "wreath", [nodes[cut:], nodes[:cut]]
    children = tuple(_decompose(p, part) for part in parts)
    return None if None in children else GroupExpression(kind, children=children)


def render_group_expression(p: WeightedPoset) -> GroupExpression:
    """Direct/wreath product tree when the poset is N-free, else a gwp descriptor.

    The tree's factors (w!)^m must be the poset's (w_i!)^(m_i), one per
    node (see the module docstring); equal lists give equal orders, so the
    order is not expanded into primes here.
    """
    if find_n_subposet(p) is not None:
        return GroupExpression("gwp", poset=p)
    expr = _decompose(p, list(range(p.size)))
    if expr is None:
        raise InternalConsistencyError(
            f"poset {p} has no induced N but did not decompose"
        )
    if sorted(expr._factorial_powers(1, [])) != sorted(zip(p.weights, gwp_exponents(p))):
        raise InternalConsistencyError(
            f"expression factors differ from the node factors of poset {p}"
        )
    return expr
