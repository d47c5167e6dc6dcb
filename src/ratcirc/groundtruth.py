"""Independent ground truth for the constructive pipeline.

It imports only ``_record``, ``arith``, ``errors``, ``perms`` and the
oracle bound from ``lattice``, never the ring, lattice or poset code it
checks; a test asserts that nothing else executes.  Automorphism groups
are found by backtracking over vertex images with adjacency pruning,
spectra by character sums cross-checked against a floating-point DFT.
The search starts with no colour refinement: translations are
automorphisms of every circulant, so any colouring they preserve is
constant.

``brute_force_aut`` builds its stabilizer chain bottom-up (Butler,
*Fundamental Algorithms for Permutation Groups*, 1991; Seress,
*Permutation Group Algorithms*, 2003, ch. 9): base points are taken in
reverse order, so the generators of each point stabilizer are known
before the level above it is searched.  Candidate images are pruned by
their orbits under that stabilizer, one search per orbit; each base
point's orbit is closed under all generators found, and there are at
most log2|G| of them.
"""
from __future__ import annotations

import math

from ._record import frozen
from .arith import moebius, totient
from .errors import BoundExceededError, InternalConsistencyError
from .lattice import DEFAULT_MAX_ORACLE_N
from .perms import Perm, PermutationGroup


@frozen
class CirculantGraph:
    """Cayley graph over Z_n: arcs x -> x + s for every s in the connection set.

    Loops are rejected (0 may not be in the set); the graph is undirected
    exactly when the set is closed under negation.
    """

    n: int
    connection: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if any(not 1 <= s < self.n for s in self.connection):
            raise ValueError("connection set must consist of nonzero residues")

    @classmethod
    def of(cls, n: int, connection) -> "CirculantGraph":
        reduced = frozenset(s % n for s in connection)
        if 0 in reduced:
            raise ValueError("loops are not supported: 0 in connection set")
        return cls(n, reduced)

    def out_masks(self) -> list[int]:
        """Out-neighborhoods as bitmasks, one per vertex."""
        masks = [0] * self.n
        for x in range(self.n):
            m = 0
            for s in self.connection:
                m |= 1 << ((x + s) % self.n)
            masks[x] = m
        return masks

    def in_masks(self) -> list[int]:
        """In-neighborhoods: the out-neighborhoods of the negated connection set."""
        return CirculantGraph.of(self.n, (-s for s in self.connection)).out_masks()


def _place(
    n: int,
    out_m: list[int],
    in_m: list[int],
    img: list[int],
    cand: list[int],
    v: int,
    w: int,
) -> list[int] | None:
    """Candidate bitmasks after mapping v to w, or None when one empties.

    Every vertex u unmapped in ``img`` (image -1) other than v keeps the
    images whose arcs to and from w match its arcs to and from v.
    """
    full = (1 << n) - 1
    new = cand[:]
    out_v, in_v = out_m[v], in_m[v]
    out_w, in_w = out_m[w], in_m[w]
    not_out_w, not_in_w = ~out_w & full, ~in_w & full
    for u in range(n):
        if img[u] >= 0 or u == v:
            continue
        m = new[u]
        m &= out_w if out_v >> u & 1 else not_out_w
        m &= in_w if in_v >> u & 1 else not_in_w
        if not m:
            return None
        new[u] = m
    return new


def _search_automorphism(
    n: int,
    out_m: list[int],
    in_m: list[int],
    cand: list[int],
    img: list[int],
    forced: list[tuple[int, int]],
):
    """One automorphism extending a partial map and the forced pairs, or None.

    ``img`` is the partial map (-1 where unmapped) and ``cand`` the
    per-vertex candidate bitmasks already pruned by it; neither is changed.
    Backtracking over vertex images: mapping a vertex immediately prunes
    every unmapped candidate set through both arc directions.
    """
    img = img[:]
    used = 0
    for w in img:
        if w >= 0:
            used |= 1 << w

    def dfs(cand, used) -> bool:
        best, best_count = -1, n + 1
        for v in range(n):
            if img[v] >= 0:
                continue
            c = (cand[v] & ~used).bit_count()
            if c < best_count:
                best, best_count = v, c
                if c <= 1:
                    break
        if best < 0:
            return True
        if best_count == 0:
            return False
        m = cand[best] & ~used
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            img[best] = w
            nxt = _place(n, out_m, in_m, img, cand, best, w)
            if nxt is not None and dfs(nxt, used | (1 << w)):
                return True
            img[best] = -1
        return False

    for v, w in forced:
        if not cand[v] >> w & 1 or used >> w & 1:
            return None
        img[v] = w
        nxt = _place(n, out_m, in_m, img, cand, v, w)
        if nxt is None:
            return None
        cand = nxt
        used |= 1 << w

    return img if dfs(cand, used) else None


def _close(orbit: set[int], gens: list[Perm]) -> set[int]:
    """Extend ``orbit`` in place to its closure under ``gens``; return it."""
    frontier = list(orbit)
    while frontier:
        p = frontier.pop()
        for h in gens:
            q = h.image[p]
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    return orbit


def brute_force_aut(
    graph: CirculantGraph, max_n: int = DEFAULT_MAX_ORACLE_N
) -> PermutationGroup:
    """Full automorphism group by stabilizer-chain backtracking.

    Base vertices run in reverse order, i = n-1 down to 0.  The generators
    found at deeper levels fix 0..i and generate G_(0..i), the pointwise
    stabilizer of 0..i.  A candidate image y of i outside i's orbit is
    searched for once, an automorphism fixing 0..i-1 and mapping i to y,
    and y's whole G_(0..i)-orbit is marked tried: either all of it or none
    lies in i's orbit.  A generator found extends i's orbit by its closure
    under all generators found so far.  It maps i outside the orbit of the
    group they generated, so that group at least doubles: there are at
    most log2|G| generators.  They are handed to the chain in ascending
    base order, and the product of the orbit sizes is the order,
    cross-checked against the chain.

    The prefix states, the candidate sets after fixing 0..k-1, are built
    once per graph for k = 0..n-1 (n-1 placements), and every search at
    level i starts from state i: it places i -> y and nothing before it.
    """
    n = graph.n
    if n > max_n:
        raise BoundExceededError(
            f"brute-force search refused for n={n} (bound {max_n})"
        )
    out_m, in_m = graph.out_masks(), graph.in_masks()
    # prefix[k]: the candidate bitmasks once 0..k-1 are fixed.  Translations
    # are automorphisms, so before anything is fixed every vertex may go
    # anywhere; the identity is one too, so fixing a point never empties a
    # candidate set.
    fixed = [-1] * n
    prefix = [[(1 << n) - 1] * n]
    for k in range(n - 1):
        fixed[k] = k
        prefix.append(_place(n, out_m, in_m, fixed, prefix[k], k, k))

    gens: list[Perm] = []  # ascending base order
    order = 1
    for i in range(n - 1, -1, -1):
        fixed = list(range(i)) + [-1] * (n - i)
        cand = prefix[i]
        orbit = {i}  # every generator found so far fixes i
        tried = {i}
        level_gens: list[Perm] = []
        for y in range(i + 1, n):
            # y is a candidate for i iff it has i's arcs to and from 0..i-1
            if y in tried or not cand[i] >> y & 1:
                continue
            tried |= _close({y}, gens)
            img = _search_automorphism(n, out_m, in_m, cand, fixed, [(i, y)])
            if img is None:
                continue
            level_gens.append(Perm(img))
            tried |= _close(orbit, level_gens + gens)
        gens[:0] = level_gens
        order *= len(orbit)

    group = PermutationGroup(n, gens)
    if group.order() != order:
        raise InternalConsistencyError(
            f"orbit product {order} != chain order {group.order()}"
        )
    return group


# -- spectrum --------------------------------------------------------------


def ramanujan_sum(q: int, j: int) -> int:
    """Exact character sum of the unit orbit of Z_q at frequency j."""
    qg = q // math.gcd(j, q)
    return moebius(qg) * (totient(q) // totient(qg))


@frozen
class SpectrumReport:
    """Eigenvalue multiset of a circulant graph with an integrality verdict.

    ``exact`` marks the integer character-sum path (trace-closed sets);
    otherwise values come from a floating-point DFT.
    """

    n: int
    integral: bool
    exact: bool
    values: tuple

    def to_json_dict(self) -> dict:
        if self.exact:
            vals = list(self.values)
        else:
            vals = [[round(v.real, 9), round(v.imag, 9)] for v in self.values]
        return {"n": self.n, "integral": self.integral, "exact": self.exact, "values": vals}


def _class_eigenvalues(n: int, ds) -> np.ndarray:
    """Eigenvalues of the union of the orbits O_d, d in ``ds``, at j = 0..n-1.

    The one at j is the sum of c_{n/d}(j), and c_q(j) depends only on
    gcd(j, q) = gcd(gcd(j, n), q) for q | n (So, *Integral circulant
    graphs*, 2006): each is computed once per g = gcd(j, n), then spread.
    """
    import numpy as np

    classes, where = np.unique(np.gcd(np.arange(n), n), return_inverse=True)
    per_class = [sum(ramanujan_sum(n // d, g) for d in ds) for g in classes.tolist()]
    return np.array(per_class, dtype=np.int64)[where]


def spectrum(graph: CirculantGraph) -> SpectrumReport:
    """Eigenvalues of the arc adjacency matrix.

    A trace-closed set (its gcd classes d fill the orbits O_d: the sizes
    phi(n/d) sum to its size) takes the exact character-sum form, checked
    against the DFT at every j before it is trusted.
    """
    import numpy as np

    n = graph.n
    tol = 1e-6  # the DFT's rounding error allowed
    indicator = np.zeros(n)
    indicator[list(graph.connection)] = 1.0
    dft = np.fft.fft(indicator)

    ds = {math.gcd(s, n) for s in graph.connection}
    if sum(totient(n // d) for d in ds) == len(graph.connection):
        exact = _class_eigenvalues(n, ds)
        err = np.abs(dft - exact).max()
        if err > tol:
            raise InternalConsistencyError(f"character sums disagree with DFT by {err}")
        return SpectrumReport(n, True, True, tuple(np.sort(exact)[::-1].tolist()))

    integral = all(
        abs(v.imag) <= tol and abs(v.real - round(v.real)) <= tol for v in dft
    )
    values = tuple(sorted(dft, key=lambda v: (round(v.real, 9), round(v.imag, 9))))
    return SpectrumReport(n, integral, False, values)
