"""Permutations and permutation groups on {0, ..., n-1}.

Composition is left to right: ``(g * h)(x) == h(g(x))``, i.e. points are
acted on from the right.  A permutation knows its support, the points it
moves: declared by the code that wrote the image, or found by one scan on
first read.  Groups carry a deterministic Schreier-Sims stabilizer chain,
built lazily on first query.  Chain construction mutates internal state
once; afterwards the group value is immutable and safe to share
(build-then-freeze).
"""
from __future__ import annotations

from math import prod
from operator import itemgetter

from .arith import factorize


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of a followed by b: x -> b[a[x]]."""
    if len(a) < 2:  # itemgetter of one index returns a bare item
        return tuple(b[x] for x in a)
    return itemgetter(*a)(b)


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def _first_moved(a: tuple[int, ...]) -> int:
    return next(x for x, y in enumerate(a) if x != y)


class Perm:
    """A permutation of {0, ..., n-1} stored as its image tuple.

    ``support`` is the tuple of moved points, each once.  Only code that
    writes an image from its moved points declares it, through
    ``_unchecked``, and the declared support must be exactly the points the
    image moves; any other ``Perm`` finds it by one scan of the image on
    first read.  Equality, hashing and repr read the image alone.
    """

    __slots__ = ("image", "_support")

    def __init__(self, image) -> None:
        """Validate ``image``: n distinct ints, the least 0 and the greatest n - 1."""
        img = tuple(image)
        n = len(img)
        if n and not (set(map(type, img)) == {int} and len(set(img)) == n
                      and min(img) == 0 and max(img) == n - 1):
            raise ValueError(f"not a permutation of 0..{n - 1}: {img}")
        self.image = img
        self._support = None

    @classmethod
    def _unchecked(cls, image: tuple[int, ...], support: tuple[int, ...] | None = None) -> "Perm":
        """Wrap ``image`` without validation: the caller guarantees a permutation.

        Each caller builds the tuple as one: a composition or inverse of
        permutations, or disjoint swaps in a copy of range(n).  A caller that
        wrote the image from its moved points passes them as ``support``.
        Input from outside goes through ``Perm(...)``.
        """
        p = object.__new__(cls)
        p.image = image
        p._support = support
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._unchecked(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Perm":
        """Swap a and b, both in 0..n-1; a == b gives the identity."""
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"transposition ({a} {b}) is not on 0..{n - 1}")
        img = list(range(n))
        img[a], img[b] = b, a
        return cls._unchecked(tuple(img))

    @property
    def degree(self) -> int:
        return len(self.image)

    @property
    def support(self) -> tuple[int, ...]:
        """The moved points: as declared, else ascending from one scan, kept."""
        if self._support is None:
            self._support = tuple(x for x, y in enumerate(self.image) if x != y)
        return self._support

    def __call__(self, x: int) -> int:
        return self.image[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.image) != len(other.image):
            raise ValueError("degree mismatch")
        return Perm._unchecked(_compose(self.image, other.image))

    def inverse(self) -> "Perm":
        return Perm._unchecked(_invert(self.image))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * len(self.image)
        out = []
        for start in range(len(self.image)):
            if seen[start] or self.image[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.image[x]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id/{self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Perm({body})"


class _Level:
    """One level of the stabilizer chain.

    ``inverse[p]`` is the image tuple of u_p^-1, where the coset
    representative u_p maps the base point ``point`` to p.  The orbit only
    grows, in discovery order (``points``), and a representative never
    changes once set.  ``paired[k]`` counts the level generators whose
    Schreier generator with ``points[k]`` has been sifted; no position
    before ``pending`` has an unsifted pair.  ``tree`` holds the pairs
    (k, j) whose generator ``gens[j]`` first reached a point from
    ``points[k]``: their Schreier generators are the identity.
    """

    __slots__ = ("point", "gens", "inverse", "points", "paired", "pending", "tree")

    def __init__(self, point: int, identity: tuple[int, ...]) -> None:
        self.point = point
        self.gens: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.inverse = {point: identity}
        self.points = [point]
        self.paired = [0]
        self.pending = 0
        self.tree: set[tuple[int, int]] = set()

    def add_generator(self, g: tuple[int, ...], g_inv: tuple[int, ...]) -> None:
        """Append g and extend the orbit in place to stay closed."""
        self.gens.append((g, g_inv))
        self.pending = 0
        inverse, points, paired, tree = self.inverse, self.points, self.paired, self.tree

        def reach(k: int, j: int, s: tuple[int, ...], s_inv: tuple[int, ...]) -> None:
            p = points[k]
            q = s[p]
            if q not in inverse:
                inverse[q] = _compose(s_inv, inverse[p])  # (u_p s)^-1
                points.append(q)
                paired.append(0)
                tree.add((k, j))

        old, last = len(points), len(self.gens) - 1
        for k in range(old):
            reach(k, last, g, g_inv)
        k = old
        while k < len(points):
            for j, (s, s_inv) in enumerate(self.gens):
                reach(k, j, s, s_inv)
            k += 1


# Deterministic incremental Schreier-Sims (Seress, Permutation Group
# Algorithms, ch. 4).  A new base point is the least point the residue
# moves.  Each Schreier generator u_p s u_{s(p)}^-1 is sifted once: the
# per-point counters remember which pairs are done, and a level is only
# revisited for the pairs that a new generator or orbit point added.  A
# pair (p, s) of the Schreier tree, where s first reached s(p) from p, set
# u_s(p) = u_p s: its Schreier generator is the identity, so it is skipped
# before it is formed.
#
# Level i is sifted only while levels i+1.. are complete: _schreier_sims
# walks back down through every level a new strong generator joined before
# it returns to i.  So every member of the group the strong generators of
# level i+1 span strips to the identity there, and a Schreier generator
# already known to be one (the identity, a strong generator of level i+1,
# or one that stripped to the identity earlier in the same pass) is skipped
# without a strip.  The first nontrivial residue, and with it the chain,
# is the same as when every Schreier generator is stripped.


def _strip(
    levels: list[_Level], h: tuple[int, ...], start: int
) -> tuple[tuple[int, ...], int]:
    """Residue of h after levels start.., and the level where it stopped."""
    for i in range(start, len(levels)):
        lv = levels[i]
        p = h[lv.point]
        if p != lv.point:
            u_inv = lv.inverse.get(p)
            if u_inv is None:
                return h, i
            h = _compose(h, u_inv)
    return h, len(levels)


def _sift_level(levels: list[_Level], i: int, identity: tuple[int, ...]) -> int | None:
    """Sift the unsifted Schreier generators of level i.

    Returns None when all of them sift to the identity.  Otherwise the
    first nontrivial residue becomes a strong generator of levels i+1
    through the level where it stopped, which is returned.
    """
    lv = levels[i]
    gens, inverse, points, paired, tree = lv.gens, lv.inverse, lv.points, lv.paired, lv.tree
    known = {identity}
    if i + 1 < len(levels):
        known.update(g for g, _ in levels[i + 1].gens)
    for k in range(lv.pending, len(points)):
        if paired[k] == len(gens):
            continue
        p = points[k]
        u = _invert(inverse[p])
        for j in range(paired[k], len(gens)):
            paired[k] = j + 1
            if (k, j) in tree:  # u_p s = u_s(p)
                continue
            s = gens[j][0]
            schreier = _compose(_compose(u, s), inverse[s[p]])
            if schreier in known:
                continue
            h, depth = _strip(levels, schreier, i + 1)
            if h == identity:
                known.add(schreier)
                continue
            lv.pending = k
            if depth == len(levels):
                levels.append(_Level(_first_moved(h), identity))
            h_inv = _invert(h)
            for level in levels[i + 1 : depth + 1]:
                level.add_generator(h, h_inv)
            return depth
    lv.pending = len(points)
    return None


def _schreier_sims(degree: int, generators) -> list[_Level]:
    """Complete stabilizer chain of the group the non-identity generators span."""
    identity = tuple(range(degree))
    levels: list[_Level] = []
    strong = [(g.image, _invert(g.image)) for g in generators]
    for g, _ in strong:
        if all(g[lv.point] == lv.point for lv in levels):
            levels.append(_Level(_first_moved(g), identity))
    for g, g_inv in strong:
        for lv in levels:
            lv.add_generator(g, g_inv)
            if g[lv.point] != lv.point:
                break

    i = len(levels) - 1
    while i >= 0:
        grown = _sift_level(levels, i, identity)
        i = i - 1 if grown is None else grown
    return levels


class PermutationGroup:
    """Group generated by permutations, with a lazy stabilizer chain."""

    def __init__(self, degree: int, generators=()) -> None:
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        self._levels: list[_Level] | None = None

    def _ensure_chain(self) -> None:
        if self._levels is None:
            self._levels = _schreier_sims(self.degree, self.generators)

    # -- queries ---------------------------------------------------------

    def base(self) -> tuple[int, ...]:
        self._ensure_chain()
        return tuple(lv.point for lv in self._levels)

    def basic_orbit_lengths(self) -> tuple[int, ...]:
        self._ensure_chain()
        return tuple(len(lv.points) for lv in self._levels)

    def order(self) -> int:
        return prod(self.basic_orbit_lengths())

    def order_factored(self) -> dict[int, int]:
        """The order by trial division, cheap since no prime exceeds the degree.

        Not through ``order``, whose calls the benchmark counts as chain queries."""
        return factorize(prod(self.basic_orbit_lengths()))

    def sift(self, g: Perm) -> Perm:
        """Residue of g after stripping through the chain; identity iff g is a member."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        self._ensure_chain()
        return Perm._unchecked(_strip(self._levels, g.image, 0)[0])

    def __contains__(self, g: Perm) -> bool:
        return self.sift(g).is_identity()


def is_subgroup_of(generators, group: PermutationGroup) -> bool:
    """True iff every given permutation is a member of ``group``."""
    return all(group.sift(g).is_identity() for g in generators)
