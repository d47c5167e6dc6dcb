"""Divisor lattices: gcd/lcm-closed sets of divisors of a modulus n.

A ``DivisorLattice`` is the classifying object for everything downstream:
each rational circulant automorphism group corresponds to exactly one
sublattice of the full divisor lattice L(n) containing both 1 and n,
and every lattice holds both.  The interval ``below(m)`` is again such a
lattice, on modulus m; ``above(m)`` is a tuple of members.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import math
from itertools import combinations

from ._record import frozen
from .arith import factorize

MAX_MODULUS = 2 ** 32
DEFAULT_MAX_TAU = 12
# Largest n the brute-force oracle searches unless told otherwise.  It lives
# here, beside MAX_MODULUS, because the CLI parser needs it on every request
# and ``oracle`` is loaded only by the requests that run it.
DEFAULT_MAX_ORACLE_N = 40


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError(f"divisors({n}): n must be a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    t = 1
    for e in factorize(n).values():
        t *= e + 1
    return t


@frozen
class DivisorLattice:
    """A gcd/lcm-closed set of divisors of ``modulus``, stored ascending.

    1 is always the bottom element and the modulus the top element.
    """

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus
        els = self.elements
        if not 1 <= n <= MAX_MODULUS:
            raise ValueError(f"modulus {n} out of range [1, 2^32]")
        if not els:
            raise ValueError("lattice needs at least one element")
        if any(els[i] >= els[i + 1] for i in range(len(els) - 1)):
            raise ValueError("elements must be strictly increasing")
        if any(x < 1 or n % x != 0 for x in els):
            raise ValueError(f"elements {els} must all divide the modulus {n}")
        if n not in els:
            raise ValueError("the modulus must be an element of its lattice")
        if els[0] != 1:
            raise ValueError("lattice must contain 1")
        present = set(els)
        for x, y in combinations(els, 2):
            if math.gcd(x, y) not in present or (x * y) // math.gcd(x, y) not in present:
                raise ValueError(f"{els} is not closed under gcd/lcm (witness {x},{y})")

    @classmethod
    def of(cls, modulus: int, elements) -> "DivisorLattice":
        """Build from any iterable of divisors, sorting and deduplicating."""
        return cls(modulus, tuple(sorted(set(elements))))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def below(self, m: int) -> "DivisorLattice":
        """The interval {x in L : x | m}, as a lattice with modulus m."""
        if m not in self.elements:
            raise ValueError(f"{m} is not a member of {self.elements}")
        return DivisorLattice(m, tuple(x for x in self.elements if m % x == 0))

    def above(self, m: int) -> tuple[int, ...]:
        """The members x of L with m | x, ascending: a tuple, as it misses 1 unless m is 1."""
        if m not in self.elements:
            raise ValueError(f"{m} is not a member of {self.elements}")
        return tuple(x for x in self.elements if x % m == 0)

    def maximal_elements(self) -> tuple[int, ...]:
        """Maximal elements of L minus its top, under divisibility."""
        inner = [x for x in self.elements if x != self.modulus]
        return tuple(x for x in inner if not any(y != x and y % x == 0 for y in inner))

    def peel(self) -> list[tuple[int, int, int]]:
        """The coatom peel of L, as steps (top, m, s) from the top down.

        Each step takes m, the numerically largest maximal element of the
        current interval minus its top, and s, the least member that does
        not divide m, then continues on the interval below m.  On n > 1
        it ends with the step (top, 1, top) on the interval {1, top}.
        That m is the interval's second-largest member: a member above it
        would be at least twice it, so only the top.  Each interval is the
        tuple of members dividing its m.
        """
        steps, els = [], self.elements
        while len(els) > 1:
            m = els[-2]
            s = next(x for x in els if m % x)
            steps.append((els[-1], m, s))
            els = tuple(x for x in els if m % x == 0)
        return steps

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y) of the divisibility order, for Hasse diagrams."""
        return cover_pairs(self.elements, lambda x, y: y % x == 0)

    def to_dot(self) -> str:
        """Hasse diagram in DOT format, edges pointing upward."""
        return hasse_dot("lattice", dict.fromkeys(self.elements, ""), self.covers())


def cover_pairs(elements, leq) -> list[tuple]:
    """Covering pairs (x, y) of the order ``leq`` on ``elements``, sorted: the Hasse edges."""
    return sorted(
        (x, y) for x in elements for y in elements if x != y and leq(x, y)
        and not any(z != x and z != y and leq(x, z) and leq(z, y) for z in elements)
    )


def hasse_dot(name: str, nodes: dict, edges) -> str:
    """Hasse diagram in DOT format, edges pointing upward.

    ``nodes`` maps each node, in output order, to its DOT attributes ("" for none).
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines += [f'  "{x}"{attrs};' for x, attrs in nodes.items()]
    lines += [f'  "{x}" -> "{y}";' for x, y in edges]
    return "\n".join(lines) + "\n}\n"


def lattice_closure(n: int, seed) -> DivisorLattice:
    """Smallest gcd/lcm-closed superset of seed together with 1 and n."""
    seed = set(seed)
    for x in seed:
        if x < 1 or n % x != 0:
            raise ValueError(f"seed element {x} does not divide {n}")
    closed = seed | {1, n}
    while True:
        fresh = set()
        for x, y in combinations(sorted(closed), 2):
            g = math.gcd(x, y)
            l = (x * y) // g
            if g not in closed:
                fresh.add(g)
            if l not in closed:
                fresh.add(l)
        if not fresh:
            return DivisorLattice.of(n, closed)
        closed |= fresh
