"""Divisor lattices: gcd/lcm-closed sets of divisors of a modulus n.

A ``DivisorLattice`` is the classifying object for everything downstream:
each rational circulant automorphism group corresponds to exactly one
sublattice of the full divisor lattice L(n) containing both 1 and n.
Interval views (``below``/``above``) are also lattices but may not reach
down to 1, so the core invariant only requires the modulus itself to be
present; pipeline entry points check for 1 where they need it.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import math
from itertools import combinations

from ._record import frozen
from .arith import factorize
from .errors import BoundExceededError

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

    The modulus is always the top element.  The bottom element is the gcd
    of all members (1 for the lattices classifying rational circulants).
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
        if any(n % x != 0 or x < 1 for x in els):
            raise ValueError(f"elements {els} must all divide the modulus {n}")
        if n not in els:
            raise ValueError("the modulus must be an element of its lattice")
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

    @property
    def is_unital(self) -> bool:
        """True when the lattice reaches down to 1."""
        return self.elements[0] == 1

    def below(self, m: int) -> "DivisorLattice":
        """The interval {x in L : x | m}, as a lattice with modulus m."""
        if m not in self.elements:
            raise ValueError(f"{m} is not a member of {self.elements}")
        return DivisorLattice(m, tuple(x for x in self.elements if m % x == 0))

    def above(self, m: int) -> "DivisorLattice":
        """The interval {x in L : m | x}, kept on the original modulus."""
        if m not in self.elements:
            raise ValueError(f"{m} is not a member of {self.elements}")
        return DivisorLattice(self.modulus, tuple(x for x in self.elements if x % m == 0))

    def maximal_elements(self) -> tuple[int, ...]:
        """Maximal elements of L minus its top, under divisibility."""
        inner = [x for x in self.elements if x != self.modulus]
        return tuple(x for x in inner if not any(y != x and y % x == 0 for y in inner))

    def peel(self) -> list[tuple[int, int, int]]:
        """The coatom peel of L, as steps (top, m, s) from the top down.

        Each step takes m, the numerically largest maximal element of the
        current interval minus its top, and s, the least member that does
        not divide m, then continues on the interval below m.  A unital
        lattice ends with the step (top, 1, top) on the interval {1, top}.
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
        out = []
        els = self.elements
        for x in els:
            for y in els:
                if x != y and y % x == 0:
                    if not any(z != x and z != y and z % x == 0 and y % z == 0 for z in els):
                        out.append((x, y))
        return sorted(out)

    def to_dot(self, name: str = "lattice") -> str:
        """Hasse diagram in DOT format, edges pointing upward."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
        for x in self.elements:
            lines.append(f'  "{x}";')
        for x, y in self.covers():
            lines.append(f'  "{x}" -> "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def trivial_lattice(n: int) -> DivisorLattice:
    """The two-element lattice {1, n} (a single point when n is 1)."""
    return DivisorLattice.of(n, {1, n})


def full_lattice(n: int) -> DivisorLattice:
    """The complete divisor lattice L(n)."""
    return DivisorLattice(n, tuple(divisors(n)))


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


def sublattices(n: int, max_tau: int = DEFAULT_MAX_TAU) -> list[DivisorLattice]:
    """All sublattices of L(n) containing 1 and n, in a deterministic order.

    Enumerates subsets of the inner divisors with a gcd/lcm closure check,
    so the divisor count of n is bounded to keep this tractable.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if tau(n) > max_tau:
        raise BoundExceededError(
            f"instance too large: n={n} has {tau(n)} divisors (bound {max_tau})"
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
