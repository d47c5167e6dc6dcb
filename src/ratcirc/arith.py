"""Elementary number theory helpers.

Everything is exact integer arithmetic on machine-scale moduli.  Factored
integers are plain dicts mapping prime -> exponent; the empty dict is 1.
They are used wherever a group order might be astronomically large but
its factorization is cheap (products of factorials).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: expected a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    """Euler's phi function."""
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def moebius(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


@lru_cache(maxsize=32)
def factorial_items(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n! by Legendre's formula, ascending, computed once per n.

    A group order is a product of factorials of the poset weights, and
    ``enumerate`` asks for the same weights again and again across divisor
    subsets, each costing a sieve up to the weight.
    """
    if n < 0:
        raise ValueError("factorial of a negative number")
    out = []
    for p in _primes_upto(n):
        e, q = 0, p
        while q <= n:
            e += n // q
            q *= p
        out.append((p, e))
    return tuple(out)


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def factored_value(f: dict[int, int]) -> int:
    v = 1
    for p, e in f.items():
        v *= p ** e
    return v


def factored_value_below(f: dict[int, int], limit: int) -> int | None:
    """The value of f if below limit, else None; a huge value such as n! is never built."""
    v = 1
    for p, e in f.items():
        if e >= limit.bit_length():
            return None
        v *= p ** e
        if v >= limit:
            return None
    return v


def factored_str(f: dict[int, int]) -> str:
    """Human-readable form like '2^11 · 3^4'; '1' for the empty product."""
    if not f:
        return "1"
    parts = []
    for p, e in sorted(f.items()):
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return " · ".join(parts)
