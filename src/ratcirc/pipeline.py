"""The rational chain: connection set to Schur ring, divisor lattice and weighted poset.

This is the one copy of the chain that the CLI and ``oracle.pipeline_order``
call.  ``posets`` is reached through the module, so a set that the ring
layer rejects never loads it.
"""
from __future__ import annotations

import math

from .arith import totient
from .errors import BoundExceededError, NotRationalError
from .lattice import DivisorLattice
from . import posets, sring

# Largest trace a rejection lists; a longer one is named by its gcd and its size.
MAX_LISTED_TRACE = 2 ** 16


def rational_chain(
    n: int, connection
) -> tuple[sring.SchurRing, DivisorLattice, posets.WeightedPoset]:
    """Schur ring, divisor lattice and weighted poset of a rational connection set.

    Raises ``NotRationalError`` naming the least element whose trace leaves the set.
    That includes a set too large for ``generate_sring``'s point path: only a set
    that is not trace-closed takes that path, and none generates a rational ring.
    The trace of x is its orbit {y : gcd(y, n) = d}, d = gcd(x, n), so it
    leaves the set exactly when that orbit is short (``sring._gcd_classes``):
    one gcd per member finds the offender, and its trace is built only when it
    holds at most ``MAX_LISTED_TRACE`` residues.
    """
    try:
        ring = sring.generate_sring(n, connection)
        lat = sring.group_basis(ring).lattice
    except (NotRationalError, BoundExceededError):
        s = frozenset(x % n for x in connection)
        short = sring._gcd_classes(n, s)[1]
        offender = min(x for x in s if math.gcd(x, n) in short)
        d = math.gcd(offender, n)
        size = totient(n // d)
        if size <= MAX_LISTED_TRACE:
            tr = "{" + ",".join(map(str, sorted(sring.trace(n, {offender})))) + "}"
        else:
            tr = f"{{x : gcd(x, {n}) = {d}}} ({size} residues)"
        raise NotRationalError(f"not rational: trace of {{{offender}}} is {tr}") from None
    return ring, lat, posets.lattice_to_poset(lat)
