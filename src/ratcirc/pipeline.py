"""The rational chain: connection set to Schur ring, divisor lattice and weighted poset.

This is the one copy of the chain that the CLI and ``oracle.pipeline_order``
call.  ``posets`` is reached through the module, so a set that the ring
layer rejects never loads it.
"""
from __future__ import annotations

import math
from collections import Counter

from .arith import totient
from .errors import BoundExceededError, NotRationalError
from .lattice import DivisorLattice
from . import posets, sring


def rational_chain(
    n: int, connection
) -> tuple[sring.SchurRing, DivisorLattice, posets.WeightedPoset]:
    """Schur ring, divisor lattice and weighted poset of a rational connection set.

    Raises ``NotRationalError`` naming the least element whose trace leaves the set.
    That includes a set too large for ``generate_sring``'s point path: only a set
    that is not trace-closed takes that path, and none generates a rational ring.
    The trace of x is its orbit {y : gcd(y, n) = d}, d = gcd(x, n), of size
    phi(n/d), so it leaves the set exactly when the set has fewer members of
    gcd d: one gcd per member finds the offender, and only its trace is built.
    """
    try:
        ring = sring.generate_sring(n, connection)
        lat = sring.group_basis(ring).lattice
    except (NotRationalError, BoundExceededError):
        s = frozenset(x % n for x in connection)
        members = Counter(math.gcd(x, n) for x in s)
        short = {d for d, c in members.items() if c < totient(n // d)}
        offender = min(x for x in s if math.gcd(x, n) in short)
        tr = sorted(sring.trace(n, {offender}))
        raise NotRationalError(
            f"not rational: trace of {{{offender}}} is {{{','.join(map(str, tr))}}}"
        ) from None
    return ring, lat, posets.lattice_to_poset(lat)
