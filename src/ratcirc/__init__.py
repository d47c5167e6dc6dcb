"""Automorphism groups of rational circulant graphs.

A rational circulant graph (a Cayley graph over Z_n with integer
spectrum) has an automorphism group that is a generalized wreath product
of symmetric groups over an increasing weighted poset.  This package
computes the whole chain constructively: connection set to Schur ring to
divisor lattice to weighted poset to explicit permutation generators,
with an independent brute-force oracle to check every step.
"""

from .errors import (
    BoundExceededError,
    InternalConsistencyError,
    NotRationalError,
    RatcircError,
)
from .lattice import (
    ComplementIdentityWitness,
    DivisorLattice,
    complement_identity_check,
    divisors,
    full_lattice,
    lattice_closure,
    sublattices,
    tau,
    trivial_lattice,
)
from .perms import Perm, PermutationGroup, is_subgroup_of
from .sring import (
    RationalSRing,
    SchurRing,
    basic_sets_from_lattice,
    generate_sring,
    generator_subset,
    group_basis,
    is_rational,
    is_trace_closed,
    orbit_set,
    orbit_union,
    subgroup,
    trace,
)
from .posets import (
    AncestralFamily,
    PartitionOfZn,
    SimplicityReport,
    TransportMap,
    WeightedPoset,
    ancestral_sets,
    antichain,
    chain,
    coset_partition,
    crested_product,
    equality_partition,
    is_simple_lattice,
    lattice_to_poset,
    orthogonality_check,
    poset_block_partition,
    poset_from_pairs,
    poset_isomorphic,
    poset_to_lattice,
    simple_reduction_applies,
    universal_partition,
    weak_iso_map,
)
from .gwp import (
    GeneralizedWreathProduct,
    GroupExpression,
    build_gwp,
    gwp_generators,
    gwp_order,
    render_group_expression,
    transport,
)
from .oracle import (
    CirculantGraph,
    SpectrumReport,
    VerifyRecord,
    VerifyReport,
    brute_force_aut,
    count_rational_circulants,
    full_verify,
    pipeline_order,
    ramanujan_sum,
    rational_iso_test,
    schurity_check,
    spectrum,
)

__version__ = "0.1.0"
