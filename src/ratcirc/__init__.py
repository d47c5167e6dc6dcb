"""Automorphism groups of rational circulant graphs.

A rational circulant graph (a Cayley graph over Z_n with integer
spectrum) has an automorphism group that is a generalized wreath product
of symmetric groups over an increasing weighted poset.  This package
computes the whole chain constructively: connection set to Schur ring to
divisor lattice to weighted poset to explicit permutation generators,
with an independent brute-force oracle to check every step.

Submodules load lazily.  Importing the package puts each of them in
``sys.modules`` under its usual name as an ``importlib.util.LazyLoader``
module, whose code is compiled and run when one of its attributes is
first read; the public names below resolve through the module
``__getattr__`` (PEP 562).  So a CLI request compiles only the layers it
runs: a set rejected by the ring layer never loads ``posets``, ``gwp``,
``perms``, ``groundtruth`` or ``oracle``, and no request loads ``claims``,
the checks of the paper's secondary claims.  Function-local imports would
do the same for the CLI, but ``bench/tracer.py`` finds every layer as
``sys.modules["ratcirc.<module>"]`` right after ``import ratcirc.cli``,
and library users keep ``ratcirc.<name>`` and ``from ratcirc import
<name>`` exactly as before.  ``ratcirc.cli`` is not registered: ``python
-m ratcirc.cli`` must find it unimported.
"""

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "errors": (
            "BoundExceededError",
            "InternalConsistencyError",
            "NotRationalError",
            "RatcircError",
        ),
        "lattice": ("DivisorLattice", "divisors", "lattice_closure", "tau"),
        "perms": ("Perm", "PermutationGroup", "is_subgroup_of"),
        "sring": (
            "RationalSRing",
            "SchurRing",
            "basic_sets_from_lattice",
            "generate_sring",
            "group_basis",
            "is_rational",
            "orbit_set",
            "orbit_union",
            "trace",
        ),
        "posets": (
            "TransportMap",
            "WeightedPoset",
            "antichain",
            "chain",
            "lattice_to_poset",
            "poset_from_pairs",
            "weak_iso_map",
        ),
        "gwp": (
            "GroupExpression",
            "gwp_generators",
            "gwp_order",
            "render_group_expression",
            "transport",
        ),
        "groundtruth": (
            "CirculantGraph",
            "SpectrumReport",
            "brute_force_aut",
            "ramanujan_sum",
            "spectrum",
        ),
        "oracle": ("VerifyRecord", "VerifyReport", "full_verify", "pipeline_order"),
        "claims": (
            "ComplementIdentityWitness",
            "PartitionOfZn",
            "SimplicityReport",
            "ancestral_sets",
            "complement_identity_check",
            "coset_partition",
            "count_rational_circulants",
            "crested_product",
            "full_lattice",
            "generator_subset",
            "is_simple_lattice",
            "is_trace_closed",
            "orthogonality_check",
            "poset_block_partition",
            "poset_isomorphic",
            "poset_to_lattice",
            "rational_iso_test",
            "schurity_check",
            "simple_reduction_applies",
            "sublattices",
            "subgroup",
            "trivial_lattice",
        ),
    }.items()
    for name in names
}

_SUBMODULES = ("_record", "arith", "errors", "lattice", "sring", "pipeline", "posets",
               "perms", "gwp", "groundtruth", "oracle", "claims")


def _register_lazily(name: str):
    """Put ``ratcirc.<name>`` in ``sys.modules`` without running it; return the module."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register_lazily(_name)
del _name

# ``from ratcirc import *`` binds what the eager imports used to bind.
__all__ = [*_HOME, *(m for m in _SUBMODULES if not m.startswith("_"))]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
