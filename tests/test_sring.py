import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ratcirc import sring
from ratcirc import (
    BoundExceededError,
    DivisorLattice,
    NotRationalError,
    SchurRing,
    basic_sets_from_lattice,
    divisors,
    generate_sring,
    generator_subset,
    group_basis,
    is_rational,
    is_trace_closed,
    lattice_to_poset,
    orbit_set,
    orbit_union,
    subgroup,
    sublattices,
    tau,
    trace,
    trivial_lattice,
)
from ratcirc.claims import structure_constants, validate


def is_union_of_classes(ring, s):
    """True iff every class of the ring lies inside s or misses it."""
    s = frozenset(s)
    return all(t <= s or not t & s for t in ring.basic_sets)


# The moduli of the benchmark's analyze and generators requests (bench/workloads.py).
BENCH_ANALYZE_MODULI = (1260, 2520, 5040, 200, 288, 360)


def reference_trace(n, s):
    """The definition: every unit multiple m*x of every x in s."""
    s = frozenset(x % n for x in s)
    units = [m for m in range(n) if math.gcd(m, n) == 1]
    return frozenset((m * x) % n for m in units for x in s)


def reference_basic_sets_from_lattice(lat):
    """The per-point construction: x joins the least member divisible by its order."""
    n = lat.modulus
    owner = {o: min(l for l in lat.elements if l % o == 0) for o in divisors(n)}
    classes = {l: set() for l in lat.elements}
    for x in range(n):
        classes[owner[n // math.gcd(x, n)]].add(x)
    return SchurRing(n, tuple(sorted((frozenset(v) for v in classes.values()), key=min)))


def reference_generate_sring(n, s):
    """Refinement by all ordered class pairs, rows numbered by np.unique(axis=0)."""
    s = frozenset(x % n for x in s)
    if n == 1:
        return SchurRing(1, (frozenset({0}),))
    key_to_label = {}
    labels = np.empty(n, dtype=np.int64)
    for x in range(n):
        key = (x == 0, x in s, (-x) % n in s)
        labels[x] = key_to_label.setdefault(key, len(key_to_label))
    neg = (-np.arange(n)) % n
    while True:
        k = int(labels.max()) + 1
        idx = [np.flatnonzero(labels == a) for a in range(k)]
        cols = [labels, labels[neg]]
        for a in range(k):
            for b in range(k):
                sums = (idx[a][:, None] + idx[b][None, :]).ravel() % n
                cols.append(np.bincount(sums, minlength=n))
        _, new_labels = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
        if int(new_labels.max()) + 1 == k:
            break
        labels = new_labels.reshape(n).astype(np.int64)
    by_label = {}
    for x in range(n):
        by_label.setdefault(int(labels[x]), []).append(x)
    return SchurRing(n, tuple(sorted((frozenset(v) for v in by_label.values()), key=min)))


class TestOrbitSet:
    def test_examples(self):
        assert orbit_set(36, 6) == {6, 30}
        assert orbit_set(9, 9) == {0}
        assert orbit_set(6, 1) == {1, 5}

    def test_size_is_totient(self):
        from ratcirc.arith import totient

        for n in (12, 30, 36):
            for d in divisors(n):
                assert len(orbit_set(n, d)) == totient(n // d)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            orbit_set(6, 4)

    def test_union_matches_per_divisor_orbit_sets(self):
        for n in range(1, 61):
            ds = divisors(n)
            orbits = {d: orbit_set(n, d) for d in ds}
            for k in range(len(ds) + 1):
                for subset in combinations(ds, k):
                    want = frozenset().union(*(orbits[d] for d in subset))
                    assert orbit_union(n, subset) == want, (n, subset)
        with pytest.raises(ValueError):
            orbit_union(12, (2, 5))

    def test_orbits_partition_zn(self):
        for n in (1, 7, 24):
            assert sorted(x for d in divisors(n) for x in orbit_set(n, d)) == list(
                range(n)
            )


class TestTrace:
    def test_unit_orbit(self):
        assert trace(6, {1}) == {1, 5}

    def test_single_element_of_z36(self):
        assert trace(36, {6}) == {6, 30}

    def test_striking_set_is_closed(self):
        s = orbit_union(36, (2, 3, 4, 6))
        assert trace(36, s) == s
        assert is_trace_closed(36, s)

    @given(st.data())
    @settings(max_examples=50)
    def test_idempotent_and_orbit_union(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        s = frozenset(data.draw(st.lists(st.integers(0, n - 1), max_size=5)))
        t = trace(n, s)
        assert trace(n, t) == t
        for x in t:
            assert orbit_set(n, math.gcd(x, n)) <= t


class TestAgainstReferences:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_trace_and_ring_match_references(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60), label="n")
        s = frozenset(data.draw(st.lists(st.integers(-n, 2 * n), max_size=8), label="s"))
        # Arbitrary subsets give fine, non-rational rings; their traces rational ones.
        if data.draw(st.booleans(), label="close"):
            s = reference_trace(n, s)
        assert trace(n, s) == reference_trace(n, s)
        assert is_trace_closed(n, s) == (trace(n, s) == frozenset(x % n for x in s))
        assert generate_sring(n, s) == reference_generate_sring(n, s)

    @pytest.mark.parametrize("n", BENCH_ANALYZE_MODULI, ids=str)
    def test_pinned_bench_lattice(self, n, bench_workloads):
        # Every analyze and generators request of the benchmark, read from bench/workloads.py.
        (req,) = [r for w in bench_workloads.WORKLOADS.values() for r in w.requests
                  if r.kind in ("analyze", "generators") and r.n == n]
        ring = generate_sring(n, orbit_union(n, req.divisors))
        lat = group_basis(ring).lattice
        assert ring.rank == req.expected["rank"]
        assert list(lat.elements) == req.expected["lattice"]
        assert lattice_to_poset(lat).to_json_dict() == req.expected["poset"]

    def test_every_bench_lattice_is_pinned(self, bench_workloads):
        asked = [r.n for w in bench_workloads.WORKLOADS.values() for r in w.requests
                 if r.kind in ("analyze", "generators")]
        assert sorted(asked) == sorted(BENCH_ANALYZE_MODULI)


class TestOrbitPath:
    def test_orbit_path_matches_point_path_on_every_divisor_subset(self):
        # With M = {1} the point path refines every point on its own.
        subsets = 0
        with mock.patch.object(sring, "_multipliers", return_value=[1]), \
                mock.patch.object(sring, "_lattice_sring", wraps=sring._lattice_sring) as spy:
            for n in range(2, 41):
                ds = divisors(n)
                for k in range(len(ds) + 1):
                    for subset in combinations(ds, k):
                        s = orbit_union(n, subset)
                        want = sring._point_sring(n, s)
                        assert generate_sring(n, s) == want, (n, subset)
                        subsets += 1
        assert spy.call_count == subsets

    @given(st.sampled_from((360, 720, 1260, 2520, 4096)).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(divisors(n))))))
    @settings(max_examples=20, deadline=None)
    def test_lattice_path_matches_point_path_at_larger_moduli(self, case):
        # Unpatched, the point path refines the tau(n) orbits of M = Z_n^*.
        n, subset = case
        s = orbit_union(n, subset)
        assert generate_sring(n, s) == sring._point_sring(n, s)

    @given(st.integers(min_value=2, max_value=60),
           st.lists(st.integers(0, 59), min_size=1, max_size=8))
    # Coding a class pair {a, b} by a + b instead of min(a, b) * k + max(a, b)
    # merges two of the 16 classes of this ring.
    @example(45, [12, 27])
    @settings(max_examples=40, deadline=None)
    def test_non_trace_closed_input_takes_the_point_path(self, n, residues):
        s = frozenset(x % n for x in residues)
        assume(reference_trace(n, s) != s)
        with mock.patch.object(sring, "_lattice_sring", side_effect=AssertionError("lattice")):
            assert generate_sring(n, s) == reference_generate_sring(n, s)

    def test_trace_closed_input_stays_small(self):
        # n = 5040 exceeds the point path's bound: only the lattice path answers it.
        s = orbit_union(5040, (2, 3, 5, 7, 8, 9))
        tracemalloc.start()
        try:
            ring = generate_sring(5040, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ring.rank == 41
        assert peak < 16 << 20


def reference_multipliers(n, s):
    """The definition: every unit m with mS = S."""
    return [m for m in range(n) if math.gcd(m, n) == 1 and {m * x % n for x in s} == s]


@st.composite
def point_path_sets(draw):
    """A set that is not trace-closed, n <= 60; half of them closed under a random unit."""
    n = draw(st.integers(min_value=2, max_value=60), label="n")
    s = frozenset(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8), label="s"))
    if draw(st.booleans(), label="close"):
        m = draw(st.sampled_from(sring.units(n)), label="m")
        s = frozenset(x * pow(m, i, n) % n for x in s for i in range(n))
    assume(reference_trace(n, s) != s)
    return n, s


class TestPointPath:
    @given(point_path_sets())
    @settings(max_examples=150, deadline=None)
    def test_point_path_matches_the_reference(self, case):
        n, s = case
        want = reference_generate_sring(n, s)
        assert generate_sring(n, s) == want

    @given(point_path_sets())
    @settings(max_examples=100, deadline=None)
    def test_classes_are_multiplier_invariant(self, case):
        n, s = case
        mult = reference_multipliers(n, s)
        assert sorted(sring._multipliers(n, s)) == mult
        for t in generate_sring(n, s).basic_sets:
            assert all({m * x % n for x in t} == t for m in mult), sorted(t)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_their_definition(self, data):
        # Arbitrary labels, not only stable ones: any lost pair code shows.
        n = data.draw(st.integers(min_value=1, max_value=40), label="n")
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        lab = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="lab")
        xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="xs")
        want = [tuple(sorted(lab[u] * k + lab[(x - u) % n] for u in range(n))) for x in xs]
        assert sring._rows(lab, k, xs) == want

    def test_rows_tell_apart_equal_code_sums(self):
        # Points 1 and 5 (and -1, -5) share a label, and their pair multisets
        # differ with equal sums a + b: a code a + b would merge them.
        lab = [2, 2, 1, 3, 1, 0, 1]
        first, second = sring._rows(lab, 4, [1, 5])
        assert first != second

    def test_rows_are_built_for_orbit_representatives_only(self):
        # {x = 1 mod 4} at n = 256: M = {m = 1 mod 4} has 64 elements and 16 orbits.
        n, s = 256, frozenset(range(1, 256, 4))
        mult = reference_multipliers(n, s)
        reps = {x for x in range(n) if x == min(m * x % n for m in mult)}
        assert (len(mult), len(reps)) == (64, 16)
        with mock.patch.object(sring, "_rows", wraps=sring._rows) as spy:
            ring = generate_sring(n, s)
        built = [x for call in spy.call_args_list for x in call.args[2]]
        assert built and set(built) <= reps
        # Rows go only to classes of two or more orbits: never to {0}.
        assert all(len(call.args[2]) < len(reps) for call in spy.call_args_list)
        assert 0 not in built
        assert ring == reference_generate_sring(n, s)

    def test_memory_does_not_grow_with_the_rank(self):
        # {1, 2} generates the discrete ring: rank 240, so about 29000 class
        # pairs in the last rounds.  M is trivial, and 240 rows of 240 codes
        # a round are within MAX_POINT_PAIRS: pure Python tuples, whose size
        # does not depend on that number.
        tracemalloc.start()
        try:
            ring = generate_sring(240, {1, 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ring.rank == 240
        assert peak < 8 << 20

    def test_refuses_above_the_bound(self):
        with pytest.raises(BoundExceededError) as err:
            generate_sring(4097, {1, 2})
        assert str(err.value) == (
            "instance too large: n=4097 is refined point by point, so 16785409 point "
            "pairs per round (bound 16777216, n <= 4096)"
        )
        # Whatever the rank: {x : x = 1 mod 4} has a ring of rank 5 at n = 4096.
        with pytest.raises(BoundExceededError, match="n=8192"):
            generate_sring(8192, range(1, 8192, 4))

    def test_refuses_above_the_pair_bound(self):
        # M is trivial for {1, 2}, so there are n orbits: 362 * 362 = 131044
        # pairs a round are within 2^17, and 363 * 363 = 131769 are not.
        assert generate_sring(362, {1, 2}).rank == 362
        with pytest.raises(BoundExceededError) as err:
            generate_sring(363, {1, 2})
        assert str(err.value) == (
            "instance too large: n=363 has 363 multiplier orbits, so 131769 "
            "orbit-point pairs per round (bound 131072)"
        )

    def test_pair_refusal_comes_before_any_row(self):
        tracemalloc.start()
        try:
            with mock.patch.object(sring, "_rows", side_effect=AssertionError("row")), \
                    pytest.raises(BoundExceededError, match="16777216 orbit-point pairs"):
                generate_sring(4096, {1, 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestUnits:
    def test_matches_gcd_definition(self):
        for n in (*range(1, 2001), 720720):
            assert sring.units(n) == tuple(m for m in range(n) if math.gcd(m, n) == 1), n


class TestGenerateSRing:
    def test_hexagon(self):
        ring = generate_sring(6, {1, 5})
        assert [sorted(t) for t in ring.basic_sets] == [[0], [1, 5], [2, 4], [3]]

    def test_complete_graph_gives_trivial_ring(self):
        ring = generate_sring(6, set(range(1, 6)))
        assert ring.rank == 2

    def test_striking_rank_8(self):
        ring = generate_sring(36, orbit_union(36, (2, 3, 4, 6)))
        q = lambda d: orbit_set(36, d)
        expected = sorted(
            [
                q(36),
                q(2) | q(4),
                q(3),
                q(6),
                q(9),
                q(12),
                q(18),
                q(1),
            ],
            key=min,
        )
        assert list(ring.basic_sets) == expected

    def test_zero_is_split_off(self):
        ring = generate_sring(8, {0, 1, 7})
        assert ring.basic_sets[0] == frozenset({0})

    def test_axioms_hold(self):
        for n, s in [(6, {1, 5}), (8, {1, 2}), (12, {1, 5, 7, 11}), (5, {1})]:
            validate(generate_sring(n, s))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_axioms_on_random_sets(self, data):
        n = data.draw(st.integers(min_value=2, max_value=20))
        s = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        ring = generate_sring(n, s)
        validate(ring)
        # the seed set minus 0 must be a union of classes
        seed = frozenset(x % n for x in s) - {0}
        assert is_union_of_classes(ring, seed)

    def test_trace_refinement_property(self):
        # closing the trace gives a partition coarser or equal to closing s
        for n, s in [(12, {1, 2}), (10, {1, 3}), (9, {1})]:
            fine = generate_sring(n, s)
            coarse = generate_sring(n, trace(n, s))
            for t in coarse.basic_sets:
                assert is_union_of_classes(fine, t)

    def test_trace_closure_equality_iff_trace_closed(self):
        # exhaustive over all subsets for small n
        for n in range(2, 10):
            for bits in range(1 << (n - 1)):
                s = frozenset(x for x in range(1, n) if bits >> (x - 1) & 1)
                same = generate_sring(n, s) == generate_sring(n, trace(n, s))
                assert same == is_trace_closed(n, s), (n, sorted(s))


class TestIsRational:
    def test_hexagon_ring_rational(self):
        assert is_rational(generate_sring(6, {1, 5}))

    def test_trivial_ring_rational(self):
        assert is_rational(generate_sring(9, set(range(1, 9))))

    def test_directed_pentagon_not_rational(self):
        ring = generate_sring(5, {1})
        assert ring.rank == 5
        assert not is_rational(ring)


class TestGroupBasis:
    def test_hexagon(self):
        assert group_basis(generate_sring(6, {1, 5})).lattice.elements == (1, 2, 3, 6)

    def test_trivial(self):
        got = group_basis(generate_sring(10, set(range(1, 10)))).lattice
        assert got.elements == (1, 10)

    def test_striking(self, striking_lattice):
        ring = generate_sring(36, orbit_union(36, (2, 3, 4, 6)))
        rs = group_basis(ring)
        assert rs.lattice == striking_lattice
        # the subgroup of order 18 stripped of smaller members is Q_2 u Q_4
        assert orbit_set(36, 2) | orbit_set(36, 4) in set(ring.basic_sets)

    def test_rejects_non_rational(self):
        with pytest.raises(NotRationalError):
            group_basis(generate_sring(5, {1}))

    def test_orbit_members_match_subgroup_unions(self):
        # Reference: the members l whose subgroup Z_l is a union of classes, tested on points.
        for n in range(2, 61):
            ds = divisors(n)
            if len(ds) > 12:
                continue
            for k in range(len(ds)):
                for subset in combinations(ds[:-1], k):
                    ring = generate_sring(n, orbit_union(n, subset))
                    want = tuple(l for l in ds if is_union_of_classes(ring, subgroup(n, l)))
                    assert group_basis(ring).lattice.elements == want, (n, subset)


class TestBasicSetsFromLattice:
    def test_full_lattice_of_6(self):
        rs = basic_sets_from_lattice(DivisorLattice(6, (1, 2, 3, 6)))
        assert set(rs.ring.basic_sets) == {
            frozenset({0}),
            frozenset({3}),
            frozenset({2, 4}),
            frozenset({1, 5}),
        }

    def test_trivial(self):
        rs = basic_sets_from_lattice(trivial_lattice(7))
        assert set(rs.ring.basic_sets) == {frozenset({0}), frozenset(range(1, 7))}

    def test_striking(self, striking_lattice):
        rs = basic_sets_from_lattice(striking_lattice)
        assert rs.ring == generate_sring(36, orbit_union(36, (2, 3, 4, 6)))

    def test_matches_point_reference(self):
        for n in range(1, 61):
            for lat in sublattices(n):
                rs = basic_sets_from_lattice(lat)
                assert rs.ring == reference_basic_sets_from_lattice(lat), (n, lat.elements)
                assert rs.lattice == lat

    def test_round_trip_up_to_30(self):
        for n in range(1, 31):
            for lat in sublattices(n):
                assert group_basis(basic_sets_from_lattice(lat).ring).lattice == lat

    def test_rank_and_sizes(self):
        for n in (12, 18, 36):
            for lat in sublattices(n):
                ring = basic_sets_from_lattice(lat).ring
                assert ring.rank == len(lat)
                assert sum(len(t) for t in ring.basic_sets) == n


class TestStructureConstants:
    def test_transpose_symmetry(self):
        ring = generate_sring(12, {1, 11})
        p = structure_constants(ring)
        n = ring.n
        idx = {x: i for i, t in enumerate(ring.basic_sets) for x in t}
        neg = [idx[(-min(t)) % n] for t in ring.basic_sets]
        for (i, j, k), v in p.items():
            # transposing the product reverses the factors and negates classes
            assert p[(neg[j], neg[i], neg[k])] == v

    def test_row_sums(self):
        ring = generate_sring(10, {1, 9})
        p = structure_constants(ring)
        sizes = [len(t) for t in ring.basic_sets]
        r = ring.rank
        for i in range(r):
            for j in range(r):
                total = sum(p[(i, j, k)] * sizes[k] for k in range(r))
                assert total == sizes[i] * sizes[j]


def reference_generator_subset(lat):
    """The recursive construction: peel a maximal m, recurse below it,
    put the result on the correct side, embed it in the subgroup of order
    m and adjoin the stripped subgroup of order s."""
    n = lat.modulus
    if lat.elements == (1,):
        return frozenset()
    if lat.elements == (1, n):
        return frozenset(range(1, n))
    m = max(lat.maximal_elements())
    r = reference_generator_subset(lat.below(m))
    s = min(x for x in lat.elements if m % x != 0)
    stripped = subgroup(n, s) - subgroup(n, math.gcd(m, s))
    unit_set = set(sring.units(m))
    if s < n:
        if not (r & unit_set):
            r = frozenset(range(1, m)) - r
    elif unit_set <= r:
        r = frozenset(range(1, m)) - r
    return frozenset((x * (n // m)) % n for x in r) | stripped


class TestGeneratorSubset:
    def test_matches_the_recursive_reference(self):
        for n in range(1, 301):
            if tau(n) > 10:
                continue
            for lat in sublattices(n):
                assert generator_subset(lat) == reference_generator_subset(lat)

    def test_trivial_lattice_gives_complete_graph(self):
        assert generator_subset(trivial_lattice(6)) == frozenset(range(1, 6))

    def test_full_lattice_of_6(self):
        s = generator_subset(DivisorLattice(6, (1, 2, 3, 6)))
        assert is_trace_closed(6, s)
        assert 0 not in s
        assert group_basis(generate_sring(6, s)).lattice.elements == (1, 2, 3, 6)

    def test_striking(self, striking_lattice):
        s = generator_subset(striking_lattice)
        assert is_trace_closed(36, s)
        assert group_basis(generate_sring(36, s)).lattice == striking_lattice

    def test_all_lattices_up_to_30(self):
        for n in range(1, 31):
            for lat in sublattices(n):
                generator_subset(lat)  # internal verification raises on failure


def test_subgroup_helper():
    assert subgroup(12, 4) == {0, 3, 6, 9}
    with pytest.raises(ValueError):
        subgroup(12, 5)
