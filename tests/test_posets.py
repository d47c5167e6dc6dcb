import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ratcirc import (
    DivisorLattice,
    InternalConsistencyError,
    PartitionOfZn,
    WeightedPoset,
    ancestral_sets,
    antichain,
    chain,
    coset_partition,
    crested_product,
    divisors,
    full_lattice,
    is_simple_lattice,
    lattice_closure,
    lattice_to_poset,
    orthogonality_check,
    poset_block_partition,
    poset_from_pairs,
    poset_isomorphic,
    poset_to_lattice,
    simple_reduction_applies,
    sublattices,
    tau,
    trivial_lattice,
    weak_iso_map,
)
from ratcirc.posets import _N_PATTERN, find_n_subposet


def to_point(tm, t):
    """The coefficient form: the residue of the weight tuple t under the map tm."""
    return sum(c * x for c, x in zip(tm.coefficients, t)) % tm.n


def reference_find_n_subposet(p):
    """The first of all ordered 4-tuples of nodes whose 16 relations match the N pattern."""
    for quad in permutations(range(p.size), 4):
        if all(p.leq[quad[a]][quad[b]] == _N_PATTERN[a][b] for a in range(4) for b in range(4)):
            return quad
    return None


def complement_weight_product(p, j):
    """Product of the weights of the nodes outside j."""
    return math.prod(w for i, w in enumerate(p.weights) if i not in j)


def reference_poset_to_lattice(p):
    """Complementary weight products over all 2^r subsets that are ancestral."""
    members = {complement_weight_product(p, j) for j in ancestral_sets(p)}
    return DivisorLattice.of(p.total, members)


def reference_lattice_to_poset(lat):
    """The poset grown node by node: peel a maximal m, recurse below it, and
    attach a new top node above the nodes outside the one ancestral set
    whose complementary product is gcd(m, s), then close transitively."""
    n = lat.modulus
    if lat.elements == (1, n):
        return WeightedPoset((n,), ((True,),))
    m = max(lat.maximal_elements())
    sub = reference_lattice_to_poset(lat.below(m))
    s = min(x for x in lat.elements if m % x != 0)
    g = math.gcd(m, s)
    hits = [j for j in ancestral_sets(sub) if complement_weight_product(sub, j) == g]
    assert len(hits) == 1
    r = sub.size
    leq = [list(row) + [False] for row in sub.leq]
    leq.append([False] * r + [True])
    for x in range(r):
        if x not in hits[0]:
            leq[x][r] = True
    for x in range(r):
        for y in range(r):
            if leq[x][y] and leq[y][r]:
                leq[x][r] = True
    return WeightedPoset(sub.weights + (n // m,), tuple(tuple(row) for row in leq))


class TestWeightedPosetValidation:
    def test_weight_one_rejected(self):
        with pytest.raises(ValueError):
            antichain((1, 6))

    def test_non_increasing_labeling_rejected(self):
        with pytest.raises(ValueError):
            poset_from_pairs((2, 3), [(1, 0)])

    def test_incomparable_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            antichain((2, 2))

    def test_comparable_non_coprime_allowed(self):
        chain((2, 2))  # nested blocks of equal size are fine

    def test_non_transitive_matrix_rejected(self):
        leq = (
            (True, True, False),
            (False, True, True),
            (False, False, True),
        )
        with pytest.raises(ValueError):
            WeightedPoset((2, 3, 5), leq)


class TestAncestralSets:
    def test_chain(self):
        fam = ancestral_sets(chain((3, 2)))
        assert fam == (frozenset(), frozenset({1}), frozenset({0, 1}))

    def test_antichain_all_subsets(self):
        fam = ancestral_sets(antichain((2, 3)))
        assert len(fam) == 4

    def test_poset_n(self, poset_n):
        fam = ancestral_sets(poset_n)
        expected = {
            frozenset(),
            frozenset({2}),
            frozenset({3}),
            frozenset({2, 3}),
            frozenset({0, 2}),
            frozenset({0, 2, 3}),
            frozenset({1, 2, 3}),
            frozenset({0, 1, 2, 3}),
        }
        assert set(fam) == expected

    def test_closed_under_union_and_intersection(self, poset_n):
        fam = set(ancestral_sets(poset_n))
        for a in fam:
            for b in fam:
                assert a | b in fam
                assert a & b in fam


class TestPosetToLattice:
    def test_chain(self):
        assert poset_to_lattice(chain((3, 2))).elements == (1, 3, 6)

    def test_antichain(self):
        assert poset_to_lattice(antichain((2, 3))).elements == (1, 2, 3, 6)

    def test_poset_n_gives_striking(self, poset_n, striking_lattice):
        assert poset_to_lattice(poset_n) == striking_lattice

    def test_size_equals_ancestral_count(self):
        for p in (chain((2, 2, 3)), antichain((2, 3)), poset_from_pairs((3, 2, 3), [(0, 2), (1, 2)])):
            assert len(poset_to_lattice(p)) == len(ancestral_sets(p))


class TestLatticeToPoset:
    def test_trivial(self):
        p = lattice_to_poset(trivial_lattice(6))
        assert p.size == 1 and p.weights == (6,)

    def test_full_lattice_of_6_is_antichain(self):
        p = lattice_to_poset(DivisorLattice(6, (1, 2, 3, 6)))
        assert poset_isomorphic(p, antichain((2, 3)))

    def test_striking_is_n(self, striking_lattice, poset_n):
        p = lattice_to_poset(striking_lattice)
        assert poset_isomorphic(p, poset_n)
        assert p.weights == (3, 2, 3, 2)

    def test_rejects_modulus_one(self):
        with pytest.raises(ValueError):
            lattice_to_poset(DivisorLattice(1, (1,)))

    def test_round_trip_up_to_60(self):
        for n in range(2, 61):
            for lat in sublattices(n):
                assert poset_to_lattice(lattice_to_poset(lat)) == lat


class TestBirkhoffDictionary:
    def test_matches_the_subset_search_references(self):
        for n in range(2, 301):
            if tau(n) > 10:
                continue
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                assert p == reference_lattice_to_poset(lat), lat.elements
                assert poset_to_lattice(p) == reference_poset_to_lattice(p) == lat

    def test_arbitrary_posets_match_the_subset_search(self):
        n_free = poset_from_pairs((3, 2, 3), [(0, 2), (1, 2)])
        for p in (chain((2, 2, 3)), antichain((2, 3, 5)), n_free):
            assert poset_to_lattice(p) == reference_poset_to_lattice(p)

    def test_nodes_are_the_join_irreducibles(self, striking_lattice):
        p = lattice_to_poset(striking_lattice)
        products = [math.prod(p.weights[i] for i in p.down_set(j)) for j in range(p.size)]
        assert products == [s for _, _, s in reversed(striking_lattice.peel())]

    def test_chain_of_31_twos_round_trips(self):
        lat = full_lattice(2 ** 31)
        p = lattice_to_poset(lat)
        assert p == chain((2,) * 31)
        assert poset_to_lattice(p) == lat

    def test_wrong_peel_step_is_an_internal_error(self, monkeypatch):
        lat = full_lattice(12)
        # s = 6 divides m = 6; the nodes would still form a valid weighted
        # poset, so only the down-set product check can catch it.
        wrong = [(12, 6, 6), (6, 3, 2), (3, 1, 3)]
        monkeypatch.setattr(DivisorLattice, "peel", lambda self: wrong)
        with pytest.raises(InternalConsistencyError):
            lattice_to_poset(lat)


class TestWeakIsoMap:
    def test_coefficients_on_poset_n(self, poset_n):
        assert weak_iso_map(poset_n).coefficients == (12, 18, 2, 9)

    def test_single_node(self):
        tm = weak_iso_map(lattice_to_poset(trivial_lattice(5)))
        assert tm.coefficients == (1,)

    def test_chain_coefficients_and_bijection(self):
        tm = weak_iso_map(chain((3, 2)))
        assert tm.coefficients == (2, 1)
        images = {to_point(tm, (x, y)) for x in range(3) for y in range(2)}
        assert images == set(range(6))

    def test_inverse(self, poset_n):
        tm = weak_iso_map(poset_n)
        for k, t in enumerate(product(range(3), range(2), range(3), range(2))):
            assert tm.points.index(to_point(tm, t)) == k

    def test_bijectivity_is_checked_when_points_are_read(self):
        tm = weak_iso_map(chain((3, 2)))
        tm.coefficients = (2, 2)  # 2x + 2y mod 6 misses the odd residues
        with pytest.raises(InternalConsistencyError, match=r"^coefficient map \(2, 2\) is not a bijection mod 6$"):
            tm.points

    def test_bijective_for_all_small_posets(self):
        for n in range(2, 61):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                tm = weak_iso_map(p)
                # Node i's coefficient: the product of the weights outside its principal down-set.
                assert tm.coefficients == tuple(
                    complement_weight_product(p, p.down_set(i)) for i in range(p.size))
                tm.points  # the point table raises when the map is not bijective
                tuples = product(*(range(w) for w in tm.poset.weights))
                for k, t in enumerate(tuples):
                    v = to_point(tm, t)
                    assert tm.points[k] == v, (lat.elements, t)
                    assert tm.points.index(v) == k


class TestPosetBlockPartition:
    def test_full_set_is_equality(self, poset_n):
        part = poset_block_partition(poset_n, {0, 1, 2, 3})
        assert part == coset_partition(36, 1)

    def test_empty_set_is_universal(self, poset_n):
        assert poset_block_partition(poset_n, frozenset()) == coset_partition(36, 36)

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 36])
    def test_orders_one_and_n_give_equality_and_universal(self, n):
        assert coset_partition(n, 1) == PartitionOfZn.of(n, [{x} for x in range(n)])
        assert coset_partition(n, n) == PartitionOfZn.of(n, [set(range(n))])

    def test_coset_image(self, poset_n):
        # ancestral {0,2,3}: complement weight 2, so cosets of the order-2 subgroup
        part = poset_block_partition(poset_n, {0, 2, 3})
        assert part == coset_partition(36, 2)
        assert len(part.blocks) == 18
        assert frozenset({0, 18}) in set(part.blocks)

    def test_non_ancestral_rejected(self, poset_n):
        with pytest.raises(ValueError):
            poset_block_partition(poset_n, {0})  # up-set of 0 contains 2

    def test_block_of_zero_is_subgroup(self, poset_n):
        for j in ancestral_sets(poset_n):
            part = poset_block_partition(poset_n, j)
            d = complement_weight_product(poset_n, j)
            zero_block = next(b for b in part.blocks if 0 in b)
            assert zero_block == frozenset(range(0, 36, 36 // d))

    def test_partition_map_reverses_inclusion(self, poset_n):
        fam = ancestral_sets(poset_n)
        parts = {j: poset_block_partition(poset_n, j) for j in fam}

        def refines(e, f):
            return all(any(be <= bf for bf in f.blocks) for be in e.blocks)

        for a in fam:
            for b in fam:
                if a >= b:
                    assert refines(parts[a], parts[b])


class TestOrthogonality:
    def test_partition_with_itself(self):
        e = coset_partition(12, 3)
        assert orthogonality_check(e, e)

    def test_coset_partitions_commute(self):
        for n in range(2, 25):
            from ratcirc import divisors

            for a in divisors(n):
                for b in divisors(n):
                    assert orthogonality_check(coset_partition(n, a), coset_partition(n, b))

    def test_equality_with_anything(self):
        f = PartitionOfZn.of(6, [{0, 1, 4}, {2}, {3, 5}])
        assert orthogonality_check(coset_partition(6, 1), f)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            orthogonality_check(coset_partition(4, 1), coset_partition(5, 1))


class TestCrestedProduct:
    def test_crossing(self):
        got = crested_product(trivial_lattice(2), 1, trivial_lattice(3))
        assert got.elements == (1, 2, 3, 6)

    def test_striking_decomposition(self, striking_lattice):
        l2 = DivisorLattice(18, (1, 2, 3, 6, 18))
        assert crested_product(DivisorLattice(2, (1, 2)), 2, l2) == striking_lattice

    def test_nested_tower(self, striking_lattice):
        inner = crested_product(trivial_lattice(2), 1, trivial_lattice(3))
        mid = crested_product(trivial_lattice(3), 6, inner)
        assert mid.elements == (1, 2, 3, 6, 18)
        assert crested_product(trivial_lattice(2), 2, mid) == striking_lattice

    def test_size_formula(self):
        l1 = DivisorLattice(4, (1, 2, 4))
        l2 = DivisorLattice(9, (1, 3, 9))
        for d in l2:
            got = crested_product(l1, d, l2)
            assert len(got) == len(l2) + (len(l1) - 1) * len(l2.above(d))

    def test_pivot_must_be_member(self):
        with pytest.raises(ValueError, match="member"):
            crested_product(trivial_lattice(2), 3, DivisorLattice(9, (1, 9)))

    def test_coprimality_required(self):
        with pytest.raises(ValueError, match="gcd"):
            crested_product(trivial_lattice(2), 1, trivial_lattice(4))


class TestSimplicity:
    def test_all_sublattices_of_12_simple(self):
        for lat in sublattices(12):
            assert is_simple_lattice(lat).is_simple

    def test_striking_not_simple_with_n_certificate(self, striking_lattice):
        rep = is_simple_lattice(striking_lattice)
        assert not rep.is_simple
        quad = rep.certificate
        assert quad is not None
        induced = [[rep.poset.leq[a][b] for b in quad] for a in quad]
        pattern = poset_from_pairs((3, 2, 3, 2), [(0, 2), (1, 2), (1, 3)]).leq
        assert induced == [list(row) for row in pattern]

    def test_trivial_simple(self):
        assert is_simple_lattice(trivial_lattice(36)).is_simple

    def test_reduction_rule_examples(self):
        assert simple_reduction_applies(12)
        assert not simple_reduction_applies(36)
        assert simple_reduction_applies(30)

    def test_reduction_rule_rejects_small(self):
        with pytest.raises(ValueError):
            simple_reduction_applies(1)

    def test_criterion_matches_exhaustive_scan(self):
        for n in range(2, 61):
            all_simple = all(is_simple_lattice(l).is_simple for l in sublattices(n))
            assert all_simple == simple_reduction_applies(n), n

    def test_n_free_poset_detector(self, poset_n):
        assert find_n_subposet(poset_n) == (0, 1, 2, 3)
        assert find_n_subposet(chain((2, 3, 5))) is None

    def test_n_detector_matches_the_permutation_scan(self):
        found = 0
        for n in range(2, 61):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                quad = find_n_subposet(p)
                assert quad == reference_find_n_subposet(p), (n, lat.elements)
                found += quad is not None
        assert found > 0


class TestDot:
    def test_poset_n_dot(self, poset_n):
        dot = poset_n.to_dot()
        assert dot.count("->") == 3
        assert '"1" [label="1 [3]"];' in dot

    def test_json_round_trip(self, poset_n):
        d = poset_n.to_json_dict()
        rebuilt = poset_from_pairs(
            tuple(d["weights"]), [(i - 1, j - 1) for i, j in d["relations"]]
        )
        assert rebuilt == poset_n


@given(st.sampled_from([55440, 720720, 9699690]), st.data())
@settings(max_examples=40, deadline=None)
def test_n_detector_matches_the_permutation_scan_on_random_closures(n, data):
    """Moduli with more than 12 divisors, beyond the exhaustive sublattice sweep."""
    seed = data.draw(st.lists(st.sampled_from(divisors(n)), max_size=5))
    p = lattice_to_poset(lattice_closure(n, seed))
    assert find_n_subposet(p) == reference_find_n_subposet(p)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_sublattice_poset_round_trip(data):
    n = data.draw(st.sampled_from([24, 36, 40, 48, 60, 72, 90, 96, 100]))
    lats = sublattices(n)
    lat = data.draw(st.sampled_from(lats))
    p = lattice_to_poset(lat)
    assert poset_to_lattice(p) == lat
    assert math.prod(p.weights) == n
