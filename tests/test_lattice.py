import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ratcirc import (
    BoundExceededError,
    DivisorLattice,
    complement_identity_check,
    divisors,
    full_lattice,
    lattice_closure,
    sublattices,
    tau,
    trivial_lattice,
)


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestDivisors:
    def test_small(self):
        assert divisors(6) == [1, 2, 3, 6]
        assert divisors(1) == [1]

    def test_36_matches_trial_division(self):
        assert divisors(36) == brute_divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=3000))
    def test_matches_brute_force(self, n):
        assert divisors(n) == brute_divisors(n)


class TestLatticeClosure:
    def test_seed_4_6_in_36(self):
        # fixpoint by hand: gcd(4,6)=2, lcm(4,6)=12
        assert lattice_closure(36, {4, 6}).elements == (1, 2, 4, 6, 12, 36)

    def test_empty_seed_is_trivial(self):
        assert lattice_closure(6, set()).elements == (1, 6)

    def test_striking_seed_already_closed(self):
        assert lattice_closure(36, {2, 3, 4, 6, 12, 18}).elements == (
            1, 2, 3, 4, 6, 12, 18, 36,
        )

    def test_rejects_non_divisor_seed(self):
        with pytest.raises(ValueError):
            lattice_closure(36, {5})

    @given(st.data())
    @settings(max_examples=60)
    def test_idempotent_and_monotone(self, data):
        n = data.draw(st.sampled_from([6, 12, 24, 30, 36, 48, 60]))
        divs = divisors(n)
        seed = set(data.draw(st.lists(st.sampled_from(divs), max_size=4)))
        closed = lattice_closure(n, seed)
        assert lattice_closure(n, set(closed.elements)) == closed
        bigger = seed | set(data.draw(st.lists(st.sampled_from(divs), max_size=2)))
        assert set(closed.elements) <= set(lattice_closure(n, bigger).elements)


class TestSublattices:
    def test_n6_lists_all_four(self):
        got = [L.elements for L in sublattices(6)]
        assert got == [(1, 6), (1, 2, 6), (1, 3, 6), (1, 2, 3, 6)]

    def test_prime_has_one(self):
        assert len(sublattices(13)) == 1

    def test_n12_count_matches_independent_enumeration(self):
        inner = [2, 3, 4, 6]
        expected = 0
        for r in range(5):
            for combo in combinations(inner, r):
                chosen = set(combo) | {1, 12}
                if all(
                    math.gcd(x, y) in chosen and x * y // math.gcd(x, y) in chosen
                    for x, y in combinations(chosen, 2)
                ):
                    expected += 1
        assert len(sublattices(12)) == expected == 12

    def test_count_is_one_iff_one_or_prime(self):
        for n in range(1, 40):
            single = len(sublattices(n)) == 1
            is_prime = n > 1 and all(n % d for d in range(2, n))
            assert single == (is_prime or n == 1)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            sublattices(2 * 3 * 5 * 7 * 11 * 13)


class TestIntervals:
    def test_below_on_striking(self, striking_lattice):
        assert striking_lattice.below(18).elements == (1, 2, 3, 6, 18)
        assert striking_lattice.below(18).modulus == 18

    def test_below_bottom(self, striking_lattice):
        assert striking_lattice.below(1).elements == (1,)

    def test_above(self, striking_lattice):
        assert striking_lattice.above(6).elements == (6, 12, 18, 36)

    def test_non_member_rejected(self, striking_lattice):
        with pytest.raises(ValueError):
            striking_lattice.below(9)

    def test_intervals_stay_valid_everywhere(self):
        for n in (12, 36, 40):
            for L in sublattices(n):
                for m in L:
                    L.below(m)
                    L.above(m)  # constructors validate the invariants


class TestPeel:
    def test_full_lattice_of_12(self):
        assert full_lattice(12).peel() == [(12, 6, 4), (6, 3, 2), (3, 1, 3)]

    def test_trivial_lattice_is_one_step(self):
        assert trivial_lattice(7).peel() == [(7, 1, 7)]
        assert trivial_lattice(1).peel() == []

    def test_steps_follow_the_rule(self):
        # The definition: the largest maximal element, then a validated interval.
        count = 0
        for n in (n for n in range(2, 400) if tau(n) <= 12):
            for L in sublattices(n):
                count += 1
                lat = L
                for top, m, s in L.peel():
                    assert top == lat.modulus
                    assert m == max(lat.maximal_elements())
                    assert s == min(x for x in lat if m % x != 0)
                    lat = lat.below(m)
                assert lat.elements == (1,)
        assert count == 9246


class TestComplementIdentity:
    def test_striking_choice(self, striking_lattice):
        w = complement_identity_check(striking_lattice, m=18)
        assert (w.m, w.s) == (18, 4)
        assert w.left == w.right == (4, 12, 36)
        assert w.holds

    def test_trivial_lattice(self):
        w = complement_identity_check(trivial_lattice(7))
        assert (w.m, w.s) == (1, 7)
        assert w.left == w.right == (7,)

    def test_three_chain(self):
        w = complement_identity_check(DivisorLattice(6, (1, 3, 6)))
        assert (w.m, w.s) == (3, 6)
        assert w.right == (6,)

    def test_exhaustive_all_maximal_choices(self):
        for n in range(2, 61):
            for L in sublattices(n):
                for m in L.maximal_elements():
                    assert complement_identity_check(L, m=m).holds, (n, L.elements, m)


class TestValidation:
    def test_requires_closure(self):
        with pytest.raises(ValueError):
            DivisorLattice(36, (1, 4, 6, 36))  # gcd(4,6)=2 missing

    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            DivisorLattice(6, (1, 6, 6))

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            DivisorLattice(6, (1, 4, 6))

    def test_requires_modulus_member(self):
        with pytest.raises(ValueError):
            DivisorLattice(12, (1, 2, 4))


class TestDot:
    def test_striking_hasse_edges(self, striking_lattice):
        assert striking_lattice.covers() == [
            (1, 2), (1, 3), (2, 4), (2, 6), (3, 6),
            (4, 12), (6, 12), (6, 18), (12, 36), (18, 36),
        ]
        dot = striking_lattice.to_dot()
        assert dot.count("->") == 10
        assert '"6" -> "18";' in dot

    def test_two_node_chain(self):
        dot = trivial_lattice(6).to_dot()
        assert dot.count("->") == 1

    def test_full_lattice_nodes(self):
        dot = full_lattice(12).to_dot()
        for d in divisors(12):
            assert f'"{d}"' in dot
