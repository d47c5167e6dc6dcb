from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ratcirc import (
    BoundExceededError,
    Perm,
    PermutationGroup,
    gwp_generators,
    gwp_order,
    is_subgroup_of,
    lattice_to_poset,
    sublattices,
    transport,
)
from ratcirc.arith import factored_value
from ratcirc.claims import two_orbits
from ratcirc.perms import _compose, _invert


def shift(n, k):
    """The translation x -> x + k mod n."""
    return Perm(tuple((x + k) % n for x in range(n)))


def negation(n):
    """The map x -> -x mod n."""
    return Perm(tuple(-x % n for x in range(n)))


class TestPerm:
    def test_identity_neutral(self):
        g = Perm((1, 2, 0, 3))
        assert Perm.identity(4) * g == g == g * Perm.identity(4)

    def test_left_to_right_composition(self):
        g = Perm((1, 0, 2))
        h = Perm((0, 2, 1))
        assert (g * h).image == tuple(h.image[g.image[x]] for x in range(3))

    def test_translation_has_order_n(self):
        t = shift(6, 1)
        g, k = t, 1
        while not g.is_identity():
            g, k = g * t, k + 1
        assert k == 6

    def test_inverse(self):
        g = Perm((2, 0, 3, 1))
        assert (g * g.inverse()).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    @pytest.mark.parametrize("image", [
        (0, 0, 1), (2, 1, 2),  # repeated
        (0, 1, 3), (3, 1, 0, 5, 4),  # out of range
        (-1, 0, 1), (0, 1, -3),  # negative
        (0, 1.0, 2), (0, "1"), (None,), (True, False), (1.5, 0),  # not ints
    ])
    def test_rejects_non_permutations(self, image):
        with pytest.raises(ValueError) as err:
            Perm(image)
        assert str(err.value) == f"not a permutation of 0..{len(image) - 1}: {image}"

    @given(st.lists(st.integers(-2, 6), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_permutations(self, image):
        if sorted(image) == list(range(len(image))):
            assert Perm(image).image == tuple(image)
        else:
            with pytest.raises(ValueError) as err:
                Perm(image)
            assert str(err.value) == f"not a permutation of 0..{len(image) - 1}: {tuple(image)}"

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Perm.identity(3) * Perm.identity(4)

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (0, 5), (5, 0), (5, 5), (-1, -1)])
    def test_transposition_rejects_points_off_the_degree(self, a, b):
        with pytest.raises(ValueError, match=rf"^transposition \({a} {b}\) is not on 0\.\.4$"):
            Perm.transposition(5, a, b)

    def test_transposition_accepts_both_ends(self):
        assert Perm.transposition(5, 0, 4).image == (4, 1, 2, 3, 0)
        assert Perm.transposition(5, 4, 4) == Perm.identity(5)

    @given(image=st.permutations(range(7)), a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_support_is_the_moved_points(self, image, a, b):
        moved = [x for x, y in enumerate(image) if x != y]
        g, t = Perm(image), Perm.transposition(7, a, b)
        assert g.support == tuple(moved)
        assert sorted(t.support) == ([] if a == b else sorted({a, b}))
        for h in (g * t, t * g, g.inverse(), Perm.identity(7)):
            assert h.support == tuple(x for x, y in enumerate(h.image) if x != y)

    @given(image=st.permutations(range(7)), seed=st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_declared_support_leaves_equality_and_hash_alone(self, image, seed):
        moved = [x for x, y in enumerate(image) if x != y]
        seed.shuffle(moved)  # a declared support may list the moved points in any order
        declared, scanned = Perm._unchecked(tuple(image), tuple(moved)), Perm(image)
        assert declared.support == tuple(moved)
        assert declared == scanned and hash(declared) == hash(scanned)
        assert repr(declared) == repr(scanned) and len({declared, scanned}) == 1

    def test_component_action_on_z36(self):
        # x -> x+4 and negation generate the full symmetric action on the
        # three residue classes mod 3
        g4 = shift(36, 4)
        g5 = negation(36)
        induced = []
        for g in (g4, g5):
            comp = []
            for c in range(3):
                comp.append(g.image[c] % 3)
            induced.append(Perm(comp))
        G = PermutationGroup(3, induced)
        assert G.order() == 6


class TestGroupOrder:
    def test_cyclic(self):
        for n in (3, 6, 11):
            assert PermutationGroup(n, [shift(n, 1)]).order() == n

    def test_symmetric_from_transpositions(self):
        gens = [Perm.transposition(4, a, b) for a in range(4) for b in range(a + 1, 4)]
        G = PermutationGroup(4, gens)
        assert G.order() == 24
        assert G.order_factored() == {2: 3, 3: 1}

    def test_empty_generators(self):
        assert PermutationGroup(5, []).order() == 1

    def test_matches_exhaustive_enumeration(self):
        gens = [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]
        G = PermutationGroup(5, gens)
        closure = {Perm.identity(5)}
        frontier = [Perm.identity(5)]
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = g * s
                if h not in closure:
                    closure.add(h)
                    frontier.append(h)
        assert G.order() == len(closure) == 120

    def test_dihedral_matches_enumeration(self):
        n = 14
        gens = [shift(n, 1), negation(n)]
        G = PermutationGroup(n, gens)
        closure = {Perm.identity(n)}
        frontier = [Perm.identity(n)]
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = g * s
                if h not in closure:
                    closure.add(h)
                    frontier.append(h)
        assert G.order() == len(closure) == 2 * n

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_order_matches_sympy(self, data):
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics import PermutationGroup as SymGroup

        n = data.draw(st.integers(min_value=3, max_value=9))
        gens = [
            data.draw(st.permutations(list(range(n))))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        ours = PermutationGroup(n, [Perm(g) for g in gens]).order()
        theirs = SymGroup([SymPerm(list(g)) for g in gens]).order()
        assert ours == theirs

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_membership_of_generator_products(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        gens = [
            Perm(data.draw(st.permutations(list(range(n))))) for _ in range(2)
        ]
        G = PermutationGroup(n, gens)
        word = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=6))
        g = word[0]
        for w in word[1:]:
            g = g * w
        assert g in G


    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_sympy(self, data):
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics import PermutationGroup as SymGroup

        n = data.draw(st.integers(min_value=2, max_value=9))
        gens = [
            data.draw(st.permutations(list(range(n))))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        g = data.draw(st.permutations(list(range(n))))
        ours = Perm(g) in PermutationGroup(n, [Perm(h) for h in gens])
        theirs = SymGroup([SymPerm(list(h)) for h in gens]).contains(SymPerm(list(g)))
        assert ours == theirs

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_transported_gwp_chain(self, data):
        n = data.draw(st.integers(min_value=2, max_value=40))
        p = lattice_to_poset(data.draw(st.sampled_from(sublattices(n))))
        gens = transport(gwp_generators(p), p, verify=False)
        G = PermutationGroup(n, gens)
        product = 1
        for length in G.basic_orbit_lengths():
            product *= length
        assert product == factored_value(gwp_order(p))
        assert all(G.sift(g).is_identity() for g in gens)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_chain_grows_from_a_shuffled_generating_set(self, data):
        # Shuffled transported generators plus random products are not a
        # strong generating set, so the chain grows while known members of
        # the next level are skipped.
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics import PermutationGroup as SymGroup

        n = data.draw(st.integers(min_value=2, max_value=40))
        p = lattice_to_poset(data.draw(st.sampled_from(sublattices(n))))
        gens = data.draw(st.permutations(transport(gwp_generators(p), p, verify=False)))
        for _ in range(data.draw(st.integers(0, 3))):
            word = data.draw(st.lists(st.sampled_from(gens), min_size=2, max_size=4))
            g = word[0]
            for w in word[1:]:
                g = g * w
            gens.append(g)
        G = PermutationGroup(n, gens)
        assert G.order() == factored_value(gwp_order(p))
        if n <= 12:
            assert SymGroup([SymPerm(list(g.image)) for g in gens]).order() == G.order()
        assert all(G.sift(g).is_identity() for g in gens)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_schreier_tree_pairs_give_the_identity(self, data):
        # The sift skips the pairs in ``tree`` without forming them.
        n = data.draw(st.integers(min_value=2, max_value=40))
        p = lattice_to_poset(data.draw(st.sampled_from(sublattices(n))))
        gens = data.draw(st.permutations(transport(gwp_generators(p), p, verify=False)))
        G = PermutationGroup(n, gens)
        G.order()
        identity = tuple(range(n))
        for lv in G._levels:
            assert len(lv.tree) == len(lv.points) - 1
            for k, j in lv.tree:
                s = lv.gens[j][0]
                u = _invert(lv.inverse[lv.points[k]])
                assert _compose(_compose(u, s), lv.inverse[s[lv.points[k]]]) == identity


class TestMembership:
    def test_contains_generators(self):
        gens = [shift(6, 2), negation(6)]
        G = PermutationGroup(6, gens)
        assert is_subgroup_of(gens, G)

    def test_transposition_not_in_cyclic(self):
        G = PermutationGroup(6, [shift(6, 1)])
        assert Perm.transposition(6, 0, 1) not in G

    def test_regular_cyclic_below_full(self):
        gens = [Perm.transposition(5, a, a + 1) for a in range(4)]
        G = PermutationGroup(5, gens)
        assert is_subgroup_of([shift(5, 1)], G)


class TestTwoOrbits:
    def test_symmetric_group_has_two_classes(self):
        gens = [Perm.transposition(5, a, a + 1) for a in range(4)]
        parts = two_orbits(PermutationGroup(5, gens))
        assert len(parts) == 2
        sizes = sorted(len(p) for p in parts)
        assert sizes == [5, 20]

    def test_regular_cyclic_one_class_per_difference(self):
        n = 7
        parts = two_orbits(PermutationGroup(n, [shift(n, 1)]))
        assert len(parts) == n
        for p in parts:
            diffs = {(y - x) % n for x, y in p}
            assert len(diffs) == 1

    def test_classes_invariant_under_generators(self):
        gens = [shift(8, 2), negation(8)]
        G = PermutationGroup(8, gens)
        for p in two_orbits(G):
            for g in gens:
                assert frozenset((g.image[x], g.image[y]) for x, y in p) == p

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            two_orbits(PermutationGroup(201, [shift(201, 1)]))


class TestSift:
    def test_residue_identity_iff_member(self):
        gens = [shift(6, 1)]
        G = PermutationGroup(6, gens)
        assert G.sift(shift(6, 4)).is_identity()
        assert not G.sift(negation(6)).is_identity()
