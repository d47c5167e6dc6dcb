import math
import tracemalloc
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ratcirc import (
    BoundExceededError,
    CirculantGraph,
    DivisorLattice,
    Perm,
    PermutationGroup,
    antichain,
    build_gwp,
    chain,
    divisors,
    gwp_generators,
    gwp_order,
    lattice_closure,
    lattice_to_poset,
    orbit_set,
    render_group_expression,
    sublattices,
    transport,
    trivial_lattice,
)
from ratcirc import gwp
from ratcirc.arith import factored_value
from ratcirc.gwp import GroupExpression, gwp_exponents
from ratcirc.posets import _strides, find_n_subposet, poset_to_lattice, weak_iso_map
from ratcirc.sring import basic_sets_from_lattice


def scan_generators(p):
    """Reference for gwp_generators: scan all n points for every generator."""
    n, weights = p.total, p.weights
    strides = _strides(weights)
    points = list(product(*(range(w) for w in weights)))
    encode = {t: sum(x * s for x, s in zip(t, strides)) for t in points}
    gens = []
    for i in range(p.size):
        anc = sorted(p.up_set(i))
        for u in product(*(range(weights[j]) for j in anc)):
            for k in range(weights[i] - 1):
                image = list(range(n))
                for t in points:
                    if tuple(t[j] for j in anc) == u and t[i] in (k, k + 1):
                        swapped = list(t)
                        swapped[i] = 2 * k + 1 - t[i]
                        image[encode[t]] = encode[tuple(swapped)]
                gens.append(Perm(image))
    return gens


def reference_decompose_lattice(lat):
    """Reference for the expression tree: crossing/nesting on lattice intervals."""
    n = lat.modulus
    if lat.elements == (1, n) or n == 1:
        return GroupExpression("sym", weight=n)

    # crossing: coprime complementary members whose interval product is L
    for a in lat.elements[1:-1]:
        b = n // a
        if b not in lat or math.gcd(a, b) != 1:
            continue
        la, lb = lat.below(a), lat.below(b)
        prods = {x * y for x in la.elements for y in lb.elements}
        if prods == set(lat.elements):
            left = reference_decompose_lattice(la)
            right = reference_decompose_lattice(lb)
            if left is None or right is None:
                return None
            return GroupExpression("cross", children=(left, right))

    # nesting: a pivot every member divides or is divided by
    pivots = [
        k
        for k in lat.elements[1:-1]
        if all(k % x == 0 or x % k == 0 for x in lat.elements)
    ]
    if pivots:
        k = max(pivots)
        quotient = DivisorLattice.of(n // k, (x // k for x in lat.above(k).elements))
        top = reference_decompose_lattice(quotient)
        bottom = reference_decompose_lattice(lat.below(k))
        if top is None or bottom is None:
            return None
        return GroupExpression("wreath", children=(top, bottom))

    return None


def reference_expression_text(p):
    """The expression text read off the poset's lattice, or the gwp descriptor."""
    if find_n_subposet(p) is not None:
        return GroupExpression("gwp", poset=p).text()
    return reference_decompose_lattice(poset_to_lattice(p)).text()


def first_broken_basic_set(g, p):
    """Reference for transport's check: the scalar loop over every basic set.

    Returns the first basic set, in ring order, whose Cayley graph g does not
    preserve, or None when g is an automorphism of all of them.
    """
    n = p.total
    for t in basic_sets_from_lattice(poset_to_lattice(p)).ring.basic_sets:
        for x in range(n):
            gx = g.image[x]
            for s in t:
                if (g.image[(x + s) % n] - gx) % n not in t:
                    return t
    return None


def least_broken_subgroup(g, lat):
    """Reference for transport's error: the subgroup order it names.

    Returns the least inner l of ``lat`` with some x = y (mod n/l) whose
    images differ mod n/l, scanning all pairs, or None when there is none.
    """
    n = lat.modulus
    for l in lat.elements[1:-1]:
        m = n // l
        if any((x - y) % m == 0 and (g.image[x] - g.image[y]) % m
               for x in range(n) for y in range(n)):
            return l
    return None


class TestGwpOrder:
    def test_poset_n(self, poset_n):
        assert gwp_order(poset_n) == {2: 11, 3: 4}
        # one symmetric factor per node: (3!)^3 * (2!)^6 * 3! * 2!
        assert gwp_exponents(poset_n) == (3, 6, 1, 1)

    def test_single_node(self):
        p = lattice_to_poset(trivial_lattice(5))
        assert factored_value(gwp_order(p)) == 120

    def test_chain(self):
        assert factored_value(gwp_order(chain((3, 2)))) == 72

    def test_antichain_is_product_of_factorials(self):
        assert factored_value(gwp_order(antichain((2, 3)))) == 12


class TestGwpGenerators:
    def test_antichain_direct_product(self):
        p = antichain((2, 3))
        gens = gwp_generators(p)
        G = PermutationGroup(6, gens)
        assert G.order() == 12
        # per-coordinate equality patterns: 2^r two-orbit classes
        assert len(G.two_orbits()) == 4

    def test_chain_wreath(self):
        p = chain((3, 2))
        G = PermutationGroup(6, gwp_generators(p))
        assert G.order() == 72

    def test_poset_n_order(self, poset_n):
        G = PermutationGroup(36, gwp_generators(poset_n))
        assert G.order_factored() == {2: 11, 3: 4}

    def test_generator_count(self, poset_n):
        gens = gwp_generators(poset_n)
        expected = sum(
            m * (w - 1) for m, w in zip(gwp_exponents(poset_n), poset_n.weights)
        )
        assert len(gens) == expected == 15

    def test_degree_bound(self):
        # 2^27 points and 2^27 - 1 generators: refused before any image is built.
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError, match="bound 134217728"):
                gwp_generators(chain((2, 2 ** 26)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_order_matches_closed_form_up_to_20(self):
        for n in range(2, 21):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                G = PermutationGroup(p.total, gwp_generators(p))
                assert G.order_factored() == gwp_order(p), (n, lat.elements)

    def test_stride_arithmetic_matches_scan(self):
        for n in range(2, 41):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                assert gwp_generators(p) == scan_generators(p), (n, lat.elements)

    def test_images_are_involutions_and_transport_keeps_permutations(self):
        # The images are stored unchecked, behind the per-node guard: validate them here.
        for n in range(2, 73):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                gens = gwp_generators(p)
                for g in gens:
                    assert Perm(g.image) == g and (g * g).is_identity(), (n, lat.elements)
                for g in transport(gens, p, verify=False):
                    assert Perm(g.image) == g, (n, lat.elements)

    @pytest.mark.parametrize("strides", [(1, 1), (6, 2), (3, 2)])
    def test_guard_catches_overlapping_or_escaping_swaps(self, monkeypatch, strides):
        # On weights (2, 3) the true strides are (3, 1).  With (1, 1) node 1's
        # swaps 0<->1, 1<->2, 2<->3 overlap; with (6, 2) and (3, 2) they leave Z_6.
        from ratcirc import InternalConsistencyError, posets

        monkeypatch.setattr(posets, "_strides", lambda weights: strides)
        with pytest.raises(InternalConsistencyError,
                           match=r"^the swaps of poset node 1 .* not disjoint transpositions of Z_6$"):
            gwp_generators(antichain((2, 3)))

    def test_antichain_two_orbit_count_general(self):
        for weights in [(2, 3), (2, 3, 5)]:
            p = antichain(weights)
            G = PermutationGroup(p.total, gwp_generators(p))
            assert len(G.two_orbits()) == 2 ** len(weights)


class TestTransport:
    def test_single_node_full_symmetric(self):
        p = lattice_to_poset(trivial_lattice(4))
        gens = transport(gwp_generators(p), p)
        G = PermutationGroup(4, gens)
        assert G.order() == 24

    def test_chain_preserves_coset_partition(self):
        p = chain((3, 2))
        gens = transport(gwp_generators(p), p)
        blocks = [frozenset({0, 2, 4}), frozenset({1, 3, 5})]
        for g in gens:
            for b in blocks:
                assert frozenset(g.image[x] for x in b) in blocks

    def test_striking_preserves_q6_graph(self, poset_n):
        gens = transport(gwp_generators(poset_n), poset_n)
        q6 = orbit_set(36, 6)
        for g in gens:
            for x in range(36):
                for s in q6:
                    assert (g.image[(x + s) % 36] - g.image[x]) % 36 in q6
        assert PermutationGroup(36, gens).order_factored() == {2: 11, 3: 4}

    def test_translation_is_member(self):
        # every transported group contains the regular cyclic group
        for n in (6, 12, 18):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                gens = transport(gwp_generators(p), p, verify=False)
                G = PermutationGroup(n, gens)
                assert Perm.shift(n, 1) in G, (n, lat.elements)

    def test_verification_catches_corruption(self, poset_n):
        bad = [Perm.transposition(36, 0, 1)]
        from ratcirc import InternalConsistencyError

        with pytest.raises(InternalConsistencyError):
            transport(bad, poset_n)  # a lone transposition is no automorphism


    def test_verification_checks_every_support_row(self):
        # On Z_6 with lattice {1, 2, 6}, (0 3)(1 2) preserves every pair at
        # the rows of 0 and 3 and breaks the graph of {1,2,4,5} at 1 and 2.
        p = lattice_to_poset(DivisorLattice(6, (1, 2, 6)))
        to_zn = weak_iso_map(p).points
        from_zn = {v: k for k, v in enumerate(to_zn)}
        g = Perm((3, 2, 1, 0, 4, 5))
        h = Perm([from_zn[g.image[to_zn[i]]] for i in range(6)])
        assert transport([h], p, verify=False) == [g]
        assert sorted(first_broken_basic_set(g, p)) == [1, 2, 4, 5]
        from ratcirc import InternalConsistencyError

        # Z_2's cosets are the classes mod 3: fixed 4 keeps {1, 4}, so 1 -> 2 breaks it.
        with pytest.raises(InternalConsistencyError, match=r"order 2$"):
            transport([h], p)

    def test_exhaustive_z6_matches_scalar_reference(self):
        from ratcirc import InternalConsistencyError

        for lat in sublattices(6):
            p = lattice_to_poset(lat)
            for image in permutations(range(6)):
                h = Perm(image)
                (g,) = transport([h], p, verify=False)
                if first_broken_basic_set(g, p) is None:
                    transport([h], p)
                else:
                    with pytest.raises(InternalConsistencyError):
                        transport([h], p)

    def test_no_per_image_validation(self, monkeypatch):
        # Tripwire: transport builds no validated Perm, and each map builds its
        # point table once, so no O(n) pass per generator creeps back in.
        from ratcirc import perms, pipeline, posets
        from ratcirc.sring import orbit_union

        _, _, p = pipeline.rational_chain(360, orbit_union(360, (2, 3, 5, 8, 9)))
        gens = gwp_generators(p)
        validated, tables = [], []
        real_init, real_table = perms.Perm.__init__, posets.TransportMap._point_table
        monkeypatch.setattr(perms.Perm, "__init__",
                            lambda self, image: validated.append(1) or real_init(self, image))
        monkeypatch.setattr(posets.TransportMap, "_point_table",
                            lambda self: tables.append(self) or real_table(self))
        assert len(transport(gens, p)) == len(gens) == 253
        assert validated == [] and len(tables) == 1
        tm = weak_iso_map(p)
        assert tm.coefficients and len(tables) == 1  # the coefficients build no table
        assert tm.points is tm.points and tables[1:] == [tm]

    def test_degree_mismatch(self, poset_n):
        # n = 36: a shorter generator, and a longer one whose first 36 images are 0..35.
        for g in (Perm.identity(35), Perm.transposition(37, 0, 36), Perm.identity(37)):
            with pytest.raises(ValueError, match=r"^degree mismatch$"):
                transport([g], poset_n)

    @pytest.mark.parametrize("n", [12, 24, 36, 48, 60, 72])
    def test_join_irreducible_check_matches_all_members(self, n, monkeypatch):
        """Corrupt each transported generator by a transposition: the check on the
        r join-irreducibles raises exactly when some inner member breaks, naming the least."""
        from ratcirc import InternalConsistencyError

        checked = []
        real = gwp._permutes_cosets
        monkeypatch.setattr(gwp, "_permutes_cosets", lambda *args: checked.append(args[-1]) or real(*args))
        for lat in sublattices(n):
            p = lattice_to_poset(lat)
            checked.clear()
            valid = transport(gwp_generators(p), p)
            # Join-irreducible: not the lcm of the members strictly below it.
            irreducible = {l for l in lat.elements[1:]
                           if math.lcm(*(d for d in lat.elements if l % d == 0 and d != l)) != l}
            assert len(irreducible) == p.size
            assert Counter(checked) == {l: len(valid) for l in irreducible}
            for k, g in enumerate(valid):
                # (a, a + d) with d running through 1..n-1: some stay in every coset.
                a = k % n
                h = g * Perm.transposition(n, a, (a + 1 + k % (n - 1)) % n)
                least = least_broken_subgroup(h, lat)
                if least is None:
                    gwp._check_block_structure([h], p)
                else:
                    with pytest.raises(InternalConsistencyError) as err:
                        gwp._check_block_structure([h], p)
                    assert str(err.value) == (
                        f"transported generator {h} does not permute the cosets "
                        f"of the subgroup of order {least}"
                    )


class TestBuildGwp:
    def test_bundle(self, poset_n):
        g = build_gwp(poset_n)
        assert g.order_factored == {2: 11, 3: 4}
        assert g.order_value == 165888
        assert len(g.generators) == 15
        assert g.exponents == (3, 6, 1, 1)


class TestExpression:
    def test_wreath_case(self):
        e = render_group_expression(lattice_to_poset(DivisorLattice(6, (1, 3, 6))))
        assert e.text() == "S_2 ≀ S_3"
        assert factored_value(e.order_factored()) == 72

    def test_l12_chains(self):
        got = {
            render_group_expression(
                lattice_to_poset(DivisorLattice(12, (1, a, 12)))
            ).text()
            for a in (2, 3, 4, 6)
        }
        assert got == {"S_6 ≀ S_2", "S_4 ≀ S_3", "S_3 ≀ S_4", "S_2 ≀ S_6"}

    def test_antichain_cross(self):
        e = render_group_expression(lattice_to_poset(DivisorLattice(6, (1, 2, 3, 6))))
        assert e.text() == "S_2 × S_3"

    def test_striking_gwp_descriptor(self, poset_n):
        e = render_group_expression(poset_n)
        assert e.kind == "gwp"
        assert e.text() == "gwp([1<3, 2<3, 2<4], weights=[3, 2, 3, 2])"
        assert e.order_factored() == {2: 11, 3: 4}

    def test_expression_order_agrees_everywhere(self):
        for n in range(2, 61):
            for lat in sublattices(n):
                p = lattice_to_poset(lat)
                e = render_group_expression(p)
                assert e.order_factored() == gwp_order(p), (n, lat.elements)
                assert e.degree == n
                assert e.text() == reference_expression_text(p), (n, lat.elements)


@given(st.sampled_from([55440, 720720, 9699690]), st.data())
@settings(max_examples=40, deadline=None)
def test_expression_matches_reference_on_random_closures(n, data):
    """Moduli with more than 12 divisors, beyond the exhaustive sublattice sweep."""
    seed = data.draw(st.lists(st.sampled_from(divisors(n)), max_size=5))
    p = lattice_to_poset(lattice_closure(n, seed))
    assert render_group_expression(p).text() == reference_expression_text(p)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_transported_group_preserves_all_basic_graphs(data):
    n = data.draw(st.sampled_from([6, 8, 10, 12, 15, 16, 18, 20]))
    lat = data.draw(st.sampled_from(sublattices(n)))
    p = lattice_to_poset(lat)
    transport(gwp_generators(p), p, verify=True)  # raises on violation


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_vectorised_check_matches_scalar_reference(data):
    n = data.draw(st.sampled_from([6, 8, 9, 12, 16, 18, 20, 24, 30, 36]))
    p = lattice_to_poset(data.draw(st.sampled_from(sublattices(n))))
    valid = gwp_generators(p)
    perms = data.draw(st.lists(st.sampled_from(valid), max_size=3))
    for _ in range(data.draw(st.integers(0, 2))):
        word = data.draw(st.lists(st.sampled_from(valid), min_size=1, max_size=4))
        g = word[0]
        for w in word[1:]:
            g = g * w
        perms.append(g)
    if data.draw(st.booleans()):
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        perms.append(Perm.transposition(n, a, b))
    if data.draw(st.booleans()):
        perms.append(Perm(data.draw(st.permutations(range(n)))))
    perms = data.draw(st.permutations(perms))

    broken = None
    for g in transport(perms, p, verify=False):
        broken = first_broken_basic_set(g, p)
        if broken is not None:
            break
    lat = poset_to_lattice(p)
    if broken is None:
        transport(perms, p, verify=True)
    else:
        from ratcirc import InternalConsistencyError

        with pytest.raises(InternalConsistencyError) as err:
            transport(perms, p, verify=True)
        assert str(err.value) == (
            f"transported generator {g} does not permute the cosets "
            f"of the subgroup of order {least_broken_subgroup(g, lat)}"
        )
