import math
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import numpy as np

from ratcirc import (
    BoundExceededError,
    CirculantGraph,
    DivisorLattice,
    NotRationalError,
    PermutationGroup,
    brute_force_aut,
    count_rational_circulants,
    divisors,
    full_verify,
    is_subgroup_of,
    orbit_set,
    orbit_union,
    pipeline_order,
    ramanujan_sum,
    rational_iso_test,
    schurity_check,
    spectrum,
    sublattices,
    trivial_lattice,
)
from ratcirc import InternalConsistencyError, groundtruth, oracle, sring
from ratcirc.arith import factored_value
from ratcirc.groundtruth import _class_eigenvalues, _search_automorphism
from ratcirc.lattice import tau
from ratcirc.pipeline import rational_chain


def reference_brute_force_order(graph: CirculantGraph) -> int:
    """Automorphism group order by the forward-order level loop.

    Base points run 0, 1, ..., n-1, and each orbit is closed under the
    generators of its own level only, so every candidate outside that
    partial orbit costs one search.
    """
    n = graph.n
    out_m, in_m = graph.out_masks(), graph.in_masks()
    colors = reference_stable_coloring(n, out_m, in_m)
    color_mask = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        color_mask[c] |= 1 << v
    cand = [color_mask[c] for c in colors]
    order = 1
    for i in range(n):
        forced = [(v, v) for v in range(i)]
        prefix = (1 << i) - 1
        orbit = {i}
        level_gens = []
        for y in range(i + 1, n):
            if y in orbit or colors[y] != colors[i]:
                continue
            if (out_m[i] & prefix) != (out_m[y] & prefix):
                continue
            if (in_m[i] & prefix) != (in_m[y] & prefix):
                continue
            img = _search_automorphism(
                n, out_m, in_m, cand, [-1] * n, forced + [(i, y)]
            )
            if img is None:
                continue
            level_gens.append(img)
            frontier = list(orbit)
            while frontier:
                p = frontier.pop()
                for h in level_gens:
                    if h[p] not in orbit:
                        orbit.add(h[p])
                        frontier.append(h[p])
        order *= len(orbit)
    return order


def reference_stable_coloring(n: int, out_m: list[int], in_m: list[int]) -> list[int]:
    """Color refinement testing all n adjacency bits of every vertex each round."""
    colors = [0] * n
    while True:
        sig = []
        for v in range(n):
            out_cols = sorted(colors[u] for u in range(n) if out_m[v] >> u & 1)
            in_cols = sorted(colors[u] for u in range(n) if in_m[v] >> u & 1)
            sig.append((colors[v], tuple(out_cols), tuple(in_cols)))
        table: dict[tuple, int] = {}
        fresh = []
        for s in sig:
            if s not in table:
                table[s] = len(table)
            fresh.append(table[s])
        if fresh == colors:
            return colors
        colors = fresh


def reference_diagnostic(n: int, connection) -> str:
    """The non-rational message, with one trace per member of the set."""
    s = frozenset(x % n for x in connection)
    offender = min(x for x in s if not sring.trace(n, {x}) <= s)
    tr = sorted(sring.trace(n, {offender}))
    return f"not rational: trace of {{{offender}}} is {{{','.join(map(str, tr))}}}"


class TestCirculantGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            CirculantGraph.of(6, {0, 1})

    def test_undirected_predicate(self):
        assert CirculantGraph.of(6, {1, 5}).is_undirected
        assert not CirculantGraph.of(5, {1}).is_undirected

    def test_masks_consistent(self):
        g = CirculantGraph.of(5, {1, 2})
        out_m, in_m = g.out_masks(), g.in_masks()
        for x in range(5):
            for y in range(5):
                assert bool(out_m[x] >> y & 1) == ((y - x) % 5 in {1, 2})
                assert bool(in_m[y] >> x & 1) == bool(out_m[x] >> y & 1)


class TestBruteForceAut:
    def test_hexagon(self):
        assert brute_force_aut(CirculantGraph.of(6, {1, 5})).order() == 12

    def test_complete_bipartite(self):
        assert brute_force_aut(CirculantGraph.of(6, {1, 3, 5})).order() == 72

    def test_octahedron(self):
        assert brute_force_aut(CirculantGraph.of(6, {1, 2, 4, 5})).order() == 48

    def test_complete_graph(self):
        assert brute_force_aut(CirculantGraph.of(6, set(range(1, 6)))).order() == 720

    def test_directed_cycle(self):
        assert brute_force_aut(CirculantGraph.of(5, {1})).order() == 5

    def test_empty_graph(self):
        assert brute_force_aut(CirculantGraph.of(5, set())).order() == 120

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            brute_force_aut(CirculantGraph.of(50, {1, 49}), max_n=40)

    def test_group_is_actually_automorphisms(self):
        g = CirculantGraph.of(8, {1, 4, 7})
        group = brute_force_aut(g)
        arcs = {(x, (x + s) % 8) for x in range(8) for s in g.connection}
        for gen in group.generators:
            assert {(gen.image[x], gen.image[y]) for x, y in arcs} == arcs

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_forward_order_reference(self, data):
        # Arbitrary connection sets: directed and non-rational ones included.
        n = data.draw(st.integers(min_value=2, max_value=16))
        s = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1)))
        graph = CirculantGraph.of(n, s)
        group = brute_force_aut(graph)
        assert group.order() == reference_brute_force_order(graph)
        arcs = {(x, (x + d) % n) for x in range(n) for d in s}
        for gen in group.generators:
            assert {(gen.image[x], gen.image[y]) for x, y in arcs} == arcs

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_circulant_stable_coloring_is_constant(self, data):
        # Why the search starts from full candidate sets: translations are
        # automorphisms, so colour refinement never splits a circulant.
        n = data.draw(st.integers(min_value=2, max_value=24))
        g = CirculantGraph.of(n, data.draw(st.sets(st.integers(min_value=1, max_value=n - 1))))
        assert set(reference_stable_coloring(n, g.out_masks(), g.in_masks())) == {0}

    @pytest.mark.parametrize("n", [12, 18, 20])
    def test_at_most_log2_order_generators(self, n):
        proper = [d for d in divisors(n) if d != n]
        for k in range(len(proper) + 1):
            for subset in combinations(proper, k):
                group = brute_force_aut(CirculantGraph.of(n, orbit_union(n, subset)))
                assert 2 ** len(group.generators) <= group.order(), subset
                # Handed over in ascending base order: one chain level per base point.
                assert list(group.base()) == sorted(group.base()), subset

    def test_chain_cross_check_catches_a_short_orbit(self, monkeypatch):
        # Every closure of more than one point loses its largest point, so
        # each nontrivial orbit comes out one short of the chain's.
        close = groundtruth._close

        def drop_one(orbit, gens):
            close(orbit, gens)
            if len(orbit) > 1:
                orbit.discard(max(orbit))
            return orbit

        monkeypatch.setattr(groundtruth, "_close", drop_one)
        with pytest.raises(InternalConsistencyError, match=r"orbit product \d+ != chain order \d+"):
            brute_force_aut(CirculantGraph.of(6, {1, 5}))

    def test_symmetric_group_at_the_bound(self):
        group = brute_force_aut(CirculantGraph.of(40, set()))
        assert group.order() == math.factorial(40)
        assert len(group.generators) == 39


def _complement_graph(graph: CirculantGraph) -> CirculantGraph:
    return CirculantGraph.of(graph.n, set(range(1, graph.n)) - graph.connection)


def _same_group(g: PermutationGroup, h: PermutationGroup) -> bool:
    return (
        g.basic_orbit_lengths() == h.basic_orbit_lengths()
        and is_subgroup_of(g.generators, h)
        and is_subgroup_of(h.generators, g)
    )


class TestSharedSearch:
    """``full_verify`` searches once per complementary pair of divisor subsets."""

    @pytest.mark.parametrize("n", [12, 18, 20, 24])
    def test_complementary_subsets_have_one_group(self, n):
        proper = [d for d in divisors(n) if d != n]
        for k in range(len(proper) + 1):
            for subset in combinations(proper, k):
                graph = CirculantGraph.of(n, orbit_union(n, subset))
                complement = tuple(d for d in proper if d not in subset)
                assert _complement_graph(graph) == CirculantGraph.of(n, orbit_union(n, complement))
                assert _same_group(brute_force_aut(graph), brute_force_aut(_complement_graph(graph)))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_complementary_sets_have_one_group(self, data):
        # Arbitrary sets: directed and non-trace-closed ones included.
        n = data.draw(st.integers(min_value=2, max_value=12))
        graph = CirculantGraph.of(n, data.draw(st.sets(st.integers(min_value=1, max_value=n - 1))))
        assert _same_group(brute_force_aut(graph), brute_force_aut(_complement_graph(graph)))

    @pytest.mark.parametrize("n", [2, 12, 18, 20])
    def test_one_search_per_complementary_pair(self, n, monkeypatch):
        searched = []
        search = oracle.brute_force_aut
        monkeypatch.setattr(
            oracle, "brute_force_aut", lambda graph, **kw: searched.append(graph) or search(graph, **kw)
        )
        report = full_verify(n)
        assert len(report.records) == 2 ** (tau(n) - 1)
        assert len(searched) == 2 ** (tau(n) - 2)
        assert len({_complement_graph(g) for g in searched} | set(searched)) == len(report.records)

    @pytest.mark.parametrize("n", [2, 6, 12, 18, 20])
    def test_records_match_a_search_per_subset(self, n):
        proper = [d for d in divisors(n) if d != n]
        records = []
        for k in range(len(proper) + 1):
            for subset in combinations(proper, k):
                s = orbit_union(n, subset)
                lat, poset, order = pipeline_order(n, s)
                found = brute_force_aut(CirculantGraph.of(n, s)).order_factored()
                records.append({
                    "n": n,
                    "divisors": list(subset),
                    "lattice": list(lat.elements),
                    "poset": poset.to_json_dict(),
                    "order_factored": {str(p): e for p, e in sorted(order.items())},
                    "oracle_order_factored": {str(p): e for p, e in sorted(found.items())},
                    "match": found == order,
                })
        reference = {"n": n, "count": len(records), "all_match": True, "records": records}
        assert full_verify(n).to_json_dict() == reference


class TestRamanujanSums:
    def test_against_complex_exponentials(self):
        for q in range(1, 20):
            units = [m for m in range(q) if math.gcd(m, q) == 1] or [0]
            for j in range(q):
                direct = sum(np.exp(2j * np.pi * m * j / q) for m in units)
                assert abs(ramanujan_sum(q, j) - direct) < 1e-9

    def test_at_zero_is_totient(self):
        from ratcirc.arith import totient

        for q in (2, 6, 12, 36):
            assert ramanujan_sum(q, 0) == totient(q)


class TestSpectrum:
    def test_complete_graph(self):
        rep = spectrum(CirculantGraph.of(6, set(range(1, 6))))
        assert rep.exact and rep.integral
        assert rep.values == (5, -1, -1, -1, -1, -1)

    def test_hexagon_matches_cosines(self):
        rep = spectrum(CirculantGraph.of(6, {1, 5}))
        expected = sorted(
            (round(2 * math.cos(2 * math.pi * j / 6)) for j in range(6)), reverse=True
        )
        assert list(rep.values) == expected == [2, 1, 1, -1, -1, -2]

    def test_directed_pentagon_not_integral(self):
        rep = spectrum(CirculantGraph.of(5, {1}))
        assert not rep.exact and not rep.integral

    def test_exact_path_used_for_orbit_unions(self):
        rep = spectrum(CirculantGraph.of(36, orbit_union(36, (6,))))
        assert rep.exact
        assert rep.values[0] == 2  # 2-regular union of 6-cycles

    def test_agreement_with_rationality_n_le_12(self):
        from ratcirc import generate_sring, is_rational

        for n in range(2, 13):
            half = [x for x in range(1, n) if x <= (n - x) % n]
            for bits in range(1 << len(half)):
                s = set()
                for i, x in enumerate(half):
                    if bits >> i & 1:
                        s |= {x, (n - x) % n}
                rep = spectrum(CirculantGraph.of(n, s))
                assert rep.integral == is_rational(generate_sring(n, s)), (n, sorted(s))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_integral_exactly_when_trace_closed(self, data):
        # So, *Integral circulant graphs* (2006): the spectrum is integral
        # exactly when the set is a union of gcd classes.
        n = data.draw(st.integers(2, 60), label="n")
        s = data.draw(st.sets(st.integers(1, n - 1), max_size=12), label="s")
        if data.draw(st.booleans(), label="close"):
            s = sring.trace(n, s)
        rep = spectrum(CirculantGraph.of(n, s))
        assert rep.integral == rep.exact == sring.is_trace_closed(n, s)


def per_frequency_eigenvalues(n: int, ds, memo: dict) -> list[int]:
    """The exact eigenvalues as they were computed before: one character sum per j."""
    def c(q, j):
        if (q, j) not in memo:
            memo[q, j] = ramanujan_sum(q, j)
        return memo[q, j]

    return [sum(c(n // d, j) for d in ds) for j in range(n)]


class TestSpectrumPerClass:
    def test_every_divisor_subset_up_to_60(self):
        for n in range(1, 61):
            proper = [d for d in divisors(n) if d != n]
            memo: dict = {}
            for k in range(len(proper) + 1):
                for ds in combinations(proper, k):
                    expected = per_frequency_eigenvalues(n, ds, memo)
                    assert _class_eigenvalues(n, set(ds)).tolist() == expected, (n, ds)
                    rep = spectrum(CirculantGraph.of(n, orbit_union(n, ds)))
                    assert rep.exact and rep.values == tuple(sorted(expected, reverse=True))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_divisor_subsets(self, data):
        n = data.draw(st.integers(61, 3000), label="n")
        ds = data.draw(st.sets(st.sampled_from([d for d in divisors(n) if d != n])), label="ds")
        expected = per_frequency_eigenvalues(n, ds, {})
        assert _class_eigenvalues(n, ds).tolist() == expected
        rep = spectrum(CirculantGraph.of(n, orbit_union(n, ds)))
        assert rep.exact and rep.values == tuple(sorted(expected, reverse=True))


class TestSchurity:
    def test_trivial_lattice(self):
        assert schurity_check(trivial_lattice(7))

    def test_full_lattice_of_6(self):
        assert schurity_check(DivisorLattice(6, (1, 2, 3, 6)))

    def test_striking(self, striking_lattice):
        assert schurity_check(striking_lattice)

    def test_all_lattices_up_to_14(self):
        for n in range(2, 15):
            for lat in sublattices(n):
                assert schurity_check(lat), (n, lat.elements)


class TestRationalIso:
    def test_equal_sets(self):
        s = orbit_union(12, (1, 3))
        assert rational_iso_test(12, s, s)

    def test_different_orbits_of_6(self):
        assert not rational_iso_test(6, orbit_set(6, 1), orbit_set(6, 2))

    def test_distinct_unions_never_isomorphic(self):
        from itertools import combinations

        n = 12
        proper = [d for d in divisors(n) if d != n]
        subsets = []
        for r in range(len(proper) + 1):
            subsets.extend(combinations(proper, r))
        for a, b in combinations(subsets, 2):
            assert not rational_iso_test(n, orbit_union(n, a), orbit_union(n, b))

    def test_rejects_non_rational(self):
        with pytest.raises(NotRationalError):
            rational_iso_test(5, {1}, {2})


class TestCounting:
    def test_sequence_first_twelve(self):
        got = [count_rational_circulants(n) for n in range(1, 13)]
        assert got == [1, 2, 2, 4, 2, 8, 2, 8, 4, 8, 2, 32]

    def test_tiny(self):
        assert count_rational_circulants(1) == 1
        assert count_rational_circulants(2) == 2


class TestFullVerify:
    def test_n6(self):
        rep = full_verify(6)
        assert len(rep.records) == count_rational_circulants(6) == 8
        assert rep.all_match
        orders = {factored_value(r.order_factored) for r in rep.records}
        assert orders == {720, 12, 72, 48}

    def test_pipeline_only_mode(self):
        rep = full_verify(6, use_oracle=False)
        assert all(r.match is None for r in rep.records)
        assert rep.all_match

    def test_striking_instance(self):
        lat, _, order = pipeline_order(36, orbit_union(36, (2, 3, 4, 6)))
        assert lat.elements == (1, 2, 3, 4, 6, 12, 18, 36)
        assert order == {2: 11, 3: 4}

    def test_pipeline_rejects_non_rational(self):
        with pytest.raises(NotRationalError):
            pipeline_order(5, {1})
        with pytest.raises(
            NotRationalError, match=re.escape("not rational: trace of {1} is {1,5,7,11}")
        ):
            pipeline_order(12, {1, 2})

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_non_rational_diagnostic_matches_per_element_traces(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        s = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
        assume(not sring.is_trace_closed(n, s))
        with pytest.raises(NotRationalError) as err:
            rational_chain(n, s)
        assert str(err.value) == reference_diagnostic(n, s)

    def test_non_rational_diagnostic_builds_one_trace(self, monkeypatch):
        calls = []
        trace = sring.trace
        monkeypatch.setattr(sring, "trace", lambda n, s: calls.append(s) or trace(n, s))
        with pytest.raises(NotRationalError, match=re.escape("trace of {1} is {1,7,11,")):
            rational_chain(30000, range(1, 15001))
        assert calls == [{1}]

    def test_divisor_count_bound(self):
        # tau(720) = 30: 2^29 divisor subsets, refused before the first one.
        with pytest.raises(BoundExceededError, match=re.escape("536870912 divisor subsets")):
            full_verify(720)

    def test_json_shape(self):
        rec = full_verify(4).records[1]
        d = rec.to_json_dict()
        assert set(d) == {
            "n", "divisors", "lattice", "poset",
            "order_factored", "oracle_order_factored", "match",
        }


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_oracle_vs_pipeline_on_random_rational_sets(data):
    n = data.draw(st.integers(min_value=2, max_value=16))
    proper = [d for d in divisors(n) if d != n]
    subset = data.draw(st.lists(st.sampled_from(proper), unique=True, max_size=4))
    s = orbit_union(n, subset)
    *_, order = pipeline_order(n, s)
    oracle = brute_force_aut(CirculantGraph.of(n, s)).order_factored()
    assert oracle == order
