"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Budgets are wall-clock upper bounds; the suite is deterministic.
"""
import json
import time
from itertools import combinations

from ratcirc import (
    CirculantGraph,
    PermutationGroup,
    brute_force_aut,
    count_rational_circulants,
    divisors,
    full_verify,
    generate_sring,
    generator_subset,
    group_basis,
    gwp_generators,
    gwp_order,
    is_rational,
    is_simple_lattice,
    lattice_to_poset,
    orbit_union,
    pipeline_order,
    poset_from_pairs,
    poset_isomorphic,
    poset_to_lattice,
    rational_iso_test,
    schurity_check,
    simple_reduction_applies,
    spectrum,
    sublattices,
    tau,
    transport,
    weak_iso_map,
)
from ratcirc.arith import factored_value
from ratcirc.claims import two_orbits
from ratcirc.cli import main as cli_main


def report(criterion, ok, message):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, message


def test_criterion_01_n6_golden_suite():
    start = time.perf_counter()
    cases = [
        (frozenset(range(1, 6)), 720),
        (frozenset({1, 5}), 12),
        (frozenset({1, 3, 5}), 72),
        (frozenset({1, 2, 4, 5}), 48),
    ]
    for s, want in cases:
        *_, order = pipeline_order(6, s)
        assert factored_value(order) == want, (sorted(s), order)
        assert brute_force_aut(CirculantGraph.of(6, s)).order() == want
    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"n=6 orders (720, 12, 72, 48) confirmed twice in {elapsed:.2f}s")


def test_criterion_02_striking_example(capsys):
    start = time.perf_counter()
    code = cli_main(
        ["analyze", "36", "--divisors", "2,3,4,6", "--format", "json", "--oracle"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["lattice"] == [1, 2, 3, 4, 6, 12, 18, 36]
    got_poset = poset_from_pairs(
        tuple(payload["poset"]["weights"]),
        [(i - 1, j - 1) for i, j in payload["poset"]["relations"]],
    )
    n_poset = poset_from_pairs((3, 2, 3, 2), [(0, 2), (1, 2), (1, 3)])
    assert poset_isomorphic(got_poset, n_poset)
    assert sorted(got_poset.weights) == [2, 2, 3, 3]
    assert payload["map_coefficients"] == [12, 18, 2, 9]
    assert payload["order_factored"] == {"2": 11, "3": 4}
    assert payload["order"] == 2 ** 11 * 3 ** 4 == 165888
    assert payload["oracle"]["match"] is True
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, elapsed < 60.0, f"striking n=36 example end to end in {elapsed:.2f}s")


def test_criterion_03_exhaustive_cross_validation():
    start = time.perf_counter()
    failures = []
    instances = 0
    for n in range(2, 21):
        rep = full_verify(n)
        instances += len(rep.records)
        failures.extend(
            (n, r.subset) for r in rep.records if r.match is not True
        )
    elapsed = time.perf_counter() - start
    report(
        3,
        not failures and elapsed < 600.0,
        f"pipeline == oracle on {instances} instances (n <= 20) in {elapsed:.1f}s",
    )


def test_criterion_04_enumeration():
    sequence = [count_rational_circulants(n) for n in range(1, 13)]
    assert sequence == [1, 2, 2, 4, 2, 8, 2, 8, 4, 8, 2, 32]
    for n in (6, 9, 12):
        assert count_rational_circulants(n) == 2 ** (tau(n) - 1)
        proper = [d for d in divisors(n) if d != n]
        subsets = [c for r in range(len(proper) + 1) for c in combinations(proper, r)]
        assert len(subsets) == count_rational_circulants(n)
        for a, b in combinations(subsets, 2):
            assert not rational_iso_test(n, orbit_union(n, a), orbit_union(n, b))
    report(4, True, "counts match 2^(tau-1), sequence prefix, and pairwise non-isomorphism")


def test_criterion_05_n12_group_census():
    start = time.perf_counter()
    lats = sublattices(12)
    assert len(lats) == 12
    signatures = set()
    for lat in lats:
        p = lattice_to_poset(lat)
        gens = transport(gwp_generators(p), p, verify=False)
        group = PermutationGroup(12, gens)
        signatures.add(
            (tuple(sorted(group.order_factored().items())), frozenset(two_orbits(group)))
        )
    elapsed = time.perf_counter() - start
    report(
        5,
        len(signatures) == 12 and elapsed < 10.0,
        f"12 sublattices of L(12) give 12 distinct group signatures in {elapsed:.2f}s",
    )


def test_criterion_06_round_trip_suites():
    checked = 0
    for n in range(2, 61):
        if tau(n) > 12:
            continue
        for lat in sublattices(n):
            p = lattice_to_poset(lat)
            assert poset_to_lattice(p) == lat, (n, lat.elements)
            weak_iso_map(p).points  # the point table verifies bijectivity
            s = generator_subset(lat)  # verifies recovery via closure
            assert group_basis(generate_sring(n, s)).lattice == lat
            checked += 1
    report(6, True, f"round trips hold for all {checked} sublattices with n <= 60")


def test_criterion_07_rationality_iff_integral_spectrum():
    start = time.perf_counter()
    graphs = 0
    for n in range(2, 17):
        half = [x for x in range(1, n) if x <= (n - x) % n]
        for bits in range(1 << len(half)):
            s = set()
            for i, x in enumerate(half):
                if bits >> i & 1:
                    s |= {x, (n - x) % n}
            verdict = spectrum(CirculantGraph.of(n, s)).integral
            assert verdict == is_rational(generate_sring(n, s)), (n, sorted(s))
            graphs += 1
    elapsed = time.perf_counter() - start
    report(
        7,
        elapsed < 300.0,
        f"spectrum verdict == rationality on {graphs} symmetric graphs (n <= 16) in {elapsed:.1f}s",
    )


def test_criterion_08_schurity():
    checked = 0
    for n in range(2, 21):
        for lat in sublattices(n):
            assert schurity_check(lat), (n, lat.elements)
            checked += 1
    report(8, True, f"2-orbits match basic arc relations for all {checked} lattices, n <= 20")


def test_criterion_09_simplicity_criterion():
    start = time.perf_counter()
    for n in range(2, 101):
        all_simple = all(is_simple_lattice(lat).is_simple for lat in sublattices(n))
        assert all_simple == simple_reduction_applies(n), n
    striking = sublattices(36)
    target = next(l for l in striking if l.elements == (1, 2, 3, 4, 6, 12, 18, 36))
    verdict = is_simple_lattice(target)
    assert not verdict.is_simple
    quad = verdict.certificate
    n_poset = poset_from_pairs((3, 2, 3, 2), [(0, 2), (1, 2), (1, 3)])
    assert all(
        verdict.poset.leq[quad[a]][quad[b]] == n_poset.leq[a][b]
        for a in range(4)
        for b in range(4)
    )
    elapsed = time.perf_counter() - start
    report(
        9,
        elapsed < 120.0,
        f"simplicity criterion matches factorization shape for n <= 100 in {elapsed:.1f}s",
    )


def test_criterion_10_order_formula_consistency():
    checked = 0
    for n in range(2, 21):
        for lat in sublattices(n):
            p = lattice_to_poset(lat)
            if p.total > 40:
                continue
            group = PermutationGroup(p.total, gwp_generators(p))
            assert group.order_factored() == gwp_order(p), (n, lat.elements)
            checked += 1
    report(10, True, f"generated order equals closed form on {checked} posets of degree <= 40")
