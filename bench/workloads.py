"""The benchmark's four workloads: ratcirc CLI requests and their expected results.

Each workload stresses one layer of the pipeline (see NOTES.md for why each
was chosen).  The pinned analyze fields below were captured from
``python -m ratcirc.cli`` at commit ddc27eb on a 2-core Xeon with Python
3.11.7 and numpy 2.4.6.  Two facts back them independently of that capture:
for a rational ring the rank equals the lattice size (one basic set per
lattice member), and every order agrees with the closed formula
prod_i (w_i!)^(product of the weights of the nodes above i) on the pinned
poset, which ``run.order_from_poset`` recomputes for every answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what a correct answer looks like.

    ``kind`` is one of ``analyze`` (pinned fields), ``generators`` (pinned
    fields plus a generator count, each generator checked as an
    automorphism), ``enumerate`` (oracle-verified records) or ``reject``
    (exit 2 with a trace diagnostic computed by the benchmark).  A
    ``known_defect`` request is expected to fail until the program is fixed:
    its failure is counted but does not make the result incorrect.
    """

    kind: str
    n: int
    argv: tuple[str, ...]
    divisors: tuple[int, ...] = ()
    residues: tuple[int, ...] = ()
    expected: dict = field(default_factory=dict)
    generator_count: int = 0
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    """A request list and what a traced run of it must show.

    ``must_run`` names the spans that must record calls (zero calls means a
    wrapper was not on the path the CLI actually takes); ``stressed`` names
    the spans whose self time the workload was chosen to make dominant.
    """

    requests: tuple[Request, ...]
    must_run: tuple[str, ...]
    stressed: tuple[str, ...]


def analyze(n, divisors, expected, generator_count=0) -> Request:
    argv = ["analyze", str(n), "--divisors", ",".join(map(str, divisors))]
    if generator_count:
        argv.append("--generators")
    argv += ["--format", "json"]
    kind = "generators" if generator_count else "analyze"
    return Request(kind, n, tuple(argv), divisors=tuple(divisors),
                   expected=expected, generator_count=generator_count)


def enumerate_verified(n) -> Request:
    return Request("enumerate", n, ("enumerate", str(n), "--verify", "--format", "json"))


def reject(n, residues, known_defect=False) -> Request:
    argv = ("analyze", str(n), "--set", ",".join(map(str, residues)))
    return Request("reject", n, argv, residues=tuple(residues), known_defect=known_defect)


def _pinned(order, lattice, r, relations, weights, expression):
    return {
        "order_factored": {str(p): e for p, e in order.items()},
        "lattice": lattice,
        "poset": {"r": r, "relations": relations, "weights": weights},
        "rank": len(lattice),
        "expression": expression,
    }


WORKLOADS: dict[str, Workload] = {
    "verify-small": Workload(
        (enumerate_verified(12), enumerate_verified(18), enumerate_verified(20)),
        must_run=("cli.main", "oracle.full_verify", "oracle.pipeline_order",
                  "oracle.brute_force_aut", "perms.PermutationGroup.order",
                  "sring.generate_sring", "sring.is_rational", "sring.trace",
                  "sring.group_basis", "sring.basic_sets_from_lattice",
                  "posets.lattice_to_poset", "gwp.gwp_order"),
        stressed=("perms.PermutationGroup.order",)),
    "analyze-large": Workload((
        analyze(1260, (2, 3, 5, 7, 9), _pinned(
            {2: 431, 3: 424, 5: 2, 7: 1},
            [1, 3, 6, 9, 12, 15, 18, 21, 30, 36, 42, 45, 60, 63, 84, 90, 105, 126,
             180, 210, 252, 315, 420, 630, 1260],
            6, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [5, 6]], [3, 7, 5, 3, 2, 2],
            "(S_3 × (S_2 ≀ S_2) × S_5 × S_7) ≀ S_3")),
        analyze(2520, (2, 3, 5, 7, 8, 9), _pinned(
            {2: 855, 3: 844, 5: 2, 7: 1},
            [1, 3, 6, 9, 12, 15, 18, 21, 24, 30, 36, 42, 45, 60, 63, 72, 84, 90, 105,
             120, 126, 168, 180, 210, 252, 315, 360, 420, 504, 630, 840, 1260, 2520],
            7, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [5, 6], [5, 7], [6, 7]],
            [3, 7, 5, 3, 2, 2, 2],
            "(S_3 × S_5 × S_7 × (S_2 ≀ S_2 ≀ S_2)) ≀ S_3")),
        analyze(5040, (2, 3, 5, 7, 8, 9), _pinned(
            {2: 1703, 3: 1684, 5: 2, 7: 1},
            [1, 3, 6, 9, 12, 15, 18, 21, 24, 30, 36, 42, 45, 48, 60, 63, 72, 84, 90,
             105, 120, 126, 144, 168, 180, 210, 240, 252, 315, 336, 360, 420, 504, 630,
             720, 840, 1008, 1260, 1680, 2520, 5040],
            8, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [5, 6], [5, 7],
                [5, 8], [6, 7], [6, 8], [7, 8]],
            [3, 7, 5, 3, 2, 2, 2, 2],
            "(S_3 × S_5 × S_7 × (S_2 ≀ S_2 ≀ S_2 ≀ S_2)) ≀ S_3")),
        ),
        must_run=("cli.main", "sring.generate_sring", "sring.is_rational", "sring.trace",
                  "sring.group_basis", "sring.basic_sets_from_lattice",
                  "posets.lattice_to_poset", "posets.weak_iso_map",
                  "gwp.gwp_order", "gwp.render_group_expression"),
        stressed=("sring.generate_sring", "sring.is_rational")),
    "generators-mid": Workload((
        analyze(200, (2, 4, 5, 8, 25), _pinned(
            {2: 184, 3: 81, 5: 41, 7: 20, 11: 10, 13: 10, 17: 10, 19: 10},
            [1, 20, 40, 100, 200], 3, [[1, 2], [1, 3]], [20, 5, 2],
            "(S_2 × S_5) ≀ S_20"), generator_count=195),
        analyze(288, (2, 3, 4, 9, 16), _pinned(
            {2: 128, 3: 99},
            [1, 3, 6, 9, 12, 18, 36, 48, 96, 144, 288],
            6, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [2, 3], [2, 4], [2, 6], [3, 4],
                [3, 6], [4, 6]],
            [3, 2, 2, 4, 3, 2],
            "(S_3 × (S_2 ≀ S_4 ≀ S_2 ≀ S_2)) ≀ S_3"), generator_count=225),
        analyze(360, (2, 3, 5, 8, 9), _pinned(
            {2: 131, 3: 122, 5: 1},
            [1, 3, 6, 9, 12, 15, 18, 24, 30, 36, 45, 60, 72, 90, 120, 180, 360],
            6, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [4, 5], [4, 6], [5, 6]],
            [3, 5, 3, 2, 2, 2],
            "(S_3 × S_5 × (S_2 ≀ S_2 ≀ S_2)) ≀ S_3"), generator_count=253),
        ),
        must_run=("cli.main", "sring.generate_sring", "sring.is_rational", "sring.trace",
                  "sring.group_basis", "posets.lattice_to_poset", "posets.weak_iso_map",
                  "gwp.gwp_order", "gwp.render_group_expression",
                  "gwp.gwp_generators", "gwp.transport"),
        stressed=("gwp.transport",)),
    "reject-nonrational": Workload((
        reject(120, (1, 2, 3)),
        reject(180, (1, 2)),
        reject(240, (1, 2)),
        # The point-level ring generation tries to allocate 6.70 GiB, hits
        # the address-space cap and exits 1 with a traceback instead of 2
        # (or 3).  It stays in the workload and counts as failed until the
        # program rejects it properly.
        reject(30000, (1, 29999), known_defect=True),
        ),
        must_run=("cli.main", "sring.generate_sring", "sring.is_rational", "sring.trace"),
        stressed=("sring.generate_sring", "sring.is_rational")),
}
