"""Command line interface.

Subcommands:

* ``analyze``    - full pipeline for one connection set (or divisor subset)
* ``enumerate``  - one record per divisor subset, optionally oracle-verified
* ``export-dot`` - Hasse diagram of the derived lattice or its poset

Exit codes: 0 success, 1 internal inconsistency (pipeline and oracle
disagree), 2 invalid or non-rational input, 3 resource bound exceeded
(a declared bound, or memory running out), 141 stdout closed early.
JSON output is byte-deterministic for a fixed request.
"""
from __future__ import annotations

import argparse
import sys
from operator import itemgetter

from ._record import frozen
from .arith import factored_str, factored_value_below
from .errors import BoundExceededError, InternalConsistencyError, NotRationalError
from .lattice import DEFAULT_MAX_ORACLE_N, MAX_MODULUS, DivisorLattice
# Modules, not names: the package loads each one on first use, so a request
# runs only the layers it reaches (see the package docstring).
from . import groundtruth, gwp, oracle, perms, pipeline, posets, sring

_MAX_PLAIN_ORDER = 2 ** 63


@frozen
class AnalysisRequest:
    """One validated analyze invocation: exactly one input mode, n >= 2."""

    n: int
    residues: frozenset[int] | None
    divisor_subset: tuple[int, ...] | None
    include_generators: bool = False
    run_oracle: bool = False
    run_spectrum: bool = False
    max_oracle_n: int = DEFAULT_MAX_ORACLE_N

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if (self.residues is None) == (self.divisor_subset is None):
            raise ValueError("exactly one of --set and --divisors is required")

    def connection_set(self) -> frozenset[int]:
        if self.residues is not None:
            if 0 in self.residues:
                raise ValueError("loops are not supported: 0 in connection set")
            return self.residues
        if self.n in self.divisor_subset:
            raise ValueError("divisor n would add a loop; use proper divisors")
        return sring.orbit_union(self.n, self.divisor_subset)


def _parse_residues(n: int, text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    return frozenset(int(tok) % n for tok in text.split(","))


def _parse_divisors(n: int, text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    out = sorted({int(tok) for tok in text.split(",")})
    for d in out:
        if d < 1 or n % d != 0:
            raise ValueError(f"{d} is not a divisor of {n}")
    return tuple(out)


def _request(args: argparse.Namespace, **options) -> AnalysisRequest:
    """The request named by --set or --divisors, with the given extra fields."""
    n = args.n
    return AnalysisRequest(
        n=n,
        residues=_parse_residues(n, args.set) if args.set is not None else None,
        divisor_subset=_parse_divisors(n, args.divisors)
        if args.divisors is not None
        else None,
        **options,
    )


def _analysis_payload(req: AnalysisRequest) -> dict:
    n = req.n
    connection = req.connection_set()
    ring, lat, poset = pipeline.rational_chain(n, connection)
    # Refused before the generators are built: a set that is not rational still exits 2.
    if req.run_oracle and n > req.max_oracle_n:
        raise BoundExceededError(
            f"oracle refused for n={n} (bound {req.max_oracle_n}); "
            "raise --max-oracle-n to force"
        )
    order = gwp.gwp_order(poset)
    expr = gwp.render_group_expression(poset)

    payload: dict = {
        "n": n,
        "input": {
            "mode": "set" if req.residues is not None else "divisors",
            "value": sorted(req.residues)
            if req.residues is not None
            else list(req.divisor_subset),
        },
        "connection_set": sorted(connection),
        "rank": ring.rank,
        "basic_sets": [sorted(t) for t in ring.basic_sets],
        "lattice": list(lat.elements),
        "poset": poset.to_json_dict(),
        "map_coefficients": list(posets.weak_iso_map(poset).coefficients),
        "order_factored": {str(p): e for p, e in sorted(order.items())},
        "expression": expr.text(),
    }
    value = factored_value_below(order, _MAX_PLAIN_ORDER)
    if value is not None:
        payload["order"] = value

    if req.include_generators or req.run_oracle:
        gens = gwp.transport(_handed_over(gwp.gwp_generators(poset)), poset)
        if req.include_generators:
            payload["generators"] = _Images(g.image for g in gens)

    if req.run_oracle or req.run_spectrum:
        graph = groundtruth.CirculantGraph.of(n, connection)
    if req.run_oracle:
        oracle_group = groundtruth.brute_force_aut(graph, max_n=req.max_oracle_n)
        oracle_order = oracle_group.order_factored()
        match = oracle_order == order
        payload["oracle"] = {
            "order_factored": {str(p): e for p, e in sorted(oracle_order.items())},
            "match": match,
        }
        if not match:
            raise InternalConsistencyError(
                f"pipeline order {order} != oracle order {oracle_order}"
            )
        if not perms.is_subgroup_of(gens, oracle_group):
            raise InternalConsistencyError(
                "a transported generator is not an automorphism found by the oracle"
            )

    if req.run_spectrum:
        payload["spectrum"] = groundtruth.spectrum(graph).to_json_dict()

    return payload


def _handed_over(items: list):
    """Yield each entry of ``items``, clearing its slot first.

    The consumer then holds the only reference, and an entry is freed once
    the consumer drops it: ``transport`` holds one tuple-space generator
    beside the transported set, not the whole tuple-space set.
    """
    for k in range(len(items)):
        item, items[k] = items[k], None
        yield item


def _order_line(factored: dict[str, int]) -> str:
    plain = {int(p): e for p, e in factored.items()}
    text = factored_str(plain)
    value = factored_value_below(plain, _MAX_PLAIN_ORDER)
    if value is not None:
        return f"{text} = {value}"
    return text


def _analysis_text(payload: dict) -> str:
    lines = [f"n: {payload['n']}"]
    mode = payload["input"]["mode"]
    lines.append(f"input: {mode} {','.join(map(str, payload['input']['value']))}")
    lines.append(f"connection set: {{{','.join(map(str, payload['connection_set']))}}}")
    lines.append(f"rank: {payload['rank']}")
    lines.append(
        "basic sets: "
        + " | ".join("{" + ",".join(map(str, t)) + "}" for t in payload["basic_sets"])
    )
    lines.append(f"lattice: {{{','.join(map(str, payload['lattice']))}}}")
    poset = payload["poset"]
    rel = ", ".join(f"{i}<{j}" for i, j in poset["relations"])
    lines.append(
        f"poset: r={poset['r']}; relations [{rel}]; weights {tuple(poset['weights'])}"
    )
    lines.append(
        f"map coefficients: {tuple(payload['map_coefficients'])}"
    )
    lines.append(f"order: {_order_line(payload['order_factored'])}")
    lines.append(f"expression: {payload['expression']}")
    if "oracle" in payload:
        lines.append(
            f"oracle order: {_order_line(payload['oracle']['order_factored'])}"
            f" (match: {payload['oracle']['match']})"
        )
    if "spectrum" in payload:
        spec = payload["spectrum"]
        vals = ",".join(map(str, spec["values"])) if spec["exact"] else "see json"
        lines.append(f"spectrum: integral={spec['integral']} values [{vals}]")
    if "generators" in payload:
        lines.append(f"generators: {len(payload['generators'])} permutations")
    return "\n".join(lines) + "\n"


class _Images(list):
    """The image tuples of ``Perm``s of degree at least 2, each a permutation of 0..len - 1.

    ``json`` writes it as a list; ``_dump_json`` writes each image with one
    gather from a table of ``str(k)``, with no type or range check.
    """


def _dump_json(payload: dict):
    """The pieces of ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline.

    Joined, they equal that string byte for byte; written one by one, they
    never hold the whole document in memory.  Given an indent, ``json`` uses
    its pure-Python encoder, so the layout is written here: a list of plain
    ints is joined directly, the images of an ``_Images`` list read their
    decimals from one table, and every other leaf goes through
    ``json.dumps``.  ``json`` is imported here, so text output and
    rejections never load it.
    """
    import json

    yield from _json_pieces(payload, "\n", json.dumps)
    yield "\n"


def _json_pieces(value, newline: str, dumps):
    """The JSON pieces of ``value``, nested at the indent ``newline`` ends with."""
    inner = newline + "  "
    if type(value) is _Images and value:
        decimals = list(map(str, range(max(map(len, value)))))
        sep, deeper = "[" + inner, inner + "  "
        for image in value:
            text = ("," + deeper).join(itemgetter(*image)(decimals))
            yield sep + "[" + deeper + text + inner + "]"
            sep = "," + inner
        yield newline + "]"
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:
            yield "[" + inner + ("," + inner).join(map(str, value)) + newline + "]"
            return
        sep = "[" + inner
        for x in value:
            yield sep
            yield from _json_pieces(x, inner, dumps)
            sep = "," + inner
        yield newline + "]"
    elif isinstance(value, dict) and value and all(type(k) is str for k in value):
        sep = "{" + inner
        for key in sorted(value):
            yield sep + dumps(key) + ": "
            yield from _json_pieces(value[key], inner, dumps)
            sep = "," + inner
        yield newline + "}"
    else:
        # A scalar, an empty container, or a dict with keys json must convert.
        yield dumps(value, sort_keys=True, indent=2).replace("\n", newline)


def _cmd_analyze(args: argparse.Namespace) -> int:
    # DOT prints only the lattice, so it builds no generators and no spectrum;
    # --oracle is a check, and still runs.
    dot = args.format == "dot"
    req = _request(
        args,
        include_generators=args.generators and not dot,
        run_oracle=args.oracle,
        run_spectrum=args.spectrum and not dot,
        max_oracle_n=args.max_oracle_n,
    )
    payload = _analysis_payload(req)
    if args.format == "json":
        sys.stdout.writelines(_dump_json(payload))
    elif dot:
        sys.stdout.write(DivisorLattice(req.n, tuple(payload["lattice"])).to_dot())
    else:
        sys.stdout.write(_analysis_text(payload))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    use_oracle = args.verify and n <= args.max_oracle_n
    if args.verify and not use_oracle:
        print(
            f"note: oracle skipped, n={n} exceeds bound {args.max_oracle_n}",
            file=sys.stderr,
        )
    report = oracle.full_verify(n, use_oracle=use_oracle)
    if args.format == "json":
        sys.stdout.writelines(_dump_json(report.to_json_dict()))
    else:
        for rec in report.records:
            d = ",".join(map(str, rec.subset)) or "-"
            lat = ",".join(map(str, rec.lattice))
            line = f"divisors [{d}] lattice {{{lat}}} order {_order_line({str(p): e for p, e in rec.order_factored.items()})}"
            if rec.match is not None:
                line += f" match={rec.match}"
            print(line)
        print(f"{len(report.records)} rational circulants on Z_{n}")
    return 0 if report.all_match else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    req = _request(args)
    _, lat, poset = pipeline.rational_chain(req.n, req.connection_set())
    sys.stdout.write(poset.to_dot() if args.poset else lat.to_dot())
    return 0


def non_negative_int(text: str) -> int:
    """An argparse type: a decimal integer of at least 0, with ``int``'s error text."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", help="comma separated residues of the connection set")
    p.add_argument(
        "--divisors",
        help="comma separated divisors d; the set becomes the union of the orbits {x : gcd(x,n)=d}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratcirc",
        description="Automorphism groups of rational circulant graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one circulant graph")
    pa.add_argument("n", type=int)
    _add_input_flags(pa)
    pa.add_argument("--format", choices=("json", "text", "dot"), default="text")
    pa.add_argument("--generators", action="store_true", help="include permutation generators")
    pa.add_argument("--oracle", action="store_true", help="confirm the order by brute force")
    pa.add_argument("--spectrum", action="store_true", help="include the eigenvalue report")
    pa.add_argument("--max-oracle-n", type=non_negative_int, default=DEFAULT_MAX_ORACLE_N)
    pa.set_defaults(func=_cmd_analyze)

    pe = sub.add_parser("enumerate", help="walk all divisor subsets of n")
    pe.add_argument("n", type=int)
    pe.add_argument("--verify", action="store_true", help="compare with the brute-force oracle")
    pe.add_argument("--format", choices=("json", "text"), default="text")
    pe.add_argument("--max-oracle-n", type=non_negative_int, default=DEFAULT_MAX_ORACLE_N)
    pe.set_defaults(func=_cmd_enumerate)

    pd = sub.add_parser("export-dot", help="DOT Hasse diagram of the derived lattice")
    pd.add_argument("n", type=int)
    _add_input_flags(pd)
    pd.add_argument("--poset", action="store_true", help="export the weighted poset instead")
    pd.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # One range check for every command, before any residue is reduced mod n.
        if args.n < 2:
            raise ValueError("n must be at least 2")
        if args.n > MAX_MODULUS:
            raise ValueError("n must be at most 2^32")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  End as a shell reports a writer killed by
        # SIGPIPE, with stdout on the null device so the flush at exit is silent.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    except (NotRationalError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BoundExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory in {args.command} for n={args.n}", file=sys.stderr)
        return 3
    except InternalConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
