"""The README states every fixed resource bound with the value the code uses,
every code name it spells out still exists, its command synopsis names
exactly the CLI's flags, and its worked example computes what it states."""
import argparse
import ast
import importlib
import re
from pathlib import Path

from ratcirc import claims, gwp, lattice, pipeline, sring
from ratcirc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

BOUNDS = {
    "lattice.MAX_MODULUS": lattice.MAX_MODULUS,
    "lattice.DEFAULT_MAX_TAU": lattice.DEFAULT_MAX_TAU,
    "claims.MAX_TWO_ORBIT_DEGREE": claims.MAX_TWO_ORBIT_DEGREE,
    "lattice.DEFAULT_MAX_ORACLE_N": lattice.DEFAULT_MAX_ORACLE_N,
    "gwp.MAX_GENERATOR_ENTRIES": gwp.MAX_GENERATOR_ENTRIES,
    "sring.MAX_POINT_N": sring.MAX_POINT_N,
    "sring.MAX_POINT_PAIRS": sring.MAX_POINT_PAIRS,
    "pipeline.MAX_LISTED_TRACE": pipeline.MAX_LISTED_TRACE,
}


def bounds_table() -> dict[str, int]:
    """constant -> value, from the table rows of README's ``## Bounds`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|[^|\n]*\| `([\w.]+)` \| (\d+) \|", section, flags=re.MULTILINE)
    return {name: int(value) for name, value in rows}


def test_readme_bounds_match_the_code():
    assert bounds_table() == BOUNDS


SUBMODULES = sorted(p.stem for p in (README.parent / "src" / "ratcirc").glob("*.py")
                    if p.stem != "__init__")


def readme_names() -> set[str]:
    """Every inline-code span of README that is ``ratcirc.X...`` or ``<submodule>.NAME...``."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    dotted = re.compile(rf"(?:ratcirc|{'|'.join(SUBMODULES)})(?:\.\w+)+")
    return {span for span in re.findall(r"`([^`\n]+)`", text) if dotted.fullmatch(span)}


def resolve(name: str):
    """The object a dotted README name denotes, importing submodules as needed."""
    head, *rest = name.split(".")
    obj = importlib.import_module("ratcirc" if head == "ratcirc" else f"ratcirc.{head}")
    for part in rest:
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_readme_names_resolve():
    names = readme_names()
    assert {"sring.MAX_POINT_PAIRS", "ratcirc.pipeline_order", "ratcirc._record.frozen"} <= names
    unresolved = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []


def synopsis_flags() -> dict[str, set[str]]:
    """subcommand -> the long flags of its entry in README's ``## Command line`` synopsis."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    entries = re.split(r"^ratcirc ", block, flags=re.MULTILINE)[1:]
    return {entry.split()[0]: set(re.findall(r"--[\w-]+", entry)) for entry in entries}


def parser_flags() -> dict[str, set[str]]:
    """subcommand -> the long flags ``build_parser()`` accepts with it, ``--help`` excluded."""
    parser = build_parser()

    def long_flags(p):
        return {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}

    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: long_flags(parser) | long_flags(p) for name, p in sub.choices.items()}


def test_readme_synopsis_names_every_flag():
    assert synopsis_flags() == parser_flags()


def library_example() -> str:
    """The python block of README's ``## Library`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_states_what_it_computes():
    namespace, shown = {}, []
    for stmt in ast.parse(library_example()).body:
        if isinstance(stmt, ast.Expr):  # a line whose value the comment states
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert namespace["ring"].rank == 8
    assert namespace["lat"].elements == (1, 2, 3, 4, 6, 12, 18, 36)
    assert namespace["poset"].weights == (3, 2, 3, 2)
    assert shown == [{2: 11, 3: 4}, 165888, 165888]
