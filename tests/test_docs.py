"""The README states every fixed resource bound with the value the code uses,
and every code name it spells out still exists."""
import importlib
import re
from pathlib import Path

from ratcirc import gwp, lattice, oracle, perms, sring

README = Path(__file__).resolve().parent.parent / "README.md"

BOUNDS = {
    "lattice.MAX_MODULUS": lattice.MAX_MODULUS,
    "lattice.DEFAULT_MAX_TAU": lattice.DEFAULT_MAX_TAU,
    "perms.DEFAULT_MAX_TWO_ORBIT_DEGREE": perms.DEFAULT_MAX_TWO_ORBIT_DEGREE,
    "oracle.DEFAULT_MAX_ORACLE_N": oracle.DEFAULT_MAX_ORACLE_N,
    "gwp.DEFAULT_MAX_DEGREE": gwp.DEFAULT_MAX_DEGREE,
    "sring.MAX_POINT_N": sring.MAX_POINT_N,
    "sring.MAX_POINT_PAIRS": sring.MAX_POINT_PAIRS,
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
