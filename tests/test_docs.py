"""The README states every fixed resource bound with the value the code uses."""
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
}


def bounds_table() -> dict[str, int]:
    """constant -> value, from the table rows of README's ``## Bounds`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|[^|\n]*\| `([\w.]+)` \| (\d+) \|", section, flags=re.MULTILINE)
    return {name: int(value) for name, value in rows}


def test_readme_bounds_match_the_code():
    assert bounds_table() == BOUNDS
