"""The product modules, the ones a CLI request loads, hold only code that a request runs.

Every function, class and method (dunders aside) defined in a product module
must be named in some product module other than inside its own definition,
or be listed in ``ALLOWED`` with its reason.  Names in ``claims``, in
``__init__``'s table of public names and in the tests do not count: the
paper-claim checks live in ``claims``, which no request loads.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ratcirc"
PRODUCT = ("cli", "pipeline", "sring", "lattice", "posets", "gwp", "perms", "groundtruth",
           "oracle")

# Definitions no request reaches that stay in a product module, and why.
ALLOWED = {
    "sring.orbit_set": "bench/baseline.py builds its connection sets with it",
    "perms.PermutationGroup.base": "bench/tracer.py reads the base length of every traced chain",
    "perms.Perm.transposition": "public constructor beside Perm.identity; the tests build "
                                "corrupted generators with it",
    "posets.chain": "public poset constructor of the library",
    "posets.antichain": "public poset constructor of the library",
    "lattice.DivisorLattice.above": "interval view of the lattice API; claims.crested_product "
                                    "and claims.complement_identity_check use it",
    "lattice.DivisorLattice.maximal_elements": "lattice query that "
                                               "claims.complement_identity_check checks m against",
}


def trees() -> dict[str, ast.Module]:
    return {m: ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8")) for m in PRODUCT}


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of every top-level def and class, and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def references(modules: dict[str, ast.Module]) -> dict[str, list[tuple[str, int]]]:
    """Bare name -> (module, line) of every ``Name`` and attribute that reads it."""
    out: dict[str, list[tuple[str, int]]] = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((module, node.lineno))
    return out


def unreached() -> list[str]:
    """Product-module definitions named nowhere in the product modules but in themselves."""
    modules = trees()
    refs = references(modules)
    found = []
    for module, tree in modules.items():
        for qualname, name, node in definitions(tree):
            outside = [(m, line) for m, line in refs.get(name, [])
                       if not (m == module and node.lineno <= line <= node.end_lineno)]
            if not outside:
                found.append(f"{module}.{qualname}")
    return found


def test_every_definition_is_reached_by_a_product_module():
    assert sorted(set(unreached()) - set(ALLOWED)) == []


def test_the_allow_list_is_short_and_current():
    assert len(ALLOWED) <= 12
    # An entry that some product module now reaches, or that no longer exists, goes.
    assert sorted(set(ALLOWED) - set(unreached())) == []


def test_no_product_module_imports_claims():
    for module, tree in trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                named = {node.module or ""} | {a.name for a in node.names}
                assert "claims" not in named, module


def test_numpy_is_imported_only_by_groundtruth_and_claims():
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                names += [a.name for a in node.names]
                if any(n.split(".")[0] == "numpy" for n in names):
                    importers.add(path.stem)
    assert importers == {"claims", "groundtruth"}


# Every defaulted parameter of a function or method in src/ratcirc, with the
# caller outside the tests that sets it, or why it stays.  An option that only
# the tests set is not kept: a new one needs an entry here, with its reason.
OPTIONS = {
    "claims.complement_identity_check(m)": "the paper states the identity for every maximal m "
                                           "of L minus its top; omitted, the first peel step's",
    "cli.main(argv)": "bench/child.py passes a request's arguments; omitted, sys.argv, as "
                      "`python -m ratcirc.cli` runs it",
    "groundtruth.brute_force_aut(max_n)": "cli's --max-oracle-n and oracle.full_verify set it",
    "gwp.gwp_generators(max_degree)": "ignored; kept only for bench/baseline.py, which passes it "
                                      "(ROADMAP item 1)",
    "gwp.transport(verify)": "claims.schurity_check, scripts/group_census.py and "
                             "bench/baseline.py set it",
    "oracle.full_verify(use_oracle)": "cli's `enumerate --verify` and scripts/full_verify.py set it",
    "perms.Perm._unchecked(support)": "gwp.gwp_generators and gwp.transport pass the moved "
                                      "points they wrote the image from",
    "perms.PermutationGroup.__init__(generators)": "public constructor: omitted, the trivial group "
                                                   "of the given degree",
}


def defaulted_parameters() -> set[str]:
    """``module.qualname(parameter)`` of every parameter with a default value."""
    found = set()

    def visit(module: str, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.update(f"{module}.{prefix}{child.name}({p.arg})" for p in named)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for path in SRC.glob("*.py"):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_option_is_in_the_census():
    assert sorted(defaulted_parameters()) == sorted(OPTIONS)
