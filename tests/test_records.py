"""``ratcirc._record.frozen`` behaves as ``dataclasses.dataclass(frozen=True)`` does.

Each case builds the same class twice, once with each decorator, and
compares what the two do.
"""
import dataclasses

import pytest

import ratcirc
from ratcirc import cli
from ratcirc._record import frozen

DECORATORS = {"frozen": frozen, "dataclass": dataclasses.dataclass(frozen=True)}


def point_class(decorate):
    @decorate
    class Point:
        x: int
        y: int = 0
        tags: tuple = ()

        def norm(self) -> int:
            return abs(self.x) + abs(self.y)

    return Point


def twin_class(decorate):
    @decorate
    class Twin:
        x: int
        y: int = 0
        tags: tuple = ()

    return Twin


def checked_class(decorate):
    @decorate
    class Checked:
        n: int
        label: str = "n"

        def __post_init__(self) -> None:
            if self.n < 0:
                raise ValueError(f"{self.label} must be non-negative")

    return Checked


def outcome(f):
    """What calling f gives: ("ok", value) or ("raise", exception type, message)."""
    try:
        return "ok", f()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return "raise", type(exc), str(exc)


def both(make, action):
    """``action`` applied to the class ``make`` builds, under each decorator."""
    return {name: outcome(lambda: action(make(decorate))) for name, decorate in DECORATORS.items()}


def state(p):
    return repr(p), p.x, p.y, p.tags, p.norm()


@pytest.mark.parametrize("action", [
    lambda P: state(P(1)),
    lambda P: state(P(1, 2)),
    lambda P: state(P(1, y=2)),
    lambda P: state(P(y=2, x=1)),
    lambda P: state(P(x=1, y=2, tags=(3, "a"))),
    lambda P: state(P(-4, tags=frozenset({5}))),
])
def test_binding_and_repr(action):
    got = both(point_class, action)
    assert got["frozen"] == got["dataclass"]
    assert got["frozen"][0] == "ok"


@pytest.mark.parametrize("action", [
    lambda P: P(),  # missing
    lambda P: P(y=2),  # missing
    lambda P: P(1, 2, (), 4),  # extra positional
    lambda P: P(1, z=2),  # unexpected keyword
    lambda P: P(1, x=2),  # repeated
    lambda P: P(1, 2, y=3),  # repeated
])
def test_bad_arguments_raise_type_error(action):
    got = both(point_class, action)
    assert got["frozen"][:2] == got["dataclass"][:2] == ("raise", TypeError)


@pytest.mark.parametrize("action", [
    lambda C: C(0).n,
    lambda C: C(-1),
    lambda C: C(-1, label="m"),
    lambda C: C(n=-2, label="k"),
])
def test_post_init_runs_and_its_error_propagates(action):
    got = both(checked_class, action)
    assert got["frozen"] == got["dataclass"]


@pytest.mark.parametrize("name", DECORATORS)
def test_equality(name):
    decorate = DECORATORS[name]
    Point, Twin = point_class(decorate), twin_class(decorate)
    assert Point(1, 2) == Point(1, 2)
    assert not Point(1, 2) != Point(1, 2)
    assert Point(1, 2) != Point(2, 1)
    assert Point(1, 2) != Point(1, 2, (3,))
    assert Point(1, 2) != Twin(1, 2)  # equal fields, different classes
    assert not Point(1, 2) == Twin(1, 2)
    assert Point(1, 2) != (1, 2, ())
    assert Point(1, 2).__eq__(Twin(1, 2)) is NotImplemented


def test_hash_matches_dataclass():
    ours, theirs = (point_class(d) for d in DECORATORS.values())
    for args in [(1,), (1, 2), (0, -3, ("a", 2))]:
        assert hash(ours(*args)) == hash(theirs(*args)) == hash(ours(*args))
    assert len({ours(1), ours(1, 0), ours(1, 0, ())}) == 1
    for decorate in DECORATORS.values():
        with pytest.raises(TypeError):
            hash(point_class(decorate)(1, tags=[2]))


@pytest.mark.parametrize("action", [
    lambda p: setattr(p, "x", 5),
    lambda p: setattr(p, "z", 5),
    lambda p: delattr(p, "y"),
    lambda p: delattr(p, "z"),
])
def test_fields_cannot_be_assigned_or_deleted(action):
    got = both(point_class, lambda P: action(P(1, 2)))
    assert got["frozen"][0] == "raise" and issubclass(got["frozen"][1], AttributeError)
    assert issubclass(got["dataclass"][1], AttributeError)
    assert got["frozen"][2] == got["dataclass"][2]
    p = point_class(frozen)(1, 2)
    with pytest.raises(AttributeError):
        action(p)
    assert (p.x, p.y) == (1, 2)


def test_match_args():
    ours, theirs = (point_class(d) for d in DECORATORS.values())
    assert ours.__match_args__ == theirs.__match_args__ == ("x", "y", "tags")
    match ours(3, 4):
        case ours(a, b, c):
            assert (a, b, c) == (3, 4, ())


# Every public record of the package, with its fields in constructor order.
RECORD_FIELDS = {
    ratcirc.CirculantGraph: ("n", "connection"),
    ratcirc.ComplementIdentityWitness: ("lattice", "m", "s", "left", "right"),
    ratcirc.DivisorLattice: ("modulus", "elements"),
    ratcirc.GroupExpression: ("kind", "weight", "children", "poset"),
    ratcirc.PartitionOfZn: ("n", "blocks"),
    ratcirc.RationalSRing: ("ring", "lattice"),
    ratcirc.SchurRing: ("n", "basic_sets"),
    ratcirc.SimplicityReport: ("is_simple", "certificate", "poset"),
    ratcirc.SpectrumReport: ("n", "integral", "exact", "values"),
    ratcirc.VerifyRecord: ("n", "subset", "lattice", "poset", "order_factored",
                           "oracle_order_factored", "match"),
    ratcirc.VerifyReport: ("n", "records"),
    ratcirc.WeightedPoset: ("weights", "leq"),
    cli.AnalysisRequest: ("n", "residues", "divisor_subset", "include_generators",
                          "run_oracle", "run_spectrum", "max_oracle_n"),
}


def test_public_records_keep_their_fields():
    exported = {obj for obj in (getattr(ratcirc, name) for name in dir(ratcirc))
                if isinstance(obj, type) and hasattr(obj, "__match_args__")}
    assert exported == set(RECORD_FIELDS) - {cli.AnalysisRequest}
    for cls, fields in RECORD_FIELDS.items():
        assert cls.__match_args__ == fields, cls.__name__
        assert tuple(cls.__annotations__) == fields, cls.__name__


def test_public_records_bind_by_keyword():
    lat = ratcirc.DivisorLattice(modulus=12, elements=(1, 2, 3, 6, 12))
    assert lat == ratcirc.DivisorLattice(12, (1, 2, 3, 6, 12))
    assert repr(lat) == "DivisorLattice(modulus=12, elements=(1, 2, 3, 6, 12))"
    req = cli.AnalysisRequest(n=6, residues=frozenset({1}), divisor_subset=None)
    assert (req.include_generators, req.max_oracle_n) == (
        False, ratcirc.lattice.DEFAULT_MAX_ORACLE_N)
    with pytest.raises(TypeError, match="multiple values for argument 'modulus'"):
        ratcirc.DivisorLattice(12, modulus=12)
    with pytest.raises(TypeError, match="missing 'modulus', 'elements'"):
        ratcirc.DivisorLattice()
    with pytest.raises(ValueError, match="exactly one"):
        cli.AnalysisRequest(6, None, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        req.n = 7
