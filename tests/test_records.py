"""The record classes: value equality within a class, hashing, immutability,
_replace and repr, for every record pincover defines, and the shared
__init__ that binds the fields of the records without checks."""

import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from pincover import pin2
from pincover.acceptance import CriterionResult
from pincover.characteristic import ObstructionReport, Z2Cocycle, obstructions
from pincover.clifford import PinElement, Signature, lift_orthogonal
from pincover.homology import (
    CoverData,
    GluingWord,
    GradedGroups,
    InducedMaps,
    PolygonComplex,
    Z2Maps,
    Z2Matrix,
    homology_groups,
    induced_maps,
    orientation_double_cover_complex,
    z2_maps,
)
from pincover.pin2 import PIN_MINUS, PIN_PLUS, AngleForm, O2PathElement, Pin2Element, angle
from pincover.pinors import GammaRep, PinorField, SpinorCouple
from pincover.records import Frozen, Record
from pincover.reporting import Report
from test_pin2 import J2, minus_one
from test_pinors import constant_field
from pincover.structures import (
    BoundaryLiftTable,
    DescentReport,
    LiftResult,
    MoebiusReport,
    PinStructureDescriptor,
    boundary_lift_table,
    descend,
    enumerate_structures,
    lift_involution,
    moebius_descent,
)
from pincover.surface import (
    CoverDiagram,
    Double,
    Involution,
    Lattice,
    SurfaceModel,
    build,
    cover_diagram,
)


def _torus_xi():
    return enumerate_structures(build("t2"), PIN_PLUS)[1]


def _klein_lift():
    return lift_involution(_torus_xi(), build("k2").deck)


# each factory makes a fresh instance with the same value on every call
FROZEN = {
    CriterionResult: lambda: CriterionResult("1 name", True, "detail", 0.25),
    Z2Cocycle: lambda: Z2Cocycle({"a": 1, "b": 0}),
    ObstructionReport: lambda: obstructions(build("k2")),
    Signature: lambda: Signature(1, 2),
    PinElement: lambda: lift_orthogonal(np.diag([-1.0, 1.0]), Signature(2, 0))[0],
    Z2Matrix: lambda: Z2Matrix((0b01, 0b11), 2),
    GluingWord: lambda: GluingWord.parse("u a t a", boundary="u t"),
    PolygonComplex: lambda: PolygonComplex.from_word(GluingWord.parse("a b a b'")),
    GradedGroups: lambda: homology_groups(GluingWord.parse("a b a b'").complex),
    AngleForm: lambda: angle(theta=1, phi=Fraction(-1, 2), const=Fraction(3, 2)),
    Pin2Element: lambda: pin2.odd(PIN_MINUS, angle(theta=1, const=Fraction(1, 2))),
    O2PathElement: lambda: pin2.reflection(angle(phi=2, const=Fraction(1, 4))),
    GammaRep: lambda: GammaRep.standard(PIN_PLUS),
    PinorField: lambda: constant_field(2, [1.0, 2.0]),
    SpinorCouple: lambda: SpinorCouple(constant_field(2, [1.0, 0.0]),
                                       constant_field(2, [0.0, 1.0]), 0.0),
    PinStructureDescriptor: _torus_xi,
    LiftResult: _klein_lift,
    DescentReport: lambda: descend(build("k2"), PIN_MINUS),
    BoundaryLiftTable: lambda: boundary_lift_table(PIN_PLUS),
    MoebiusReport: lambda: moebius_descent(build("moebius")),
    SurfaceModel: lambda: build("n(2,1)"),
    Involution: lambda: Involution("tau", ((1, 0), (0, -1)), (1, 0), build("t2")),
    Double: lambda: Double(build("cyl").double.tau, build("cyl").double.embedding),
    Lattice: lambda: Lattice(np.arange(2, dtype=np.int64), np.arange(2, 4, dtype=np.int64), 8),
}

MUTABLE = {
    CoverData: lambda: orientation_double_cover_complex(GluingWord.parse("x x")),
    InducedMaps: lambda: induced_maps(orientation_double_cover_complex(GluingWord.parse("x x"))),
    Z2Maps: lambda: z2_maps(orientation_double_cover_complex(GluingWord.parse("a b a b'"))),
    Report: lambda: Report("homology", {"surface": "k2"}, {"b1_2": 2}, anchor="tables/homology"),
    CoverDiagram: lambda: cover_diagram(build("moebius")),
}

# frozen records whose fields are all hashable (no list, dict or array)
VALUE_RECORDS = [cls for cls in FROZEN if cls not in (
    Z2Cocycle, ObstructionReport, PolygonComplex, GammaRep, PinorField, SpinorCouple,
    DescentReport, BoundaryLiftTable, MoebiusReport, Lattice)]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_slotted_and_covered_here():
    records = set(_subclasses(Record)) - {Frozen}
    assert records == set(FROZEN) | set(MUTABLE)
    assert set(_subclasses(Frozen)) == set(FROZEN)
    for cls, make in {**FROZEN, **MUTABLE}.items():
        assert not hasattr(make(), "__dict__"), cls


# array fields compare elementwise, so == on these records is not a bool
ARRAY_RECORDS = (GammaRep, PinorField, SpinorCouple, Lattice)


@pytest.mark.parametrize("cls", [c for c in [*FROZEN, *MUTABLE] if c not in ARRAY_RECORDS],
                         ids=lambda c: c.__name__)
def test_equal_to_a_fresh_equal_instance_and_to_its_replace(cls):
    make = {**FROZEN, **MUTABLE}[cls]
    x = make()
    if cls is not PinElement:  # a Multivector compares by identity
        assert x == make()
    assert x == x._replace()


def test_equality_only_within_a_class():
    assert Signature(1, 1) != Z2Matrix(1, 1)
    assert Z2Matrix(1, 1) != Signature(1, 1)
    assert Signature(1, 1) != (1, 1)
    assert pin2.J1 != pin2.e1(PIN_PLUS)
    assert Signature(1, 2) != Signature(2, 1)


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__name__)
def test_hash_is_consistent_with_equality(cls):
    a, b = FROZEN[cls](), FROZEN[cls]()
    if cls is PinElement:  # its Multivector compares by identity
        b = a._replace()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_normalised_values_hash_alike():
    assert angle(const=3) == angle(const=1)
    assert hash(angle(const=3)) == hash(angle(const=1))
    # reflections whose angles differ by pi are one O(2) value
    r1 = pin2.reflection(angle(const=Fraction(1, 4)))
    r2 = pin2.reflection(angle(const=Fraction(5, 4)))
    assert r1 == r2 and hash(r1) == hash(r2)
    assert -pin2.one(PIN_PLUS) == minus_one(PIN_PLUS)
    assert {pin2.e1(PIN_MINUS), pin2.e1(PIN_MINUS)._replace()} == {pin2.e1(PIN_MINUS)}


def test_lattice_unpacks_into_its_fields():
    lattice = FROZEN[Lattice]()
    x, y, period = lattice
    assert (x is lattice.x, y is lattice.y, period) == (True, True, 8)


def test_cached_complex_is_not_a_field():
    fresh, used = GluingWord.parse("a b a' b'"), GluingWord.parse("a b a' b'")
    assert used.complex is used.complex
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(used) == ("GluingWord(word=(('a', 1), ('b', 1), ('a', -1), ('b', -1)),"
                          " boundary_letters=frozenset())")


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
def test_assignment_is_refused_on_frozen_records(cls):
    x = FROZEN[cls]()
    for name in cls._fields:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls", list(MUTABLE), ids=lambda c: c.__name__)
def test_mutable_records_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(MUTABLE[cls]())


def test_replace_reruns_the_checks_and_the_normalisation():
    reflected = pin2.J1._replace(angle=angle(const=Fraction(3, 2)))
    assert reflected == J2 and reflected.angle.const == Fraction(1, 2)
    with pytest.raises(ValueError, match="unknown kind"):
        pin2.e1(PIN_PLUS)._replace(kind="spin")
    with pytest.raises(ValueError, match="at most 12"):
        Signature(6, 6)._replace(p=7)
    with pytest.raises(TypeError):
        Signature(1, 1)._replace(r=0)
    with pytest.raises(ValueError, match="unimodular"):
        FROZEN[Involution]()._replace(matrix=((2, 0), (0, 1)))
    report = MUTABLE[Report]()
    assert report._replace(anchor="") == Report("homology", {"surface": "k2"}, {"b1_2": 2})


def test_repr_names_the_fields():
    assert repr(Signature(1, 2)) == "Signature(p=1, q=2)"
    assert repr(Z2Matrix((3,), 2)) == "Z2Matrix(rows=(3,), cols=2)"
    assert repr(Pin2Element(PIN_PLUS, pin2.EVEN, AngleForm())) == (
        "Pin2Element(kind='pin+', parity='even', angle=AngleForm(theta=Fraction(0, 1),"
        " phi=Fraction(0, 1), const=Fraction(0, 1)))")


# records whose __init__ is Record's: their fields bind by position, keyword or default
SHARED_INIT = [cls for cls in [*FROZEN, *MUTABLE] if cls.__init__ is Record.__init__]


def test_the_records_that_keep_an_init_are_the_checking_ones():
    own = {cls.__name__ for cls in [*FROZEN, *MUTABLE] if cls not in SHARED_INIT}
    assert own == {"Signature", "GluingWord", "PolygonComplex", "AngleForm", "Pin2Element",
                   "O2PathElement", "PinorField", "PinStructureDescriptor", "Involution"}


# Involution's own __init__ must bind the same way: _replace calls it by keyword
@pytest.mark.parametrize("cls", [c for c in [*SHARED_INIT, Involution] if c not in ARRAY_RECORDS],
                         ids=lambda c: c.__name__)
def test_shuffled_keywords_build_the_positional_record(cls):
    x = {**FROZEN, **MUTABLE}[cls]()
    values = [getattr(x, name) for name in cls._fields]
    named = list(zip(cls._fields, values))
    random.Random(cls.__name__).shuffle(named)
    assert cls(**dict(named)) == cls(*values) == x
    # half by position, the rest by keyword
    half = len(values) // 2
    assert cls(*values[:half], **dict(zip(cls._fields[half:], values[half:]))) == x


@pytest.mark.parametrize("call, message", [
    (lambda: CriterionResult("1 name", True, "detail", 0.25, "extra"), "takes 4 fields, got 5"),
    (lambda: CriterionResult("1 name", True, "detail"), "missing field 'seconds'"),
    (lambda: CriterionResult("1 name", True, "detail", second=0.25), "field 'second' unknown"),
    (lambda: CriterionResult("1 name", True, "detail", 0.25, passed=False),
     "field 'passed' given twice"),
    (lambda: Report("homology", {}, {}, "", anchor=""), "field 'anchor' given twice"),
    (lambda: Report(command="homology", inputs={}), "missing field 'results'"),
], ids=["too-many", "missing", "unknown", "twice", "twice-with-default", "missing-by-keyword"])
def test_a_bad_call_raises_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_defaults_fill_the_missing_fields():
    report = Report("homology", {"surface": "k2"}, {"b1_2": 2})
    assert report.anchor == ""
    word = GluingWord.parse("a a")
    model = SurfaceModel("rp2-word", "family-only", word, False, 0, cross_caps=1)
    assert (model.genus, model.cross_caps) == (0, 1)
    assert (model.deck, model.double, model.periodic_vars, model.twists) == (None, None, None, ())


def test_defaults_must_name_fields():
    with pytest.raises(TypeError, match="_defaults names no field: colour"):
        class Bad(Record):  # noqa: F841 - refused as it is defined
            __slots__ = ("size",)
            _defaults = {"size": 1, "colour": "red"}
    gc.collect()
    assert "Bad" not in {cls.__name__ for cls in _subclasses(Record)}


# the values a record reads off its fields, and CoverData's deck map, which
# nothing read: none is a field, by the factory of a record
DERIVED = [
    (MUTABLE[InducedMaps],
     ("push_z2", "b1_mod2_base", "b1_mod2_total", "coker_pull_dim", "image_index_z2")),
    (MUTABLE[CoverData], ("deck_edge_map",)),
    (_klein_lift, ("exists", "detail")),
    (FROZEN[PinElement], ("parity",)),
    (FROZEN[DescentReport], ("consistent",)),
    (MUTABLE[CoverDiagram], ("tilde", "half_double", "master", "prime", "tau1", "tau2", "tau3")),
]


@pytest.mark.parametrize("make, name", [pytest.param(make, name, id=name)
                                         for make, names in DERIVED for name in names])
def test_a_derived_value_cannot_be_set(make, name):
    with pytest.raises(TypeError, match=f"field '{name}' unknown"):
        make()._replace(**{name: None})


Z2_DERIVED = ("push_z2", "b1_mod2_base", "b1_mod2_total", "coker_pull_dim", "image_index_z2",
              "splitting_k")


def test_z2_maps_are_the_mod2_fields_of_induced_maps():
    """InducedMaps is Z2Maps with the integral push-forward put first: the
    mod-2 fields and all six values read off them are Z2Maps's, and none of
    the six is a field of either record."""
    assert Z2Maps._fields == ("pull_z2", "kernel_pull")
    assert InducedMaps._fields == ("push_z", "base_orders", "pull_z2", "kernel_pull")
    z2 = MUTABLE[Z2Maps]()
    maps = induced_maps(orientation_double_cover_complex(GluingWord.parse("a b a b'")))
    assert z2 == Z2Maps(maps.pull_z2, maps.kernel_pull)
    for name in Z2_DERIVED:
        assert name not in InducedMaps.__dict__
        assert getattr(z2, name) == getattr(maps, name), name
        with pytest.raises(TypeError, match=f"field '{name}' unknown"):
            z2._replace(**{name: None})
