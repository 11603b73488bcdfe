"""The plain value records: equality, hashing, frozenness, defaults, repr and
JSON."""

import pytest

from microdiff.charvar import (
    Bounds,
    CharVariety,
    CyclicModule,
    OrderStandardBasis,
    SupportVerdict,
    char_variety,
)
from microdiff.diffop import DiffOp, OrderSymbol, ThetaTilde, build_theta_tilde
from microdiff.microloc import ConvergenceProfile, InversionReport, MembershipVerdict
from microdiff.pseudopoly import SymbolPoly


def frozen_records():
    """Two equal instances of each frozen record type, built separately."""
    xi = SymbolPoly.xi(2, 0)
    tt = build_theta_tilde(xi, 0, 1)

    def profile():
        return ConvergenceProfile({0: 0, -2: 1}, True)

    return [
        (Bounds(), Bounds(16, 24, 20, 400)),
        (ThetaTilde(tt.op, tt.order), ThetaTilde(DiffOp(2, 0, 1, tt.op.terms), 2)),
        (OrderSymbol(1, xi, None), OrderSymbol(1, SymbolPoly.xi(2, 0), None)),
        (profile(), profile()),
        (InversionReport(True, None, profile(), True, True),
         InversionReport(True, None, profile(), True, True, "")),
        (MembershipVerdict("InEmm'", "w"), MembershipVerdict(status="InEmm'", witness="w")),
    ]


@pytest.mark.parametrize("a,b", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_hash_by_value_and_refuse_assignment(a, b):
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_a_different_field_or_class_is_never_equal():
    assert MembershipVerdict("InEmm'", "w") != MembershipVerdict("InEmm'", "v")
    assert OrderSymbol(1, 2, 3) != ConvergenceProfile(1, 2, 3)
    assert Bounds() != (16, 24, 20, 400)
    sv = SupportVerdict(0, "generic", "Vanishes")
    assert sv == SupportVerdict(0, "generic", "Vanishes", "", ())
    assert sv != SupportVerdict(1, "generic", "Vanishes")


def test_keyword_defaults():
    assert Bounds(max_order=3) == Bounds(3, 24, 20, 400)
    b = Bounds(max_order=3, max_steps=9)
    assert (b.max_order, b.max_xdeg, b.precision, b.max_steps) == (3, 24, 20, 9)
    assert ConvergenceProfile({}, True).note == ""
    assert SupportVerdict(0, "generic", "Vanishes").betas == ()


def test_each_standard_basis_gets_its_own_notes():
    a = OrderStandardBasis([], Bounds(), True, 0, [])
    b = OrderStandardBasis([], Bounds(), True, 0, [])
    a.notes.append("truncated")
    assert b.notes == [] and a.notes is not b.notes


def test_mutable_records_assign_and_do_not_hash():
    cv = CharVariety("empty", False, [], [], [], True, Bounds())
    cv.complete = False
    assert not cv.complete
    for rec in (cv, SupportVerdict(0, "generic", "Vanishes"),
                OrderStandardBasis([], Bounds(), True, 0, [])):
        with pytest.raises(TypeError):
            hash(rec)


def test_bad_fields_are_type_errors():
    with pytest.raises(TypeError, match="missing the field 'witness'"):
        MembershipVerdict("InEmm'")
    with pytest.raises(TypeError):
        MembershipVerdict("InEmm'", "w", "extra")
    with pytest.raises(TypeError):
        Bounds(max_depth=3)
    with pytest.raises(TypeError):
        Bounds(16, max_order=3)


def test_repr_names_every_field():
    assert repr(Bounds(max_order=3)) == (
        "Bounds(max_order=3, max_xdeg=24, precision=20, max_steps=400)"
    )
    assert repr(MembershipVerdict("InEmm'", "w")) == (
        "MembershipVerdict(status=\"InEmm'\", witness='w')"
    )


def test_to_json_writes_the_fields_in_order():
    assert Bounds().to_json() == {
        "max_order": 16, "max_xdeg": 24, "precision": 20, "max_steps": 400,
    }
    assert list(Bounds().to_json()) == list(Bounds._fields)


def test_to_json_writes_a_record_field_through_its_own_to_json():
    # Char^(1) of D/(d - x) at p = 2, as `char --p 2 --level 1` reports it
    M = CyclicModule(2, 0, [DiffOp.dx(2, 0) - DiffOp.x(2, 0)]).level_raised(1)
    cv = char_variety(M, Bounds(max_order=3))
    assert cv.to_json() == {
        "char_class": "fiber-set",
        "zero_section": False,
        "fibers": ["x + 1"],
        "points": [],
        "generators": ["x**2 + 1"],
        "complete": True,
        "bounds": {"max_order": 3, "max_xdeg": 24, "precision": 20, "max_steps": 400},
    }


def test_to_json_nests_records_two_deep():
    inner = OrderStandardBasis([], Bounds(max_steps=9), True, 0, [])
    outer = InversionReport(True, inner, ConvergenceProfile({0: 0}, True), True, False)
    assert outer.to_json() == {
        "ok": True,
        "inverse": {
            "basis": [], "complete": True, "pairs_checked": 0, "leading": [], "notes": [],
            "bounds": {"max_order": 16, "max_xdeg": 24, "precision": 20, "max_steps": 9},
        },
        "profile": {"betas": {0: 0}, "bounded": True, "note": ""},
        "left_residual_below_floor": True,
        "right_residual_below_floor": False,
        "note": "",
    }
