"""Value semantics of the library's record classes.

Every class stores named fields, compares and hashes by them, prints as
Name(field=value, ...) and refuses assignment; these tests pin that for all
fifteen, whatever mechanism provides it.
"""
from fractions import Fraction

import pytest

from sigmod8.enhancements import Z2Quadratic, Z4Quadratic
from sigmod8.fibration import BundleReport, MonodromyData, SymplecticMatrix, bundle_report
from sigmod8.intforms import DefectReport, IntSymForm, LinkingForm, RatSymForm
from sigmod8.selfcheck import SuiteResult
from sigmod8.symcomplex import Mod2CohomologyClass, SymComplex
from sigmod8.z2forms import H_FORM, P_FORM, Z2Subspace, Z2SymForm, Z2Vec

F = SymplecticMatrix(1, ((0, 1), (-1, 0)))
G = SymplecticMatrix(1, ((1, 1), (0, 1)))
PAIRS = ((F, G), (G, F))  # [f, g][g, f] = I

# (class, keyword arguments in field order), one case per class
CASES = [
    (Z2Vec, dict(dim=3, mask=5)),
    (Z2SymForm, dict(dim=2, rows=(2, 1))),
    (Z2Subspace, dict(ambient_dim=3, basis=(1, 6))),
    (Z2Quadratic, dict(form=H_FORM, values=(1, 1))),
    (Z4Quadratic, dict(form=P_FORM, values=(3,))),
    (IntSymForm, dict(dim=2, matrix=((2, 1), (1, 2)))),
    (RatSymForm, dict(dim=1, matrix=((Fraction(1, 2),),))),
    (LinkingForm, dict(orders=(4,), bmat=((Fraction(1, 4),),), qvec=(Fraction(1, 4),))),
    (DefectReport, dict(arf=1, sigma_e=4, sigma_b=1, sigma_f=4, defect_mod8=4, subquotient_dim=2)),
    (SymplecticMatrix, dict(h=1, entries=((0, 1), (-1, 0)))),
    (MonodromyData, dict(h=1, g=2, pairs=PAIRS)),
    (BundleReport, dict(handle_signatures=(0, 0), handle_sum=0, total=0,
                        z2_trivial=False, z4_trivial=False)),
    (SymComplex, dict(ranks=(1,), diffs={}, phi0={0: ((1,),)}, phi1={})),
    (Mod2CohomologyClass, dict(degree=0, u=(0,), v=(1,))),
    (SuiteResult, dict(name="wall", passed=False, checked=3, counterexample="f = I")),
]


@pytest.mark.parametrize("cls, kwargs", CASES, ids=[c.__name__ for c, _ in CASES])
def test_value_semantics(cls, kwargs):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    if cls is SymComplex:  # its maps are dicts, so it cannot be hashed
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position)

    # equality needs the same class: a subclass or a tuple of the fields differs
    other = type("Other", (cls,), {})(*kwargs.values())
    assert by_keyword != other and other != by_keyword
    assert by_keyword != tuple(kwargs.values())

    stored = {name: getattr(by_keyword, name) for name in kwargs}
    shown = ", ".join(f"{name}={value!r}" for name, value in stored.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"

    for name, value in stored.items():
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.unknown_field = 1
    assert {name: getattr(by_keyword, name) for name in kwargs} == stored


def test_constructor_arguments_are_checked():
    with pytest.raises(TypeError):
        Z2Vec(3)
    with pytest.raises(TypeError):
        Z2Vec(3, 5, 7)
    with pytest.raises(TypeError):
        Z2Vec(3, mask=5, bits=1)
    with pytest.raises(TypeError):
        Z2Vec(3, dim=3)
    with pytest.raises(ValueError):
        Z2Vec(dim=1, mask=2)  # keyword calls are validated too


def test_defaults():
    empty = SymComplex(ranks=(1,))
    assert empty.diffs == empty.phi0 == empty.phi1 == {}
    assert empty == SymComplex((1,), {}, {}, {})
    assert SymComplex((1,), phi0={0: ((1,),)}).phi0 == {0: ((1,),)}
    assert SuiteResult("wall", True, 0).counterexample is None
    assert SuiteResult(name="wall", passed=True, checked=0) == SuiteResult("wall", True, 0, None)


def test_monodromy_conjugates_are_not_compared():
    a = MonodromyData(1, 2, PAIRS)
    b = MonodromyData(1, 2, tuple((SymplecticMatrix(1, f.entries), g) for f, g in PAIRS))
    assert a == b and hash(a) == hash(b)
    assert a._conjugates == b._conjugates != ()
    object.__setattr__(b, "_conjugates", ())
    assert a == b and hash(a) == hash(b)
    assert "_conjugates" not in repr(a)


def test_bundle_report_keyword_construction():
    report = bundle_report(MonodromyData(1, 2, PAIRS))
    assert report == BundleReport(
        handle_signatures=report.handle_signatures,
        handle_sum=report.handle_sum,
        total=report.total,
        z2_trivial=report.z2_trivial,
        z4_trivial=report.z4_trivial,
    )
    assert isinstance(report.handle_signatures, tuple)


def test_instances_keep_their_dict():
    form = IntSymForm(2, ((2, 1), (1, 2)))
    assert form.determinant() == 3
    assert "_signature_det" in form.__dict__  # the cached_property's slot
    assert form == IntSymForm(2, ((2, 1), (1, 2)))
    trusted = Z2SymForm._trusted(2, (2, 1))
    assert trusted == H_FORM and hash(trusted) == hash(H_FORM)
    assert Z4Quadratic._trusted(P_FORM, (1,)) == Z4Quadratic(P_FORM, (1,))
    assert SymplecticMatrix._trusted(1, F.entries) == F
