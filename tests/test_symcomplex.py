"""Symmetric complexes: structure validation and Pontryagin squares."""
import numpy as np
import pytest

from sigmod8.errors import (
    InvalidClass,
    NotMiddleConcentrated,
    NotUnimodular,
    ShapeMismatch,
    SignatureMismatch,
)
from sigmod8.intforms import (
    characteristic_vector,
    random_unimodular_form,
    signature_exact,
)
from sigmod8 import symcomplex
from sigmod8.rng import SplitMix64
from sigmod8.symcomplex import (
    Mod2CohomologyClass,
    SymComplex,
    cohomology_mod2,
    middle_form_complex,
    pontryagin_square,
    two_degree_complex,
    validate_structure,
    wu_and_mod4_signature,
)


# --------------------------------------------------------- validate_structure

def test_middle_symmetric_form_is_valid():
    ok, violations = validate_structure(middle_form_complex([[1, 0], [0, 1]]))
    assert ok and not violations


def test_asymmetric_middle_form_fails():
    c = SymComplex(ranks=(0, 0, 2, 0, 0), phi0={2: [[0, 1], [0, 0]]})
    ok, violations = validate_structure(c)
    assert not ok
    assert any("s=1" in v for v in violations)


def test_two_degree_complex_sign():
    ok, violations = validate_structure(two_degree_complex(2, 1, 1))
    assert ok, violations
    flipped = SymComplex(
        ranks=(0, 0, 1, 1, 0),
        diffs={3: [[2]]},
        phi0={2: [[1]]},
        phi1={2: [[1]], 3: [[1]]},
    )
    ok, violations = validate_structure(flipped)
    assert not ok


def test_d_squared_checked():
    c = SymComplex(ranks=(1, 1, 1, 0, 0), diffs={1: [[1]], 2: [[1]]})
    ok, violations = validate_structure(c)
    assert not ok
    assert any("d_1 d_2" in v for v in violations)


@pytest.mark.parametrize("big", [1 << 62, 1 << 70], ids=["2^62", "2^70"])
def test_d_squared_exact_for_huge_entries(big):
    # 2^62 * 4 = 2^64 wraps to 0 in int64; 2^70 does not fit at all
    c = SymComplex(ranks=(1, 1, 1, 0, 0), diffs={1: [[big]], 2: [[4]]})
    ok, violations = validate_structure(c)
    assert not ok
    assert violations == ["d_1 d_2 != 0"]


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        SymComplex(ranks=(0, 0, 2, 0, 0), phi0={2: [[1]]})
    with pytest.raises(ShapeMismatch):
        SymComplex(ranks=(0, 0, 1, 1, 0), diffs={3: [[1, 2]]})


# ------------------------------------------------------------ cohomology_mod2

def test_middle_concentrated_classes():
    c = middle_form_complex([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    classes = cohomology_mod2(c, 2)
    assert len(classes) == 3
    assert all(x.u == () for x in classes)


def test_two_degree_class():
    c = two_degree_complex(2, 1, 1)
    classes = cohomology_mod2(c, 2)
    assert len(classes) == 1
    assert classes[0].v == (1,)
    assert classes[0].u == (1,)  # d*v = 2 = 2u


def test_acyclic_complex_no_classes():
    c = SymComplex(ranks=(0, 0, 1, 1, 0), diffs={3: [[1]]})
    assert cohomology_mod2(c, 2) == []


def test_cohomology_rejects_non_cocycle(monkeypatch):
    """With the mod-2 equations of d* dropped, e_0 comes out with d*e_0 = 1.

    The patched elimination keeps no rows and hands every vector back
    unreduced, as if each were new.
    """
    monkeypatch.setattr(symcomplex, "eliminate", lambda rows, vectors, tags=None: list(vectors))
    c = SymComplex(ranks=(0, 0, 1, 1, 0), diffs={3: [[1]]})
    with pytest.raises(InvalidClass):
        cohomology_mod2(c, 2)


# ---------------------------------------------------------- pontryagin_square

def test_pontryagin_middle_diagonal():
    c = middle_form_complex([[1, 0], [0, 3]])
    classes = cohomology_mod2(c, 2)
    values = {x.v: pontryagin_square(c, x) for x in classes}
    assert values[(1, 0)] == 1
    assert values[(0, 1)] == 3


def test_pontryagin_zero_class():
    c = middle_form_complex([[1]])
    assert pontryagin_square(c, Mod2CohomologyClass(2, (), (0,))) == 0


def test_pontryagin_invalid_class():
    c = two_degree_complex(2, 1, 1)
    with pytest.raises(InvalidClass):
        pontryagin_square(c, Mod2CohomologyClass(2, (0,), (1,)))  # d*v != 2u


def test_pontryagin_representative_independence():
    rng = SplitMix64(20)
    c = two_degree_complex(2, 3, 1)
    ok, _ = validate_structure(c)
    assert ok
    (x,) = cohomology_mod2(c, 2)
    base = pontryagin_square(c, x)
    for _ in range(20):
        # shift the integral representative within its mod-2 class:
        # v -> v + 2w forces u -> u + d* w
        w = rng.randint(-5, 5)
        v = (x.v[0] + 2 * w,)
        u = (x.u[0] + 2 * w,)  # d* = 2 here
        assert pontryagin_square(c, Mod2CohomologyClass(2, u, v)) == base


def test_pontryagin_representative_independence_middle():
    rng = SplitMix64(21)
    form = random_unimodular_form(4, rng)
    c = middle_form_complex([list(r) for r in form.matrix])
    for x in cohomology_mod2(c, 2):
        base = pontryagin_square(c, x)
        for _ in range(10):
            v = tuple(b + 2 * rng.randint(-3, 3) for b in x.v)
            assert pontryagin_square(c, Mod2CohomologyClass(2, (), v)) == base


def test_pontryagin_quadraticity():
    rng = SplitMix64(22)
    for _ in range(10):
        form = random_unimodular_form(rng.randint(1, 5), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        classes = cohomology_mod2(c, 2)
        for _ in range(10):
            a = classes[rng.randrange(len(classes))]
            b = classes[rng.randrange(len(classes))]
            va = np.array(a.v, dtype=object)
            vb = np.array(b.v, dtype=object)
            lam = int(va @ np.array([list(r) for r in form.matrix], dtype=object) @ vb) % 2
            s = Mod2CohomologyClass(2, (), tuple(x + y for x, y in zip(a.v, b.v)))
            lhs = (
                pontryagin_square(c, s)
                - pontryagin_square(c, a)
                - pontryagin_square(c, b)
            ) % 4
            assert lhs == 2 * lam


def test_pontryagin_mod2_is_cup_square():
    rng = SplitMix64(23)
    for _ in range(10):
        form = random_unimodular_form(rng.randint(1, 5), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        for x in cohomology_mod2(c, 2):
            v = np.array(x.v, dtype=object)
            cup = int(v @ np.array([list(r) for r in form.matrix], dtype=object) @ v) % 2
            assert pontryagin_square(c, x) % 2 == cup


# ------------------------------------------------------ wu_and_mod4_signature

def test_wu_and_mod4_examples():
    wu, sig4 = wu_and_mod4_signature(middle_form_complex([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert wu.v == (1, 1, 1, 1)
    assert sig4 == 0
    wu, sig4 = wu_and_mod4_signature(middle_form_complex([[1]]))
    assert wu.v == (1,)
    assert sig4 == 1


def test_wu_and_mod4_random():
    rng = SplitMix64(24)
    for _ in range(20):
        form = random_unimodular_form(rng.randint(1, 8), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        wu, sig4 = wu_and_mod4_signature(c)
        assert sig4 == signature_exact(form.to_rational()) % 4


def test_wu_and_mod4_preconditions():
    with pytest.raises(NotMiddleConcentrated):
        wu_and_mod4_signature(two_degree_complex(2, 1, 1))
    with pytest.raises(NotUnimodular):
        wu_and_mod4_signature(middle_form_complex([[2]]))


def test_wu_and_mod4_rejects_mismatch(monkeypatch):
    monkeypatch.setattr(symcomplex, "signature_exact", lambda form: 2)
    with pytest.raises(SignatureMismatch):
        wu_and_mod4_signature(middle_form_complex([[1]]))


# -------------------------------------------------------- cross-module oracle

def test_cross_module_agreement():
    rng = SplitMix64(25)
    for _ in range(10):
        form = random_unimodular_form(rng.randint(1, 6), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        wu, sig4 = wu_and_mod4_signature(c)
        assert wu.v == characteristic_vector(form)
        sigma = signature_exact(form.to_rational())
        assert sig4 == sigma % 4
        p2 = pontryagin_square(c, wu)
        assert p2 == form.evaluate(list(wu.v), list(wu.v)) % 4


@pytest.mark.parametrize("rank", [-1, symcomplex.RANK_LIMIT + 1, 10**20])
def test_rank_outside_limit_rejected(rank):
    with pytest.raises(ShapeMismatch):
        SymComplex(ranks=(0, 0, rank, 1, 0))


def test_rank_at_limit_accepted():
    c = SymComplex(ranks=(0, symcomplex.RANK_LIMIT))
    assert c.rank(1) == symcomplex.RANK_LIMIT
