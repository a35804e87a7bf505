"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 are the two genus-2 worked examples.  Besides the exact
per-handle Wall matrices and handle signatures (+2, -2), they assert that
the signature of the local coefficient system is 0.  Both examples have
fibre genus h = 1, so the monodromy lies in Sp(2, Z) = SL(2, Z), where
H^2(SL(2, Z); Q) = 0.  Meyer's signature class (Meyer 1973, "Die Signatur
von Flaechenbuendeln") is therefore torsion, and its value on the
fundamental class of the closed base surface, an integer, is 0 for every
integral local system of rank 2.  See README.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from sigmod8.enhancements import (
    _bk_gauss_tables,
    arf,
    bk_classify,
    bk_gauss,
    double,
    enumerate_z2_enhancements,
    enumerate_z4_enhancements,
    isotropic_subquotient,
)
from sigmod8.errors import NotDivisibleBy4, OneMinusFSingular
from sigmod8.fibration import (
    MonodromyData,
    SymplecticMatrix,
    bundle_report,
    local_system_signature,
    random_monodromy,
    random_transvection_word,
    wall_form_closed,
    wall_form_general,
    z4_trivial_check,
)
from sigmod8.intforms import (
    IntSymForm,
    bk_linking,
    boundary_linking_form,
    characteristic_vector,
    random_unimodular_form,
    reduce_to_enhanced,
    signature_exact,
    van_der_blij_residue,
)
from sigmod8.rng import SplitMix64
from sigmod8.symcomplex import (
    Mod2CohomologyClass,
    cohomology_mod2,
    middle_form_complex,
    pontryagin_square,
    two_degree_complex,
    validate_structure,
    wu_and_mod4_signature,
)
from sigmod8.z2forms import enumerate_nonsingular_forms


def report(capsys, number, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {number}: {status}{suffix}")


F1 = SymplecticMatrix.from_matrix([[0, 1], [-1, 0]])
G1 = SymplecticMatrix.from_matrix([[0, 1], [-1, 1]])
F2 = SymplecticMatrix.from_matrix([[0, -1], [1, -1]])
G2 = SymplecticMatrix.from_matrix([[0, 1], [-1, 0]])
F2B = SymplecticMatrix.from_matrix([[4, -3], [7, -5]])
G2B = SymplecticMatrix.from_matrix([[-3, 2], [-5, 3]])


def test_criterion_1_genus2_example_1(capsys):
    """Example 1: per-handle +2/-2 with the exact reference matrices; total 0."""
    t0 = time.perf_counter()
    m = MonodromyData(1, 2, ((F1, G1), (F2, G2)))
    rep = bundle_report(m)
    total = rep.total
    elapsed = time.perf_counter() - t0
    matrices_ok = True
    tw1 = G1 @ F1.inverse() @ G1.inverse()
    s1 = wall_form_closed(F1, tw1)
    matrices_ok &= s1.matrix == (
        (Fraction(4), Fraction(-3)),
        (Fraction(-3), Fraction(7, 2)),
    )
    tw2 = G2 @ F2.inverse() @ G2.inverse()
    s2 = wall_form_closed(F2, tw2)
    matrices_ok &= s2.matrix == (
        (Fraction(-4, 3), Fraction(-2, 3)),
        (Fraction(-2, 3), Fraction(-10, 3)),
    )
    clauses_ok = (
        matrices_ok
        and rep.handle_signatures == (2, -2)
        and elapsed < 1.0
    )
    # Fibre genus 1: Meyer's signature class of Sp(2, Z) is torsion, so the
    # local-system signature over the closed genus-2 base is 0.
    total_ok = m.h == 1 and total == 0
    report(
        capsys,
        1,
        clauses_ok and total_ok,
        f"handles {rep.handle_signatures}, total {total}, {elapsed:.3f}s"
        + ("" if total_ok else " -- expected total 0 at fibre genus 1, see README"),
    )
    assert matrices_ok, "reference Wall matrices not reproduced"
    assert rep.handle_signatures == (2, -2)
    assert elapsed < 1.0
    assert m.h == 1
    assert total == 0, (
        "at fibre genus 1 Meyer's signature class is torsion, so the "
        "local-coefficient-system signature must be 0"
    )


def test_criterion_2_genus2_example_2(capsys):
    t0 = time.perf_counter()
    m = MonodromyData(1, 2, ((F1, G1), (F2B, G2B)))
    total = local_system_signature(m)
    elapsed = time.perf_counter() - t0
    # Fibre genus 1: Meyer's signature class of Sp(2, Z) is torsion, so the
    # local-system signature over the closed genus-2 base is 0.
    total_ok = m.h == 1 and total == 0
    ok = total_ok and elapsed < 1.0
    report(
        capsys,
        2,
        ok,
        f"total {total}, {elapsed:.3f}s"
        + ("" if total_ok else " -- expected total 0 at fibre genus 1, see README"),
    )
    assert elapsed < 1.0
    assert m.h == 1
    assert total == 0, (
        "at fibre genus 1 Meyer's signature class is torsion, so the "
        "local-coefficient-system signature must be 0; see criterion 1"
    )


def test_criterion_3_four_ones_example(capsys):
    e = IntSymForm.diagonal([1, 1, 1, 1])
    sigma = signature_exact(e.to_rational())
    v = characteristic_vector(e)
    q = reduce_to_enhanced(e)
    bk = bk_gauss(q)
    w = isotropic_subquotient(q)
    values = [w.evaluate_mask(mask) for mask in (1, 2, 3)]
    a = arf(w)
    ok = (
        sigma == 4
        and v == (1, 1, 1, 1)
        and bk == 4
        and w.dim == 2
        and values == [1, 1, 1]
        and a == 1
        and (4 * a - sigma) % 8 == 0
    )
    report(capsys, 3, ok, f"sigma {sigma}, BK {bk}, Arf {a}")
    assert ok


def test_criterion_4_linking_form_example(capsys):
    lf = boundary_linking_form(IntSymForm.from_matrix([[4]]))
    bk = bk_linking(lf)  # exact Gauss sum, counted by numerator
    sigma = signature_exact(IntSymForm.from_matrix([[4]]).to_rational())
    ok = lf.orders == (4,) and bk == 1 and bk == sigma % 8
    report(capsys, 4, ok, f"T = Z{lf.orders[0] if lf.orders else 1}, BK {bk}")
    assert ok


def _gauss_tables(dim, forms):
    """BK by the Gauss sum of every enhancement of each form: one transform
    over the stack of the forms' Gram rows, row f indexed like
    enumerate_z4_enhancements of form f."""
    rows = np.array([form.rows for form in forms], dtype=np.uint32).reshape(len(forms), dim)
    return _bk_gauss_tables(rows).tolist()


def _index(q):
    """d with q = enhancement d of enumerate_z4_enhancements: values diag_i + 2 d_i."""
    return sum((v >> 1) << i for i, v in enumerate(q.values))


def test_criterion_5_oracle_equivalence_exhaustive(capsys):
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for dim in range(0, 6):
        forms = list(enumerate_nonsingular_forms(dim))
        for form, gauss in zip(forms, _gauss_tables(dim, forms)):
            for q in enumerate_z4_enhancements(form):
                m, n, pp, pm = bk_classify(q)
                if (4 * n + pp - pm) % 8 != gauss[_index(q)]:
                    failures += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    report(capsys, 5, ok, f"{checked} enhancements, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_6_bk_equals_4arf_exhaustive(capsys):
    checked = 0
    ok = True
    for dim in (0, 2, 4, 6):
        forms = list(enumerate_nonsingular_forms(dim, isotropic_only=True))
        for form, gauss in zip(forms, _gauss_tables(dim, forms)):
            for h in enumerate_z2_enhancements(form):
                if gauss[_index(double(h))] != (4 * arf(h)) % 8:
                    ok = False
                checked += 1
    sub_checked = 0
    for dim in range(0, 6):
        forms = list(enumerate_nonsingular_forms(dim))
        for form, gauss in zip(forms, _gauss_tables(dim, forms)):
            for q in enumerate_z4_enhancements(form):
                try:
                    w = isotropic_subquotient(q)
                except NotDivisibleBy4:
                    continue
                if gauss[_index(q)] != (4 * arf(w)) % 8:
                    ok = False
                sub_checked += 1
    report(capsys, 6, ok, f"{checked} doubled, {sub_checked} subquotients")
    assert ok


def test_criterion_7_morita_van_der_blij_randomized(capsys):
    t0 = time.perf_counter()
    rng = SplitMix64(0)
    ok = True
    for _ in range(200):
        dim = rng.randint(1, 8)
        form = random_unimodular_form(dim, rng)
        sigma = signature_exact(form.to_rational()) % 8
        if van_der_blij_residue(form) != sigma:
            ok = False
        if bk_gauss(reduce_to_enhanced(form)) != sigma:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 7, ok, f"200 forms, {elapsed:.1f}s")
    assert ok


def test_criterion_8_wall_closed_vs_general(capsys):
    rng = SplitMix64(0)
    checked = 0
    ok = True
    while checked < 50:
        h = rng.randint(1, 3)
        f = random_transvection_word(h, 6, rng)
        g = random_transvection_word(h, 6, rng)
        try:
            closed = wall_form_closed(f, g)  # symmetry asserted exactly inside
        except OneMinusFSingular:
            continue
        _, sig = wall_form_general(f, g)
        if signature_exact(closed) != sig:
            ok = False
        checked += 1
    report(capsys, 8, ok, f"{checked} pairs")
    assert ok


def test_criterion_9_meyer_mod4_and_mod8(capsys):
    rng = SplitMix64(0)
    ok4 = True
    for _ in range(50):
        h = rng.randint(1, 3)
        m = random_monodromy(h, rng)
        if local_system_signature(m) % 4 != 0:
            ok4 = False
    ok8 = True
    rng8 = SplitMix64(1)
    for _ in range(50):
        h = rng8.randint(1, 3)
        m = random_monodromy(h, rng8, doubled=True)
        if not z4_trivial_check(m):
            ok8 = False
        if local_system_signature(m) % 8 != 0:
            ok8 = False
    report(capsys, 9, ok4 and ok8, "50 mod-4 + 50 mod-8 monodromies")
    assert ok4
    assert ok8


def test_criterion_10_pontryagin_quadraticity(capsys):
    rng = SplitMix64(0)
    ok = True
    # random middle-concentrated complexes
    for _ in range(15):
        form = random_unimodular_form(rng.randint(1, 6), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        classes = cohomology_mod2(c, 2)
        for _ in range(8):
            a = classes[rng.randrange(len(classes))]
            b = classes[rng.randrange(len(classes))]
            s = Mod2CohomologyClass(2, (), tuple(x + y for x, y in zip(a.v, b.v)))
            lam = form.evaluate(list(a.v), list(b.v)) % 2
            lhs = (
                pontryagin_square(c, s)
                - pontryagin_square(c, a)
                - pontryagin_square(c, b)
            ) % 4
            if lhs != 2 * lam:
                ok = False
        wu, sig4 = wu_and_mod4_signature(c)
        if sig4 != pontryagin_square(c, wu):
            ok = False
        if sig4 != signature_exact(form.to_rational()) % 4:
            ok = False
    # two-degree complexes: quadraticity of the rank-one class against itself
    for d, a_val, p_val in ((2, 1, 1), (2, 3, 2), (4, 2, 1)):
        c = two_degree_complex(d, a_val, p_val)
        valid, _ = validate_structure(c)
        if not valid:
            ok = False
            continue
        classes = cohomology_mod2(c, 2)
        for x in classes:
            # x + x: the doubled integer representative of the zero class
            s = Mod2CohomologyClass(2, tuple(2 * u for u in x.u), tuple(2 * v for v in x.v))
            phi = c.p0(2)
            lam = int(
                sum(
                    x.v[i] * phi[i][j] * x.v[j]
                    for i in range(len(x.v))
                    for j in range(len(x.v))
                )
            ) % 2
            lhs = (pontryagin_square(c, s) - 2 * pontryagin_square(c, x)) % 4
            if lhs != 2 * lam:
                ok = False
    report(capsys, 10, ok, "quadraticity and sigma = P2(wu) mod 4")
    assert ok


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
