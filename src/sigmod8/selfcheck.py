"""Cross-module identity suites used by the selfcheck command and tests.

Each suite re-derives one of the library's core identities two independent
ways and compares: the Gauss sum against the splitting classification, the
Arf invariant against Brown-Kervaire values, integral signatures against
van der Blij residues and mod-4 reductions, and the closed Wall form
against the kernel pairing.  The Morita and van der Blij suites run one
loop (_unimodular_suite) over random unimodular forms, each suite drawing
its own forms and comparing its own residue with sigma mod 8.  The two
exhaustive suites compare two per-form tables over every enhancement of
the form: the Gauss table of bk_gauss against the classification or Arf
table, which is rebuilt from the splitting in every run (an Arf table
once per distinct subquotient form W in the run).  On the Wu subquotient half, each form gets one
expected table, 4 Arf(W) where q(v) = 0 and the Gauss entry elsewhere,
compared with the Gauss table in one step.  The check counts and
counterexamples are per enhancement, as if each had been checked on its
own.  The Wall suite's random symplectic words are built by rank-one
updates (fibration.random_transvection_word).  All randomness comes from
the caller's SplitMix64 state, so failures reproduce from the seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional

from .enhancements import (
    _arf_table,
    _bk_classify_table,
    _bk_gauss_table,
    _subquotient_indices,
    bk_gauss,
    enumerate_z2_enhancements,
    enumerate_z4_enhancements,
)
from .errors import OneMinusFSingular
from .fibration import (
    random_transvection_word,
    wall_form_closed,
    wall_form_general,
)
from .intforms import (
    random_unimodular_form,
    reduce_to_enhanced,
    signature_exact,
    van_der_blij_residue,
)
from .z2forms import enumerate_nonsingular_forms

__all__ = ["SuiteResult", "run_all_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    counterexample: Optional[str] = None

    def line(self) -> str:
        if not self.passed:
            return f"suite {self.name}: FAIL after {self.checked} checks: {self.counterexample}"
        if self.checked == 0:  # e.g. --trials 0: nothing was checked, so no PASS
            return f"suite {self.name}: SKIP (0 checks)"
        return f"suite {self.name}: PASS ({self.checked} checks)"


def _first_mismatch(expected: bytes, got: bytes) -> Optional[int]:
    """Index of the first entry where two tables differ, None when equal."""
    if expected == got:
        return None
    diffs = (i for i, (a, b) in enumerate(zip(expected, got)) if a != b)
    return next(diffs, min(len(expected), len(got)))


def _four_arf(form) -> bytes:
    """4 Arf mod 8 of every Z2 enhancement of an isotropic form."""
    return bytes([4 * a % 8 for a in _arf_table(form)])


def _values(enhancements, index: int):
    """Values of the enhancement at `index` of an enumeration."""
    return next(islice(enhancements, index, None)).values


def suite_gauss_vs_classify(max_dim: int) -> SuiteResult:
    checked = 0
    for dim in range(0, max_dim + 1):
        for form in enumerate_nonsingular_forms(dim):
            gauss = _bk_gauss_table(form)
            d = _first_mismatch(gauss, _bk_classify_table(form))
            if d is not None:
                return SuiteResult(
                    "gauss-vs-classify",
                    False,
                    checked + d,
                    f"form rows {form.rows}, values "
                    f"{_values(enumerate_z4_enhancements(form), d)}",
                )
            checked += len(gauss)
    return SuiteResult("gauss-vs-classify", True, checked)


def suite_bk_4arf(max_dim: int) -> SuiteResult:
    checked = 0
    # BK(2h) = 4 Arf(h): 2h_b is enhancement b of the isotropic form
    for dim in range(0, max_dim + 1, 2):
        for form in enumerate_nonsingular_forms(dim, isotropic_only=True):
            gauss = _bk_gauss_table(form)
            b = _first_mismatch(gauss, _four_arf(form))
            if b is not None:
                return SuiteResult(
                    "bk-4arf",
                    False,
                    checked + b,
                    f"isotropic form rows {form.rows}, h values "
                    f"{_values(enumerate_z2_enhancements(form), b)}",
                )
            checked += len(gauss)
    # BK(q) = 4 Arf(W) on the Wu subquotient, for every q with q(v) = 0.
    # Many forms share a W: build each W's table once in this run, and
    # never keep it for the next.  The expected table holds 4 Arf(W) at the
    # indexed entries and copies the Gauss entry elsewhere
    four_arf_tables = {}
    for dim in range(0, max_dim + 1):
        for form in enumerate_nonsingular_forms(dim):
            w_form, indices = _subquotient_indices(form)
            if w_form is None:
                continue
            if w_form not in four_arf_tables:
                four_arf_tables[w_form] = _four_arf(w_form)
            gauss, four_arf = _bk_gauss_table(form), four_arf_tables[w_form]
            expected = bytes(
                [g if index is None else four_arf[index] for g, index in zip(gauss, indices)]
            )
            d = _first_mismatch(expected, gauss)
            if d is not None:
                return SuiteResult(
                    "bk-4arf",
                    False,
                    checked + d - indices[:d].count(None),
                    f"form rows {form.rows}, values "
                    f"{_values(enumerate_z4_enhancements(form), d)}",
                )
            checked += len(indices) - indices.count(None)
    return SuiteResult("bk-4arf", True, checked)


def _unimodular_suite(name: str, trials: int, rng, residue) -> SuiteResult:
    """residue(form) = sigma mod 8 on random unimodular forms of dim 1..8."""
    checked = 0
    for _ in range(trials):
        dim = rng.randint(1, 8)
        form = random_unimodular_form(dim, rng)
        sigma = signature_exact(form)
        if residue(form) != sigma % 8:
            return SuiteResult(name, False, checked, f"matrix {form.matrix}")
        checked += 1
    return SuiteResult(name, True, checked)


def suite_morita(trials: int, rng) -> SuiteResult:
    return _unimodular_suite("morita", trials, rng, lambda form: bk_gauss(reduce_to_enhanced(form)))


def suite_van_der_blij(trials: int, rng) -> SuiteResult:
    return _unimodular_suite("van-der-blij", trials, rng, van_der_blij_residue)


def suite_wall(trials: int, rng) -> SuiteResult:
    checked = 0
    for _ in range(trials):
        # resample until the closed formula applies (det(1 - f) != 0)
        while True:
            h = rng.randint(1, 3)
            f = random_transvection_word(h, 6, rng)
            g = random_transvection_word(h, 6, rng)
            try:
                closed = wall_form_closed(f, g)
                break
            except OneMinusFSingular:
                continue
        _, general_sig = wall_form_general(f, g)
        if signature_exact(closed) != general_sig:
            return SuiteResult(
                "wall-closed-vs-general",
                False,
                checked,
                f"f {f.entries}, g {g.entries}",
            )
        checked += 1
    return SuiteResult("wall-closed-vs-general", True, checked)


def run_all_suites(max_dim: int, trials: int, rng) -> List[SuiteResult]:
    return [
        suite_gauss_vs_classify(max_dim),
        suite_bk_4arf(max_dim),
        suite_morita(trials, rng),
        suite_van_der_blij(trials, rng),
        suite_wall(trials, rng),
    ]
