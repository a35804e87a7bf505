"""Cross-module identity suites used by the selfcheck command and tests.

Each suite re-derives one of the library's core identities two independent
ways and compares: the Gauss sum against the splitting classification, the
Arf invariant against Brown-Kervaire values, integral signatures against
van der Blij residues and mod-4 reductions, and the closed Wall form
against the kernel pairing.  The Morita and van der Blij suites run one
loop (_unimodular_suite) over random unimodular forms, each suite drawing
its own forms and comparing its own residue with sigma mod 8.

The two exhaustive suites share one pass over the forms (_exhaustive_suites):
each dim is enumerated once, in blocks of BLOCK_FORMS forms, and each
block's splittings and tables are array operations on its uint32 stack of
Gram rows (a form object is built only for a counterexample).  The block's
Gauss table (_bk_gauss_tables) is compared with its classification table
(gauss-vs-classify), with 4 Arf of the isotropic forms' Z2 enhancements
(the doubled half of bk-4arf, BK(2h) = 4 Arf(h)), and, at every
enhancement with q(v) = 0, with 4 Arf(W) of its Wu subquotient (the
subquotient half), read off W's symplectic pairs lifted into the form.
Every table is dropped with its block, so nothing of the classification
route outlives a block.  The check counts and counterexamples are per
enhancement, as if each had been checked on its own, and bk-4arf reports
as if its doubled half had run over every dim first.  The Wall suite's
random symplectic words are built by rank-one updates
(fibration.random_transvection_word).  All randomness comes from the
caller's SplitMix64 state, so failures reproduce from the seed alone.
"""
from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from .enhancements import (
    _SplitArrays,
    _arf_tables,
    _bk_classify_tables,
    _bk_gauss_tables,
    _split_rows,
    _subquotient_pairs,
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
from .record import Record
from .z2forms import Z2SymForm, nonsingular_rows

__all__ = ["SuiteResult", "run_all_suites"]

# Forms per block of the exhaustive suites.  The tables of one block, a few
# MB at dim 6, are the most a run holds at once.
BLOCK_FORMS = 4096


class SuiteResult(Record):
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


def _extend(total: SuiteResult, part: SuiteResult) -> SuiteResult:
    """The checks of `total`, then those of `part`; a failure ends the suite."""
    if not total.passed:
        return total
    return SuiteResult(total.name, part.passed, total.checked + part.checked, part.counterexample)


def _first_mismatch(expected: bytes, got: bytes) -> Optional[int]:
    """Index of the first entry where two tables differ, None when equal."""
    if expected == got:
        return None
    diffs = (i for i, (a, b) in enumerate(zip(expected, got)) if a != b)
    return next(diffs, min(len(expected), len(got)))


def _values(enhancements, index: int):
    """Values of the enhancement at `index` of an enumeration."""
    return next(islice(enhancements, index, None)).values


class _Block(NamedTuple):
    """Forms of one dim, their split vectors and the Gauss-sum BK of each enhancement."""

    dim: int
    split: _SplitArrays  # split.rows holds the forms' Gram rows
    gauss: Any  # (forms, 2^dim) uint8, row f indexed like enumerate_z4_enhancements


def _form(block: _Block, f: int) -> Z2SymForm:
    """Form f of a block, built only to print a counterexample."""
    return Z2SymForm(block.dim, tuple(block.split.rows[f].tolist()))


def _blocks(max_dim: int) -> Iterator[_Block]:
    """Every nonsingular form of dim 0..max_dim, BLOCK_FORMS at a time.

    One enumeration per dim, in its order; the blocks of a dim are built
    one after the other and dropped once checked.
    """
    for dim in range(max_dim + 1):
        for rows in nonsingular_rows(dim, BLOCK_FORMS):
            yield _Block(dim, _split_rows(rows), _bk_gauss_tables(rows))


def suite_gauss_vs_classify(block: _Block) -> SuiteResult:
    """BK by Gauss sum against 4n + p_plus - p_minus, on every enhancement of a block."""
    j = _first_mismatch(block.gauss.tobytes(), _bk_classify_tables(block.split).tobytes())
    if j is None:
        return SuiteResult("gauss-vs-classify", True, block.gauss.size)
    f, d = divmod(j, block.gauss.shape[1])
    form = _form(block, f)
    return SuiteResult(
        "gauss-vs-classify",
        False,
        j,
        f"form rows {form.rows}, values {_values(enumerate_z4_enhancements(form), d)}",
    )


def _doubled(block: _Block) -> SuiteResult:
    """BK(2h) = 4 Arf(h) on the block's isotropic forms: 2h_b is enhancement b."""
    isotropic = (block.split.counts == 0).nonzero()[0]
    if not len(isotropic):
        return SuiteResult("bk-4arf", True, 0)
    gauss = block.gauss[isotropic]
    arf = _arf_tables(block.split.rows[isotropic], block.split.pairs[isotropic])
    j = _first_mismatch(gauss.tobytes(), (arf << 2).tobytes())
    if j is None:
        return SuiteResult("bk-4arf", True, gauss.size)
    f, b = divmod(j, gauss.shape[1])
    form = _form(block, isotropic[f])
    return SuiteResult(
        "bk-4arf",
        False,
        j,
        f"isotropic form rows {form.rows}, h values "
        f"{_values(enumerate_z2_enhancements(form), b)}",
    )


def suite_bk_4arf(block: _Block) -> SuiteResult:
    """BK(q) = 4 Arf(W) on the Wu subquotient, for each enhancement of a block with q(v) = 0.

    Only those enhancements are checked and counted; Arf(W) is read off
    W's symplectic pairs, lifted into the form by _subquotient_pairs.
    """
    import numpy as np
    # q(v) = lambda(v, v) = dim mod 2 (v is the sum of the lines), so on an odd
    # dim no enhancement has q(v) = 0 and nothing is checked
    if block.dim % 2:
        return SuiteResult("bk-4arf", True, 0)
    pairs, checked = _subquotient_pairs(block.split)
    flags = checked.tobytes()  # one byte per enhancement, 1 where it is checked
    if 1 not in flags:
        return SuiteResult("bk-4arf", True, 0)
    # 4 Arf(W) where q(v) = 0, and the Gauss entry itself elsewhere
    four_arf = _arf_tables(block.split.rows, pairs) << 2
    j = _first_mismatch(np.where(checked, four_arf, block.gauss).tobytes(), block.gauss.tobytes())
    if j is None:
        return SuiteResult("bk-4arf", True, flags.count(1))
    f, d = divmod(j, block.gauss.shape[1])
    form = _form(block, f)
    return SuiteResult(
        "bk-4arf",
        False,
        flags[:j].count(1),
        f"form rows {form.rows}, values {_values(enumerate_z4_enhancements(form), d)}",
    )


def _exhaustive_suites(max_dim: int) -> Tuple[SuiteResult, SuiteResult]:
    """gauss-vs-classify and bk-4arf over every form up to max_dim, in one pass.

    Each block's Gauss table serves both suites.  bk-4arf reports as if its
    doubled half ran over every dim before its subquotient half: a failure
    of the doubled half comes first, and counts only doubled checks.  So a
    failed subquotient half leaves the doubled half to run on, and no
    further block is built once gauss-vs-classify and the doubled half have
    both failed.
    """
    gauss_vs_classify = SuiteResult("gauss-vs-classify", True, 0)
    doubled = subquotient = SuiteResult("bk-4arf", True, 0)
    for block in _blocks(max_dim):
        if gauss_vs_classify.passed:
            gauss_vs_classify = _extend(gauss_vs_classify, suite_gauss_vs_classify(block))
        if doubled.passed:
            doubled = _extend(doubled, _doubled(block))
        if doubled.passed and subquotient.passed:
            subquotient = _extend(subquotient, suite_bk_4arf(block))
        if not gauss_vs_classify.passed and not doubled.passed:
            break  # both suites have ended: build no further block
    return gauss_vs_classify, _extend(doubled, subquotient)


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
        *_exhaustive_suites(max_dim),
        suite_morita(trials, rng),
        suite_van_der_blij(trials, rng),
        suite_wall(trials, rng),
    ]
