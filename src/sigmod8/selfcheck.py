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
Gram rows (a form object is built only for a counterexample).  A block
evaluates every enhancement once on all the vectors either suite reads
(_block): the lines and pairs of its splitting, and v and W's symplectic
pairs, which come in closed form from the splitting.  Each suite makes
one comparison per block (_compare) against its Gauss table:
gauss-vs-classify with the classification table, and bk-4arf, at every
enhancement with q(v) = 0, with 4 Arf(W) of its Wu subquotient.  On an
isotropic form v = 0 and W is the form itself, so there bk-4arf also
checks BK(2h) = 4 Arf(h), and each entry counts as two checks.  Every
table is dropped with its block.  The check counts and counterexamples
are per enhancement, in enumeration order.

The Wall suite's random symplectic words are built by rank-one updates
(fibration.transvection_word).  The closed form needs 1 - f invertible.
f - I = sum_i T_1...T_{i-1}(T_i - I) is a sum of L rank-one terms, so a
word of L < 2h transvections never gives that, and such lengths are
rejected before the word is built; a built f is redrawn until 1 - f has
full rank, and only then is g drawn.  Acceptance depends on f alone and
g is independent of it, so (h, f, g) has the distribution of drawing all
three and redrawing while 1 - f is singular.  All randomness comes from
the caller's SplitMix64 state, so failures reproduce from the seed alone.
"""
from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from .enhancements import (
    _SplitArrays,
    _Values,
    _arf_tables,
    _bk_classify_tables,
    _bk_gauss_tables,
    _split_rows,
    _subquotient_pairs,
    _values,
    _zero_at,
    bk_gauss,
    enumerate_z4_enhancements,
)
from .fibration import (
    one_minus_f_invertible,
    random_transvection_word,
    transvection_word,
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
    """The checks of a passing `total`, then those of `part`."""
    return SuiteResult(total.name, part.passed, total.checked + part.checked, part.counterexample)


class _Block(NamedTuple):
    """Forms of one dim, their split vectors, q_d on those and the Gauss-sum BK of each enhancement."""

    dim: int
    split: _SplitArrays  # split.rows holds the forms' Gram rows
    values: _Values  # on [lines | pairs | v | W's pairs]; v and W's only at an even dim
    gauss: Any  # (forms, 2^dim) uint8, row f indexed like enumerate_z4_enhancements


def _form(block: _Block, f: int) -> Z2SymForm:
    """Form f of a block, built only to print a counterexample."""
    return Z2SymForm(block.dim, tuple(block.split.rows[f].tolist()))


def _block(rows) -> _Block:
    """The block of a (forms, dim) uint32 stack of Gram rows."""
    dim = rows.shape[1]
    split = _split_rows(rows)
    vectors = (split.lines, split.pairs) + ((split.wu, _subquotient_pairs(split)) if dim % 2 == 0 else ())
    return _Block(dim, split, _values(rows, *vectors), _bk_gauss_tables(rows))


def _blocks(max_dim: int) -> Iterator[_Block]:
    """Every nonsingular form of dim 0..max_dim, BLOCK_FORMS at a time.

    One enumeration per dim, in its order; the blocks of a dim are built
    one after the other and dropped once checked.
    """
    for dim in range(max_dim + 1):
        for rows in nonsingular_rows(dim, BLOCK_FORMS):
            yield _block(rows)


def _compare(name: str, block: _Block, table, counted=()) -> SuiteResult:
    """A suite's table against the block's Gauss table, in enumeration order.

    counted, when given, holds (forms, 2^dim) bool masks, and an entry
    counts one check for each mask that holds it; otherwise every entry
    counts once.  A failure counts the checks before the first mismatch
    and prints that enhancement.
    """
    import numpy as np
    differ = block.gauss.tobytes() != table.tobytes()
    entries = int((block.gauss != table).argmax()) if differ else block.gauss.size  # up to the first mismatch
    checks = sum(np.count_nonzero(m.ravel()[:entries]) for m in counted) if counted else entries
    if not differ:
        return SuiteResult(name, True, checks)
    f, d = divmod(entries, block.gauss.shape[1])
    form = _form(block, f)
    values = next(islice(enumerate_z4_enhancements(form), d, None)).values
    return SuiteResult(name, False, checks, f"form rows {form.rows}, values {values}")


def suite_gauss_vs_classify(block: _Block) -> SuiteResult:
    """BK by Gauss sum against 4n + p_plus - p_minus, on every enhancement of a block."""
    return _compare("gauss-vs-classify", block, _bk_classify_tables(block.split, block.values.high))


def suite_bk_4arf(block: _Block) -> SuiteResult:
    """BK(q) = 4 Arf(W) on the Wu subquotient, for each enhancement of a block with q(v) = 0.

    Only those enhancements are checked and counted; Arf(W) is read off
    W's symplectic pairs, built from the splitting by _subquotient_pairs.
    On an isotropic form (no lines) v = 0, W is the form with its own
    pairs and q_d = 2 h_d, so each entry also checks BK(2h) = 4 Arf(h) and
    counts twice.
    """
    import numpy as np
    # q(v) = lambda(v, v) = dim mod 2 (v is the sum of the lines), so on an odd
    # dim no enhancement has q(v) = 0 and nothing is checked
    if block.dim % 2:
        return SuiteResult("bk-4arf", True, 0)
    wu = 2 * block.dim  # v's bit column, after the lines and the pairs; W's pairs follow
    checked = _zero_at(block.values, wu)
    # 4 Arf(W) where q(v) = 0, and the Gauss entry itself elsewhere
    table = block.gauss.copy()
    np.copyto(table, _arf_tables(block.values, wu + 1) * 4, where=checked)
    return _compare("bk-4arf", block, table, (checked, checked & (block.split.counts == 0)[:, None]))


def _exhaustive_suites(max_dim: int) -> Tuple[SuiteResult, SuiteResult]:
    """gauss-vs-classify and bk-4arf over every form up to max_dim, in one pass.

    Each block's Gauss table serves both suites, one comparison each, and
    each suite folds its blocks in enumeration order until its first
    failure.  No further block is built once both have failed.
    """
    suites = (suite_gauss_vs_classify, suite_bk_4arf)
    results = [SuiteResult("gauss-vs-classify", True, 0), SuiteResult("bk-4arf", True, 0)]
    for block in _blocks(max_dim):
        results = [_extend(r, suite(block)) if r.passed else r for r, suite in zip(results, suites)]
        if not any(r.passed for r in results):
            break  # both suites have ended: build no further block
    return results[0], results[1]


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
    """The closed Wall form against the general one, on random words f, g.

    Each trial redraws (h, L, f) until 1 - f is invertible, then draws g,
    so wall_form_closed runs once per trial (see the module docstring).
    """
    checked = 0
    for _ in range(trials):
        while True:
            h = rng.randint(1, 3)
            length = rng.randint(1, 6)
            if length >= 2 * h:  # f - I has rank <= length, so 1 - f needs length >= 2h
                f = transvection_word(h, length, rng)
                if one_minus_f_invertible(f):
                    break
        g = random_transvection_word(h, 6, rng)
        closed = wall_form_closed(f, g)
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
