"""Line-oriented text formats for forms, enhancements, complexes, monodromy.

Every format starts with a keyword line whose sizes must be >= 0; `#`
begins a comment anywhere and blank lines are ignored.  `load` reads any
kind through one parser table, whose keys are KINDS; z2q and z4q share
one parser.  A constructor's ValueError becomes a ParseError naming the
file.

    z2form <dim>        dim rows of dim 0/1 entries
    z2q <dim>           z2form rows, then one row of dim values in {0,1}
                        (at dim 0, no row: the file is its header)
    z4q <dim>           z2form rows, then one row of dim values in {0,1,2,3}
                        (likewise)
    intform <dim>       dim rows of dim integers
    ratform <dim>       dim rows of dim rationals (p/q, ints, decimals)
    symcomplex <n>      one row of n+1 ranks, each in 0..256
                        (symcomplex.RANK_LIMIT), then labeled blocks
                        `d <r>` / `phi0 <r>` / `phi1 <r>`, each followed by
                        its matrix rows (omitted blocks are zero)
    monodromy <h> <g>   2g matrices f1 g1 f2 g2 ..., each 2h rows of
                        2h integers
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .enhancements import Z2Quadratic, Z4Quadratic
from .errors import ParseError
from .fibration import MonodromyData
from .intforms import IntSymForm, RatSymForm
from .symcomplex import SymComplex
from .z2forms import Z2SymForm

__all__ = [
    "load",
    "parse_z2form",
    "parse_z2q",
    "parse_z4q",
    "parse_intform",
    "parse_ratform",
    "parse_symcomplex",
    "parse_monodromy",
    "KINDS",
]

# Largest |exponent| in a ratform decimal such as 1.5e-3, as int's digit limit bounds p and q
EXPONENT_LIMIT = 4300
# A ratform entry of this form, the common case, is read by int(), the rest by Fraction(tok)
_PLAIN_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?").fullmatch

_BITS = frozenset((0, 1))


class _Lines:
    """Token stream over comment-stripped, non-blank lines."""

    def __init__(self, text: str, path: Optional[str]):
        self.path = path
        self.items: List[Tuple[int, List[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((lineno, body.split()))
        self.pos = 0

    def peek(self) -> Optional[Tuple[int, List[str]]]:
        if self.pos < len(self.items):
            return self.items[self.pos]
        return None

    def take(self, expected: str) -> Tuple[int, List[str]]:
        item = self.peek()
        if item is None:
            raise ParseError(f"unexpected end of file, expected {expected}", self.path)
        self.pos += 1
        return item

    def fail(self, lineno: int, message: str):
        raise ParseError(message, self.path, lineno)

    def expect_done(self):
        item = self.peek()
        if item is not None:
            self.fail(item[0], f"unexpected trailing line: {' '.join(item[1])}")


def _ints(lines: _Lines, lineno: int, tokens: Sequence[str], count: int, what: str) -> List[int]:
    if len(tokens) != count:
        lines.fail(lineno, f"expected {count} entries for {what}, got {len(tokens)}")
    try:
        return list(map(int, tokens))
    except ValueError:
        pass
    for tok in tokens:  # name the first token int() refuses
        try:
            int(tok)
        except ValueError:
            lines.fail(lineno, f"expected an integer for {what}, got {tok!r}")


def _header(lines: _Lines, keyword: str, argc: int) -> List[int]:
    lineno, tokens = lines.take(f"`{keyword}` header")
    if tokens[0] != keyword:
        lines.fail(lineno, f"expected keyword {keyword!r}, got {tokens[0]!r}")
    args = _ints(lines, lineno, tokens[1:], argc, f"{keyword} header arguments")
    if min(args) < 0:
        lines.fail(lineno, f"{keyword} header arguments must be >= 0")
    return args


def _matrix_rows(lines: _Lines, nrows: int, ncols: int, what: str) -> List[List[int]]:
    rows = []
    for _ in range(nrows):
        lineno, tokens = lines.take(f"row of {what}")
        rows.append(_ints(lines, lineno, tokens, ncols, what))
    return rows


def _z2_rows(lines: _Lines, dim: int, label: str) -> List[List[int]]:
    """The dim rows of a Z2 Gram matrix; an entry other than 0 or 1 is refused
    at its line, never read mod 2."""
    first = lines.pos  # each row is one line, so row k is lines.items[first + k]
    rows = _matrix_rows(lines, dim, dim, f"{label} matrix")
    if not _BITS.issuperset(chain.from_iterable(rows)):
        bad = next(k for k, row in enumerate(rows) if not _BITS.issuperset(row))
        lines.fail(lines.items[first + bad][0], f"{label} entries must be 0 or 1")
    return rows


def _build(path: Optional[str], make):
    """make(), with the ValueError of a constructor's check raised as ParseError."""
    try:
        return make()
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def parse_z2form(text: str, path: Optional[str] = None) -> Z2SymForm:
    lines = _Lines(text, path)
    (dim,) = _header(lines, "z2form", 1)
    rows = _z2_rows(lines, dim, "z2form")
    lines.expect_done()
    return _build(path, lambda: Z2SymForm.from_matrix(rows))


def _parse_enhancement(text: str, path: Optional[str], kind: str, cls, modulus: int):
    """A z2q or z4q file: the form's rows, then its values in 0..modulus-1."""
    lines = _Lines(text, path)
    (dim,) = _header(lines, kind, 1)
    rows = _z2_rows(lines, dim, f"{kind} form")
    # at dim 0 the row of values has no tokens, a blank line that _Lines drops
    lineno, tokens = lines.take(f"row of {kind} values") if dim else (0, [])
    values = _ints(lines, lineno, tokens, dim, f"{kind} values")
    lines.expect_done()
    if any(not 0 <= v < modulus for v in values):
        allowed = ",".join(map(str, range(modulus)))
        lines.fail(lineno, f"{kind} values must lie in {{{allowed}}}")
    return _build(path, lambda: cls(Z2SymForm.from_matrix(rows), tuple(values)))


def parse_z2q(text: str, path: Optional[str] = None) -> Z2Quadratic:
    return _parse_enhancement(text, path, "z2q", Z2Quadratic, 2)


def parse_z4q(text: str, path: Optional[str] = None) -> Z4Quadratic:
    return _parse_enhancement(text, path, "z4q", Z4Quadratic, 4)


def parse_intform(text: str, path: Optional[str] = None) -> IntSymForm:
    lines = _Lines(text, path)
    (dim,) = _header(lines, "intform", 1)
    rows = _matrix_rows(lines, dim, dim, "intform matrix")
    lines.expect_done()
    return _build(path, lambda: IntSymForm.from_matrix(rows))


def parse_ratform(text: str, path: Optional[str] = None) -> RatSymForm:
    lines = _Lines(text, path)
    (dim,) = _header(lines, "ratform", 1)
    rows = []
    for _ in range(dim):
        lineno, tokens = lines.take("row of ratform matrix")
        if len(tokens) != dim:
            lines.fail(lineno, f"expected {dim} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            try:
                if _PLAIN_RATIONAL(tok):  # int() has Fraction(tok)'s digit limit
                    p, _, q = tok.partition("/")
                    row.append(Fraction(int(p), int(q or 1)))
                    continue
                _, e, exponent = tok.lower().partition("e")
                if e and abs(int(exponent)) > EXPONENT_LIMIT:  # Fraction computes 10**exponent
                    raise ValueError(tok)
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                lines.fail(lineno, f"expected a rational p/q, got {tok!r}")
        rows.append(tuple(row))
    lines.expect_done()
    return _build(path, lambda: RatSymForm(dim, tuple(rows)))


def parse_symcomplex(text: str, path: Optional[str] = None) -> SymComplex:
    lines = _Lines(text, path)
    (n,) = _header(lines, "symcomplex", 1)
    lineno, tokens = lines.take("row of per-degree ranks")
    ranks = _ints(lines, lineno, tokens, n + 1, "per-degree ranks")
    diffs, phi0, phi1 = {}, {}, {}
    while True:
        item = lines.peek()
        if item is None:
            break
        lineno, tokens = item
        if tokens[0] not in ("d", "phi0", "phi1"):
            lines.fail(lineno, f"expected block label d/phi0/phi1, got {tokens[0]!r}")
        lines.pos += 1
        (r,) = _ints(lines, lineno, tokens[1:], 1, f"{tokens[0]} block degree")
        if tokens[0] == "d":
            if not 1 <= r <= n:
                lines.fail(lineno, f"d degree must be in 1..{n}")
            shape = (ranks[r - 1], ranks[r])
            target = diffs
        elif tokens[0] == "phi0":
            if not 0 <= r <= n:
                lines.fail(lineno, f"phi0 degree must be in 0..{n}")
            shape = (ranks[r], ranks[n - r])
            target = phi0
        else:
            if not 0 <= r <= n:
                lines.fail(lineno, f"phi1 degree must be in 0..{n}")
            cols = ranks[n - r + 1] if n - r + 1 <= n else 0
            shape = (ranks[r], cols)
            target = phi1
        if shape[0] == 0 or shape[1] == 0:
            continue  # a block with a zero side is the zero map; no rows follow
        target[r] = _matrix_rows(lines, shape[0], shape[1], f"{tokens[0]} {r} block")
    return _build(path, lambda: SymComplex(ranks=tuple(ranks), diffs=diffs, phi0=phi0, phi1=phi1))


def parse_monodromy(text: str, path: Optional[str] = None) -> MonodromyData:
    lines = _Lines(text, path)
    h, g = _header(lines, "monodromy", 2)
    matrices = []
    for _ in range(2 * g):
        matrices.append(_matrix_rows(lines, 2 * h, 2 * h, "monodromy matrix"))
    lines.expect_done()
    # non-symplectic matrices and commutator violations surface as
    # precondition errors (InvariantError), not parse errors
    return MonodromyData.from_matrices(h, matrices)


_PARSERS = {
    "z2form": parse_z2form,
    "z2q": parse_z2q,
    "z4q": parse_z4q,
    "intform": parse_intform,
    "ratform": parse_ratform,
    "symcomplex": parse_symcomplex,
    "monodromy": parse_monodromy,
}

KINDS = tuple(_PARSERS)


def load(text: str, kind: str, path: Optional[str] = None):
    """Parse `text` as the given kind; raises ParseError on malformed input."""
    if kind not in _PARSERS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {KINDS}", path)
    return _PARSERS[kind](text, path)
