"""Finite symmetric complexes over Z, mod-2 cohomology, Pontryagin squares.

A symmetric structure on a chain complex C (degrees 0..n) is stored through
its first two levels phi0: C^{n-r} -> C_r and phi1: C^{n-r+1} -> C_r.  The
validator enforces d^2 = 0 together with the s = 0 and s = 1 structure
relations

    d phi0 + (-1)^r phi0 d* = 0
    d phi1 + (-1)^r phi1 d* + (-1)^n (phi0 - T phi0) = 0

where (T phi0): C^{n-r} -> C_r is (-1)^{r(n-r)} times the transpose of the
complementary block.  Levels s >= 2 are taken to be zero; the in-scope
formulas never consume them.

A mod-2 cohomology class in degree 2k is carried by an integer pair (u, v)
with d*v = 2u and d*u = 0; the Pontryagin square of the structure is

    P2(u, v) = phi0(v, v) + 2 phi1(v, u)  in Z4,

a quadratic refinement of the mod-2 cup product.

Blocks are integer matrices in the library's one form, tuples of int rows
(`intforms.Matrix`), so entries never wrap.  A block that is omitted, or
is zero, is not stored, and no zero block is built for it: validation,
cohomology and the Pontryagin square add up only the products of the
blocks that are present, so their cost grows with the blocks given, not
with the ranks.
"""
from __future__ import annotations

from functools import reduce
from operator import add, mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    InvalidClass,
    NotMiddleConcentrated,
    NotUnimodular,
    ShapeMismatch,
    SignatureMismatch,
)
from .intforms import IntSymForm, Matrix, characteristic_vector, signature_exact
from .intforms import _mat_mul, _mat_vec, _negate, _transpose
from .record import Record
from .z2forms import eliminate

__all__ = [
    "SymComplex",
    "Mod2CohomologyClass",
    "validate_structure",
    "cohomology_mod2",
    "pontryagin_square",
    "wu_and_mod4_signature",
    "middle_form_complex",
    "two_degree_complex",
    "RANK_LIMIT",
]

# Largest rank of a chain group.  A block that is present is dense, and
# validation multiplies present blocks, so the cost is cubic in the ranks
# of the blocks given; absent blocks cost nothing.
RANK_LIMIT = 256


def _as_matrix(m, rows: int, cols: int, what: str) -> Matrix:
    """m as a tuple of int rows; any matrix without entries fits a zero side."""
    try:
        out = tuple([tuple([int(x) for x in row]) for row in m])
    except TypeError:
        raise ShapeMismatch(f"{what} is not a matrix") from None
    fits = len(out) == rows and all(len(x) == cols for x in out)
    if not (fits or rows * cols == 0 and not any(out)):
        raise ShapeMismatch(f"{what} must be a {rows} x {cols} matrix")
    return out


class SymComplex(Record):
    """Chain complex with a (partial) symmetric structure.

    ranks[r] is the rank of C_r for 0 <= r <= n.  diffs maps r to the
    matrix of d: C_r -> C_{r-1}; phi0 and phi1 map r to the matrices of
    phi0: C^{n-r} -> C_r and phi1: C^{n-r+1} -> C_r.  Missing entries are
    zero maps.  Once built, the three maps hold only the nonzero blocks, as
    tuples of int rows; d, p0 and p1 return any block in full.
    """

    ranks: Tuple[int, ...]
    diffs: Mapping[int, Matrix] = MappingProxyType({})
    phi0: Mapping[int, Matrix] = MappingProxyType({})
    phi1: Mapping[int, Matrix] = MappingProxyType({})

    def _validate(self):
        n = self.n
        for r, rank in enumerate(self.ranks):
            if not 0 <= rank <= RANK_LIMIT:
                raise ShapeMismatch(f"rank {rank} of C_{r} is outside 0..{RANK_LIMIT}")
        for name, low in (("diffs", 1), ("phi0", 0), ("phi1", 0)):
            nonzero: Dict[int, Matrix] = {}
            for r, m in dict(getattr(self, name)).items():
                if not low <= r <= n:
                    raise ShapeMismatch(f"{name} degree {r} outside {low}..{n}")
                block = _as_matrix(m, *self._shape(name, r), f"{name}[{r}]")
                if any(map(any, block)):
                    nonzero[r] = block
            object.__setattr__(self, name, nonzero)

    @property
    def n(self) -> int:
        return len(self.ranks) - 1

    def rank(self, r: int) -> int:
        if 0 <= r <= self.n:
            return self.ranks[r]
        return 0

    def _shape(self, name: str, r: int) -> Tuple[int, int]:
        """Rows and columns of the block of `name` in degree r."""
        if name == "diffs":
            return self.rank(r - 1), self.rank(r)
        return self.rank(r), self.rank(self.n - r + (name == "phi1"))

    def _full(self, name: str, r: int) -> Matrix:
        rows, cols = self._shape(name, r)
        return getattr(self, name).get(r) or ((0,) * cols,) * rows

    def d(self, r: int) -> Matrix:
        """Matrix of d: C_r -> C_{r-1} (zero when absent)."""
        return self._full("diffs", r)

    def p0(self, r: int) -> Matrix:
        return self._full("phi0", r)

    def p1(self, r: int) -> Matrix:
        return self._full("phi1", r)


class Mod2CohomologyClass(Record):
    """Integer cochain pair (u, v) with d*v = 2u, d*u = 0.

    v is a cochain on C_degree, u a cochain on C_{degree+1}; the class of
    v mod 2 is the underlying mod-2 cohomology class.
    """

    degree: int
    u: Tuple[int, ...]
    v: Tuple[int, ...]


def _transposed(block: Optional[Matrix]) -> Optional[Matrix]:
    """The transpose of a block; None, an absent block, stays None."""
    return block and _transpose(block)


def _vanishes(*terms) -> bool:
    """Whether the terms add up to zero.

    A term (sign, a, b, ...) is sign times the product of its blocks, and
    is zero, never built, when one of them is None.
    """
    total = None
    for sign, *blocks in terms:
        if all(b is not None for b in blocks):
            m = reduce(_mat_mul, blocks)
            m = m if sign > 0 else _negate(m)
            total = m if total is None else tuple([tuple(map(add, a, b)) for a, b in zip(total, m)])
    return total is None or not any(map(any, total))


def validate_structure(c: SymComplex) -> Tuple[bool, List[str]]:
    """Check d^2 = 0 and the s in {0, 1} structure relations everywhere."""
    n = c.n
    d, p0, p1 = c.diffs.get, c.phi0.get, c.phi1.get
    violations = []
    for r in range(2, n + 1):
        if not _vanishes((1, d(r - 1), d(r))):
            violations.append(f"d_{r-1} d_{r} != 0")
    for r in range(0, n + 1):
        # s = 0:  d phi0 + (-1)^r phi0 d* = 0 : C^{n-r-1} -> C_r
        if not _vanishes((1, d(r + 1), p0(r + 1)), ((-1) ** r, p0(r), _transposed(d(n - r)))):
            violations.append(f"s=0 relation fails at r={r}")
        # s = 1:  d phi1 + (-1)^r phi1 d* + (-1)^n (phi0 - T phi0) = 0
        if not _vanishes(
            (1, d(r + 1), p1(r + 1)),
            ((-1) ** r, p1(r), _transposed(d(n - r + 1))),
            ((-1) ** n, p0(r)),
            (-((-1) ** (n + r * (n - r))), _transposed(p0(n - r))),
        ):
            violations.append(f"s=1 relation fails at r={r}")
    return not violations, violations


def _coboundary(c: SymComplex, r: int, x: Sequence[int]) -> Tuple[int, ...]:
    """d*x on C_{r+1} for a cochain x on C_r; zeros when d_{r+1} is absent."""
    block = c.diffs.get(r + 1)
    return _mat_vec(_transpose(block), x) if block else (0,) * c.rank(r + 1)


def cohomology_mod2(c: SymComplex, degree: int) -> List[Mod2CohomologyClass]:
    """A basis of H^degree(C; Z2), one integer-lifted (u, v) pair per class."""
    r = degree
    width = c.rank(r)
    if width == 0:
        return []

    def mask(row) -> int:  # an integer row reduced mod 2, bit-packed
        return sum((x & 1) << j for j, x in enumerate(row))

    # kernel of d* mod 2: the equations are the rows of d*, the columns of
    # d_{r+1}; with them fully reduced, free column f gives f plus every
    # pivot whose row holds f
    equations: Dict[int, int] = {}
    eliminate(equations, map(mask, zip(*c.diffs.get(r + 1, ()))))
    kernel = [
        (1 << free) | sum(p for p, row in equations.items() if row >> free & 1)
        for free in range(width)
        if (1 << free) not in equations
    ]
    # span of the image of d*: C^{r-1} -> C^r mod 2, then grow by kernel
    # vectors; every vector that enlarges the span, reduced against it, is a
    # class representative
    span: Dict[int, int] = {}
    eliminate(span, map(mask, c.diffs.get(r, ())))
    classes = []
    for reduced in eliminate(span, kernel):
        v = tuple([(reduced >> j) & 1 for j in range(width)])
        dv = _coboundary(c, r, v)
        if any(x & 1 for x in dv):
            raise InvalidClass("kernel vector of d* mod 2 has odd coboundary")
        classes.append(Mod2CohomologyClass(degree, tuple([x // 2 for x in dv]), v))
    return classes


def _check_class(c: SymComplex, x: Mod2CohomologyClass) -> None:
    r = x.degree
    if len(x.v) != c.rank(r) or len(x.u) != c.rank(r + 1):
        raise InvalidClass("class vectors have wrong lengths for the complex")
    if _coboundary(c, r, x.v) != tuple([2 * b for b in x.u]):
        raise InvalidClass("d*v != 2u")
    if any(_coboundary(c, r + 1, x.u)):
        raise InvalidClass("d*u != 0")


def pontryagin_square(c: SymComplex, x: Mod2CohomologyClass) -> int:
    """phi0(v, v) + 2 phi1(v, u) mod 4; depends only on the mod-2 class."""
    _check_class(c, x)
    r = x.degree
    if 2 * r != c.n:
        raise InvalidClass("the Pontryagin square pairs middle-degree classes")
    # phi1 at degree r maps C^{n-r+1} = C^{r+1}, pairing v against u
    value = 0
    for coeff, block, w in ((1, c.phi0.get(r), x.v), (2, c.phi1.get(r), x.u)):
        if block:
            value += coeff * sum(map(mul, x.v, _mat_vec(block, w)))
    return value % 4


def wu_and_mod4_signature(c: SymComplex) -> Tuple[Mod2CohomologyClass, int]:
    """Wu class and sigma mod 4 of a middle-concentrated unimodular complex.

    Returns (wu, sigma mod 4) after checking sigma = P2(wu) mod 4.
    """
    wu, sigma = _wu_and_signature(c)
    return wu, sigma % 4


def _wu_and_signature(c: SymComplex) -> Tuple[Mod2CohomologyClass, int]:
    """wu_and_mod4_signature with sigma itself in place of sigma mod 4.

    Raises what wu_and_mod4_signature raises; on return P2(wu) = sigma mod 4.
    """
    n = c.n
    if n % 2:
        raise NotMiddleConcentrated("complex dimension must be even")
    mid = n // 2
    for r in range(n + 1):
        if r != mid and c.rank(r):
            raise NotMiddleConcentrated(f"nonzero rank in degree {r}")
    form = IntSymForm(c.rank(mid), c.p0(mid))
    if not form.is_unimodular():
        raise NotUnimodular("middle form must be unimodular")
    wu = Mod2CohomologyClass(mid, (), characteristic_vector(form))
    sigma = signature_exact(form)
    p2 = pontryagin_square(c, wu)
    if sigma % 4 != p2:
        raise SignatureMismatch(f"sigma = {sigma} but P2(wu) = {p2} in Z4")
    return wu, sigma


def middle_form_complex(matrix: Sequence[Sequence[int]], quarter: int = 1) -> SymComplex:
    """The 4k-dimensional complex concentrated in degree 2k carrying a form."""
    m = len(matrix)
    n = 4 * quarter
    mid = n // 2
    ranks = tuple([m if r == mid else 0 for r in range(n + 1)])
    return SymComplex(ranks=ranks, phi0={mid: matrix})


def two_degree_complex(d: int, a: int, p: int, quarter: int = 1) -> SymComplex:
    """Z -> Z in degrees (2k+1, 2k) with differential d, phi0 = (a).

    phi1 is (p) on C^{2k+1} -> C_{2k}; the complementary block is forced to
    (-p) by the s = 1 structure relation.
    """
    n = 4 * quarter
    mid = n // 2
    ranks = tuple([1 if r in (mid, mid + 1) else 0 for r in range(n + 1)])
    return SymComplex(
        ranks=ranks,
        diffs={mid + 1: [[d]]},
        phi0={mid: [[a]]},
        phi1={mid: [[p]], mid + 1: [[-p]]},
    )
