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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import (
    InvalidClass,
    NotMiddleConcentrated,
    NotUnimodular,
    ShapeMismatch,
    SignatureMismatch,
)
from .intforms import IntSymForm, characteristic_vector, signature_exact
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

# Largest rank of a chain group.  Blocks are dense object arrays (absent
# ones are built as zeros) and validation multiplies them, so the cost is
# cubic in the ranks.
RANK_LIMIT = 256


def _as_matrix(m, rows: int, cols: int, what: str) -> np.ndarray:
    """m as an array of Python ints, which grow where int64 would wrap."""
    a = np.array(m, dtype=object)
    if a.size == 0:
        a = a.reshape(rows, cols) if rows * cols == 0 else a
    if a.shape != (rows, cols):
        raise ShapeMismatch(f"{what} must have shape {(rows, cols)}, got {a.shape}")
    return np.array([[int(x) for x in row] for row in a], dtype=object).reshape(rows, cols)


@dataclass(frozen=True)
class SymComplex:
    """Chain complex with a (partial) symmetric structure.

    ranks[r] is the rank of C_r for 0 <= r <= n.  diffs maps r to the
    matrix of d: C_r -> C_{r-1}; phi0 and phi1 map r to the matrices of
    phi0: C^{n-r} -> C_r and phi1: C^{n-r+1} -> C_r.  Missing entries are
    zero maps.
    """

    ranks: Tuple[int, ...]
    diffs: Mapping[int, np.ndarray] = field(default_factory=dict)
    phi0: Mapping[int, np.ndarray] = field(default_factory=dict)
    phi1: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        for r, rank in enumerate(self.ranks):
            if not 0 <= rank <= RANK_LIMIT:
                raise ShapeMismatch(f"rank {rank} of C_{r} is outside 0..{RANK_LIMIT}")
        canon_d: Dict[int, np.ndarray] = {}
        for r, m in dict(self.diffs).items():
            if not 1 <= r <= n:
                raise ShapeMismatch(f"differential degree {r} outside 1..{n}")
            canon_d[r] = _as_matrix(m, self.ranks[r - 1], self.ranks[r], f"d_{r}")
        canon_p0: Dict[int, np.ndarray] = {}
        for r, m in dict(self.phi0).items():
            if not 0 <= r <= n:
                raise ShapeMismatch(f"phi0 degree {r} outside 0..{n}")
            canon_p0[r] = _as_matrix(m, self.ranks[r], self.ranks[n - r], f"phi0_{r}")
        canon_p1: Dict[int, np.ndarray] = {}
        for r, m in dict(self.phi1).items():
            if not 0 <= r <= n:
                raise ShapeMismatch(f"phi1 degree {r} outside 0..{n}")
            cols = self.ranks[n - r + 1] if n - r + 1 <= n else 0
            canon_p1[r] = _as_matrix(m, self.ranks[r], cols, f"phi1_{r}")
        object.__setattr__(self, "diffs", canon_d)
        object.__setattr__(self, "phi0", canon_p0)
        object.__setattr__(self, "phi1", canon_p1)

    @property
    def n(self) -> int:
        return len(self.ranks) - 1

    def rank(self, r: int) -> int:
        if 0 <= r <= self.n:
            return self.ranks[r]
        return 0

    def d(self, r: int) -> np.ndarray:
        """Matrix of d: C_r -> C_{r-1} (zero when absent)."""
        if r in self.diffs:
            return self.diffs[r]
        return np.zeros((self.rank(r - 1), self.rank(r)), dtype=object)

    def p0(self, r: int) -> np.ndarray:
        if r in self.phi0:
            return self.phi0[r]
        return np.zeros((self.rank(r), self.rank(self.n - r)), dtype=object)

    def p1(self, r: int) -> np.ndarray:
        if r in self.phi1:
            return self.phi1[r]
        return np.zeros((self.rank(r), self.rank(self.n - r + 1)), dtype=object)


@dataclass(frozen=True)
class Mod2CohomologyClass:
    """Integer cochain pair (u, v) with d*v = 2u, d*u = 0.

    v is a cochain on C_degree, u a cochain on C_{degree+1}; the class of
    v mod 2 is the underlying mod-2 cohomology class.
    """

    degree: int
    u: Tuple[int, ...]
    v: Tuple[int, ...]


def validate_structure(c: SymComplex) -> Tuple[bool, List[str]]:
    """Check d^2 = 0 and the s in {0, 1} structure relations everywhere."""
    n = c.n
    violations = []
    for r in range(2, n + 1):
        if c.rank(r) and c.rank(r - 2):
            if np.any(c.d(r - 1) @ c.d(r)):
                violations.append(f"d_{r-1} d_{r} != 0")
    for r in range(0, n + 1):
        # s = 0:  d phi0 + (-1)^r phi0 d* = 0 : C^{n-r-1} -> C_r
        dom = c.rank(n - r - 1)
        if c.rank(r) and dom:
            lhs = np.zeros((c.rank(r), dom), dtype=object)
            if r + 1 <= n:
                lhs = lhs + c.d(r + 1) @ c.p0(r + 1)
            lhs = lhs + (-1) ** r * (c.p0(r) @ c.d(n - r).T)
            if np.any(lhs):
                violations.append(f"s=0 relation fails at r={r}")
        # s = 1:  d phi1 + (-1)^r phi1 d* + (-1)^n (phi0 - T phi0) = 0
        dom = c.rank(n - r)
        if c.rank(r) and dom:
            lhs = np.zeros((c.rank(r), dom), dtype=object)
            if r + 1 <= n:
                lhs = lhs + c.d(r + 1) @ c.p1(r + 1)
            if n - r + 1 <= n:
                lhs = lhs + (-1) ** r * (c.p1(r) @ c.d(n - r + 1).T)
            t_phi0 = (-1) ** (r * (n - r)) * c.p0(n - r).T
            lhs = lhs + (-1) ** n * (c.p0(r) - t_phi0)
            if np.any(lhs):
                violations.append(f"s=1 relation fails at r={r}")
    return not violations, violations


def cohomology_mod2(c: SymComplex, degree: int) -> List[Mod2CohomologyClass]:
    """A basis of H^degree(C; Z2), one integer-lifted (u, v) pair per class."""
    n = c.n
    r = degree
    width = c.rank(r)
    if width == 0:
        return []
    # d*: C^r -> C^{r+1} is the transpose of d_{r+1}
    dstar = c.d(r + 1).T if r + 1 <= n else np.zeros((0, width), dtype=object)

    def mask(row) -> int:  # an integer row reduced mod 2, bit-packed
        return sum((int(x) & 1) << j for j, x in enumerate(row))

    # kernel of d* mod 2: the equations are the rows of dstar; with them
    # fully reduced, free column f gives f plus every pivot whose row holds f
    equations: Dict[int, int] = {}
    eliminate(equations, map(mask, dstar))
    kernel = [
        (1 << free) | sum(p for p, row in equations.items() if row >> free & 1)
        for free in range(width)
        if (1 << free) not in equations
    ]
    # span of the image of d*: C^{r-1} -> C^r mod 2, then grow by kernel
    # vectors; every vector that enlarges the span, reduced against it, is a
    # class representative
    span: Dict[int, int] = {}
    eliminate(span, map(mask, c.d(r)))
    classes = []
    for reduced in eliminate(span, kernel):
        v = np.array([(reduced >> j) & 1 for j in range(width)], dtype=object)
        dv = dstar @ v if dstar.shape[0] else np.zeros(0, dtype=object)
        if np.any(dv & 1):
            raise InvalidClass("kernel vector of d* mod 2 has odd coboundary")
        u = dv // 2
        classes.append(
            Mod2CohomologyClass(degree, tuple(int(x) for x in u), tuple(int(x) for x in v))
        )
    return classes


def _check_class(c: SymComplex, x: Mod2CohomologyClass) -> None:
    n = c.n
    r = x.degree
    v = np.array(x.v, dtype=object)
    u = np.array(x.u, dtype=object)
    if v.shape != (c.rank(r),) or u.shape != (c.rank(r + 1),):
        raise InvalidClass("class vectors have wrong lengths for the complex")
    dstar_v = c.d(r + 1).T @ v if r + 1 <= n else np.zeros(0, dtype=object)
    if np.any(dstar_v != 2 * u):
        raise InvalidClass("d*v != 2u")
    dstar_u = c.d(r + 2).T @ u if r + 2 <= n else np.zeros(0, dtype=object)
    if np.any(dstar_u):
        raise InvalidClass("d*u != 0")


def pontryagin_square(c: SymComplex, x: Mod2CohomologyClass) -> int:
    """phi0(v, v) + 2 phi1(v, u) mod 4; depends only on the mod-2 class."""
    _check_class(c, x)
    r = x.degree
    if 2 * r != c.n:
        raise InvalidClass("the Pontryagin square pairs middle-degree classes")
    v = np.array(x.v, dtype=object)
    u = np.array(x.u, dtype=object)
    value = int(v @ c.p0(r) @ v) if v.size else 0
    # phi1 at degree r maps C^{n-r+1} = C^{r+1}, pairing v against u
    p1 = c.p1(r)
    if p1.size:
        value += 2 * int(v @ p1 @ u)
    return value % 4


def wu_and_mod4_signature(c: SymComplex) -> Tuple[Mod2CohomologyClass, int]:
    """Wu class and sigma mod 4 of a middle-concentrated unimodular complex.

    Returns (wu, sigma mod 4) after checking sigma = P2(wu) mod 4.
    """
    n = c.n
    if n % 2:
        raise NotMiddleConcentrated("complex dimension must be even")
    mid = n // 2
    for r in range(n + 1):
        if r != mid and c.rank(r):
            raise NotMiddleConcentrated(f"nonzero rank in degree {r}")
    phi = c.p0(mid)
    form = IntSymForm.from_matrix([[int(x) for x in row] for row in phi])
    if not form.is_unimodular():
        raise NotUnimodular("middle form must be unimodular")
    v = characteristic_vector(form)
    wu = Mod2CohomologyClass(mid, (), tuple(v))
    sigma = signature_exact(form)
    p2 = pontryagin_square(c, wu)
    if sigma % 4 != p2:
        raise SignatureMismatch(f"sigma = {sigma} but P2(wu) = {p2} in Z4")
    return wu, sigma % 4


def middle_form_complex(matrix: Sequence[Sequence[int]], quarter: int = 1) -> SymComplex:
    """The 4k-dimensional complex concentrated in degree 2k carrying a form."""
    m = len(matrix)
    n = 4 * quarter
    mid = n // 2
    ranks = tuple(m if r == mid else 0 for r in range(n + 1))
    phi = np.array(matrix, dtype=object).reshape(m, m)
    return SymComplex(ranks=ranks, diffs={}, phi0={mid: phi}, phi1={})


def two_degree_complex(d: int, a: int, p: int, quarter: int = 1) -> SymComplex:
    """Z -> Z in degrees (2k+1, 2k) with differential d, phi0 = (a).

    phi1 is (p) on C^{2k+1} -> C_{2k}; the complementary block is forced to
    (-p) by the s = 1 structure relation.
    """
    n = 4 * quarter
    mid = n // 2
    ranks = tuple(1 if r in (mid, mid + 1) else 0 for r in range(n + 1))
    return SymComplex(
        ranks=ranks,
        diffs={mid + 1: [[d]]},
        phi0={mid: [[a]]},
        phi1={mid: [[p]], mid + 1: [[-p]]},
    )
