"""Symmetric forms over Z and Q: exact signatures and mod-8 identities.

The signature and the determinant come from one fraction-free symmetric
(Bareiss) elimination over Z (no eigenvalues); a rational form is scaled
by the positive lcm of its denominators first.  For a unimodular integral
form the characteristic (Wu) vector v, the Wu class of the mod-2
reduction, satisfies phi(x,x) = phi(x,v) mod 2 and ties three quantities
together mod 8: the signature, phi(v,v) (van der Blij), and the
Brown-Kervaire invariant of the mod-4 reduction (Morita/Brown).

Nondegenerate even forms with 2-primary cokernel bound a quadratic linking
form (T, b, q) on T = coker(phi), with b = phi^{-1} mod Z and q = phi^{-1}
on the diagonal mod 2Z; its Gauss sum sum_x e^(pi i q(x)) recovers the
signature mod 8.  The sum is exact: every q(x) is an integer numerator over
D = 2 max(orders), so it is counted by numerator and compared with the
eight candidates in Z[e^(pi i/D)] (Milgram's formula).  No floating point
is used anywhere.  Rationals stay Fractions at the API (RatSymForm, the
values of a LinkingForm); the CLI's path checks and consumes them as
integer numerators and denominators, with no Fraction arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import List, Sequence, Tuple

from . import kernels
from .enhancements import Z4Quadratic, arf, isotropic_subquotient
from .errors import (
    DegenerateForm,
    GroupTooLarge,
    NotMod4Multiplicative,
    NotTwoPrimary,
    NotUnimodular,
    OddDiagonal,
)
from .record import Record
from .z2forms import Z2SymForm, _pack_bits, wu_class

__all__ = [
    "IntSymForm",
    "RatSymForm",
    "LinkingForm",
    "signature_exact",
    "characteristic_vector",
    "reduce_to_enhanced",
    "van_der_blij_residue",
    "boundary_linking_form",
    "bk_linking",
    "tensor_product",
    "multiplicativity_defect",
    "DefectReport",
    "smith_normal_form",
]

LINKING_GROUP_LIMIT = 1 << 20

# An integer matrix is a tuple of int rows; Python ints grow, so nothing
# wraps.  Tuples are built from lists, not generators: tuple(genexpr) sizes
# for 10 items and shrinks, and the freed tuples fill free lists that only
# exact-size allocations drain, about 1 MB of resident memory after a few
# thousand requests of mixed sizes.
Matrix = Tuple[Tuple[int, ...], ...]


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """a @ b; an empty b counts as 0 x 0."""
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> Tuple[int, ...]:
    return tuple([sum(map(mul, row, x)) for row in a])


def _identity(n: int) -> Matrix:
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])


def _negate(a: Sequence[Sequence[int]]) -> Matrix:
    return tuple([tuple([-x for x in row]) for row in a])


def _transpose(a: Sequence[Sequence[int]]) -> Matrix:
    """The transpose; an empty a counts as 0 x 0."""
    return tuple(list(zip(*a)))


def _check_symmetric(matrix: Tuple[Tuple, ...]) -> None:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError("matrix is not symmetric")


class IntSymForm(Record):
    """Symmetric bilinear form over Z (arbitrary-precision entries).

    Signature, determinant and mod-2 reduction are computed on first use
    and kept on the instance, for every caller in one report.
    """

    dim: int
    matrix: Tuple[Tuple[int, ...], ...]

    def _validate(self):
        if len(self.matrix) != self.dim:
            raise ValueError("matrix size must equal dim")
        _check_symmetric(self.matrix)

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> "IntSymForm":
        return cls(len(matrix), tuple([tuple([int(x) for x in r]) for r in matrix]))

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntSymForm":
        n = len(entries)
        return cls(n, tuple([tuple([entries[i] if i == j else 0 for j in range(n)]) for i in range(n)]))

    @cached_property
    def _signature_det(self) -> Tuple[int, int]:
        return _bareiss(self.matrix)

    @cached_property
    def _mod2(self) -> Z2SymForm:
        # the reduction of a symmetric matrix is symmetric
        return Z2SymForm._trusted(self.dim, tuple([_pack_bits([x & 1 for x in row]) for row in self.matrix]))

    def determinant(self) -> int:
        return self._signature_det[1]

    def is_unimodular(self) -> bool:
        return abs(self.determinant()) == 1

    def direct_sum(self, other: "IntSymForm") -> "IntSymForm":
        n, m = self.dim, other.dim
        rows = [tuple(self.matrix[i]) + (0,) * m for i in range(n)]
        rows += [(0,) * n + tuple(other.matrix[i]) for i in range(m)]
        return IntSymForm(n + m, tuple(rows))

    def negate(self) -> "IntSymForm":
        return IntSymForm(self.dim, tuple([tuple([-x for x in r]) for r in self.matrix]))

    def to_rational(self) -> "RatSymForm":
        return RatSymForm(
            self.dim, tuple([tuple([Fraction(x) for x in r]) for r in self.matrix])
        )

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(map(mul, x, _mat_vec(self.matrix, y)))


class RatSymForm(Record):
    """Symmetric bilinear form over Q with exact Fraction entries."""

    dim: int
    matrix: Tuple[Tuple[Fraction, ...], ...]

    def _validate(self):
        if len(self.matrix) != self.dim:
            raise ValueError("matrix size must equal dim")
        _check_symmetric(self.matrix)

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence]) -> "RatSymForm":
        return cls(len(matrix), tuple([tuple([Fraction(x) for x in r]) for r in matrix]))


def _bareiss(matrix: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(sigma, det) of a symmetric integer matrix, by one elimination.

    Fraction-free symmetric (Bareiss) elimination: a nonzero pivot d with
    row v splits off (d) and leaves (d M - v v^T) / prev, prev the previous
    pivot (1 at first).  By Sylvester's identity the division is exact and
    the block is d times the Schur complement, so the rational pivot d/prev
    has the sign of d * prev and the last pivot is det.  A block with zero
    diagonal but m_ij != 0 first gets row and column j added to i (a
    congruence of det 1), making m_ii = 2 m_ij; a zero block left is the
    radical, which counts 0 in sigma and makes det 0.
    """
    m = [list(row) for row in matrix]
    sig, prev = 0, 1
    while m:
        n = len(m)
        piv = next((i for i in range(n) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]), None)
            if pair is None:
                return sig, 0
            piv, j = pair
            m[piv] = [a + b for a, b in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        v = m.pop(piv)
        d = v.pop(piv)
        for row in m:
            del row[piv]
        sig += 1 if (d > 0) == (prev > 0) else -1
        m = [[(d * x - a * y) // prev for x, y in zip(row, v)] for row, a in zip(m, v)]
        prev = d
    return sig, prev


def signature_exact(form: IntSymForm | RatSymForm) -> int:
    """p - n of an IntSymForm or RatSymForm; the radical counts 0.

    A rational form is scaled by the positive lcm of its denominators.
    """
    if isinstance(form, IntSymForm):
        return form._signature_det[0]
    scale = lcm(*[x.denominator for row in form.matrix for x in row])
    m = [[x.numerator * (scale // x.denominator) for x in row] for row in form.matrix]
    return _bareiss(m)[0]


def characteristic_vector(form: IntSymForm) -> Tuple[int, ...]:
    """v with phi(x,x) = phi(x,v) mod 2, entries in {0,1}; needs det = +-1."""
    if not form.is_unimodular():
        raise NotUnimodular("characteristic vector needs a unimodular form")
    return wu_class(form._mod2).bits


def reduce_to_enhanced(form: IntSymForm) -> Z4Quadratic:
    """(E/2E, phi mod 2, x -> phi(x,x) mod 4); BK of it equals sigma mod 8."""
    if not form.is_unimodular():
        raise NotUnimodular("mod-4 reduction needs a unimodular form")
    values = tuple([form.matrix[i][i] % 4 for i in range(form.dim)])
    return Z4Quadratic._trusted(form._mod2, values)  # phi_ii mod 4 has the parity of the diagonal


def van_der_blij_residue(form: IntSymForm) -> int:
    """phi(v, v) mod 8 for the characteristic vector v; equals sigma mod 8."""
    v = characteristic_vector(form)
    return form.evaluate(v, v) % 8


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]]]:
    """(D, V) with D = U @ matrix @ V diagonal, V unimodular, and d_i | d_i+1.

    U is unimodular too, made of the row operations, but it is not built:
    the one caller needs only V, since for nonsingular matrix
    U^{-1} = matrix @ V @ D^{-1}.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, c):  # row_i -= c * row_j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, c):  # col_i -= c * col_j
        for r in a:
            r[i] -= c * r[j]
        for r in v:
            r[i] -= c * r[j]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        # move a nonzero pivot of minimal magnitude to (t, t)
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(t, rows)
            for j in range(t, cols)
            if a[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, rows):
            q, r = divmod(a[i][t], a[t][t])
            if q:
                row_op(i, t, q)
            if r:
                dirty = True
        for j in range(t + 1, cols):
            q, r = divmod(a[t][j], a[t][t])
            if q:
                col_op(j, t, q)
            if r:
                dirty = True
        if dirty or any(a[i][t] for i in range(t + 1, rows)) or any(
            a[t][j] for j in range(t + 1, cols)
        ):
            continue
        # divisibility: fold in any entry the pivot does not divide
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return a, v


class LinkingForm(Record):
    """Quadratic linking form on a finite abelian 2-group.

    orders: elementary divisors (d_1, ..., d_l), each a power of 2 > 1
    bmat:   b(g_i, g_j) in Q/Z, exact Fractions reduced to [0, 1)
    qvec:   q(g_i) in Q/2Z, exact Fractions reduced to [0, 2)

    General values follow the quadratic rule
        q(sum a_i g_i) = sum a_i^2 q(g_i) + 2 sum_{i<j} a_i a_j b(g_i, g_j).
    """

    orders: Tuple[int, ...]
    bmat: Tuple[Tuple[Fraction, ...], ...]
    qvec: Tuple[Fraction, ...]

    def _validate(self):
        l = len(self.orders)
        for d in self.orders:
            if d < 2 or d & (d - 1):
                raise NotTwoPrimary(f"order {d} is not a power of two")
        if len(self.bmat) != l or len(self.qvec) != l:
            raise ValueError("b and q must match the generator count")
        # on numerators and denominators: n/m - r/s is in Z when m s divides
        # n s - r m, and d n/m is when m divides d n
        num = [[b.numerator for b in row] for row in self.bmat]
        den = [[b.denominator for b in row] for row in self.bmat]
        for i, (d, q) in enumerate(zip(self.orders, self.qvec)):
            for j in range(l):
                n, m = num[i][j], den[i][j]
                if j > i and (n * den[j][i] - num[j][i] * m) % (m * den[j][i]):
                    raise ValueError("b is not symmetric mod Z")
                if d * n % m:
                    raise ValueError("b is not defined on the stated group")
            # d q in Z would follow from d b_ii in Z and the congruence below;
            # tested first, a q off the group is named as such
            n, m, r, s = q.numerator, q.denominator, num[i][i], den[i][i]
            if d * n % m:
                raise ValueError("q is not defined on the stated group")
            if (n * s - r * m) % (m * s):
                raise ValueError("q(x) must reduce to b(x,x) mod Z")

    @property
    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    def evaluate_q(self, coeffs: Sequence[int]) -> Fraction:
        """q(sum a_i g_i) as an exact Fraction mod 2Z."""
        l = len(self.orders)
        total = Fraction(0)
        for i in range(l):
            total += coeffs[i] * coeffs[i] * self.qvec[i]
            for j in range(i + 1, l):
                total += 2 * coeffs[i] * coeffs[j] * self.bmat[i][j]
        return total % 2

    def evaluate_b(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        l = len(self.orders)
        total = Fraction(0)
        for i in range(l):
            for j in range(l):
                total += x[i] * y[j] * self.bmat[i][j]
        return total % 1

    def direct_sum(self, other: "LinkingForm") -> "LinkingForm":
        l, m = len(self.orders), len(other.orders)
        bmat = [
            [self.bmat[i][j] if j < l else Fraction(0) for j in range(l + m)]
            for i in range(l)
        ] + [
            [Fraction(0)] * l + list(other.bmat[i]) for i in range(m)
        ]
        return LinkingForm(
            self.orders + other.orders,
            tuple([tuple(r) for r in bmat]),
            self.qvec + other.qvec,
        )


def boundary_linking_form(form: IntSymForm) -> LinkingForm:
    """Boundary of a nondegenerate even form with 2-primary cokernel.

    T = coker(phi) with b = phi^{-1} in Q/Z and q(x) = phi^{-1}(x, x) in
    Q/2Z; for (Z, [4]) this is the cyclic form (Z4, b(1,1)=1/4, q(1)=1/4),
    whose Gauss sum reproduces BK = 1 = sigma(Z, [4]) mod 8.
    """
    # the parity check first: it is cheap, and the CLI calls this on every form
    for i in range(form.dim):
        if form.matrix[i][i] % 2:
            raise OddDiagonal("boundary linking form needs an even form")
    det = form.determinant()
    if det == 0:
        raise DegenerateForm("boundary needs a nondegenerate form")
    odd = abs(det)
    while odd % 2 == 0:
        odd //= 2
    if odd != 1:
        raise NotTwoPrimary(f"cokernel has odd part {odd}")
    d, v = smith_normal_form(form.matrix)
    # coker(phi) = Z^n / phi Z^n maps isomorphically to Z^n / D Z^n by x -> Ux
    # for the unimodular U with D = U phi V, so the generators are
    # g_i = U^{-1} e_i.  U^{-1} = phi V D^{-1}, so g_i = phi V e_i / d_i and
    # b(g_i, g_j) = g_i^T phi^{-1} g_j = (V^T phi V)_{ij} / (d_i d_j):
    # two integer products over the kept columns of V, one division each.
    keep = [i for i in range(form.dim) if d[i][i] != 1]
    orders = tuple([d[i][i] for i in keep])
    v_t = _transpose(v)
    cols = [v_t[i] for i in keep]  # kept columns of V
    gram = _mat_mul(cols, _mat_mul(form.matrix, _transpose(cols)))
    # each entry is reduced once, on its integer numerator: x / (d_i d_j) mod 1
    # is (x mod d_i d_j) / (d_i d_j), and q_i is (x_ii mod 2 d_i^2) / d_i^2
    bmat = tuple([
        tuple([Fraction(x % (di * dj), di * dj) for x, dj in zip(row, orders)])
        for row, di in zip(gram, orders)
    ])
    qvec = tuple([Fraction(gram[i][i] % (2 * d * d), d * d) for i, d in enumerate(orders)])
    return LinkingForm(orders, bmat, qvec)


def bk_linking(lf: LinkingForm) -> int:
    """Brown-Kervaire invariant of a linking form via its exact Gauss sum.

    sum_{x in T} e^(pi i q(x)) = sqrt(|T|) e^(2 pi i k/8).  With
    D = 2 max(orders), every q(x) is an integer numerator over D, so the
    sum is counted by numerator and compared exactly in Z[e^(pi i/D)]
    (kernels.linking_bk).
    """
    size = lf.order
    if size > LINKING_GROUP_LIMIT:
        raise GroupTooLarge(f"|T| = {size} exceeds {LINKING_GROUP_LIMIT}")
    denom = 2 * max(lf.orders, default=2)
    # exact, since LinkingForm checks that orders_i q_i and orders_i b_ij are integers
    qnum = [q.numerator * denom // q.denominator for q in lf.qvec]
    bnum = [[b.numerator * 2 * denom // b.denominator for b in row] for row in lf.bmat]
    return kernels.linking_bk(lf.orders, qnum, bnum, denom)


def tensor_product(a: IntSymForm, b: IntSymForm) -> IntSymForm:
    """Kronecker product; sigma is multiplicative and Wu vectors tensor."""
    rows = [tuple([x * y for x in ra for y in rb]) for ra in a.matrix for rb in b.matrix]
    return IntSymForm(a.dim * b.dim, tuple(rows))


class DefectReport(Record):
    """Result of the mod-8 multiplicativity-defect computation."""

    arf: int
    sigma_e: int
    sigma_b: int
    sigma_f: int
    defect_mod8: int
    subquotient_dim: int


def multiplicativity_defect(
    e: IntSymForm, b: IntSymForm, f: IntSymForm
) -> DefectReport:
    """Arf invariant detecting sigma(e) - sigma(b)sigma(f) mod 8.

    Builds e + -(b tensor f), reduces mod 4, and takes the Arf invariant of
    the Wu-sublagrangian subquotient; requires the mod-4 multiplicativity
    sigma(e) = sigma(b)sigma(f) mod 4 (automatic for fibration data).
    """
    for name, form in (("e", e), ("b", b), ("f", f)):
        if not form.is_unimodular():
            raise NotUnimodular(f"form {name} must be unimodular")
    sigma_e = signature_exact(e)
    sigma_b = signature_exact(b)
    sigma_f = signature_exact(f)
    if (sigma_e - sigma_b * sigma_f) % 4 != 0:
        raise NotMod4Multiplicative(
            f"sigma(e) - sigma(b)sigma(f) = {sigma_e - sigma_b * sigma_f} is not 0 mod 4"
        )
    product = tensor_product(b, f)
    total = e.direct_sum(product.negate())
    q = reduce_to_enhanced(total)
    w = isotropic_subquotient(q)
    a = arf(w)
    return DefectReport(
        arf=a,
        sigma_e=sigma_e,
        sigma_b=sigma_b,
        sigma_f=sigma_f,
        defect_mod8=(sigma_e - sigma_b * sigma_f) % 8,
        subquotient_dim=w.dim,
    )


ENTRY_BOUND = 1 << 15


def random_unimodular_form(dim: int, rng) -> IntSymForm:
    """Random unimodular symmetric form: +-1 diagonal conjugated by unipotents.

    Entries are kept below 2^15 by skipping congruence steps that would
    overflow the bound, so the corpus is reproducible across platforms.
    Every draw is one rng.next_u64, reduced modulo its range.
    """
    draw = rng.next_u64
    m = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = 1 if draw() % 2 else -1
    for _ in range(2 * dim):  # dim >= 1 here
        i = draw() % dim
        j = draw() % dim
        if i == j:
            continue
        k = (-2, -1, 1, 2)[draw() % 4]
        # congruence by E = I + k e_j e_i^T: row_j += k row_i, col_j += k col_i.
        # Only row and column j change, and they stay equal (m is symmetric);
        # every other entry is unchanged and already below the bound.
        row = [a + k * b for a, b in zip(m[j], m[i])]
        row[j] += k * row[i]
        if any(abs(x) >= ENTRY_BOUND for x in row):
            continue
        m[j] = row
        for r in range(dim):
            m[r][j] = row[r]
    return IntSymForm._trusted(dim, tuple([tuple(row) for row in m]))  # symmetric by construction
