"""Surface-bundle signatures from symplectic monodromy data.

Monodromy data for a genus-g base consists of g pairs (f_i, g_i) of
integer symplectic 2h x 2h matrices whose commutators multiply to the
identity.  Two computations are provided:

* per-handle Wall forms: for each handle the rational symmetric form
  S(f, g) = phi (1 - g^{-1})(1 - f)^{-1}(g - f) at g -> g f^{-1} g^{-1}
  (closed formula), or equivalently the pairing
  Psi((y,z),(y',z')) = phi(y + z, (1 - f) y') on the kernel of
  [(1-f) | (1-g)] (general formula, no invertibility hypothesis);

* the signature of the local coefficient system itself, computed from the
  twisted cohomology of the base surface group: the cup-product pairing on
  H^1(pi_1(B); Z^{2h}) composed with the symplectic form of the fibre
  (local_system_signature).  This is the invariant the multiplicativity
  theorems constrain: it is divisible by 4 (Meyer) and by 8 when the
  action is trivial mod 4.

Both pairings are evaluated as integer Gram matrices on a primitive
integral basis of a kernel: for the cup pairing, the cocycles that vanish
on the pivot coordinates of the coboundary map, a complement of the
coboundaries (which pair to zero) in the cocycle space, so the Gram is
the size of H^1; for the Wall pairing, ker[(1-f) | (1-g)].
Each basis vector is a positive integer multiple of the vector a rational
row reduction would give, so the two Gram matrices are congruent by a
positive diagonal matrix D (D G D), and by Sylvester's law of inertia
they have the same signature.  The Grams are returned as IntSymForm and
`signature_exact` eliminates them fraction-free.  Only the closed Wall
form holds Fractions: it solves (1 - f) X = g - f with the same integral
kernel routine and divides each column once.

The convention for the symplectic form is J = [[0, I], [-I, 0]], with
phi(x, y) = x^T J y; the transvection along c acts by x -> x + phi(x, c) c,
which reproduces the standard Dehn-twist matrices in this basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import List, Sequence, Tuple

from .errors import (
    CommutatorRelationViolated,
    NotSymplectic,
    OddDimension,
    OneMinusFSingular,
    ZeroVector,
)
from .intforms import IntSymForm, Matrix, RatSymForm, signature_exact
from .intforms import _identity, _mat_mul, _mat_sub, _mat_vec, _negate, _transpose

__all__ = [
    "SymplecticMatrix",
    "MonodromyData",
    "standard_j",
    "transvection",
    "is_symplectic",
    "wall_form_closed",
    "wall_form_general",
    "handle_signatures",
    "local_system_signature",
    "z4_trivial_check",
    "z2_trivial_check",
    "BundleReport",
    "bundle_report",
]

# Tuples here are built from lists, not generators, for the resident-memory
# reason given with `intforms.Matrix`.


@lru_cache(maxsize=16)
def standard_j(h: int) -> Matrix:
    """J = [[0, I_h], [-I_h, 0]], built once per h (a tuple, so sharing it is safe)."""
    n = 2 * h
    rows = []
    for i in range(n):
        row = [0] * n
        if i < h:
            row[h + i] = 1
        else:
            row[i - h] = -1
        rows.append(tuple(row))
    return tuple(rows)


def _j_times(m: Matrix) -> Matrix:
    """J M, the signed row permutation (M_lower; -M_upper): no product."""
    h = len(m) // 2
    return m[h:] + _negate(m[:h])


def _symplectic_inverse(m: Matrix) -> Matrix:
    """M^{-1} = -J M^T J = J (J M)^T, exact and integral for symplectic M."""
    return _j_times(_transpose(_j_times(m)))


def _preserves_j(m: Matrix) -> bool:
    """M^T J M = J, with J M formed by _j_times: one product."""
    return _mat_mul(_transpose(m), _j_times(m)) == standard_j(len(m) // 2)


@dataclass(frozen=True)
class SymplecticMatrix:
    """Integer matrix M with M^T J M = J for the standard block J."""

    h: int
    entries: Matrix

    def __post_init__(self):
        n = 2 * self.h
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise OddDimension(f"expected a {n}x{n} matrix")
        if not _preserves_j(self.entries):
            raise NotSymplectic("M^T J M != J")

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> "SymplecticMatrix":
        n = len(matrix)
        if n % 2:
            raise OddDimension("symplectic matrices have even size")
        return cls(n // 2, tuple([tuple([int(x) for x in r]) for r in matrix]))

    @classmethod
    def _trusted(cls, h: int, entries: Matrix) -> "SymplecticMatrix":
        """A matrix symplectic by construction: no M^T J M check.

        Only for products and inverses of matrices that were checked, and
        for products of transvections (random_transvection_word).
        """
        m = object.__new__(cls)
        object.__setattr__(m, "h", h)
        object.__setattr__(m, "entries", entries)
        return m

    def inverse(self) -> "SymplecticMatrix":
        return SymplecticMatrix._trusted(self.h, _symplectic_inverse(self.entries))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.h != other.h:
            raise ValueError("genus mismatch")
        return SymplecticMatrix._trusted(self.h, _mat_mul(self.entries, other.entries))

    def is_identity_mod(self, k: int) -> bool:
        n = 2 * self.h
        return all(
            (self.entries[i][j] - int(i == j)) % k == 0
            for i in range(n)
            for j in range(n)
        )


def is_symplectic(matrix: Sequence[Sequence[int]]) -> bool:
    """M^T J M = J, exactly, for the standard J of matching size."""
    n = len(matrix)
    if n % 2 or any(len(r) != n for r in matrix):
        raise OddDimension("symplectic matrices have even size")
    return _preserves_j(tuple([tuple([int(x) for x in r]) for r in matrix]))


def transvection(c: Sequence[int]) -> SymplecticMatrix:
    """The symplectic transvection x -> x + phi(x, c) c along c.

    As a matrix, T = I + (Jc) c^T; for c doubled the result is congruent
    to the identity mod 4.
    """
    n = len(c)
    if n % 2:
        raise OddDimension("vectors must live in Z^{2h}")
    c = tuple([int(x) for x in c])
    if not any(c):
        raise ZeroVector("transvection needs a nonzero vector")
    jc = c[n // 2:] + tuple([-x for x in c[:n // 2]])  # J c, as in _j_times
    entries = tuple(
        [tuple([int(i == k) + jc[i] * c[k] for k in range(n)]) for i in range(n)]
    )
    return SymplecticMatrix(n // 2, entries)


@dataclass(frozen=True)
class MonodromyData:
    """g pairs (f_i, g_i) in Sp(2h, Z) with prod [f_i, g_i] = I."""

    h: int
    g: int
    pairs: Tuple[Tuple[SymplecticMatrix, SymplecticMatrix], ...]
    # g_i f_i^{-1} g_i^{-1} per handle, formed once for the commutators and
    # kept for handle_signatures; derived from `pairs`, so never compared
    _conjugates: Tuple[SymplecticMatrix, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.pairs) != self.g:
            raise ValueError("need one pair per base handle")
        for f, gg in self.pairs:
            if f.h != self.h or gg.h != self.h:
                raise ValueError("fibre genus mismatch")
        conjugates = tuple([gg @ f.inverse() @ gg.inverse() for f, gg in self.pairs])
        object.__setattr__(self, "_conjugates", conjugates)
        eye = _identity(2 * self.h)
        product = eye
        for k, ((f, _), conj) in enumerate(zip(self.pairs, conjugates)):
            c = (f @ conj).entries  # the commutator [f_k, g_k]
            product = _mat_mul(product, c) if k else c
        if product != eye:
            raise CommutatorRelationViolated(
                "commutators do not multiply to the identity",
                product=product,
            )

    @classmethod
    def from_matrices(cls, h: int, matrices: Sequence[Sequence[Sequence[int]]]) -> "MonodromyData":
        if len(matrices) % 2:
            raise ValueError("matrices must come in (f, g) pairs")
        sym = [SymplecticMatrix.from_matrix(m) for m in matrices]
        for s in sym:
            if s.h != h:
                raise ValueError("matrix size does not match fibre genus")
        pairs = tuple([(sym[2 * i], sym[2 * i + 1]) for i in range(len(sym) // 2)])
        return cls(h, len(pairs), pairs)


def wall_form_closed(f: SymplecticMatrix, g: SymplecticMatrix) -> RatSymForm:
    """S(f, g) = J (1 - g^{-1})(1 - f)^{-1}(g - f), requires det(1-f) != 0.

    X = (1 - f)^{-1}(g - f) solves (1 - f) X = g - f, so column k of X is
    y / s for the kernel vector (y, s e_k) of [(1 - f) | f - g].  1 - f is
    invertible exactly when `_integral_kernel` returns one such vector per
    column, each with s > 0 and 0 in the other columns' slots; S is then
    the integer product J (1 - g^{-1}) y over s, an exact Fraction.
    """
    if f.h != g.h:
        raise ValueError("genus mismatch")
    n = 2 * f.h
    eye = _identity(n)
    one_minus_f = _mat_sub(eye, f.entries)
    f_minus_g = _mat_sub(f.entries, g.entries)
    basis = _integral_kernel([a + b for a, b in zip(one_minus_f, f_minus_g)], 2 * n)
    if len(basis) != n or any(
        bool(u[n + j]) != (j == k) for k, u in enumerate(basis) for j in range(n)
    ):
        raise OneMinusFSingular("1 - f is singular over Q")
    j_one_minus_ginv = _j_times(_mat_sub(eye, g.inverse().entries))
    mat = tuple(
        [
            tuple([Fraction(sum(map(mul, row, u[:n])), u[n + k]) for k, u in enumerate(basis)])
            for row in j_one_minus_ginv
        ]
    )
    for i in range(n):
        for k in range(i + 1, n):
            if mat[i][k] != mat[k][i]:
                raise NotSymplectic("closed Wall form is not symmetric")
    return RatSymForm(n, mat)


def wall_form_general(
    f: SymplecticMatrix, g: SymplecticMatrix
) -> Tuple[IntSymForm, int]:
    """Wall pairing on ker[(1-f) | (1-g)] and its signature.

    Works with no hypothesis on 1 - f; the radical of the pairing (Wall's
    degeneracy quotient) contributes 0 to the signature.  The returned
    form is the integer Gram matrix of Psi((y,z),(y',z')) = phi(y + z,
    (1 - f) y') on the primitive integral kernel basis of
    `_integral_kernel`.  Each of its vectors is a positive multiple of the
    rational row-reduction kernel vector, so the form is D G D for a
    positive diagonal D and has the same signature as the rational Gram G.
    """
    if f.h != g.h:
        raise ValueError("genus mismatch")
    n = 2 * f.h
    eye = _identity(n)
    one_minus_f = _mat_sub(eye, f.entries)
    one_minus_g = _mat_sub(eye, g.entries)
    rows = [
        tuple(one_minus_f[i]) + tuple(one_minus_g[i]) for i in range(n)
    ]
    basis = _integral_kernel(rows, 2 * n)
    j_one_minus_f = _j_times(one_minus_f)
    xs = [list(map(add, u[:n], u[n:])) for u in basis]  # x = y + z
    jws = [_mat_vec(j_one_minus_f, u[:n]) for u in basis]  # J (1 - f) y'
    gram = [[sum(map(mul, x, jw)) for jw in jws] for x in xs]
    return _int_form_signature(gram, "Wall pairing is not symmetric on the kernel")


def _primitive(vec: Sequence[int]) -> Tuple[int, ...]:
    """vec divided by the gcd of its entries (sign kept)."""
    d = gcd(*vec)
    return tuple([x // d for x in vec]) if d > 1 else tuple(vec)


def _eliminate(
    rows: Sequence[Sequence[int]], ncols: int
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Fraction-free Gauss-Jordan form of an integer matrix, and its pivot columns.

    A row is cleared by pv * row - a * pivot_row and divided by its gcd, so
    every entry stays an int.  Row r of the result has its pivot at
    pivots[r] and 0 in the other pivot columns; the rows past the pivots
    are 0.  The pivots are the leftmost columns that are independent.
    """
    work = [tuple(row) for row in rows]
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r == len(work):
            break
        piv = next((k for k in range(r, len(work)) if work[k][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        pv = prow[col]
        for k, row in enumerate(work):
            a = row[col]
            if k != r and a:
                work[k] = _primitive([pv * x - a * y for x, y in zip(row, prow)])
        pivots.append(col)
        r += 1
    return work, pivots


def _integral_kernel(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer vectors spanning the rational kernel of an integer matrix.

    Back-substitution in the `_eliminate` form: the vector of a free column
    fc has a positive entry at fc and 0 at the other free columns, so it is
    a positive multiple of the rational RREF kernel vector.
    """
    work, pivots = _eliminate(rows, ncols)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        scale = lcm(*[abs(work[rr][pc]) for rr, pc in enumerate(pivots) if work[rr][fc]])
        vec = [0] * ncols
        vec[fc] = scale
        for rr, pc in enumerate(pivots):
            vec[pc] = -work[rr][fc] * scale // work[rr][pc]
        out.append(_primitive(vec))
    return out


def _int_form_signature(gram: Sequence[Sequence[int]], asymmetric: str) -> Tuple[IntSymForm, int]:
    """The integer Gram as an IntSymForm and its signature; NotSymplectic if asymmetric."""
    try:
        form = IntSymForm(len(gram), tuple([tuple(r) for r in gram]))
    except ValueError:
        raise NotSymplectic(asymmetric) from None
    return form, signature_exact(form)


def handle_signatures(m: MonodromyData) -> List[int]:
    """sigma of the Wall form of (f_i, g_i f_i^{-1} g_i^{-1}) per handle."""
    return [wall_form_general(f, conj)[1] for (f, _), conj in zip(m.pairs, m._conjugates)]


def _cup_gram(m: MonodromyData) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    """Primitive integral cocycles C spanning a complement of B^1, and the cup Gram on them.

    A 1-cocycle u is its values u_x on the 2g generators; on an inverse
    letter u(x^{-1}) = -x^{-1} u_x.  With prefix products P_k of the relator
    prod [f_i, g_i], letter k contributes the block B_k = P_k * (its value
    map) in the columns of its generator, the cocycle condition is
    sum_k B_k u = 0, and the cup pairing paired through phi is
    c(u, v) = sum_{k >= 1} phi(U_{k-1} u, B_k v) + sum_i phi(u_i, v_i),
    where U_{k-1} = sum_{t < k} B_t.

    The coboundary of w is u_x = (x - 1) w: B^1 is the image of D, whose
    row (i, a) is row a of x_i - 1.  The pivot columns S of D^T index rows
    of D that span its row space, so u -> u_S maps B^1 onto Q^S one to one
    and Z^1 = {u in Z^1 : u_S = 0} (+) B^1.  Coboundaries pair to zero with
    every cocycle, so the Gram on the cocycles that vanish on S has the
    signature of the form on H^1.  G, U and the relator kernel are built on
    the kept coordinates only; C is returned in all 2g * 2h coordinates,
    with 0 on S.
    """
    n = 2 * m.h
    j = standard_j(m.h)
    mats = [mat.entries for pair in m.pairs for mat in pair]
    invs = [_symplectic_inverse(mm) for mm in mats]
    letters: List[Tuple[int, int]] = []
    for i in range(m.g):
        letters += [(2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1)]
    big = n * len(mats)
    coboundary_t = [[mm[a][b] - (a == b) for mm in mats for a in range(n)] for b in range(n)]
    dropped = set(_eliminate(coboundary_t, big)[1])
    keep = [c for c in range(big) if c not in dropped]
    # per generator: (position in keep, row of the generator's block)
    slots = [
        [(k, c - gi * n) for k, c in enumerate(keep) if c // n == gi] for gi in range(len(mats))
    ]

    accum = [[0] * len(keep) for _ in range(n)]  # U_{k-1}; the relator at the end
    gram = [[0] * len(keep) for _ in keep]
    prefix = _identity(n)
    for gi, sign in letters:
        if sign == 1:
            blk = prefix
            prefix = _mat_mul(prefix, mats[gi])
        else:
            blk = _negate(_mat_mul(prefix, invs[gi]))
            prefix = _negate(blk)  # P x^{-1} = -B_k
        jbt = _transpose(_j_times(blk))
        cols = [(k, jbt[a]) for k, a in slots[gi]]
        for row, acol in zip(gram, zip(*accum)):  # G += U_{k-1}^T J B_k
            if any(acol):
                for k, jbc in cols:
                    row[k] += sum(map(mul, acol, jbc))
        for t in range(n):
            arow, brow = accum[t], blk[t]
            for k, a in slots[gi]:
                arow[k] += brow[a]
    for block in slots:  # phi(u_i, v_i) for each generator
        for k, a in block:
            for k2, b in block:
                gram[k][k2] += j[a][b]

    cocycles = _integral_kernel(accum, len(keep))
    gct = [[sum(map(mul, row, c)) for row in gram] for c in cocycles]  # (G C^T)^T
    full = []
    for c in cocycles:
        vec = [0] * big
        for col, x in zip(keep, c):
            vec[col] = x
        full.append(tuple(vec))
    return full, [[sum(map(mul, c, w)) for w in gct] for c in cocycles]


def local_system_signature(m: MonodromyData) -> int:
    """Signature of the twisted intersection form on H^1(base; Z^{2h}).

    The cup product of two cocycles paired through the fibre's symplectic
    form descends to a symmetric bilinear form on H^1, and its signature is
    the signature of the local coefficient system.  Coboundaries pair to
    zero, so the form is evaluated on the cocycles that vanish on the
    coboundary pivots S, a complement of B^1 in Z^1, as the integer Gram
    matrix of `_cup_gram` on a primitive integral basis.
    """
    _, gram = _cup_gram(m)
    return _int_form_signature(gram, "cup pairing is not symmetric on cocycles")[1]


def z4_trivial_check(m: MonodromyData) -> bool:
    """True iff every f_i, g_i is congruent to the identity mod 4."""
    return all(
        f.is_identity_mod(4) and g.is_identity_mod(4) for f, g in m.pairs
    )


def z2_trivial_check(m: MonodromyData) -> bool:
    """True iff every f_i, g_i is congruent to the identity mod 2."""
    return all(
        f.is_identity_mod(2) and g.is_identity_mod(2) for f, g in m.pairs
    )


@dataclass(frozen=True)
class BundleReport:
    """Per-handle Wall signatures plus the local-system signature."""

    handle_signatures: Tuple[int, ...]
    handle_sum: int
    total: int
    z2_trivial: bool
    z4_trivial: bool


def bundle_report(m: MonodromyData) -> BundleReport:
    sigs = tuple(handle_signatures(m))
    return BundleReport(
        handle_signatures=sigs,
        handle_sum=sum(sigs),
        total=local_system_signature(m),
        z2_trivial=z2_trivial_check(m),
        z4_trivial=z4_trivial_check(m),
    )


def random_transvection_word(h: int, max_len: int, rng, doubled: bool = False) -> SymplecticMatrix:
    """Product of 1..max_len transvections along random small vectors.

    With doubled=True every twisting vector is doubled, so the word lies in
    the level-4 congruence subgroup (each factor is I mod 4).
    """
    n = 2 * h
    rows = [list(row) for row in _identity(n)]
    length = rng.randint(1, max_len)
    for _ in range(length):
        c = [rng.randint(-1, 1) for _ in range(n)]
        if not any(c):
            c[rng.randrange(n)] = 1
        if doubled:
            c = [2 * x for x in c]
        jc = c[h:] + [-x for x in c[:h]]  # J c, as in _j_times
        # W T = W (I + (J c) c^T) = W + (W J c) c^T: a rank-one update
        for k, row in enumerate(rows):
            u = sum(map(mul, row, jc))
            if u:
                rows[k] = [x + u * y for x, y in zip(row, c)]
    # each factor is symplectic since c^T J c = 0, so the word is too
    return SymplecticMatrix._trusted(h, tuple([tuple(row) for row in rows]))


def random_monodromy(h: int, rng, max_len: int = 6, doubled: bool = False) -> MonodromyData:
    """Genus-2 monodromy (f, g, g, f): the commutator relation holds for free."""
    f = random_transvection_word(h, max_len, rng, doubled)
    g = random_transvection_word(h, max_len, rng, doubled)
    return MonodromyData(h, 2, ((f, g), (g, f)))
