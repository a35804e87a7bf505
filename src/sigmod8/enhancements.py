"""Quadratic enhancements of Z2 forms and their Witt invariants.

A Z2-valued enhancement h refines lambda by h(x+y) = h(x)+h(y)+lambda(x,y)
and exists iff the form is isotropic; its Witt invariant is the Arf
invariant.  A Z4-valued enhancement q refines lambda by
q(x+y) = q(x)+q(y)+2*lambda(x,y) and always exists; its Witt invariant is
the Z8-valued Brown-Kervaire invariant, computed here two independent ways:

* bk_gauss: the exact Gauss sum  sum_x i^q(x) = sqrt(2)^dim e^(2 pi i BK/8),
  accumulated in Gaussian integers by kernels.gauss_counts, which counts
  q over all of Z2^dim meeting in the middle: O(dim 2^(dim/2)) work;
* bk_classify: splitting q into standard pieces q00, q22, P1, P-1 and
  reading off 4n + p_plus - p_minus.

The bridge between the two theories is the Wu sublagrangian L = <v>: when
q(v) = 0 in Z4 the subquotient (L_perp/L, [lambda], [q]/2) carries a
Z2-enhancement whose Arf invariant satisfies BK = 4*Arf.  wu_sublagrangian
and isotropic_subquotient share the check that q(v) = 0.

Work that depends only on the form is done once per form.  For dim <= 6
(ENUMERATION_DIM_LIMIT, the range enumerate_nonsingular_forms is meant
for) bk_gauss looks q up in a per-form table of all 2^dim BK values,
indexed like enumerate_z4_enhancements.  The table comes from one
Walsh-Hadamard transform of i^q0 (kernels.gauss_sums), uses nothing but
the definition of the Gauss sum (not the difference-vector identity), and
every entry is matched exactly; larger forms are counted one enhancement
at a time.  The representatives of L_perp/L and the Gram form of the
subquotient are kept per form by z2forms.small_form_cache, like the one
splitting that gives is_nonsingular, wu_class and split_vectors: equal
forms of dim <= 6 share an lru_cache entry, and a larger form keeps its
values on the instance.

The selfcheck suites compare the two routes over every enhancement of
many forms at once, so both routes also come as batched tables over a
stack of forms of one dim, one (forms, 2^dim) uint8 array each, row f
indexed like enumerate_z4_enhancements of form f:

* _bk_gauss_tables: one stack of q0 tables, one transform along its rows
  (kernels.gauss_sums on a stack) and one exact match against the eighth
  roots; _bk_gauss_table is its one-form case, cached for bk_gauss.
* _bk_classify_tables (4n + p_plus - p_minus of each enhancement) and
  _arf_tables (Arf of each Z2 enhancement of an isotropic form).
  Enhancement d differs from enhancement 0 by 2*(d . x), so both evaluate
  enhancement 0 (q0(e_i) = lambda(e_i, e_i)) once on each split vector s
  and flip bit 1 of the value by the parity of d . s; the flips of all
  split vectors, packed into one mask per d, are built by doubling
  (_flip_coordinates).  They start from _split_arrays, the split vectors
  of each form from one _splitting lookup, and read nothing from the
  Gauss route.
* _subquotient_indices: for each enhancement with q(v) = 0, the index of
  its subquotient values in the Arf table of W = L_perp/L, and W's Gram
  rows, from the closed-form representatives of _subquotient_basis.

The batched tables are not cached: every selfcheck run computes both
routes afresh.  Enumeration validates the form once and builds its
enhancements without re-running the constructors' checks; enhancements
built directly are always validated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import kernels
from .errors import (
    AnisotropicInput,
    DimTooLarge,
    FormMismatch,
    NoGaussMatch,
    NotDivisibleBy4,
    NotLinearDifference,
    SingularForm,
)
from .z2forms import (
    ENUMERATION_DIM_LIMIT,
    FORM_CACHE_SIZE,
    H_FORM,
    P_FORM,
    Z2SymForm,
    Z2Subspace,
    Z2Vec,
    _apply,
    _parity,
    _restrict,
    _splitting,
    is_nonsingular,
    small_form_cache,
    solve,
    split_vectors,
    wu_class,
)

__all__ = [
    "Z2Quadratic",
    "Z4Quadratic",
    "arf",
    "bk_gauss",
    "bk_classify",
    "double",
    "difference_vector",
    "wu_sublagrangian",
    "isotropic_subquotient",
    "p1",
    "pm1",
    "q00",
    "q22",
    "h00",
    "h11",
    "enumerate_z2_enhancements",
    "enumerate_z4_enhancements",
]

GAUSS_DIM_LIMIT = 24
TABLE_CHECK_LIMIT = 10


class _Enhancement:
    """Evaluation shared by Z2Quadratic and Z4Quadratic.

    For x the sum of the e_i in its mask, the value is the sum of the
    values[i] plus CROSS times the number of pairs i < j in x with
    lambda(e_i, e_j) = 1, modulo MASK + 1: (CROSS, MASK) is (1, 1) over Z2
    and (2, 3) over Z4.
    """

    @classmethod
    def _trusted(cls, form: Z2SymForm, values: Tuple[int, ...]):
        """An enhancement whose values the caller built valid for the form.

        Skips __post_init__; for enumeration, which validates the form once.
        """
        q = object.__new__(cls)
        object.__setattr__(q, "form", form)
        object.__setattr__(q, "values", values)
        return q

    @property
    def dim(self) -> int:
        return self.form.dim

    def evaluate_mask(self, x: int) -> int:
        acc = cross = 0
        rows, values = self.form.rows, self.values
        m = x
        while m:
            low = m & -m
            i = low.bit_length() - 1
            acc += values[i]
            cross += (rows[i] & x & (low - 1)).bit_count()
            m ^= low
        return (acc + self.CROSS * cross) & self.MASK

    def evaluate(self, x: Z2Vec) -> int:
        if x.dim != self.dim:
            raise ValueError("dimension mismatch")
        return self.evaluate_mask(x.mask)

    def direct_sum(self, other):
        """The enhancement of the same type on the orthogonal sum of the forms."""
        return type(self)(self.form.direct_sum(other.form), self.values + other.values)


@dataclass(frozen=True)
class Z2Quadratic(_Enhancement):
    """Z2-valued quadratic enhancement, stored by its values on the basis."""

    CROSS = 1
    MASK = 1

    form: Z2SymForm
    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.form.dim:
            raise ValueError("need one value per basis vector")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must lie in Z2")
        if not self.form.is_isotropic():
            raise AnisotropicInput("Z2 enhancements require an isotropic form")


@dataclass(frozen=True)
class Z4Quadratic(_Enhancement):
    """Z4-valued quadratic enhancement, stored by its values on the basis.

    The mod-2 reduction of q(e_i) must equal lambda(e_i, e_i).
    """

    CROSS = 2
    MASK = 3

    form: Z2SymForm
    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.form.dim:
            raise ValueError("need one value per basis vector")
        diag = self.form.diagonal_mask()
        for i, v in enumerate(self.values):
            if v not in (0, 1, 2, 3):
                raise ValueError("values must lie in Z4")
            if (v & 1) != ((diag >> i) & 1):
                raise ValueError(
                    f"q(e_{i}) = {v} has wrong parity for lambda(e_{i}, e_{i})"
                )

    @classmethod
    def from_table(cls, form: Z2SymForm, table: Sequence[int]) -> "Z4Quadratic":
        """Build from a full value table over Z2^dim, validating quadraticity.

        The table is indexed by the bit mask of the vector.  Only available
        up to dim 10; beyond that the exhaustive check is refused.
        """
        if form.dim > TABLE_CHECK_LIMIT:
            raise DimTooLarge("table validation is exhaustive; dim must be <= 10")
        if len(table) != 1 << form.dim:
            raise ValueError("table must have one entry per vector")
        if table[0] % 4 != 0:
            raise NotLinearDifference("q(0) must be 0")
        q = cls(form, tuple(table[1 << i] % 4 for i in range(form.dim)))
        for x in range(1 << form.dim):
            if q.evaluate_mask(x) != table[x] % 4:
                raise NotLinearDifference(
                    f"table is not quadratic over the form at x = {x:#b}"
                )
        return q

    def negate(self) -> "Z4Quadratic":
        """-q, an enhancement of the same form (over Z2, -lambda = lambda)."""
        return Z4Quadratic(self.form, tuple((-v) % 4 for v in self.values))


def p1() -> Z4Quadratic:
    return Z4Quadratic(P_FORM, (1,))


def pm1() -> Z4Quadratic:
    return Z4Quadratic(P_FORM, (3,))


def q00() -> Z4Quadratic:
    return Z4Quadratic(H_FORM, (0, 0))


def q22() -> Z4Quadratic:
    return Z4Quadratic(H_FORM, (2, 2))


def h00() -> Z2Quadratic:
    return Z2Quadratic(H_FORM, (0, 0))


def h11() -> Z2Quadratic:
    return Z2Quadratic(H_FORM, (1, 1))


def arf(h: Z2Quadratic) -> int:
    """Arf invariant: sum of h(e_j) h(f_j) over a symplectic basis."""
    form = h.form
    if not is_nonsingular(form):
        raise SingularForm("arf requires a nonsingular form")
    aniso, pairs = split_vectors(form)
    if aniso:  # unreachable: the constructor enforces isotropy
        raise AnisotropicInput("arf requires an isotropic form")
    total = 0
    for e, f in pairs:
        total ^= h.evaluate_mask(e) & h.evaluate_mask(f)
    return total


def _eighth_roots(dim: int) -> Dict[Tuple[int, int], int]:
    """{(re, im): k} for the eight values sqrt(2)^dim e^(2 pi i k/8)."""
    if dim % 2 == 0:
        mag = 1 << (dim // 2)
        return {(mag, 0): 0, (0, mag): 2, (-mag, 0): 4, (0, -mag): 6}
    mag = 1 << ((dim - 1) // 2)
    return {(mag, mag): 1, (-mag, mag): 3, (-mag, -mag): 5, (mag, -mag): 7}


def _no_gauss_match(dim: int, re: int, im: int) -> NoGaussMatch:
    return NoGaussMatch(f"Gauss sum {re}{im:+d}i does not match any eighth root at dim {dim}")


def _match_gauss(dim: int, re: int, im: int) -> int:
    """The unique k in Z8 with re + im*i = sqrt(2)^dim e^(2 pi i k/8)."""
    k = _eighth_roots(dim).get((re, im))
    if k is None:
        raise _no_gauss_match(dim, re, im)
    return k


def bk_gauss(q: Z4Quadratic) -> int:
    """Brown-Kervaire invariant via the exact Gauss sum sum_x i^q(x)."""
    form = q.form
    if form.dim > GAUSS_DIM_LIMIT:
        raise DimTooLarge(f"Gauss enumeration limited to dim <= {GAUSS_DIM_LIMIT}")
    if not is_nonsingular(form):
        raise SingularForm("bk_gauss requires a nonsingular form")
    if form.dim <= ENUMERATION_DIM_LIMIT:
        d = sum((v >> 1) << i for i, v in enumerate(q.values))
        return _bk_gauss_table(form)[d]
    c0, c1, c2, c3 = kernels.gauss_counts(form.dim, q.values, form.rows)
    return _match_gauss(form.dim, c0 - c2, c1 - c3)


@lru_cache(maxsize=FORM_CACHE_SIZE)
def _bk_gauss_table(form: Z2SymForm) -> bytes:
    """BK of every enhancement of the form, indexed like enumerate_z4_enhancements.

    Entry d belongs to the enhancement with values diag_i + 2*d_i, whose
    Gauss sum is entry d of the transform of i^q0, q0 having values diag_i.
    The one-form case of _bk_gauss_tables.
    """
    import numpy as np
    return _bk_gauss_tables(np.array(form.rows, dtype=np.uint32)).tobytes()


def _bk_of_sums(dim: int, re, im):
    """The k in Z8 of each Gauss sum re + im*i = sqrt(2)^dim e^(2 pi i k/8).

    An exact match of integer arrays of any shape against the four roots
    the dim allows, by one lookup: a sum of 2^dim units has |re|, |im| <=
    2^dim, and the table over that square holds k at the roots and 8
    elsewhere.  Returns uint8 of the same shape; NoGaussMatch names the
    first sum that is no root.
    """
    import numpy as np
    side = 2 * (1 << dim) + 1
    lookup = np.full(side * side, 8, dtype=np.uint8)
    for (r, i), k in _eighth_roots(dim).items():
        lookup[(r + (1 << dim)) * side + i + (1 << dim)] = k
    bk = lookup[(re + (1 << dim)) * side + im + (1 << dim)]
    bad = bk.tobytes().find(8)
    if bad >= 0:
        raise _no_gauss_match(dim, int(re.flat[bad]), int(im.flat[bad]))
    return bk


def _bk_gauss_tables(rows):
    """_bk_gauss_table of each form of a stack, given by its Gram rows (..., dim).

    One stack of q0 tables, one transform along its rows and one exact
    match: a (..., 2^dim) uint8 array.
    """
    dim = rows.shape[-1]
    return _bk_of_sums(dim, *kernels.gauss_sums(dim, _diagonal(rows), rows))


def bk_classify(q: Z4Quadratic) -> Tuple[int, int, int, int]:
    """Multiplicities (m, n, p_plus, p_minus) of q00, q22, P1, P-1.

    Splits off the lowest-index anisotropic basis vector first, then
    hyperbolic pairs; the decomposition is non-unique but the residue
    4n + p_plus - p_minus mod 8 is the Brown-Kervaire invariant.
    """
    form = q.form
    if not is_nonsingular(form):
        raise SingularForm("bk_classify requires a nonsingular form")
    aniso, pairs = split_vectors(form)
    p_plus = sum(1 for v in aniso if q.evaluate_mask(v) == 1)
    p_minus = len(aniso) - p_plus
    n = sum(1 for e, f in pairs if q.evaluate_mask(e) == 2 and q.evaluate_mask(f) == 2)
    m = len(pairs) - n
    return m, n, p_plus, p_minus


def double(h: Z2Quadratic) -> Z4Quadratic:
    """q = 2h; satisfies BK(2h) = 4*Arf(h) in Z8."""
    # h's form is isotropic, so the even values 2h(e_i) have the right parity
    return Z4Quadratic._trusted(h.form, tuple(2 * v for v in h.values))


def difference_vector(q: Z4Quadratic, qprime: Z4Quadratic) -> Tuple[Z2Vec, int]:
    """The unique t with q'(x) - q(x) = 2*lambda(x, t), plus the check value.

    Returns (t, delta) where delta = 2*q(t) in Z8 satisfies
    BK(q) - BK(q') = delta.
    """
    if q.form != qprime.form:
        raise FormMismatch("enhancements live on different forms")
    form = q.form
    if not is_nonsingular(form):
        raise SingularForm("difference_vector requires a nonsingular form")
    rhs = 0
    for i in range(form.dim):
        d = (qprime.values[i] - q.values[i]) % 4
        if d & 1:
            raise NotLinearDifference("difference of the tables is not even")
        rhs |= (d >> 1) << i
    t = solve(form.rows, form.dim, rhs)
    delta = (2 * q.evaluate_mask(t)) % 8
    return Z2Vec(form.dim, t), delta


def _isotropic_wu_class(q: Z4Quadratic) -> Z2Vec:
    """The Wu class v of q's form; NotDivisibleBy4 unless q(v) = 0 in Z4."""
    v = wu_class(q.form)
    qv = q.evaluate(v)
    if qv != 0:
        raise NotDivisibleBy4(f"q(v) = {qv} in Z4; BK is not divisible by 4")
    return v


def wu_sublagrangian(q: Z4Quadratic) -> Z2Subspace:
    """L = <v> for the Wu class v; defined iff q(v) = 0 in Z4."""
    return Z2Subspace(q.dim, (_isotropic_wu_class(q).mask,))


def isotropic_subquotient(q: Z4Quadratic) -> Z2Quadratic:
    """(W, mu, h) = (L_perp/L, [lambda], [q]/2) with L the Wu sublagrangian.

    Requires q(v) = 0 in Z4; then BK(q) = 4*Arf of the result.
    """
    _isotropic_wu_class(q)
    reps, w_form = _subquotient_basis(q.form)
    values = []
    for b in reps:
        qb = q.evaluate_mask(b)
        if qb & 1:
            raise SingularForm("representative is not isotropic")
        values.append((qb >> 1) & 1)
    return Z2Quadratic(w_form, tuple(values))


@small_form_cache
def _subquotient_basis(form: Z2SymForm) -> Tuple[Tuple[int, ...], Z2SymForm]:
    """Representatives of L_perp/L for L = <v>, and the Gram form of L_perp/L.

    With phi = lambda(., v) nonzero and e_h its highest set bit, the
    vectors e_i + phi_i e_h (i != h) are the reduced echelon basis of
    L_perp = ker phi, pivots at their lowest set bits.  v is the sum of the
    rows at its bits, so dropping the row at its lowest bit leaves
    representatives of L_perp/L.  When v = 0 every e_i is one.  Raises
    SingularForm when lambda(v, v) = 1, so callers check q(v) first.
    """
    v = wu_class(form).mask
    phi = _apply(form.rows, v)
    if _parity(phi & v):
        raise SingularForm("Wu class does not lie in its own perpendicular")
    reps = [1 << i for i in range(form.dim)]
    if phi:
        top = 1 << (phi.bit_length() - 1)
        reps = [b | (top if phi & b else 0) for b in reps if b != top and b != v & -v]
    return tuple(reps), Z2SymForm(len(reps), tuple(_restrict(form.rows, reps)))


def _q0(form: Z2SymForm) -> Z4Quadratic:
    """Enhancement 0 of enumerate_z4_enhancements: q0(e_i) = lambda(e_i, e_i)."""
    diag = form.diagonal_mask()
    return Z4Quadratic._trusted(form, tuple([(diag >> i) & 1 for i in range(form.dim)]))


def enumerate_z4_enhancements(form: Z2SymForm) -> Iterator[Z4Quadratic]:
    """All 2^dim quadratic enhancements q with jq = diagonal of the form.

    Enhancement d has values diag_i + 2*d_i, valid by construction.
    """
    base = _q0(form).values
    for bits in range(1 << form.dim):
        vals = tuple(base[i] + 2 * ((bits >> i) & 1) for i in range(form.dim))
        yield Z4Quadratic._trusted(form, vals)


def enumerate_z2_enhancements(form: Z2SymForm) -> Iterator[Z2Quadratic]:
    """All 2^dim Z2-enhancements of an isotropic form; enhancement b has values b_i."""
    if not form.is_isotropic():
        raise AnisotropicInput("Z2 enhancements require an isotropic form")
    for bits in range(1 << form.dim):
        vals = tuple((bits >> i) & 1 for i in range(form.dim))
        yield Z2Quadratic._trusted(form, vals)


def _diagonal(rows):
    """lambda(e_i, e_i) of each form of a stack of Gram rows (..., dim)."""
    import numpy as np
    return (rows >> np.arange(rows.shape[-1], dtype=np.uint32)) & 1


def _apply_rows(rows, vectors):
    """lambda(., s) as a mask, for each vector s on the form of its row.

    rows is (forms, dim), vectors (forms, k) of bit masks, as in _apply.
    """
    out = vectors & 0
    for i in range(rows.shape[1]):
        out ^= ((vectors >> i) & 1) * rows[:, i, None]
    return out


def _q0_at(rows, vectors):
    """q0(s) = s^T lambda s mod 4 at each vector s, on the form of its row.

    rows is (forms, dim), vectors (forms, k) of bit masks.  Enhancement 0
    has q0(e_i) = lambda(e_i, e_i), so q0(s) is the integer sum of lambda_ij
    over i, j in s (the diagonal once, each pair i < j twice): the sum over
    i in s of the popcount of row_i & s.
    """
    import numpy as np
    total = vectors & 0
    for i in range(rows.shape[1]):
        total += ((vectors >> i) & 1) * np.bitwise_count(vectors & rows[:, i, None])
    return total & 3


def _pack(bits):
    """The masks whose bit k is bits[..., k] (0 or 1), as uint32."""
    import numpy as np
    return bits.astype(np.uint32) @ (np.uint32(1) << np.arange(bits.shape[-1], dtype=np.uint32))


def _flip_coordinates(dim: int, vectors):
    """For every d in Z2^dim, the mask whose bit k is d . vectors[k], per form.

    vectors is (forms, k), k <= 32; the result is (forms, 2^dim) uint32.
    Built by doubling over the coordinates of d: the coset +e_i flips the
    bits of the vectors whose coordinate i is 1.
    """
    import numpy as np
    coords = np.zeros((len(vectors), 1 << dim), dtype=np.uint32)
    for i in range(dim):
        column = _pack((vectors >> i) & 1)  # bit k: coordinate i of vectors[k]
        np.bitwise_xor(coords[:, :1 << i], column[:, None], out=coords[:, 1 << i:2 << i])
    return coords


def _high_bits(rows, vectors):
    """For every enhancement d, the mask whose bit k is bit 1 of q_d(vectors[k]).

    q_d(s) = q0(s) + 2 (d . s), and adding 2 in Z4 flips bit 1, so it is
    bit 1 of q0(s) flipped by d . s: q0 is evaluated once per vector.
    """
    start = _pack(_q0_at(rows, vectors) >> 1)
    return _flip_coordinates(rows.shape[1], vectors) ^ start[:, None]


def _pair_counts(high, at: int):
    """Per entry of `high`, the pairs of bits (at + 2i, at + 2i + 1) that are both set."""
    import numpy as np
    return np.bitwise_count((high >> at) & (high >> (at + 1)) & 0x55555555)


class _SplitArrays(NamedTuple):
    """The splittings of a stack of forms of one dim, as uint32 arrays.

    A zero vector has q_d = 0 for every d, so the zero padding adds nothing
    to the counts of the tables.
    """

    rows: Any  # (forms, dim) Gram rows
    lines: Any  # (forms, dim) the anisotropic lines, then zeros
    pairs: Any  # (forms, dim) the hyperbolic pairs as e_1, f_1, e_2, f_2, ..., then zeros
    counts: Any  # (forms,) the number of lines
    wu: Any  # (forms, 1) the Wu class, the sum of the lines


def _split_arrays(dim: int, forms: Sequence[Z2SymForm]) -> _SplitArrays:
    """The rows, split vectors and Wu class of each form, from one _splitting lookup.

    Only for the dims enumeration covers, where a table of every
    enhancement is meant.
    """
    import numpy as np
    if dim > ENUMERATION_DIM_LIMIT:
        raise DimTooLarge(f"enhancement tables need dim <= {ENUMERATION_DIM_LIMIT}")
    rows: List[int] = []
    lines: List[int] = []
    pairs: List[int] = []
    counts: List[int] = []
    wu: List[int] = []
    zeros = (0,) * dim
    for form in forms:
        split = _splitting(form)
        if split is None:
            raise SingularForm("the tables require nonsingular forms")
        (aniso, hyperbolic), v = split
        p = len(aniso)
        rows += form.rows
        counts.append(p)
        wu.append(v.mask)
        lines += aniso
        lines += zeros[p:]
        for pair in hyperbolic:
            pairs += pair
        pairs += zeros[dim - p:]
    shape = (len(forms), dim)
    return _SplitArrays(
        *[np.array(a, dtype=np.uint32).reshape(shape) for a in (rows, lines, pairs)],
        np.array(counts, dtype=np.uint8),
        np.array(wu, dtype=np.uint32).reshape(len(forms), 1),
    )


def _bk_classify_tables(split: _SplitArrays):
    """4n + p_plus - p_minus mod 8 of every enhancement of each form of a stack.

    The residue bk_classify reads off split_vectors, one (forms, 2^dim)
    uint8 array indexed like _bk_gauss_tables.  A line s counts in p_minus
    when q_d(s) = 3, its bit 1 set, and p_plus = p - p_minus; a pair counts
    in n when q_d(e) = q_d(f) = 2.  Not cached.
    """
    import numpy as np
    dim = split.rows.shape[1]
    high = _high_bits(split.rows, np.concatenate([split.lines, split.pairs], axis=1))
    minus = np.bitwise_count(high & ((1 << dim) - 1))
    return (4 * _pair_counts(high, dim) + split.counts[:, None] - 2 * minus) & 7


def _arf_tables(split: _SplitArrays):
    """Arf invariant of every Z2 enhancement of each form of a stack of isotropic forms.

    Row b is indexed like enumerate_z2_enhancements, whose enhancement 0 is
    h = 0.  On an isotropic form q0 = 2 h0 (q0(s) = 2 * #{i < j in s :
    lambda_ij = 1}), so h_b(s) = bit 1 of q_b(s), and the Arf invariant,
    the sum of h_b(e) h_b(f) over the pairs, is the pair count mod 2.
    Not cached.
    """
    if _diagonal(split.rows).any():
        raise AnisotropicInput("Z2 enhancements require an isotropic form")
    return _pair_counts(_high_bits(split.rows, split.pairs), 0) & 1


def _subquotient_indices(split: _SplitArrays):
    """Where isotropic_subquotient puts each enhancement, for _arf_tables lookups.

    Returns three arrays over the forms of the stack: the dim of W = L_perp/L
    (-1 when no enhancement has q_d(v) = 0), the Gram rows of W (zero
    padded to dim), and, for each enhancement d, the index of the
    subquotient values q_d(b_j)/2 in the Arf table of W, or -1 when
    q_d(v) != 0.  The representatives b_j are those of _subquotient_basis,
    zero padded: a zero vector adds no bit to an index.  Not cached.
    """
    import numpy as np
    rows, wu = split.rows, split.wu
    count, dim = rows.shape
    at = np.arange(dim, dtype=np.uint32)
    qv = _q0_at(rows, wu)
    phi = _apply_rows(rows, wu)
    smear = phi | phi >> 1  # every bit below the highest of phi (dim <= 6 bits)
    smear |= smear >> 2
    smear |= smear >> 4
    top = np.bitwise_count(smear) - 1  # the highest set bit of phi
    low = np.bitwise_count((wu & -wu) - 1)  # the lowest set bit of v
    # the reduced echelon basis of L_perp, less the rows at top and low; when
    # v = 0, every e_i (nothing is dropped)
    reps = (1 << at) | ((phi >> at) & 1) << top
    first = np.where(phi == 0, dim, np.minimum(top, low))
    second = np.where(phi == 0, dim, np.maximum(top, low))
    shifted = np.concatenate([reps, np.zeros((count, 2), dtype=np.uint32)], axis=1)
    reps = np.where(
        at < first,
        reps,
        np.where(at + 1 < second, shifted[:, 1:dim + 1], shifted[:, 2:dim + 2]),
    )
    odd = (qv & 1)[:, 0] == 1  # then q_d(v) = q0(v) + 2(d . v) is odd for every d
    reps = np.where(odd[:, None], 0, reps)
    w_dims = np.where(odd, -1, np.where(phi[:, 0] == 0, dim, dim - 2))
    w_rows = _pack(np.bitwise_count(reps[:, :, None] & _apply_rows(rows, reps)[:, None, :]) & 1)
    q_reps = _q0_at(rows, reps)
    if (q_reps & 1).any():
        raise SingularForm("representative is not isotropic")
    h0 = _pack(q_reps >> 1)  # the values of q0 on W, as a mask
    # bit j flips q_d(b_j) by 2, bit dim flips q_d(v) by 2
    flips = _flip_coordinates(dim, np.concatenate([reps, wu], axis=1))
    isotropic = (flips >> dim == qv >> 1) & ~odd[:, None]
    index = (flips & ((1 << dim) - 1)) ^ h0[:, None]
    return w_dims, w_rows, np.where(isotropic, index.astype(np.int64), -1)
