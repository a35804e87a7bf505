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
and isotropic_subquotient share the check that q(v) = 0.  v is the sum of
the splitting's lines, so a symplectic basis of L_perp/L is read off the
splitting in closed form (isotropic_subquotient), with no Gram of the
subquotient and no second splitting.

The splitting behind is_nonsingular, wu_class and split_vectors is kept
on the form instance (Z2SymForm._split), so bk_gauss, bk_classify, arf
and isotropic_subquotient on one form read one pass; equal forms share
nothing.

The selfcheck suites compare the two routes over every enhancement of
many forms at once, so both routes also come as batched tables over a
stack of forms of one dim, one (forms, 2^dim) uint8 array each, row f
indexed like enumerate_z4_enhancements of form f:

* _bk_gauss_tables: one stack of q0 tables, one transform and one exact
  match against the eighth roots, 2^dim axis first, then a transpose.
* _values: q_d of every enhancement d on each of a stack's vectors, one
  bit column per vector, read by range: _bk_classify_tables (off the
  lines and pairs of _split_rows, the splittings of the whole stack),
  _zero_at (where q_d(v) = 0) and _arf_tables (off symplectic pairs,
  such as W's from _subquotient_pairs).  None reads the Gauss route.

The batched tables take uint32 stacks of Gram rows, no form objects, and
are not cached.  Enumeration validates the form once and builds its
enhancements without re-running the constructors' checks; enhancements
built directly are always validated.
"""
from __future__ import annotations

from typing import Any, Dict, Iterator, NamedTuple, Sequence, Tuple

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
from .record import Record
from .z2forms import (
    ENUMERATION_DIM_LIMIT,
    H_FORM,
    P_FORM,
    Z2SymForm,
    Z2Subspace,
    Z2Vec,
    is_nonsingular,
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


class _Enhancement(Record):
    """Evaluation shared by Z2Quadratic and Z4Quadratic.

    For x the sum of the e_i in its mask, the value is the sum of the
    values[i] plus CROSS times the number of pairs i < j in x with
    lambda(e_i, e_j) = 1, modulo MASK + 1: (CROSS, MASK) is (1, 1) over Z2
    and (2, 3) over Z4.
    """

    form: Z2SymForm
    values: Tuple[int, ...]

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


class Z2Quadratic(_Enhancement):
    """Z2-valued quadratic enhancement, stored by its values on the basis."""

    CROSS = 1
    MASK = 1

    def _validate(self):
        if len(self.values) != self.form.dim:
            raise ValueError("need one value per basis vector")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must lie in Z2")
        if not self.form.is_isotropic():
            raise AnisotropicInput("Z2 enhancements require an isotropic form")


class Z4Quadratic(_Enhancement):
    """Z4-valued quadratic enhancement, stored by its values on the basis.

    The mod-2 reduction of q(e_i) must equal lambda(e_i, e_i).
    """

    CROSS = 2
    MASK = 3

    def _validate(self):
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
        q = cls(form, tuple([table[1 << i] % 4 for i in range(form.dim)]))
        for x in range(1 << form.dim):
            if q.evaluate_mask(x) != table[x] % 4:
                raise NotLinearDifference(
                    f"table is not quadratic over the form at x = {x:#b}"
                )
        return q

    def negate(self) -> "Z4Quadratic":
        """-q, an enhancement of the same form (over Z2, -lambda = lambda)."""
        return Z4Quadratic(self.form, tuple([(-v) % 4 for v in self.values]))


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
    c0, c1, c2, c3 = kernels.gauss_counts(form.dim, q.values, form.rows)
    return _match_gauss(form.dim, c0 - c2, c1 - c3)


def _bk_of_sums(dim: int, re, im):
    """The k in Z8 of each Gauss sum re + im*i = sqrt(2)^dim e^(2 pi i k/8).

    An exact match of integer arrays of any shape against the four roots
    the dim allows, by one lookup: a sum of 2^dim units has |re|, |im| <=
    2^dim, and the table over that square holds k at the roots and 8
    elsewhere, indexed in int16 up to dim 6.
    Returns uint8 of the same shape; NoGaussMatch names the first sum
    that is no root.
    """
    import numpy as np
    side = 2 * (1 << dim) + 1
    center = (1 << dim) * (side + 1)  # the index of 0 + 0i
    lookup = bytearray([8]) * (side * side)
    for (r, i), k in _eighth_roots(dim).items():
        lookup[center + r * side + i] = k
    index = re.astype(np.int16 if dim <= 6 else np.int64)
    index *= side
    index += im
    index += center
    bk = np.frombuffer(lookup, dtype=np.uint8).take(index)
    bad = bk.tobytes().find(8)
    if bad >= 0:
        raise _no_gauss_match(dim, int(re.flat[bad]), int(im.flat[bad]))
    return bk


def _bk_gauss_tables(rows):
    """BK of every enhancement of each form of a stack, given by its Gram rows (forms, dim).

    Entry d of the transform of i^q0 is the Gauss sum of the enhancement
    with values diag_i + 2*d_i, so row f is indexed like
    enumerate_z4_enhancements of form f.  One stack of q0 tables, one
    transform and one exact match, with the 2^dim axis first, then one
    uint8 transpose: a (forms, 2^dim) uint8 array.
    """
    import numpy as np
    dim = rows.shape[-1]
    return np.ascontiguousarray(_bk_of_sums(dim, *kernels.gauss_sums(dim, _diagonal(rows), rows)).T)


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
    return Z4Quadratic._trusted(h.form, tuple([2 * v for v in h.values]))


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

    Requires q(v) = 0 in Z4; then BK(q) = 4*Arf of the result.  W's basis
    is read off the splitting: lines s_1..s_p with lambda(s_i, s_k) =
    delta_ik and sum v, and hyperbolic pairs orthogonal to the lines.
    q(v) = 0 gives lambda(v, v) = p mod 2 = 0, so p is even, and a
    symplectic basis of W lifted into the form is the form's own pairs,
    then for j = 1 .. p/2 - 1 the pair (s_1 + ... + s_2j, s_2j + s_2j+1):
    dim - 2 vectors in v_perp, or dim when v = 0.  W's form on it is k*H,
    and each basis vector b has lambda(b, b) = 0, so h(b) = q(b)/2.
    """
    _isotropic_wu_class(q)
    lines, pairs = split_vectors(q.form)
    basis = [b for pair in pairs for b in pair]
    prefix = 0
    for j in range(1, len(lines) // 2):
        prefix ^= lines[2 * j - 2] ^ lines[2 * j - 1]
        basis += [prefix, lines[2 * j - 1] ^ lines[2 * j]]
    w_form = Z2SymForm(len(basis), tuple([1 << (i ^ 1) for i in range(len(basis))]))
    return Z2Quadratic(w_form, tuple([q.evaluate_mask(b) >> 1 for b in basis]))


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
        vals = tuple([base[i] + 2 * ((bits >> i) & 1) for i in range(form.dim)])
        yield Z4Quadratic._trusted(form, vals)


def enumerate_z2_enhancements(form: Z2SymForm) -> Iterator[Z2Quadratic]:
    """All 2^dim Z2-enhancements of an isotropic form; enhancement b has values b_i."""
    if not form.is_isotropic():
        raise AnisotropicInput("Z2 enhancements require an isotropic form")
    for bits in range(1 << form.dim):
        vals = tuple([(bits >> i) & 1 for i in range(form.dim)])
        yield Z2Quadratic._trusted(form, vals)


def _diagonal(rows):
    """lambda(e_i, e_i) of each form of a stack of Gram rows (..., dim)."""
    import numpy as np
    return (rows >> np.arange(rows.shape[-1], dtype=np.uint32)) & 1


class _Values(NamedTuple):
    """q_d(s_k) for every enhancement d and vector s_k of each form of a stack."""

    odd: Any  # (forms, 1) uint32: bit k is q_d(s_k) mod 2
    high: Any  # (forms, 2^dim) uint32: bit k of entry d is bit 1 of q_d(s_k)


def _values(rows, *vectors) -> _Values:
    """q_d at each vector, on the form of its row, for every enhancement d.

    rows is (forms, dim), and the vectors are (forms, k_i) stacks of bit
    masks, their columns in order, at most 32 in all.
    q_d(s) = q0(s) + 2 (d . s), with q0(e_i) = lambda(e_i, e_i): q0(s),
    the sum over i in s of the popcount of row_i & s, is evaluated once
    per vector, and the flips d . s of bit 1, one mask per d, are built
    by doubling over the coordinates of d.  The coordinates are uint8 up
    to dim 8, with the forms axis last for long inner loops.
    """
    import numpy as np
    dim = rows.shape[1]
    narrow = np.uint8 if dim <= 8 else np.uint32
    vectors = np.concatenate([v.T for v in vectors], dtype=narrow, casting="unsafe")  # (k, forms)
    rows = rows.T.astype(narrow, order="C")
    bits = np.zeros((dim + 2,) + vectors.shape, dtype=narrow)  # coordinate i of vector k, then q0's bits
    q0 = bits[dim]  # mod 2^8 or more, a multiple of 4
    for i in range(dim):
        coordinate = np.bitwise_and(vectors >> i, 1, out=bits[i])
        q0 += coordinate * np.bitwise_count(vectors & rows[i])
    np.right_shift(q0, 1, out=bits[dim + 1])
    bits[dim:] &= 1
    packed = np.einsum("ikf,k->fi", bits, 1 << np.arange(len(vectors), dtype=np.uint32))
    high = np.empty((len(packed), 1 << dim), dtype=np.uint32)
    high[:, 0] = packed[:, dim + 1]
    for i in range(dim):
        np.bitwise_xor(high[:, :1 << i], packed[:, i, None], out=high[:, 1 << i:2 << i])
    return _Values(packed[:, dim, None], high)


def _zero_at(values: _Values, at: int):
    """Where q_d of the vector in bit column `at` is 0 in Z4: (forms, 2^dim) bool."""
    return (values.high | values.odd) & (1 << at) == 0


def _pair_counts(high, at: int, end: int = 32):
    """Per entry of `high`, how many bit pairs (at + 2i, at + 2i + 1) below bit `end` are both set."""
    import numpy as np
    both = high >> 1
    both &= high
    both &= (0x55555555 << at) & ((1 << end) - 1)
    return np.bitwise_count(both)


class _SplitArrays(NamedTuple):
    """The splittings of a stack of forms of one dim, as uint32 arrays; the
    zero padding adds nothing to the tables, as q_d(0) = 0 for every d."""

    rows: Any  # (forms, dim) Gram rows
    lines: Any  # (forms, dim) the anisotropic lines, then zeros
    pairs: Any  # (forms, 2 (dim // 2)) the hyperbolic pairs as e_1, f_1, e_2, ..., then zeros
    counts: Any  # (forms,) the number of lines
    wu: Any  # (forms, 1) the Wu class, the sum of the lines


def _split_rows(rows) -> _SplitArrays:
    """The splitting _splitting finds, for each form of a stack of Gram rows (forms, dim).

    Each step splits one piece off every form, with the updates of
    _splitting and _symplectic_pairs: its lowest alive line, else the pair
    of its lowest alive e and e's lowest alive mate f.  A word holds a Gram
    row and, from bit 16, its vector, so one XOR updates both; word dim is
    zero, read where a form has no line, mate or position left.  A form
    out of lines stays isotropic, so its p lines take steps 0..p-1 and its
    pairs follow.  SingularForm when a step finds no mate.
    """
    import numpy as np
    count, dim = rows.shape
    if dim > ENUMERATION_DIM_LIMIT:
        raise DimTooLarge(f"enhancement tables need dim <= {ENUMERATION_DIM_LIMIT}")
    at = np.arange(dim + 1, dtype=np.uint32)
    masks = np.arange(1 << dim, dtype=np.uint32)
    lowest = np.bitwise_count((masks & -masks) - 1)  # of each mask; dim for 0
    lowest[0] = dim
    bit = np.uint32(1) << at
    bit[dim] = 0
    column = bit[:, None]
    forms = np.arange(count)
    # words[i, c]: position i of form c, its Gram row and, from bit 16, its vector
    words = np.zeros((dim + 1, count), dtype=np.uint32)
    words[:dim] = rows.T | column[:dim] << 16
    alive = np.full(count, (1 << dim) - 1, dtype=np.uint32)
    line = np.zeros((dim, count), dtype=bool)
    pieces = np.zeros((dim + dim // 2, 2, count), dtype=np.uint32)  # (e, f) of each step
    for step in range(dim):
        anisotropic = alive & np.bitwise_or.reduce(words & column, axis=0)
        line[step] = is_line = anisotropic != 0
        first = lowest[np.where(is_line, anisotropic, alive)]
        e = words[first, forms]
        mate = lowest[np.where(is_line, 0, e & alive)]
        f = words[mate, forms]
        alive ^= bit[first] | bit[mate]
        words ^= ((np.where(is_line, e, f) & alive & column) != 0) * e
        words ^= ((e & alive & column) != 0) * f
        pieces[step] = e, f
    p = line.sum(axis=0)
    pairs = pieces[p + np.arange(dim // 2)[:, None], :, forms]  # (pair, form, e or f)
    pairs = pairs.transpose(1, 0, 2).reshape(count, -1) >> 16
    if (p + 2 * (pairs[:, 1::2] != 0).sum(axis=1) != dim).any():
        raise SingularForm("the tables require nonsingular forms")
    lines = np.where(line, pieces[:dim, 0], 0).T >> 16
    return _SplitArrays(
        rows,
        lines,
        pairs,
        p.astype(np.uint8),
        np.bitwise_xor.reduce(lines, axis=1)[:, None],
    )


def _bk_classify_tables(split: _SplitArrays, high):
    """4n + p_plus - p_minus mod 8 of every enhancement of each form of a stack.

    The residue bk_classify reads off split_vectors, one (forms, 2^dim)
    uint8 array indexed like _bk_gauss_tables, from _Values.high on the
    lines, then the pairs (bit columns from dim on).  A line s counts in
    p_minus when q_d(s) = 3, its bit 1 set, and p_plus = p - p_minus; a
    pair counts in n when q_d(e) = q_d(f) = 2.  Not cached.
    """
    import numpy as np
    dim = split.rows.shape[1]
    minus = np.bitwise_count(high & ((1 << dim) - 1))
    return (4 * _pair_counts(high, dim, dim + 2 * (dim // 2)) + split.counts[:, None] - 2 * minus) & 7


def _arf_tables(values: _Values, at: int):
    """Arf invariant of every enhancement of each form of a stack, read off its pairs.

    The vectors from bit column `at` of `values` on are symplectic pairs
    e_1, f_1, e_2, ... (zero pairs add nothing) on which q0 is even, so
    that each q_d / 2 is a Z2 enhancement h_d there; row d is indexed
    like enumerate_z4_enhancements, and the Arf invariant, the sum of
    h_d(e) h_d(f) over the pairs, is their pair count mod 2.  On an
    isotropic form with its own pairs q_d = 2 h_d, so row d is also
    enumerate_z2_enhancements' enhancement d.  Not cached.
    """
    import numpy as np
    if np.count_nonzero(values.odd >> at):
        raise AnisotropicInput("Z2 enhancements require q0 even on the pairs")
    return _pair_counts(values.high, at) & 1


def _subquotient_pairs(split: _SplitArrays):
    """Symplectic pairs of W = L_perp/L lifted into each form, (forms, 2 (dim // 2)).

    On them _arf_tables gives Arf(isotropic_subquotient(q_d)) wherever
    q_d(v) = 0.  The form's own k pairs keep slots 0..k-1, and line pair j
    goes to slot dim/2 - j >= k + 1, zero where p is odd or 2j + 1 >= p.
    """
    lines, p = split.lines, split.counts
    even = p % 2 == 0
    half = lines.shape[1] // 2
    pairs = split.pairs.copy()
    prefix = 0
    for j in range(1, half):
        prefix = prefix ^ lines[:, 2 * j - 2] ^ lines[:, 2 * j - 1]
        keep = even & (2 * j + 1 < p)
        pairs[:, 2 * (half - j)] |= prefix * keep
        pairs[:, 2 * (half - j) + 1] |= (lines[:, 2 * j - 1] ^ lines[:, 2 * j]) * keep
    return pairs
