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

The classification route has per-form tables too, indexed the same way,
for the selfcheck suites that compare the two routes over every
enhancement: _bk_classify_table (4n + p_plus - p_minus of each
enhancement) and _arf_table (Arf of each Z2 enhancement of an isotropic
form).  Enhancement d differs from enhancement 0 by 2*(d . x), so both
build enhancement 0 directly (_q0: q0(e_i) = lambda(e_i, e_i); h = 0
over Z2), evaluate it once on each split vector and flip the values by
the parity of d . s; they read nothing from the Gauss route.  Neither
function caches: the bk-4arf suite keeps each subquotient form's Arf
table for one run only, so every selfcheck run computes the
classification route afresh.  Enumeration validates the form once and
builds its enhancements without re-running the constructors' checks;
enhancements built directly are always validated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    H_FORM,
    P_FORM,
    Z2SymForm,
    Z2Subspace,
    Z2Vec,
    _apply,
    _restrict,
    eliminate,
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


@lru_cache(maxsize=1 << 16)
def _bk_gauss_table(form: Z2SymForm) -> bytes:
    """BK of every enhancement of the form, indexed like enumerate_z4_enhancements.

    Entry d belongs to the enhancement with values diag_i + 2*d_i, whose
    Gauss sum is entry d of the transform of i^q0, q0 having values diag_i.
    """
    re, im = kernels.gauss_sums(form.dim, _q0(form).values, form.rows)
    roots = _eighth_roots(form.dim)
    try:
        return bytes(map(roots.__getitem__, zip(re.tolist(), im.tolist())))
    except KeyError as exc:
        raise _no_gauss_match(form.dim, *exc.args[0]) from None


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

    Raises SingularForm when lambda(v, v) = 1, so callers check q(v) first.
    """
    v = wu_class(form)
    dim = form.dim
    phi_v = _apply(form.rows, v.mask)  # functional x -> lambda(x, v)
    if phi_v == 0:
        reps = [1 << i for i in range(dim)]
    else:
        pivot = (phi_v & -phi_v).bit_length() - 1
        kernel = []
        for i in range(dim):
            if i == pivot:
                continue
            b = 1 << i
            if (phi_v >> i) & 1:
                b |= 1 << pivot
            kernel.append(b)
        # quotient by <v>: v is the sum of the RREF rows of L_perp at the
        # pivots it holds, the lowest of which is its lowest set bit; drop
        # that row
        rows: Dict[int, int] = {}
        eliminate(rows, kernel)
        if eliminate(dict(rows), [v.mask]):
            raise SingularForm("Wu class does not lie in its own perpendicular")
        drop = v.mask & -v.mask
        reps = [rows[p] for p in sorted(rows) if p != drop]
    gram = _restrict(form.rows, reps)
    return tuple(reps), Z2SymForm(len(reps), tuple(gram))


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


def _flip_coordinates(dim: int, vectors: Sequence[int]) -> List[int]:
    """For every d in Z2^dim, the mask whose bit k is d . vectors[k]."""
    coords = [0]
    for i in range(dim):
        col = 0  # bit k is coordinate i of vectors[k]
        for k, s in enumerate(vectors):
            if (s >> i) & 1:
                col |= 1 << k
        coords += [c ^ col for c in coords]
    return coords


def _split_table(q0: _Enhancement, pair_weight: int, modulus: int) -> bytes:
    """A splitting invariant of each enhancement q_d = q0 + CROSS*(d . x).

    Over split_vectors of the form, entry d adds +1 for each anisotropic
    line s with q_d(s) = 1 and -1 where q_d(s) = 3, and pair_weight for
    each hyperbolic pair (e, f) with q_d(e) = q_d(f) = CROSS, all modulo
    `modulus`.  q0 is evaluated once per split vector: q_d(s) is q0(s) with
    its CROSS bit flipped when d . s = 1.  The sums are built over the flip
    patterns t (bit k for split vector k) and then read at t(d).
    """
    aniso, pairs = split_vectors(q0.form)
    value, cross = q0.evaluate_mask, q0.CROSS
    table = [0]
    for s in aniso:  # lines exist over Z4 only, where q0(s) is 1 or 3
        sign = 1 - 2 * (value(s) // cross)
        table = [x + sign for x in table] + [x - sign for x in table]
    for e, f in pairs:
        be, bf = value(e) // cross, value(f) // cross
        weights = [pair_weight * ((be ^ te) & (bf ^ tf)) for tf in (0, 1) for te in (0, 1)]
        table = [x + w for w in weights for x in table]
    split = list(aniso) + [s for pair in pairs for s in pair]
    return bytes([table[t] % modulus for t in _flip_coordinates(q0.form.dim, split)])


def _bk_classify_table(form: Z2SymForm) -> bytes:
    """4n + p_plus - p_minus mod 8 of every enhancement of a nonsingular form.

    The residue bk_classify reads off split_vectors, indexed like
    enumerate_z4_enhancements and _bk_gauss_table.  Not cached.
    """
    return _split_table(_q0(form), 4, 8)


def _arf_table(form: Z2SymForm) -> bytes:
    """Arf invariant of every Z2 enhancement of an isotropic nonsingular form.

    Indexed like enumerate_z2_enhancements, whose enhancement 0 is h = 0.
    Not cached.
    """
    if not form.is_isotropic():
        raise AnisotropicInput("Z2 enhancements require an isotropic form")
    return _split_table(Z2Quadratic._trusted(form, (0,) * form.dim), 1, 2)


def _subquotient_indices(
    form: Z2SymForm,
) -> Tuple[Optional[Z2SymForm], List[Optional[int]]]:
    """Where isotropic_subquotient puts each enhancement, for _arf_table lookups.

    Returns the Gram form W of L_perp/L and, for each enhancement d
    (indexed like enumerate_z4_enhancements), the index of its subquotient
    values q_d(b_j)/2 in _arf_table(W), or None when q_d(v) != 0.  W is None
    when no enhancement has q_d(v) = 0.  Not cached.
    """
    v = wu_class(form).mask
    q0 = _q0(form)
    qv = q0.evaluate_mask(v)
    if qv & 1:  # q_d(v) = q0(v) + 2(d . v) is odd for every d
        return None, [None] * (1 << form.dim)
    reps, w_form = _subquotient_basis(form)
    h0 = 0
    for j, b in enumerate(reps):
        qb = q0.evaluate_mask(b)
        if qb & 1:
            raise SingularForm("representative is not isotropic")
        h0 |= (qb >> 1) << j
    # bit j of t flips q(b_j) by 2 and the top bit flips q(v) by 2
    top = 1 << len(reps)
    want = (qv >> 1) * top
    return w_form, [
        h0 ^ t ^ want if t & top == want else None
        for t in _flip_coordinates(form.dim, reps + (v,))
    ]
