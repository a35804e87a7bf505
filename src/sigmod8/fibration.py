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

MonodromyData walks the relator f_1 g_1 f_1^{-1} g_1^{-1} ... once and
keeps its prefix products: they give the commutator check, the
conjugates g_i f_i^{-1} g_i^{-1} of the Wall forms and every block of the
cup pairing, so a bundle report forms 7g - 1 matrix products in all
(2g of them checking that the generators are symplectic).  Inverses are
read off the columns in one pass, 1 - x is built in one pass by
_one_minus, the cup Gram's block between a handle and the earlier ones is
formed once per generator, and a kernel basis is scaled by one lcm of
the pivots.

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
form holds Fractions: it reads (1 - f)^{-1}(g - f), scaled to integers,
off the same fraction-free elimination and divides by the scale once.

The convention for the symplectic form is J = [[0, I], [-I, 0]], with
phi(x, y) = x^T J y; the transvection along c acts by x -> x + phi(x, c) c,
which reproduces the standard Dehn-twist matrices in this basis.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, sub
from typing import List, Sequence, Tuple

from .errors import (
    CommutatorRelationViolated,
    NotSymplectic,
    OddDimension,
    OneMinusFSingular,
    ZeroVector,
)
from .intforms import IntSymForm, Matrix, RatSymForm, signature_exact
from .intforms import _identity, _mat_mul, _negate, _transpose
from .record import Record

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


def _one_minus(m: Matrix) -> List[List[int]]:
    """The rows of 1 - M, built in one pass."""
    return [[(i == c) - x for c, x in enumerate(r)] for i, r in enumerate(m)]


def _symplectic_inverse(m: Matrix) -> Matrix:
    """M^{-1} = -J M^T J = [[D^T, -B^T], [-C^T, A^T]] for M = [[A, B], [C, D]].

    Exact and integral for symplectic M; row i is read off column i + h of
    M (i < h) or column i - h (i >= h), in one pass over M's columns.
    """
    h = len(m) // 2
    cols = list(zip(*m))
    return tuple(
        [c[h:] + tuple([-x for x in c[:h]]) for c in cols[h:]]
        + [tuple([-x for x in c[h:]]) + c[:h] for c in cols[:h]]
    )


def _preserves_j(m: Matrix) -> bool:
    """M^T J M = J, with J M formed by _j_times: one product."""
    return _mat_mul(_transpose(m), _j_times(m)) == standard_j(len(m) // 2)


class SymplecticMatrix(Record):
    """Integer matrix M with M^T J M = J for the standard block J."""

    h: int
    entries: Matrix

    def _validate(self):
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

    def inverse(self) -> "SymplecticMatrix":
        return SymplecticMatrix._trusted(self.h, _symplectic_inverse(self.entries))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.h != other.h:
            raise ValueError("genus mismatch")
        return SymplecticMatrix._trusted(self.h, _mat_mul(self.entries, other.entries))

    def is_identity_mod(self, k: int) -> bool:
        return all((x - (i == j)) % k == 0 for i, row in enumerate(self.entries) for j, x in enumerate(row))


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


class MonodromyData(Record):
    """g pairs (f_i, g_i) in Sp(2h, Z) with prod [f_i, g_i] = I.

    The relator f_1 g_1 f_1^{-1} g_1^{-1} ... is walked once, on
    construction: its prefix products Q_0 = I, ..., Q_4g give the
    commutator check (Q_4g = I), the conjugates and every block of the cup
    Gram, so no later step forms a product of generators.
    """

    h: int
    g: int
    pairs: Tuple[Tuple[SymplecticMatrix, SymplecticMatrix], ...]
    # derived from `pairs`, so not fields: the relator's prefix products
    # Q_0 .. Q_4g (Q_k is the product of its first k letters), and
    # g_i f_i^{-1} g_i^{-1} = Q_{4i+1}^{-1} Q_{4i+4} per handle
    _prefixes: Tuple[Matrix, ...]
    _conjugates: Tuple[SymplecticMatrix, ...]

    def _validate(self):
        if len(self.pairs) != self.g:
            raise ValueError("need one pair per base handle")
        for f, gg in self.pairs:
            if f.h != self.h or gg.h != self.h:
                raise ValueError("fibre genus mismatch")
        prefixes = [_identity(2 * self.h)]
        for f, gg in self.pairs:
            f_inv, g_inv = _symplectic_inverse(f.entries), _symplectic_inverse(gg.entries)
            for x in (f.entries, gg.entries, f_inv, g_inv):
                # Q_1 = f_1 is no product
                prefixes.append(_mat_mul(prefixes[-1], x) if len(prefixes) > 1 else x)
        if prefixes[-1] != prefixes[0]:
            raise CommutatorRelationViolated(
                "commutators do not multiply to the identity",
                product=prefixes[-1],
            )
        conjugates = [
            SymplecticMatrix._trusted(self.h, _mat_mul(_symplectic_inverse(prefixes[k + 1]), prefixes[k + 4]))
            for k in range(0, 4 * self.g, 4)
        ]
        object.__setattr__(self, "_prefixes", tuple(prefixes))
        object.__setattr__(self, "_conjugates", tuple(conjugates))

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

    X = (1 - f)^{-1}(g - f) solves (1 - f) X = g - f.  `_eliminate` of
    [(1 - f) | f - g] pivots on the first n columns exactly when 1 - f is
    invertible, and row r is then p_r e_r | w_r.  With L = lcm |p_r|, L X
    has the integer rows -w_r (L / p_r), N = J (1 - g^{-1}) L X is checked
    symmetric on integers, and S = N / L.
    """
    if f.h != g.h:
        raise ValueError("genus mismatch")
    n = 2 * f.h
    system = [  # [(1 - f) | f - g]
        a + [x - y for x, y in zip(fr, gr)]
        for a, fr, gr in zip(_one_minus(f.entries), f.entries, g.entries)
    ]
    work, pivots = _eliminate(system, 2 * n)
    if pivots[:n] != list(range(n)):
        raise OneMinusFSingular("1 - f is singular over Q")
    scale = lcm(*[abs(work[r][r]) for r in range(n)])
    scaled_x = [[-(scale // work[r][r]) * w for w in work[r][n:]] for r in range(n)]
    one_minus_g_inv = tuple(_one_minus(_symplectic_inverse(g.entries)))
    num = _mat_mul(_j_times(one_minus_g_inv), scaled_x)
    if num != _transpose(num):
        raise NotSymplectic("closed Wall form is not symmetric")
    return RatSymForm._trusted(n, tuple([tuple([Fraction(x, scale) for x in row]) for row in num]))


def one_minus_f_invertible(f: SymplecticMatrix) -> bool:
    """det(1 - f) != 0, the hypothesis of wall_form_closed: one elimination of 1 - f."""
    n = 2 * f.h
    return len(_eliminate(_one_minus(f.entries), n)[1]) == n


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
    h, n = f.h, 2 * f.h
    rows = [a + b for a, b in zip(_one_minus(f.entries), _one_minus(g.entries))]  # [(1 - f) | (1 - g)]
    basis = _integral_kernel(rows, 2 * n)
    xs = [list(map(add, u[:n], u[n:])) for u in basis]  # x = y + z
    # (1 - f) y': map stops at the end of y', so only the 1 - f half of a row is read
    ws = [[sum(map(mul, row, u[:n])) for row in rows] for u in basis]
    jws = [w[h:] + [-x for x in w[:h]] for w in ws]  # J (1 - f) y'
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
    # one scale L = lcm of the pivots serves every free column: L / p_r is
    # exact, and the primitive part of a vector does not depend on the
    # positive multiple it was built at
    scale = lcm(*[abs(work[rr][pc]) for rr, pc in enumerate(pivots)])
    steps = [(pc, scale // work[rr][pc], work[rr]) for rr, pc in enumerate(pivots)]
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = scale
        for pc, per, row in steps:
            vec[pc] = -row[fc] * per
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
    letter u(x^{-1}) = -x^{-1} u_x.  Letter k of the relator prod [f_i, g_i]
    contributes the block B_k = Q_k * (its value map) in the columns of its
    generator, read off the prefix products Q_k kept by MonodromyData: B_k =
    Q_k for a letter x and B_k = -Q_k x^{-1} = -Q_{k+1} for x^{-1}, so no
    product is formed here.  The cocycle condition is sum_k B_k u = 0, and
    the cup pairing paired through phi is
    c(u, v) = sum_{k >= 1} phi(U_{k-1} u, B_k v) + sum_i phi(u_i, v_i),
    where U_{k-1} = sum_{t < k} B_t.

    The coboundary of w is u_x = (x - 1) w: B^1 is the image of D, whose
    row (i, a) is row a of x_i - 1.  The pivot columns S of D^T index rows
    of D that span its row space, so u -> u_S maps B^1 onto Q^S one to one
    and Z^1 = {u in Z^1 : u_S = 0} (+) B^1.  Coboundaries pair to zero with
    every cocycle, so the Gram on the cocycles that vanish on S has the
    signature of the form on H^1.  G, U and the relator kernel are built on
    the kept coordinates only.  A generator's kept coordinates are one run
    of them, and U is 0 past the runs of the generators already read, so
    G^T gains, per letter, the rows of its run over those columns only.
    Over the columns of earlier handles U is already the final relator R,
    so there the two letters of a generator x add (J R_x)^T R in one pass,
    where R_x = B_k + B_k' is the sum of their blocks.
    C G C^T is then read on each cocycle's nonzero entries (at most
    rank(relator) + 1 of them).  C is returned in all 2g * 2h coordinates,
    with 0 on S.
    """
    h = m.h
    n = 2 * h
    j = standard_j(h)
    mats = [mat.entries for pair in m.pairs for mat in pair]
    big = n * len(mats)
    coboundary_t = [[mm[a][b] - (a == b) for mm in mats for a in range(n)] for b in range(n)]
    dropped = set(_eliminate(coboundary_t, big)[1])
    keep = [c for c in range(big) if c not in dropped]
    # per generator: the run [lo, hi) of its kept coordinates in `keep`,
    # and the row of its block at each of them
    runs, block_rows, hi = [], [], 0
    for gi in range(len(mats)):
        block_rows.append([c - gi * n for c in keep if c // n == gi])
        runs.append((hi, hi + len(block_rows[-1])))
        hi = runs[-1][1]

    width = len(keep)
    u_t = [[0] * n for _ in keep]  # U_{k-1}^T; the relator's transpose at the end
    gram_t = [[0] * width for _ in keep]  # G^T
    for i in range(m.g):
        q = m._prefixes[4 * i : 4 * i + 5]
        start, seen = runs[2 * i][0], runs[2 * i + 1][1]
        # B_k = Q_k for f_i and g_i, and -Q_{k+1} for f_i^{-1} and g_i^{-1};
        # G^T gains (J B_k)^T U_{k-1} in the rows of the letter's run, over
        # the columns read so far (U is 0 past them).  A run's rows of G^T
        # and U^T are 0 until its first letter.  Letter by letter on this
        # handle's columns [start, seen); on the earlier handles' columns,
        # where U_{k-1} is already the relator R, once per row from R_x.
        earlier = u_t[:start]
        for gi, qk in ((2 * i, q[0]), (2 * i + 1, q[1])):
            lo, hi = runs[gi]
            past, bt = u_t[start:lo], _transpose(qk)
            for kk, a in zip(range(lo, hi), block_rows[gi]):
                b = bt[a]  # column a of B_k
                if past:  # empty for f_i, the first letter on this handle's columns
                    jb = b[h:] + tuple([-x for x in b[:h]])  # J b
                    gram_t[kk][start:lo] = [sum(map(mul, jb, col)) for col in past]
                u_t[kk] = list(b)
        for gi, qk in ((2 * i, q[3]), (2 * i + 1, q[4])):
            lo, hi = runs[gi]
            past, bt = u_t[start:seen], _transpose(qk)
            for kk, a in zip(range(lo, hi), block_rows[gi]):
                b = bt[a]  # minus column a of B_k
                jb = b[h:] + tuple([-x for x in b[:h]])
                row = gram_t[kk]
                row[start:seen] = [x - sum(map(mul, jb, col)) for x, col in zip(row[start:seen], past)]
                # column a of R_x; a new list: `past` keeps U_{k-1}^T for the rows after kk
                r = u_t[kk] = list(map(sub, u_t[kk], b))
                if earlier:
                    jr = r[h:] + [-x for x in r[:h]]
                    row[:start] = [sum(map(mul, jr, col)) for col in earlier]
    for (lo, hi), block in zip(runs, block_rows):  # phi(u_i, v_i) for each generator
        for kk, a in zip(range(lo, hi), block):
            row = gram_t[kk]
            for k2, b in zip(range(lo, hi), block):
                row[k2] += j[b][a]

    cocycles = _integral_kernel(_transpose(u_t), width)
    supports = []
    for c in cocycles:
        at = [i for i, x in enumerate(c) if x]
        supports.append((at, [c[i] for i in at]))
    # G c^T is a combination of the rows of G^T at the support of c, and
    # row p of C (G C^T) one of the rows of (G C^T)^T at the support of c_p
    gct_t = [_combine(gram_t, at, xs) for at, xs in supports]
    gct = _transpose(gct_t)
    gram = [_combine(gct, at, xs) for at, xs in supports]
    full = []
    for at, xs in supports:  # each cocycle in all coordinates, set on its support only
        vec = [0] * big
        for i, x in zip(at, xs):
            vec[keep[i]] = x
        full.append(tuple(vec))
    return full, gram


def _combine(rows: Sequence[Sequence[int]], at: Sequence[int], xs: Sequence[int]) -> List[int]:
    """sum_i xs[i] * rows[at[i]], for a nonempty `at`."""
    out = [xs[0] * v for v in rows[at[0]]]
    for i, x in zip(at[1:], xs[1:]):
        out = [a + x * v for a, v in zip(out, rows[i])]
    return out


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


class BundleReport(Record):
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

    The length is drawn first, then a word of that length
    (transvection_word).  With doubled=True every twisting vector is
    doubled, so the word lies in the level-4 congruence subgroup (each
    factor is I mod 4).
    """
    return transvection_word(h, rng.randint(1, max_len), rng, doubled)


def transvection_word(h: int, length: int, rng, doubled: bool = False) -> SymplecticMatrix:
    """Product of `length` transvections along random small vectors, as in random_transvection_word."""
    n = 2 * h
    rows = [list(row) for row in _identity(n)]
    draw = rng.next_u64
    for _ in range(length):
        c = [draw() % 3 - 1 for _ in range(n)]  # rng.randint(-1, 1), without its two calls
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
