"""Exact linear algebra over Z2 and the structure theory of symmetric forms.

Vectors and matrix rows are stored as machine-word bit masks (Python ints),
so all arithmetic is XOR/AND and everything is exact.  The two indecomposable
nonsingular symmetric forms are

    P = (Z2, [1])        the anisotropic line, and
    H = [[0,1],[1,0]]    the hyperbolic plane,

and every nonsingular form splits (non-uniquely) as p*P + k*H.  One pass
per form (_splitting, kept on the instance as Z2SymForm._split) finds a
splitting, decides nonsingularity and sums the P lines to the Wu class.
nonsingular_rows lists every nonsingular form of a small dim as uint32
arrays of Gram rows by bordering: each (dim - 1)-block's key
det A | adj(A)_diag << 1 makes each first row's determinant one popcount.
"""
from __future__ import annotations

from functools import cached_property, reduce
from operator import xor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    AnisotropicInput,
    DegenerateRestriction,
    DimTooLarge,
    SingularForm,
)
from .record import Record

__all__ = [
    "Z2Vec",
    "Z2SymForm",
    "Z2Subspace",
    "eliminate",
    "is_nonsingular",
    "wu_class",
    "decompose",
    "split_vectors",
    "symplectic_split",
    "witt_class_sym",
    "P_FORM",
    "H_FORM",
]


def _parity(x: int) -> int:
    return x.bit_count() & 1


class Z2Vec(Record):
    """Vector in Z2^dim, packed into the low `dim` bits of `mask`."""

    dim: int
    mask: int

    def _validate(self):
        if self.dim < 0 or self.mask < 0 or self.mask >> self.dim:
            raise ValueError(f"mask {self.mask:#x} does not fit in dim {self.dim}")

    @property
    def bits(self) -> Tuple[int, ...]:
        return tuple([(self.mask >> i) & 1 for i in range(self.dim)])

    def __add__(self, other: "Z2Vec") -> "Z2Vec":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Z2Vec(self.dim, self.mask ^ other.mask)


# byte b -> the character "0" or "1" of its parity
_PARITY_CHARS = bytes([48 | (b & 1) for b in range(256)])


def _pack_bits(entries: Sequence[int]) -> int:
    """The mask with bit j = entries[j] mod 2, read as one binary numeral.

    Entries outside 0..255 (or not ints) are reduced with int(x) & 1 first.
    """
    try:
        raw = bytes([*reversed(entries)])
    except (TypeError, ValueError):
        raw = bytes([int(x) & 1 for x in reversed(entries)])
    return int(raw.translate(_PARITY_CHARS), 2)


class Z2SymForm(Record):
    """Symmetric bilinear form on Z2^dim; rows[i] packs lambda(e_i, e_j)."""

    dim: int
    rows: Tuple[int, ...]

    def _validate(self):
        # a tuple keeps the form hashable
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.dim:
            raise ValueError("row count must equal dim")
        for i, r in enumerate(self.rows):
            if r < 0 or r >> self.dim:
                raise ValueError(f"row {i} does not fit in dim {self.dim}")
        # bits[i][j] = lambda(e_i, e_j); column j of the joined rows is every
        # dim-th character from j, and a symmetric matrix has columns = rows
        bits = [format(r, f"0{self.dim}b")[::-1] for r in self.rows]
        joined = "".join(bits)
        if [joined[j::self.dim] for j in range(self.dim)] != bits:
            raise ValueError("matrix is not symmetric")

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> "Z2SymForm":
        """The form of an integer matrix, each entry read mod 2."""
        dim = len(matrix)
        rows = []
        for r in matrix:
            if len(r) != dim:
                raise ValueError("matrix is not square")
            rows.append(_pack_bits(r))
        return cls(dim, tuple(rows))

    @property
    def matrix(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple([tuple([(r >> j) & 1 for j in range(self.dim)]) for r in self.rows])

    def evaluate(self, x: Z2Vec, y: Z2Vec) -> int:
        """lambda(x, y)."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ValueError("dimension mismatch")
        return _parity(_apply(self.rows, x.mask) & y.mask)

    def evaluate_masks(self, x: int, y: int) -> int:
        return _parity(_apply(self.rows, x) & y)

    def diagonal_mask(self) -> int:
        return sum(((r >> i) & 1) << i for i, r in enumerate(self.rows))

    def is_isotropic(self) -> bool:
        """lambda(x,x) = 0 for all x, equivalently zero diagonal."""
        return self.diagonal_mask() == 0

    def direct_sum(self, other: "Z2SymForm") -> "Z2SymForm":
        rows = list(self.rows) + [r << self.dim for r in other.rows]
        return Z2SymForm(self.dim + other.dim, tuple(rows))

    @cached_property
    def _split(self) -> Optional[tuple]:
        return _splitting(self)


P_FORM = Z2SymForm(1, (1,))
H_FORM = Z2SymForm.from_matrix([[0, 1], [1, 0]])


def _apply(rows: Sequence[int], x: int) -> int:
    """Matrix * vector over Z2: XOR of the rows selected by x's bits."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= rows[i]
        x >>= 1
        i += 1
    return out


def eliminate(
    rows: Dict[int, int], vectors: Iterable[int], tags: Optional[int] = None
) -> List[int]:
    """Add `vectors` to the fully reduced GF(2) echelon form `rows`.

    This is the one GF(2) elimination of the library.  `rows` maps each
    pivot bit to its row.  A pivot is the lowest set bit of its row and is
    clear in every other row, so reducing a vector takes one XOR per pivot
    bit it holds.  Each vector is reduced against the rows before it; if a
    bit below `tags` is left, its lowest set bit becomes a new pivot and is
    cleared from the other rows.  Bits from `tags` up (no bits when None)
    ride along in every row operation but never become pivots: with the
    right-hand side as a tag, elimination solves a system.  Returns the
    vectors that became rows, as they were when added.
    """
    limit = None if tags is None else 1 << tags
    added = []
    for vec in vectors:
        for pivot, row in rows.items():
            if vec & pivot:
                vec ^= row
        low = vec & -vec
        if low and (limit is None or low < limit):
            for pivot, row in rows.items():
                if row & low:
                    rows[pivot] = row ^ vec
            rows[low] = vec
            added.append(vec)
    return added


def solve(rows: Sequence[int], dim: int, rhs: int) -> int:
    """Solve matrix * v = rhs over Z2 for square nonsingular `rows`.

    Raises SingularForm when no unique solution exists.
    """
    echelon: Dict[int, int] = {}
    eliminate(echelon, [r | ((rhs >> i) & 1) << dim for i, r in enumerate(rows)], dim)
    if len(echelon) < dim:
        raise SingularForm("matrix is singular over Z2")
    # full rank: each row is its pivot plus the tag, the pivot's value in v
    return sum(pivot for pivot, row in echelon.items() if row >> dim)


def rref_basis(vectors: Iterable[int], dim: int) -> Tuple[int, ...]:
    """Reduced-row-echelon canonical basis of the span of `vectors`.

    Pivots are the lowest set bits below `dim`, in increasing order.
    """
    echelon: Dict[int, int] = {}
    eliminate(echelon, vectors, dim)
    return tuple([echelon[pivot] for pivot in sorted(echelon)])


class Z2Subspace(Record):
    """Subspace of Z2^ambient_dim, stored by its canonical RREF basis."""

    ambient_dim: int
    basis: Tuple[int, ...]

    def _validate(self):
        for b in self.basis:
            if b >> self.ambient_dim:
                raise ValueError("basis vector outside ambient space")
        canon = rref_basis(self.basis, self.ambient_dim)
        if canon != self.basis:
            object.__setattr__(self, "basis", canon)

    @classmethod
    def full(cls, dim: int) -> "Z2Subspace":
        return cls(dim, tuple([1 << i for i in range(dim)]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> List[Z2Vec]:
        return [Z2Vec(self.ambient_dim, b) for b in self.basis]

    def contains(self, v: Z2Vec) -> bool:
        return not eliminate({b & -b: b for b in self.basis}, [v.mask])


def _splitting(form: Z2SymForm) -> Optional[tuple]:
    """((aniso, pairs), wu) of a nonsingular form, kept as form._split and
    read by is_nonsingular, wu_class and split_vectors; None for a singular
    form.

    Lines v with lambda(v, v) = 1 are split off lowest-index-first:
    b_j + lambda(b_j, v) v is orthogonal to v, so the Gram entries become
    lambda_jk + lambda(b_j, v) lambda(b_k, v) and row j gains the row of v
    when lambda(b_j, v) = 1.  Basis and Gram rows keep their positions;
    `alive` lists those not split off, and stale bits are never read.  The
    isotropic rest splits into hyperbolic pairs unless a row finds no mate,
    which makes the form singular.  The Wu class is the sum of the lines:
    lambda(x, x) and lambda(x, sum) are linear in x and agree on every line
    and pair.
    """
    gram = list(form.rows)
    basis = [1 << i for i in range(form.dim)]
    alive = list(range(form.dim))
    aniso = []
    while True:
        idx = next((i for i in alive if (gram[i] >> i) & 1), None)
        if idx is None:
            break
        v, row_v = basis[idx], gram[idx]
        aniso.append(v)
        alive.remove(idx)
        for j in alive:
            if (row_v >> j) & 1:
                basis[j] ^= v
                gram[j] ^= row_v
    pairs = _symplectic_pairs(basis, gram, alive)
    if pairs is None:
        return None
    return (tuple(aniso), tuple(pairs)), Z2Vec(form.dim, reduce(xor, aniso, 0))


def is_nonsingular(form: Z2SymForm) -> bool:
    """True iff the Gram matrix is invertible over Z2 (dim 0 counts)."""
    return form._split is not None


def wu_class(form: Z2SymForm) -> Z2Vec:
    """The unique v with lambda(x, x) = lambda(x, v) for all x; needs nonsingular."""
    split = form._split
    if split is None:
        raise SingularForm("matrix is singular over Z2")
    return split[1]


def _restrict(rows: Sequence[int], basis: Sequence[int]) -> List[int]:
    """Gram matrix of the form restricted to `basis`, again bit-packed."""
    n = len(basis)
    out = []
    for i in range(n):
        row = 0
        mi = _apply(rows, basis[i])
        for j in range(n):
            row |= _parity(mi & basis[j]) << j
        out.append(row)
    return out


def split_vectors(form: Z2SymForm) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """(aniso, pairs): the lines and hyperbolic pairs of _splitting, as bit
    masks; deterministic.  A singular form raises DegenerateRestriction.
    """
    split = form._split
    if split is None:
        raise DegenerateRestriction("restricted form is singular")
    return split[0]


def decompose(form: Z2SymForm) -> Tuple[int, int]:
    """Multiplicities (p, k) with form = p*P + k*H and p + 2k = dim, from split_vectors."""
    if not is_nonsingular(form):
        raise SingularForm("decompose requires a nonsingular form")
    aniso, pairs = split_vectors(form)
    return len(aniso), len(pairs)


def _symplectic_pairs(
    basis: List[int], gram: List[int], alive: Sequence[int]
) -> Optional[List[Tuple[int, int]]]:
    """Split an isotropic restriction into hyperbolic pairs; None if singular.

    basis[i] is a vector and gram[i] its Gram row (bit k is
    lambda(basis[i], basis[k])) for each position i in `alive`, taken in
    order; both lists are updated in place.  Once (e, f) is split off,
    b_j + lambda(b_j, f) e + lambda(b_j, e) f is orthogonal to both, and
    with alpha = lambda(., f), beta = lambda(., e) the Gram entries change
    to lambda_jk + alpha_j beta_k + alpha_k beta_j.
    """
    pairs: List[Tuple[int, int]] = []
    alive = list(alive)
    while alive:
        first = alive[0]
        row_e = gram[first]
        mate = next((j for j in alive[1:] if (row_e >> j) & 1), None)
        if mate is None:  # `first` is in the radical
            return None
        row_f = gram[mate]
        e, f = basis[first], basis[mate]
        alive = [j for j in alive[1:] if j != mate]
        for j in alive:
            if (row_f >> j) & 1:
                basis[j] ^= e
                gram[j] ^= row_e
            if (row_e >> j) & 1:
                basis[j] ^= f
                gram[j] ^= row_f
        pairs.append((e, f))
    return pairs


def symplectic_split(form: Z2SymForm, restricted_to: Z2Subspace) -> List[Tuple[Z2Vec, Z2Vec]]:
    """Hyperbolic pairs (e_i, f_i) with lambda(e_i, f_j) = delta_ij.

    The form restricted to the subspace must be isotropic and nonsingular.
    Returned vectors live in the ambient space.
    """
    if restricted_to.ambient_dim != form.dim:
        raise ValueError("subspace ambient dimension mismatch")
    basis = list(restricted_to.basis)
    gram = _restrict(form.rows, basis)
    for i in range(len(basis)):
        if (gram[i] >> i) & 1:
            raise AnisotropicInput("form is anisotropic on the subspace")
    pairs = _symplectic_pairs(basis, gram, range(len(basis)))
    if pairs is None:
        raise DegenerateRestriction("restricted form is singular")
    return [(Z2Vec(form.dim, e), Z2Vec(form.dim, f)) for e, f in pairs]


def witt_class_sym(form: Z2SymForm) -> int:
    """Witt class in Z2: the multiplicity of P mod 2."""
    p, _ = decompose(form)
    return p & 1


# Largest dim for which exhaustive enumeration of forms is meant.
ENUMERATION_DIM_LIMIT = 6


def _bordered_dets(keys, dim: int):
    """det [[c, b^T], [b, A]] for each block key of A and each first row (c, b),
    c at bit 0: c det A + sum_i adj(A)_ii b_i (adj A is symmetric), the
    parity of first & key.  A (blocks, 2^dim) uint8 array."""
    import numpy as np
    firsts = np.arange(1 << dim, dtype=np.uint32)
    return np.bitwise_count(firsts & keys[:, None]) & 1


def _bordered_rows(blocks, firsts):
    """The rows of [[c, b^T], [b, A]] for each block A and first row (c, b)."""
    import numpy as np
    column = (firsts[:, None] >> np.arange(1, blocks.shape[1] + 1, dtype=np.uint32)) & 1
    return np.concatenate([firsts[:, None], blocks << 1 | column], axis=1)


def _symmetric_blocks(dim: int):
    """(rows, keys) of every symmetric matrix A of the dim, in candidate order.

    Candidate k = block << dim | first: row 0 at the low bits, the block of
    rows 1.. above.  The key of A is det A | adj(A)_diag << 1.  det A is
    affine in each diagonal entry, with the cofactor as slope, so
    adj(A)_ii = det A + det(A + e_i e_i^T), and flipping entry (i, i)
    flips one bit of k: each dim's keys come from its determinants, and
    those from the keys of the dim below.
    """
    import numpy as np
    rows = np.zeros((1, 0), dtype=np.uint32)
    keys = np.ones(1, dtype=np.uint32)  # the empty matrix has det 1
    for n in range(1, dim + 1):
        det = _bordered_dets(keys, n).ravel()
        k = np.arange(len(det), dtype=np.uint32)
        rows = _bordered_rows(rows[k >> n], k & ((1 << n) - 1))
        at = np.arange(n, dtype=np.uint32)
        diagonal = np.uint32(1) << (at * n - at * (at - 1) // 2)  # entry (i, i) in k
        adj = det[:, None] ^ det[k[:, None] ^ diagonal]
        keys = det | (adj << (at + 1)).sum(axis=1, dtype=np.uint32)
    return rows, keys


def nonsingular_rows(dim: int, chunk: int):
    """The Gram rows of every nonsingular form of the dim, in candidate order:
    a generator of (forms, dim) uint32 arrays of `chunk` forms (the last
    may hold fewer).  A nonzero key has odd parity with half of the 2^dim
    first rows, so form j borders the (j >> (dim - 1))-th block of nonzero
    key, and a chunk borders only its own blocks.  DimTooLarge is raised at
    the call for a dim outside 0..ENUMERATION_DIM_LIMIT.
    """
    if not 0 <= dim <= ENUMERATION_DIM_LIMIT:
        raise DimTooLarge(
            f"enumeration of forms needs dim in 0..{ENUMERATION_DIM_LIMIT}, got {dim}"
        )
    return _nonsingular_chunks(dim, chunk)


def _nonsingular_chunks(dim: int, chunk: int):
    import numpy as np
    if dim == 0:
        yield np.zeros((1, 0), dtype=np.uint32)
        return
    blocks, keys = _symmetric_blocks(dim - 1)
    live = np.flatnonzero(keys)
    half = 1 << (dim - 1)
    for start in range(0, len(live) * half, chunk):
        taken = live[start // half:(start + chunk - 1) // half + 1]
        block, first = np.nonzero(_bordered_dets(keys[taken], dim))
        rows = _bordered_rows(blocks[taken[block]], first.astype(np.uint32))
        yield rows[start % half:start % half + chunk]


def enumerate_nonsingular_forms(dim: int, isotropic_only: bool = False) -> Iterator[Z2SymForm]:
    """Every nonsingular form of the dim (with zero diagonal if isotropic_only)
    from nonsingular_rows, in its order; DimTooLarge as there."""
    import numpy as np
    chunks = nonsingular_rows(dim, 1 << 12)
    diagonal = np.uint32(1) << np.arange(dim, dtype=np.uint32)
    return (
        Z2SymForm._trusted(dim, tuple(rows))  # symmetric by construction
        for chunk in chunks
        for rows in (chunk[~(chunk & diagonal).any(axis=1)] if isotropic_only else chunk).tolist()
    )
