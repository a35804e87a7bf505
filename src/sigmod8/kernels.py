"""Gauss-sum kernels over Z2^dim, in exact integer numpy arithmetic.

Both kernels rest on the table of q-values over a coordinate block, built
by doubling: if q is known on the span of e_0..e_{j-1} then on the coset
+e_j it is q + q(e_j) + 2*lambda(x, e_j), and lambda(x, e_j) is the parity
of x & row_j, one popcount per entry.  Tables are indexed by the bit mask
of x.  Only the lower triangle of the Gram rows is read.

* gauss_sums: the Gauss sums of all 2^dim enhancements q + 2(x.d) of the
  same form at once.  Since i^(q(x) + 2(x.d)) = i^q(x) (-1)^(x.d), they are
  one Walsh-Hadamard transform of i^q.  A stack of forms of one dim is one
  (2^dim, forms) table, so each butterfly (u, w) -> (u + w, u - w) adds
  and subtracts contiguous runs of h * forms entries; while those are
  short the levels are one matmul with a Hadamard matrix instead.  Every
  partial sum is at most 2^dim in absolute value, so the sums are int8
  while 2^dim <= 64, int16 up to 2^14 and int32 above.
* gauss_counts: the four counts #{x : q(x) = c}, c in Z4, of one
  enhancement, from which S = (c0 - c2) + (c1 - c3) i is exact.  It meets
  in the middle: with x = x_L + x_H, x_L in the low a = floor(dim/2)
  coordinates and x_H in the high b = dim - a,

      q(x) = q_L(x_L) + q_H(x_H) + 2 x_L.y(x_H),   y(x_H) = B x_H,

  B the low x high block of the Gram matrix.  Over the group ring Z[Z4]
  (t for 1 in Z4), the counts of q_L(x_L) + 2 x_L.y = k over x_L, for
  every y at once, are one Walsh-Hadamard transform with butterfly
  (u, v) -> (u + v, u + t^2 v).  On the part where t^2 = -1 that is
  gauss_sums of the low block, W(y), so
  S = sum_{x_H} i^q_H(x_H) W(y(x_H)), read off a histogram of (y, q_H)
  over the 2^b high vectors.  On the part where t^2 = 1 it only counts
  parities, and q(x) mod 2 = sum x_j q(e_j) is linear, so c0 + c2 is 2^dim
  or 2^(dim-1).  Work and memory are O(dim 2^(dim/2)); every count is at
  most 2^30, so int64 cannot wrap.

The Gauss sum of a quadratic linking form on T = sum Z/d_i is exact too.
With D = 2 max(d_i) every value is q(x) = num(x)/D in Q/2Z for an integer
numerator num(x) mod 2D, so sum_x e^(pi i q(x)) = sum_k c_k zeta^k in
Z[zeta], zeta = e^(pi i/D) a primitive 2D-th root of unity:

* linking_numerators: the table of num(x) over all of T, built one cyclic
  factor at a time like _q_values.
* linking_bk: the counts c_k, reduced by zeta^D = -1 to coordinates in the
  basis 1, zeta, ..., zeta^(D-1), compared exactly with
  sqrt|T| zeta_8^k (Milgram's formula), where zeta_8 = zeta^(D/4) and, for
  odd log2|T|, sqrt 2 = zeta_8 + zeta_8^-1.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence

from .errors import NoGaussMatch

__all__ = ["gauss_counts", "gauss_sums", "linking_numerators", "linking_bk"]

# numpy is imported inside the kernels, on first use, so that importing the
# package, and every request that needs no Gauss sum, does without it.

# Contiguous run length (h * forms entries) from which _transform's levels
# are add/subtract butterflies rather than one Hadamard matmul.
_MIN_RUN = 32


@lru_cache(maxsize=None)
def _hadamard(h: int, dtype):
    """The h x h matrix (-1)^(x.d), h a power of 2, in the transform's dtype."""
    import numpy as np
    x = np.arange(h)
    matrix = 1 - 2 * (np.bitwise_count(x[:, None] & x) & 1).astype(dtype)
    matrix.flags.writeable = False  # shared by every call
    return matrix


def _q_values(dim: int, qdiag, rows):
    """q(x) in Z4 for every x in Z2^dim, indexed by the bit mask of x (uint8).

    qdiag and rows may hold a stack of forms, shape (forms, dim); the
    table then has shape (2^dim, forms), as _transform takes it.  The coset
    +e_j adds q(e_j) + 2 popcount(x & row_j) to q(x) for every x < 2^j.
    Those increments are computed for all j at once, so each doubling step
    is a single addition.  The uint8 sums wrap mod 256, a multiple of 4,
    and are reduced mod 4 once at the end.
    """
    import numpy as np
    if dim < 0 or dim > 30:
        raise ValueError("dim out of range for the enumeration kernel")
    qdiag = np.asarray(qdiag, dtype=np.uint8)
    stack = qdiag.shape[:-1]  # () for one form, (forms,) for a stack
    narrow = np.uint8 if dim <= 8 else np.uint32  # holds x; a row's higher bits meet no x
    x = np.arange(1 << max(dim - 1, 0), dtype=narrow).reshape((-1,) + (1,) * len(stack))
    rows = np.asarray(rows, dtype=np.uint32).T.astype(narrow, order="C")
    step = np.bitwise_count(x & rows[:, None])  # (dim, 2^(dim-1)) + stack, uint8
    step += step
    step += np.ascontiguousarray(qdiag.T)[:, None]
    q = np.zeros((1 << dim,) + stack, dtype=np.uint8)
    for j in range(dim):
        half = 1 << j
        np.add(q[:half], step[j, :half], out=q[half:2 * half])
    q &= 3
    return q


def _transform(q):
    """Re and im of sum_x i^q(x) (-1)^(x.d) for every d: shape (2,) + q.shape.

    q is a uint8 table of shape (2^dim, ...), one transform per column.
    The work is a (2 * 2^dim, forms) table, re above im, so bit log2(h)
    of the index splits it into contiguous runs of h * forms entries.
    The sums stay in the butterflies' dtype.
    """
    import numpy as np
    size = q.shape[0]
    dtype = np.int8 if size <= 1 << 6 else np.int16 if size <= 1 << 14 else np.int32
    table = q.reshape(size, -1)
    forms = table.shape[1]
    s = np.empty((2 * size, forms), dtype=dtype)
    t = np.empty_like(s)
    # i^q: re = 1 - q where that is odd (q even), im = 2 - q where that is odd
    units = s.reshape(2, size, forms)
    np.subtract(np.arange(1, 3, dtype=dtype)[:, None, None], table.view(np.int8), out=units)
    units *= units & 1
    # levels whose runs are shorter than _MIN_RUN are one matmul over the
    # low bits; below that length a butterfly costs more in calls than in work
    h = 1
    while h < size and h * forms < _MIN_RUN:
        h *= 2
    if h > 1:
        shape = (2 * size // h, h, forms)
        np.matmul(_hadamard(h, dtype), s.reshape(shape), out=t.reshape(shape))
        s, t = t, s
    while h < size:
        # axis 1 is bit log2(h) of the index: (u, w) -> (u + w, u - w)
        shape = (size // h, 2, h * forms)
        v, out = s.reshape(shape), t.reshape(shape)
        np.add(v[:, 0], v[:, 1], out=out[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=out[:, 1])
        s, t = t, s
        h *= 2
    return s.reshape((2,) + q.shape)


def gauss_counts(dim: int, qdiag, rows):
    """Counts of q-values over all of Z2^dim, meeting in the middle.

    qdiag: sequence of dim values in {0,1,2,3} (q on the basis vectors)
    rows:  sequence of dim bit masks (rows of the Gram matrix)
    """
    import numpy as np
    if dim < 0 or dim > 30:
        raise ValueError("dim out of range for the enumeration kernel")
    a = dim // 2
    w = _transform(_q_values(a, qdiag[:a], rows[:a])).astype(np.int64)
    high = rows[a:]
    qh = _q_values(dim - a, qdiag[a:], [r >> a for r in high])
    # y(x_H) = B x_H, by doubling over the high coordinates
    y = np.zeros(qh.size, dtype=np.int64)
    low = (1 << a) - 1
    for j, r in enumerate(high):
        np.bitwise_xor(y[:1 << j], r & low, out=y[1 << j:2 << j])
    # row k of hist.T @ w.T sums W(y(x_H)) over the x_H with q_H(x_H) = k,
    # and S is the sum over k of i^k times row k
    y <<= 2
    y += qh
    hist = np.bincount(y, minlength=4 << a).reshape(-1, 4)
    (r0, m0), (r1, m1), (r2, m2), (r3, m3) = (hist.T @ w.T).tolist()
    re, im = r0 - m1 - r2 + m3, m0 + r1 - m2 - r3
    even = 1 << (dim - 1) if any(v & 1 for v in qdiag) else 1 << dim
    odd = (1 << dim) - even
    return (even + re) >> 1, (odd + im) >> 1, (even - re) >> 1, (odd - im) >> 1


def gauss_sums(dim: int, qdiag, rows):
    """Exact Gauss sums of q_d(x) = q(x) + 2(x.d) for every d in Z2^dim.

    Takes the same arguments as gauss_counts, or a stack of them, shape
    (forms, dim), and returns two arrays (re, im) of shape (2^dim) or
    (2^dim, forms) in _transform's dtype, indexed by the bit mask of d.
    """
    s = _transform(_q_values(dim, qdiag, rows))
    return s[0], s[1]


def linking_numerators(orders: Sequence[int], qnum: Sequence[int],
                       bnum: Sequence[Sequence[int]], modulus: int):
    """num(x) = sum a_i^2 qnum_i + sum_{i<j} a_i a_j bnum_ij mod `modulus`.

    One int64 entry per x = sum a_i g_i in the product of the cyclic groups
    Z/orders[i], at index sum a_i * prod_{j<i} orders[j] (a_0 fastest).
    Each factor and each coefficient is reduced mod `modulus` before it is
    multiplied, so with modulus <= 2^22 no product exceeds 2^44.
    """
    import numpy as np
    num = np.zeros(1, dtype=np.int64)
    for k, d in enumerate(orders):
        a = np.arange(d, dtype=np.int64) % modulus
        # lin(x) = sum_{j<k} a_j bnum_jk on the factors already built
        lin = np.zeros(1, dtype=np.int64)
        for j in range(k):
            aj = np.arange(orders[j], dtype=np.int64) % modulus
            lin = np.add.outer(aj * (bnum[j][k] % modulus), lin).ravel() % modulus
        table = np.multiply.outer(a, lin)
        table += num
        table += ((a * a % modulus) * (qnum[k] % modulus))[:, None]
        table %= modulus
        num = table.ravel()
    return num


def _root_coords(exponent: int, scale: int, denom: int, out: Dict[int, int]) -> None:
    """Add scale * zeta^exponent to `out`, coordinates in 1, ..., zeta^(denom-1)."""
    e = exponent % (2 * denom)
    sign = 1 if e < denom else -1
    pos = e % denom
    out[pos] = out.get(pos, 0) + sign * scale


def linking_bk(orders: Sequence[int], qnum: Sequence[int],
               bnum: Sequence[Sequence[int]], denom: int) -> int:
    """k in Z8 with sum_x zeta^num(x) = sqrt|T| zeta_8^k, zeta = e^(pi i/denom).

    num is linking_numerators(orders, qnum, bnum, 2 denom); denom must be a
    multiple of 4 and |T| = prod orders a power of 2.  Raises NoGaussMatch
    when the sum is none of the eight candidates.
    """
    import numpy as np
    num = linking_numerators(orders, qnum, bnum, 2 * denom)
    counts = np.bincount(num, minlength=2 * denom)
    coords = counts[:denom] - counts[denom:]
    nz = np.flatnonzero(coords)
    actual = dict(zip(nz.tolist(), coords[nz].tolist()))
    size = num.size
    half, odd = divmod(size.bit_length() - 1, 2)
    eighth = denom // 4
    for k in range(8):
        target: Dict[int, int] = {}
        for e in ((k + 1) * eighth, (k - 1) * eighth) if odd else (k * eighth,):
            _root_coords(e, 1 << half, denom, target)
        if target == actual:
            return k
    raise NoGaussMatch(
        f"Gauss sum {actual} (powers of e^(pi i/{denom})) is not sqrt({size}) "
        "times an eighth root of unity"
    )
