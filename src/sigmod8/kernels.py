"""Gauss-sum kernels over Z2^dim, in exact integer numpy arithmetic.

Both kernels start from the table of q-values over Z2^dim, built by
doubling: if q is known on the span of e_0..e_{j-1} then on the coset +e_j
it is q + q(e_j) + 2*lambda(x, e_j), and lambda(x, e_j) is itself built by
doubling over the earlier coordinates.  The table is indexed by the bit
mask of x.

* gauss_counts: the four counts #{x : q(x) = c}, c in Z4, of one
  enhancement, from which S = (c0 - c2) + (c1 - c3) i is exact.
* gauss_sums: the Gauss sums of all 2^dim enhancements q + 2(x.d) of the
  same form at once.  Since i^(q(x) + 2(x.d)) = i^q(x) (-1)^(x.d), they are
  one Walsh-Hadamard transform of i^q, done by butterflies in int64; every
  partial sum is bounded by 2^dim, so nothing can wrap.

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

from typing import Dict, Sequence

from .errors import NoGaussMatch

__all__ = ["gauss_counts", "gauss_sums", "linking_numerators", "linking_bk", "backend"]

# numpy is imported inside the kernels, on first use, so that importing the
# package, and every request that needs no Gauss sum, does without it.


def _q_values(dim: int, qdiag, rows):
    """q(x) in Z4 for every x in Z2^dim, indexed by the bit mask of x (uint8).

    Filled in place, one coset at a time, so the only arrays are the table
    and half a table for lambda(x, e_j).
    """
    import numpy as np
    if dim < 0 or dim > 30:
        raise ValueError("dim out of range for the enumeration kernel")
    q = np.zeros(1 << dim, dtype=np.uint8)
    lam = np.zeros(1 << max(dim - 1, 0), dtype=np.uint8)
    for j in range(dim):
        row = rows[j]
        for i in range(j):
            n = 1 << i
            np.bitwise_xor(lam[:n], (row >> i) & 1, out=lam[n:2 * n])
        half = 1 << j
        qj = q[half:2 * half]
        np.left_shift(lam[:half], 1, out=qj)
        qj += q[:half]
        qj += qdiag[j]
        qj &= 3
    return q


def gauss_counts(dim: int, qdiag, rows):
    """Counts of q-values over all of Z2^dim.

    qdiag: sequence of dim values in {0,1,2,3} (q on the basis vectors)
    rows:  sequence of dim bit masks (rows of the Gram matrix)
    """
    import numpy as np
    q = _q_values(dim, qdiag, rows)
    # count in place: bincount would first copy the uint8 table to int64
    return tuple(int(np.count_nonzero(q == c)) for c in range(4))


def gauss_sums(dim: int, qdiag, rows):
    """Exact Gauss sums of q_d(x) = q(x) + 2(x.d) for every d in Z2^dim.

    Takes the same arguments as gauss_counts and returns two int64 arrays
    (re, im) of length 2^dim, indexed by the bit mask of d.
    """
    import numpy as np
    q = _q_values(dim, qdiag, rows)
    # rows: real and imaginary parts of i^c for c in Z4
    s = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=np.int64)[:, q]
    h = 1
    while h < q.size:
        # axis 2 is bit log2(h) of the index
        s = s.reshape(2, -1, 2, h)
        s = np.stack([s[:, :, 0] + s[:, :, 1], s[:, :, 0] - s[:, :, 1]], axis=2)
        h *= 2
    s = s.reshape(2, -1)
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


def backend() -> str:
    """Name of the Gauss-sum implementation."""
    return "python"
