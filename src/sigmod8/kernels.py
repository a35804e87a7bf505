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
"""
from __future__ import annotations

import numpy as np

__all__ = ["gauss_counts", "gauss_sums", "backend"]

# i^c for c in Z4, split into real and imaginary parts
_RE = np.array([1, 0, -1, 0], dtype=np.int64)
_IM = np.array([0, 1, 0, -1], dtype=np.int64)


def _q_values(dim: int, qdiag, rows) -> np.ndarray:
    """q(x) in Z4 for every x in Z2^dim, indexed by the bit mask of x."""
    if dim < 0 or dim > 30:
        raise ValueError("dim out of range for the enumeration kernel")
    q = np.zeros(1, dtype=np.uint8)
    for j in range(dim):
        lam = np.zeros(1, dtype=np.uint8)
        row = rows[j]
        for i in range(j):
            bit = (row >> i) & 1
            lam = np.concatenate([lam, lam ^ bit])
        qj = (q + qdiag[j] + 2 * lam) & 3
        q = np.concatenate([q, qj])
    return q


def gauss_counts(dim: int, qdiag, rows):
    """Counts of q-values over all of Z2^dim.

    qdiag: sequence of dim values in {0,1,2,3} (q on the basis vectors)
    rows:  sequence of dim bit masks (rows of the Gram matrix)
    """
    counts = np.bincount(_q_values(dim, qdiag, rows), minlength=4)
    return (int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3]))


def gauss_sums(dim: int, qdiag, rows):
    """Exact Gauss sums of q_d(x) = q(x) + 2(x.d) for every d in Z2^dim.

    Takes the same arguments as gauss_counts and returns two int64 arrays
    (re, im) of length 2^dim, indexed by the bit mask of d.
    """
    q = _q_values(dim, qdiag, rows)
    s = np.stack([_RE[q], _IM[q]])
    h = 1
    while h < q.size:
        # axis 2 is bit log2(h) of the index
        s = s.reshape(2, -1, 2, h)
        s = np.stack([s[:, :, 0] + s[:, :, 1], s[:, :, 0] - s[:, :, 1]], axis=2)
        h *= 2
    s = s.reshape(2, -1)
    return s[0], s[1]


def backend() -> str:
    """Name of the Gauss-sum implementation."""
    return "python"
