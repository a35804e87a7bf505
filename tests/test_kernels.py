"""The Gauss-sum kernels over Z2^dim."""
import pytest

from sigmod8 import kernels
from sigmod8.enhancements import Z4Quadratic, bk_classify, bk_gauss, p1, pm1, q00, q22
from sigmod8.rng import SplitMix64
from sigmod8.z2forms import Z2SymForm, is_nonsingular


def random_instance(dim, rng):
    rows = [0] * dim
    for i in range(dim):
        for j in range(i, dim):
            if rng.randrange(2):
                rows[i] |= 1 << j
                if i != j:
                    rows[j] |= 1 << i
    form = Z2SymForm(dim, tuple(rows))
    diag = form.diagonal_mask()
    qdiag = tuple(((diag >> i) & 1) + 2 * rng.randrange(2) for i in range(dim))
    return qdiag, form.rows


def brute_force_values(qdiag, rows):
    """q(x) for every x, in pure Python."""
    q = Z4Quadratic(Z2SymForm(len(rows), rows), qdiag)
    return [q.evaluate_mask(x) for x in range(1 << q.dim)]


def brute_force_counts(qdiag, rows):
    """#{x : q(x) = c} for c in Z4, evaluating q at every x in pure Python."""
    q = Z4Quadratic(Z2SymForm(len(rows), rows), qdiag)
    counts = [0, 0, 0, 0]
    for x in range(1 << q.dim):
        counts[q.evaluate_mask(x)] += 1
    return tuple(counts)


def with_cross_block(qdiag, rows, bit):
    """The instance with every entry of the low x high Gram block set to `bit`.

    Low and high are the coordinates below and from dim // 2 on, the two
    halves gauss_counts splits x into.
    """
    dim = len(rows)
    a = dim // 2
    low, high = (1 << a) - 1, ((1 << dim) - 1) ^ ((1 << a) - 1)
    rows = [(r & low if i < a else r & high) for i, r in enumerate(rows)]
    if bit:
        rows = [r | (high if i < a else low) for i, r in enumerate(rows)]
    return qdiag, tuple(rows)


def test_counts_match_brute_force():
    rng = SplitMix64(44)
    for dim in range(0, 15):
        for _ in range(2 if dim < 13 else 1):
            qdiag, rows = random_instance(dim, rng)
            for qdiag, rows in ((qdiag, rows), with_cross_block(qdiag, rows, 0),
                                with_cross_block(qdiag, rows, 1)):
                assert kernels.gauss_counts(dim, qdiag, rows) == brute_force_counts(
                    qdiag, rows), (dim, qdiag, rows)


def test_counts_sum_to_full_space():
    rng = SplitMix64(40)
    for dim in range(0, 13):
        qdiag, rows = random_instance(dim, rng)
        counts = kernels.gauss_counts(dim, qdiag, rows)
        assert sum(counts) == 1 << dim


def test_dim_bound():
    with pytest.raises(ValueError):
        kernels.gauss_counts(31, (), ())
    with pytest.raises(ValueError):
        kernels.gauss_sums(31, (), ())


def test_large_dim_additivity():
    """Gauss sums at dim 18 via direct-sum additivity of the invariant."""
    from sigmod8.enhancements import Z4Quadratic, bk_gauss
    from sigmod8.z2forms import Z2SymForm, is_nonsingular

    rng = SplitMix64(42)

    def nonsingular_instance(dim):
        while True:
            qdiag, rows = random_instance(dim, rng)
            form = Z2SymForm(dim, rows)
            if is_nonsingular(form):
                return Z4Quadratic(form, qdiag)

    a = nonsingular_instance(10)
    b = nonsingular_instance(8)
    assert bk_gauss(a.direct_sum(b)) == (bk_gauss(a) + bk_gauss(b)) % 8


def conjugated_block_sum(pieces, rng):
    """The orthogonal sum of `pieces` in a random basis, with its BK.

    The basis f_i comes from the standard one by random elementary steps
    f_i += f_j, so the result is the same enhancement written through a
    random element of GL(n, F2); its BK is the sum of the pieces' values.
    """
    total = pieces[0]
    for piece in pieces[1:]:
        total = total.direct_sum(piece)
    dim = total.dim
    basis = [1 << i for i in range(dim)]
    for _ in range(4 * dim * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            basis[i] ^= basis[j]
    form = total.form
    rows = tuple(
        sum(form.evaluate_masks(f, g) << k for k, g in enumerate(basis)) for f in basis
    )
    q = Z4Quadratic(Z2SymForm(dim, rows), tuple(total.evaluate_mask(f) for f in basis))
    known = {(1,): 1, (3,): 7, (0, 0): 0, (2, 2): 4}
    return q, sum(known[piece.values] for piece in pieces) % 8


def test_bk_gauss_matches_classification_large_dims():
    rng = SplitMix64(45)
    standard = (p1(), pm1(), q00(), q22())
    for dim in (18, 20, 22, 24):
        for _ in range(3):
            pieces = []
            while sum(piece.dim for piece in pieces) < dim:
                room = dim - sum(piece.dim for piece in pieces)
                pieces.append(standard[rng.randrange(4 if room > 1 else 2)])
            q, bk = conjugated_block_sum(pieces, rng)
            assert q.dim == dim and is_nonsingular(q.form)
            m, n, p_plus, p_minus = bk_classify(q)
            assert bk_gauss(q) == (4 * n + p_plus - p_minus) % 8 == bk, (dim, q.values)


def reference_transform(q):
    """The Walsh transform of i^q by int64 matmul butterflies along the first axis."""
    import numpy as np

    s = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=np.int64)[:, q]
    size = q.shape[0]
    flat = s.reshape(2, size, -1)
    butterfly = np.array([[1, 1], [1, -1]], dtype=np.int64)
    h = 1
    while h < size:
        # axis 2 is bit log2(h) of the index
        flat = np.einsum("ab,rhbwf->rhawf", butterfly, flat.reshape(2, size // (2 * h), 2, h, -1))
        flat = flat.reshape(2, size, -1)
        h *= 2
    return flat.reshape((2,) + q.shape)


def narrow_dtype(size):
    import numpy as np

    return np.int8 if size <= 1 << 6 else np.int16 if size <= 1 << 14 else np.int32


def boundary_tables(size, seed):
    """The four constant tables (|entry at d = 0| = size) and two random
    ones, as the columns of a (size, 6) table, the 2^dim axis first."""
    import numpy as np

    rng = np.random.default_rng(seed)
    consts = [np.full(size, c, dtype=np.uint8) for c in range(4)]
    return np.stack(consts + [rng.integers(0, 4, size, dtype=np.uint8) for _ in range(2)], axis=1)


@pytest.mark.parametrize("size", [64, 128, 1 << 14, 1 << 15])
def test_transform_at_the_dtype_boundaries(size):
    """The narrow-integer transform equals the int64 one where its dtype
    changes (int8 to 64, int16 to 2^14, int32 above), alone and stacked,
    and returns its sums in that dtype; a constant table reaches
    |sum| = 2^dim at d = 0."""
    import numpy as np

    tables = boundary_tables(size, size)
    for q in [*tables.T, tables, tables[:, ::-1].reshape(size, 2, 3)]:
        got = kernels._transform(q)
        assert got.dtype == narrow_dtype(size) and got.shape == (2,) + q.shape
        assert np.array_equal(got, reference_transform(q)), (size, q.shape)
    s = kernels._transform(tables[:, :4])
    assert s[:, 0, :].tolist() == [[size, 0, -size, 0], [0, size, 0, -size]]


@pytest.mark.parametrize("forms", [1, 3, 31, 32, 33, 100])
def test_transform_matmul_and_butterfly_levels(forms):
    """Stacks on both sides of the run length at which the low levels stop
    being one Hadamard matmul, at every size up to 2^9."""
    import numpy as np

    rng = np.random.default_rng(forms)
    for dim in range(10):
        q = rng.integers(0, 4, (1 << dim, forms), dtype=np.uint8)
        assert np.array_equal(kernels._transform(q), reference_transform(q)), (forms, dim)


def test_gauss_sums_of_a_stack_are_the_transform_of_its_q_tables():
    """gauss_sums of a stack of forms: column f is the reference transform
    of form f's q-values, each counted from its enhancement."""
    import numpy as np

    rng = SplitMix64(49)
    for dim in (0, 1, 4, 7):
        instances = [random_instance(dim, rng) for _ in range(5)]
        q = np.array([brute_force_values(qdiag, rows) for qdiag, rows in instances],
                     dtype=np.uint8).reshape(5, 1 << dim).T
        qdiag = np.array([qd for qd, _ in instances], dtype=np.uint8).reshape(5, dim)
        rows = np.array([r for _, r in instances], dtype=np.uint32).reshape(5, dim)
        re, im = kernels.gauss_sums(dim, qdiag, rows)
        assert re.shape == im.shape == (1 << dim, 5) and re.dtype == narrow_dtype(1 << dim)
        assert np.array_equal(np.stack([re, im]), reference_transform(q)), dim
