"""The Gauss-sum kernels over Z2^dim."""
import pytest

from sigmod8 import kernels
from sigmod8.rng import SplitMix64
from sigmod8.z2forms import Z2SymForm


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


def test_backend_reports_name():
    assert kernels.backend() == "python"


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
