"""Arf / Brown-Kervaire invariants, with the Gauss sum as the oracle."""
import pytest

from sigmod8 import kernels
from sigmod8.enhancements import (
    GAUSS_DIM_LIMIT,
    Z2Quadratic,
    Z4Quadratic,
    _arf_tables,
    _bk_classify_tables,
    _bk_gauss_table,
    _bk_gauss_tables,
    _flip_coordinates,
    _match_gauss,
    _split_arrays,
    _subquotient_basis,
    _subquotient_indices,
    arf,
    bk_classify,
    bk_gauss,
    difference_vector,
    double,
    enumerate_z2_enhancements,
    enumerate_z4_enhancements,
    h00,
    h11,
    isotropic_subquotient,
    p1,
    pm1,
    q00,
    q22,
    wu_sublagrangian,
)
from sigmod8.errors import (
    AnisotropicInput,
    DimTooLarge,
    FormMismatch,
    NoGaussMatch,
    NotDivisibleBy4,
    NotLinearDifference,
    SingularForm,
)
from sigmod8.rng import SplitMix64
from sigmod8.z2forms import (
    H_FORM,
    P_FORM,
    Z2SymForm,
    enumerate_nonsingular_forms,
    is_nonsingular,
    wu_class,
)


def sum_forms(*qs):
    total = qs[0]
    for q in qs[1:]:
        total = total.direct_sum(q)
    return total


def n_copies(q, n):
    return sum_forms(*([q] * n)) if n else Z4Quadratic(Z2SymForm(0, ()), ())


def random_nonsingular_forms(dim, count, rng):
    """`count` seeded nonsingular forms of the given dim, by rejection."""
    forms = []
    while len(forms) < count:
        rows = [0] * dim
        for i in range(dim):
            for j in range(i, dim):
                if rng.randrange(2):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        form = Z2SymForm(dim, tuple(rows))
        if is_nonsingular(form):
            forms.append(form)
    return forms


def random_isotropic_enhanced(k, rng):
    """A random-basis presentation of k hyperbolic planes with random values."""
    dim = 2 * k
    base = Z2SymForm(0, ())
    for _ in range(k):
        base = base.direct_sum(H_FORM)
    while True:
        rows_p = tuple(rng.randrange(1 << dim) for _ in range(dim))
        work = list(rows_p)
        rank = 0
        for col in range(dim):
            piv = next((r for r in range(rank, dim) if (work[r] >> col) & 1), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            for r in range(dim):
                if r != rank and (work[r] >> col) & 1:
                    work[r] ^= work[rank]
            rank += 1
        if rank == dim:
            break
    rows = []
    for i in range(dim):
        row = 0
        for j in range(dim):
            row |= base.evaluate_masks(rows_p[i], rows_p[j]) << j
        rows.append(row)
    form = Z2SymForm(dim, tuple(rows))
    values = tuple(rng.randrange(2) for _ in range(dim))
    return Z2Quadratic(form, values)


# -------------------------------------------------------------- quadraticity

def test_quadratic_law_exhaustive_dim10():
    form = Z2SymForm(0, ())
    for _ in range(3):
        form = form.direct_sum(H_FORM)
    for _ in range(4):
        form = form.direct_sum(P_FORM)
    assert form.dim == 10
    q = Z4Quadratic(form, tuple([0, 2, 2, 0, 2, 2] + [1, 3, 1, 3]))
    table = [q.evaluate_mask(x) for x in range(1 << 10)]
    from sigmod8.z2forms import _apply

    applied = [_apply(form.rows, x) for x in range(1 << 10)]
    for x in range(1 << 10):
        # mod-2 reduction: jq(x) = lambda(x, x)
        assert table[x] & 1 == bin(applied[x] & x).count("1") & 1
    rng = SplitMix64(1)
    for _ in range(20000):
        x = rng.randrange(1 << 10)
        y = rng.randrange(1 << 10)
        lam_xy = bin(applied[x] & y).count("1") & 1
        assert table[x ^ y] == (table[x] + table[y] + 2 * lam_xy) % 4


def test_quadratic_law_all_pairs_dim6():
    for form in [n_copies(q22(), 3).form]:
        q = Z4Quadratic(form, (2, 0, 2, 2, 0, 0))
        table = [q.evaluate_mask(x) for x in range(64)]
        for x in range(64):
            for y in range(64):
                lam = form.evaluate_masks(x, y)
                assert table[x ^ y] == (table[x] + table[y] + 2 * lam) % 4


def test_value_parity_enforced():
    with pytest.raises(ValueError):
        Z4Quadratic(P_FORM, (2,))
    with pytest.raises(ValueError):
        Z4Quadratic(H_FORM, (1, 0))


def test_enumeration_validates_once_direct_construction_always():
    """Enumeration skips per-enhancement checks; its output would pass them."""
    for dim in range(0, 4):
        for form in enumerate_nonsingular_forms(dim):
            for q in enumerate_z4_enhancements(form):
                assert Z4Quadratic(form, q.values) == q
            if form.is_isotropic():
                for h in enumerate_z2_enhancements(form):
                    assert Z2Quadratic(form, h.values) == h
                    assert double(h) == Z4Quadratic(form, double(h).values)
    form = Z2SymForm.from_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="wrong parity"):
        Z4Quadratic(form, (1, 1, 1))
    with pytest.raises(ValueError):
        Z4Quadratic(form, (1, 0, 5))
    with pytest.raises(ValueError):
        Z2Quadratic(H_FORM, (0, 2))
    with pytest.raises(AnisotropicInput):
        Z2Quadratic(form, (0, 0, 0))
    with pytest.raises(AnisotropicInput):
        next(enumerate_z2_enhancements(form))


def test_from_table_roundtrip_and_rejection():
    q = q22()
    table = [q.evaluate_mask(x) for x in range(4)]
    assert Z4Quadratic.from_table(H_FORM, table) == q
    bad = list(table)
    bad[3] = (bad[3] + 1) % 4
    with pytest.raises(NotLinearDifference):
        Z4Quadratic.from_table(H_FORM, bad)


# ------------------------------------------------------------------------ arf

def test_arf_examples():
    assert arf(h00()) == 0
    assert arf(h11()) == 1
    assert arf(h11().direct_sum(h11())) == 0


def test_arf_needs_isotropic():
    with pytest.raises(AnisotropicInput):
        Z2Quadratic(P_FORM, (0,))


def test_arf_basis_independence():
    rng = SplitMix64(2)
    for k in (1, 2, 3, 4):
        for _ in range(5):
            h = random_isotropic_enhanced(k, rng)
            value = arf(h)
            dim = h.dim
            # precompose with random lambda-preserving transvections
            images = [1 << i for i in range(dim)]
            for _ in range(20):
                c = 1 + rng.randrange((1 << dim) - 1)
                images = [
                    x ^ (h.form.evaluate_masks(x, c) * c) for x in images
                ]
            values = tuple(h.evaluate_mask(x) for x in images)
            rows = []
            for i in range(dim):
                row = 0
                for j in range(dim):
                    row |= h.form.evaluate_masks(images[i], images[j]) << j
                rows.append(row)
            assert tuple(rows) == h.form.rows  # transvections preserve lambda
            assert arf(Z2Quadratic(h.form, values)) == value


def test_arf_democratic_invariant():
    rng = SplitMix64(4)
    for k in (1, 2, 3, 4):
        for _ in range(4 if k > 2 else 1):
            h = random_isotropic_enhanced(k, rng)
            ones = sum(h.evaluate_mask(x) for x in range(1 << h.dim))
            majority = ones > (1 << h.dim) // 2
            assert (arf(h) == 1) == majority


# ------------------------------------------------------------------ bk_gauss

def test_bk_gauss_examples():
    assert bk_gauss(p1()) == 1
    assert bk_gauss(q22()) == 4
    assert bk_gauss(Z4Quadratic(Z2SymForm(0, ()), ())) == 0


def test_bk_gauss_standard_pieces():
    assert bk_gauss(pm1()) == 7
    assert bk_gauss(q00()) == 0
    assert bk_gauss(n_copies(p1(), 4)) == 4


def test_bk_gauss_additivity():
    rng = SplitMix64(5)
    pool = []
    for dim in range(1, 4):
        for form in enumerate_nonsingular_forms(dim):
            pool.extend(enumerate_z4_enhancements(form))
    for _ in range(60):
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        assert bk_gauss(a.direct_sum(b)) == (bk_gauss(a) + bk_gauss(b)) % 8


def test_bk_gauss_dim_limit():
    big = n_copies(q00(), (GAUSS_DIM_LIMIT + 2) // 2)
    with pytest.raises(DimTooLarge):
        bk_gauss(big)


def bk_by_counting(q):
    """BK from the counting kernel, one enhancement at a time (the reference)."""
    c0, c1, c2, c3 = kernels.gauss_counts(q.dim, q.values, q.form.rows)
    return _match_gauss(q.dim, c0 - c2, c1 - c3)


def test_bk_gauss_table_matches_counting_exhaustive_dim4():
    for dim in range(0, 5):
        for form in enumerate_nonsingular_forms(dim):
            for q in enumerate_z4_enhancements(form):
                assert bk_gauss(q) == bk_by_counting(q), (form.rows, q.values)


def test_bk_gauss_table_matches_counting_sampled_dim5_dim6():
    rng = SplitMix64(43)
    for dim in (5, 6):
        for form in random_nonsingular_forms(dim, 12, rng):
            for q in enumerate_z4_enhancements(form):
                assert bk_gauss(q) == bk_by_counting(q), (form.rows, q.values)


def test_form_caches_shared_by_equal_forms():
    a = Z2SymForm.from_matrix([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    b = Z2SymForm(4, list(a.rows))  # rows given as a list are stored as a tuple
    assert a is not b and a == b and hash(a) == hash(b)
    assert [bk_gauss(q) for q in enumerate_z4_enhancements(a)] == [
        bk_gauss(q) for q in enumerate_z4_enhancements(b)
    ]
    assert _bk_gauss_table(a) is _bk_gauss_table(b)
    assert _subquotient_basis(a) is _subquotient_basis(b)
    assert wu_class(a) is wu_class(b)


def test_gauss_match_rejects_impossible_sums():
    with pytest.raises(NoGaussMatch):
        _match_gauss(2, 1, 1)
    with pytest.raises(NoGaussMatch):
        _match_gauss(3, 2, 0)


@pytest.mark.parametrize("dim", [5, 6])
def test_gauss_table_rejects_one_off_root_sum(monkeypatch, dim):
    """One transform entry off the eighth roots fails the whole table."""
    real = kernels.gauss_sums

    def off_root(dim, qdiag, rows):
        re, im = real(dim, qdiag, rows)
        re[3] += 1
        return re, im

    monkeypatch.setattr(kernels, "gauss_sums", off_root)
    form = Z2SymForm(dim, tuple(1 << i for i in range(dim)))
    with pytest.raises(NoGaussMatch, match=f"does not match any eighth root at dim {dim}"):
        _bk_gauss_table.__wrapped__(form)  # past the cache, which may hold the true table


def test_witt_relations_via_gauss():
    assert bk_gauss(sum_forms(q00(), q00())) == bk_gauss(sum_forms(q22(), q22()))
    assert bk_gauss(sum_forms(q22(), p1())) == bk_gauss(n_copies(pm1(), 3))
    assert bk_gauss(n_copies(p1(), 4)) == bk_gauss(n_copies(pm1(), 4))


# --------------------------------------------------------------- bk_classify

def test_bk_classify_examples():
    assert bk_classify(q00()) == (1, 0, 0, 0)
    assert bk_classify(p1().direct_sum(pm1())) == (0, 0, 1, 1)


def test_bk_classify_matches_gauss_exhaustive_dim4():
    for dim in range(0, 5):
        for form in enumerate_nonsingular_forms(dim):
            for q in enumerate_z4_enhancements(form):
                m, n, pp, pm_ = bk_classify(q)
                assert m + n + (pp + pm_ + 1) // 2 >= 0
                assert pp + pm_ + 2 * (m + n) == dim
                assert (4 * n + pp - pm_) % 8 == bk_gauss(q)


def _table_forms(seed):
    """Every nonsingular form of dim 0..4, and seeded samples at dims 5 and 6."""
    rng = SplitMix64(seed)
    forms = [f for dim in range(0, 5) for f in enumerate_nonsingular_forms(dim)]
    return forms + random_nonsingular_forms(5, 12, rng) + random_nonsingular_forms(6, 12, rng)


def _by_dim(forms):
    """The forms grouped by dim, as the batched tables take them."""
    groups = {}
    for form in forms:
        groups.setdefault(form.dim, []).append(form)
    return groups.items()


def test_bk_gauss_tables_match_counting():
    """Row f, entry d of the batched Gauss tables is BK of enhancement d of
    form f, counted on its own by gauss_counts."""
    for dim, forms in _by_dim(_table_forms(48)):
        tables = _bk_gauss_tables(_split_arrays(dim, forms).rows)
        assert tables.shape == (len(forms), 1 << dim)
        for form, table in zip(forms, tables.tolist()):
            assert table == [bk_by_counting(q) for q in enumerate_z4_enhancements(form)], form.rows
            assert bytes(table) == _bk_gauss_table(form)  # the one-form case


def test_classify_table_matches_bk_classify():
    """Entry d of a form's row is 4n + p_plus - p_minus of enhancement d."""
    for dim, forms in _by_dim(_table_forms(44)):
        tables = _bk_classify_tables(_split_arrays(dim, forms))
        assert tables.shape == (len(forms), 1 << dim)
        for form, table in zip(forms, tables.tolist()):
            for d, q in enumerate(enumerate_z4_enhancements(form)):
                m, n, pp, pm_ = bk_classify(q)
                assert table[d] == (4 * n + pp - pm_) % 8, (form.rows, q.values)
    # rebuilt on every call: the classification route is never a cache hit
    assert not hasattr(_bk_classify_tables, "cache_info")
    assert not hasattr(_arf_tables, "cache_info")
    split = _split_arrays(dim, forms)
    assert _bk_classify_tables(split) is not _bk_classify_tables(split)
    isotropic = _split_arrays(4, list(enumerate_nonsingular_forms(4, isotropic_only=True)))
    assert _arf_tables(isotropic) is not _arf_tables(isotropic)


def test_flip_coordinates_brute_force():
    """Bit k of coords[f, d] is the parity of d & vectors[f, k], for any
    number of vectors (more than dim too)."""
    import numpy as np

    rng = SplitMix64(47)
    for dim in range(7):
        for count in (0, 1, dim, dim + 1, dim + 3, 2 * dim + 5):
            vectors = [[rng.randrange(1 << dim) for _ in range(count)] for _ in range(3)]
            coords = _flip_coordinates(dim, np.array(vectors, dtype=np.uint8).reshape(3, count))
            assert coords.shape == (3, 1 << dim)
            for row, masks in zip(vectors, coords.tolist()):
                for d, mask in enumerate(masks):
                    assert mask == sum((d & s).bit_count() % 2 << k
                                       for k, s in enumerate(row)), (dim, row, d)


def test_arf_table_matches_arf():
    forms = [f for dim in (0, 2, 4) for f in enumerate_nonsingular_forms(dim, isotropic_only=True)]
    rng = SplitMix64(45)
    forms += [random_isotropic_enhanced(3, rng).form for _ in range(12)]
    for dim, group in _by_dim(forms):
        tables = _arf_tables(_split_arrays(dim, group))
        assert tables.shape == (len(group), 1 << dim)
        for form, table in zip(group, tables.tolist()):
            for b, h in enumerate(enumerate_z2_enhancements(form)):
                assert table[b] == arf(h), (form.rows, h.values)
    with pytest.raises(AnisotropicInput):
        _arf_tables(_split_arrays(1, [P_FORM]))


def test_subquotient_indices_match_isotropic_subquotient():
    """The index the bk-4arf suite reads is the subquotient's value mask, and
    the W it names is the subquotient's form."""
    for dim, forms in _by_dim(_table_forms(46)):
        w_dims, w_rows, indices = _subquotient_indices(_split_arrays(dim, forms))
        assert indices.shape == (len(forms), 1 << dim)
        for form, w_dim, rows, row in zip(forms, w_dims.tolist(), w_rows.tolist(), indices.tolist()):
            v = wu_class(form)
            w_form = Z2SymForm(w_dim, tuple(rows[:w_dim])) if w_dim >= 0 else None
            assert w_dim < 0 or rows[w_dim:] == [0] * (dim - w_dim)
            for d, q in enumerate(enumerate_z4_enhancements(form)):
                if q.evaluate(v) != 0:
                    assert row[d] == -1
                    continue
                w = isotropic_subquotient(q)
                assert w.form == w_form == _subquotient_basis(form)[1]
                assert row[d] == sum(bit << j for j, bit in enumerate(w.values))
                assert _arf_tables(_split_arrays(w_dim, [w_form]))[0, row[d]] == arf(w)
            if w_form is None:  # then no enhancement has q(v) = 0
                assert all(q.evaluate(v) for q in enumerate_z4_enhancements(form))


def test_tables_refuse_large_or_singular_forms():
    with pytest.raises(DimTooLarge):
        _split_arrays(7, [])
    with pytest.raises(SingularForm):
        _split_arrays(1, [Z2SymForm(1, (0,))])


# -------------------------------------------------------------------- double

def test_double_examples():
    assert double(h11()) == q22()
    assert double(h00()) == q00()
    assert bk_gauss(double(h11())) == 4 * arf(h11()) % 8


def test_double_identity_exhaustive():
    for dim in (0, 2, 4):
        for form in enumerate_nonsingular_forms(dim, isotropic_only=True):
            for h in enumerate_z2_enhancements(form):
                assert bk_gauss(double(h)) == (4 * arf(h)) % 8


# --------------------------------------------------------- difference_vector

def test_difference_examples():
    t, delta = difference_vector(q00(), q00())
    assert t.mask == 0 and delta == 0
    t, delta = difference_vector(q00(), q22())
    assert t.bits == (1, 1)
    assert (bk_gauss(q00()) - bk_gauss(q22())) % 8 == delta


def test_difference_identity_exhaustive_dim3():
    for dim in range(1, 4):
        for form in enumerate_nonsingular_forms(dim):
            qs = list(enumerate_z4_enhancements(form))
            bks = [bk_gauss(q) for q in qs]
            for i, q in enumerate(qs):
                for j, qp in enumerate(qs):
                    t, delta = difference_vector(q, qp)
                    for x in range(1 << dim):
                        diff = (qp.evaluate_mask(x) - q.evaluate_mask(x)) % 4
                        assert diff == 2 * form.evaluate_masks(x, t.mask)
                    assert (bks[i] - bks[j]) % 8 == delta


def test_difference_form_mismatch():
    with pytest.raises(FormMismatch):
        difference_vector(p1(), q00())


# --------------------------------------------- wu sublagrangian / subquotient

def test_wu_sublagrangian_examples():
    sub = wu_sublagrangian(n_copies(p1(), 4))
    assert sub.basis == (0b1111,)
    with pytest.raises(NotDivisibleBy4):
        wu_sublagrangian(p1())
    zero = wu_sublagrangian(q00())
    assert zero.basis == ()


def test_subquotient_examples():
    w = isotropic_subquotient(n_copies(p1(), 4))
    assert w.dim == 2
    assert [w.evaluate_mask(m) for m in (1, 2, 3)] == [1, 1, 1]
    assert arf(w) == 1
    w0 = isotropic_subquotient(q00())
    assert w0.dim == 2 and arf(w0) == 0


def test_subquotient_identity_exhaustive_dim4():
    for dim in range(0, 5):
        for form in enumerate_nonsingular_forms(dim):
            v = wu_class(form)
            for q in enumerate_z4_enhancements(form):
                bk = bk_gauss(q)
                if q.evaluate(v) != 0:
                    assert bk % 4 != 0
                    with pytest.raises(NotDivisibleBy4):
                        isotropic_subquotient(q)
                    continue
                assert bk % 4 == 0  # q(v) = [BK] in Z4
                w = isotropic_subquotient(q)
                assert w.dim == (dim if v.mask == 0 else dim - 2)
                assert bk == (4 * arf(w)) % 8


def test_subquotient_error_precedence():
    # on P, lambda(v, v) = 1 also breaks L_perp/L, but q(v) != 0 is reported first
    with pytest.raises(NotDivisibleBy4):
        isotropic_subquotient(p1())
    with pytest.raises(SingularForm):
        isotropic_subquotient(Z4Quadratic(Z2SymForm(1, (0,)), (0,)))


def test_arf_difference_identity():
    """When both BK values are divisible by 4, Arf(W) - Arf(W') = h(t)."""
    for dim in (2, 3, 4):
        for form in enumerate_nonsingular_forms(dim):
            v = wu_class(form)
            qs = [q for q in enumerate_z4_enhancements(form) if q.evaluate(v) == 0]
            for q in qs:
                wq = isotropic_subquotient(q)
                for qp in qs:
                    wqp = isotropic_subquotient(qp)
                    t, _ = difference_vector(q, qp)
                    qt = q.evaluate(t)
                    assert qt in (0, 2)  # t lies in the perpendicular of v
                    h_t = qt >> 1
                    assert (arf(wq) - arf(wqp)) % 2 == h_t
