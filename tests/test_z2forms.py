"""Structure theory of Z2 symmetric forms: oracles first, then invariants."""
from itertools import permutations

import pytest

from sigmod8.errors import DimTooLarge, SingularForm
from sigmod8.rng import SplitMix64
from sigmod8.z2forms import (
    ENUMERATION_DIM_LIMIT,
    H_FORM,
    P_FORM,
    Z2SymForm,
    Z2Vec,
    decompose,
    enumerate_nonsingular_forms,
    is_nonsingular,
    rref_basis,
    split_vectors,
    witt_class_sym,
    wu_class,
)


def rebuild(p, k):
    """p copies of P plus k copies of H."""
    form = Z2SymForm(0, ())
    for _ in range(p):
        form = form.direct_sum(P_FORM)
    for _ in range(k):
        form = form.direct_sum(H_FORM)
    return form


# ---------------------------------------------------------------- oracles

def gl2_candidates(dim, rng=None, limit=None):
    """All invertible dim x dim matrices over Z2, as row-mask tuples."""
    out = []
    for bits in range(1 << (dim * dim)):
        rows = tuple((bits >> (dim * i)) & ((1 << dim) - 1) for i in range(dim))
        work = list(rows)
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
            out.append(rows)
    return out


def congruent(form, change):
    """P^T M P where change's rows are the images of the basis vectors."""
    dim = form.dim
    rows = []
    for i in range(dim):
        row = 0
        for j in range(dim):
            row |= form.evaluate_masks(change[i], change[j]) << j
        rows.append(row)
    return Z2SymForm(dim, tuple(rows))


_GL_CACHE = {}


def isomorphic_bruteforce(a: Z2SymForm, b: Z2SymForm) -> bool:
    """Exhaustive change-of-basis search; only sensible for dim <= 4."""
    if a.dim != b.dim:
        return False
    dim = a.dim
    if dim not in _GL_CACHE:
        _GL_CACHE[dim] = gl2_candidates(dim)
    return any(congruent(a, change) == b for change in _GL_CACHE[dim])


def isomorphic(a: Z2SymForm, b: Z2SymForm) -> bool:
    """Brute force at dim <= 4; split off matching vectors inductively above."""
    if a.dim != b.dim:
        return False
    if a.dim <= 4:
        return isomorphic_bruteforce(a, b)
    a_aniso = next((i for i in range(a.dim) if (a.rows[i] >> i) & 1), None)
    b_aniso = next((i for i in range(b.dim) if (b.rows[i] >> i) & 1), None)
    if (a_aniso is None) != (b_aniso is None):
        # one has an anisotropic vector, the other is isotropic
        return False
    if a_aniso is not None:
        return isomorphic(_split_off_line(a, a_aniso), _split_off_line(b, b_aniso))
    return isomorphic(_split_off_hyperbolic(a), _split_off_hyperbolic(b))


def _gram_of(form, basis):
    rows = []
    for bi in basis:
        row = 0
        for j, bj in enumerate(basis):
            row |= form.evaluate_masks(bi, bj) << j
        rows.append(row)
    return Z2SymForm(len(basis), tuple(rows))


def _split_off_line(form, idx):
    v = 1 << idx
    basis = []
    for j in range(form.dim):
        if j == idx:
            continue
        b = 1 << j
        if form.evaluate_masks(b, v):
            b ^= v
        basis.append(b)
    return _gram_of(form, basis)


def _split_off_hyperbolic(form):
    e = 1
    mate = next(j for j in range(1, form.dim) if form.evaluate_masks(e, 1 << j))
    f = 1 << mate
    basis = []
    for j in range(1, form.dim):
        if j == mate:
            continue
        b = 1 << j
        if form.evaluate_masks(b, f):
            b ^= e
        if form.evaluate_masks(b, e):
            b ^= f
        basis.append(b)
    return _gram_of(form, basis)


# ------------------------------------------------------------- is_nonsingular

def test_indecomposables_are_nonsingular():
    assert is_nonsingular(P_FORM)
    assert is_nonsingular(H_FORM)


def test_zero_row_is_singular():
    assert not is_nonsingular(Z2SymForm.from_matrix([[0, 0], [0, 1]]))


def test_dim_zero_is_nonsingular():
    assert is_nonsingular(Z2SymForm(0, ()))
    assert decompose(Z2SymForm(0, ())) == (0, 0)


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        Z2SymForm.from_matrix([[0, 1], [0, 0]])


# ------------------------------------------------------------------ wu_class

def test_wu_class_examples():
    assert wu_class(H_FORM).bits == (0, 0)
    assert wu_class(rebuild(4, 0)).bits == (1, 1, 1, 1)
    assert wu_class(P_FORM).bits == (1,)


def test_wu_class_defining_property_exhaustive():
    for dim in range(0, 5):
        for form in enumerate_nonsingular_forms(dim):
            v = wu_class(form)
            for mask in range(1 << dim):
                x = Z2Vec(dim, mask)
                assert form.evaluate(x, x) == form.evaluate(x, v)


def test_wu_class_zero_iff_isotropic():
    for dim in range(1, 5):
        for form in enumerate_nonsingular_forms(dim):
            assert (wu_class(form).mask == 0) == form.is_isotropic()


def test_wu_class_singular_raises():
    with pytest.raises(SingularForm):
        wu_class(Z2SymForm.from_matrix([[0, 0], [0, 1]]))


# ----------------------------------------------------------------- decompose

def test_decompose_examples():
    assert decompose(H_FORM) == (0, 1)
    assert decompose(Z2SymForm.from_matrix([[1, 0], [0, 1]])) == (2, 0)


def test_decompose_exhaustive_small_dims():
    for dim in range(0, 5):
        for form in enumerate_nonsingular_forms(dim):
            p, k = decompose(form)
            assert p + 2 * k == dim


def test_decompose_rebuild_isomorphic_bruteforce_dim3():
    for form in enumerate_nonsingular_forms(3):
        p, k = decompose(form)
        assert isomorphic_bruteforce(form, rebuild(p, k))


def test_decompose_rebuild_isomorphic_dim4_sample():
    rng = SplitMix64(11)
    forms = list(enumerate_nonsingular_forms(4))
    for _ in range(12):
        form = forms[rng.randrange(len(forms))]
        p, k = decompose(form)
        assert isomorphic_bruteforce(form, rebuild(p, k))


def test_decompose_rebuild_isomorphic_dim6_random():
    rng = SplitMix64(5)
    for _ in range(10):
        # random symmetric matrix, retried until nonsingular
        while True:
            rows = [0] * 6
            for i in range(6):
                for j in range(i, 6):
                    if rng.randrange(2):
                        rows[i] |= 1 << j
                        if i != j:
                            rows[j] |= 1 << i
            form = Z2SymForm(6, tuple(rows))
            if is_nonsingular(form):
                break
        p, k = decompose(form)
        assert p + 2 * k == 6
        assert isomorphic(form, rebuild(p, k))


def restricted_gram(form, basis):
    return [sum(form.evaluate_masks(b, c) << k for k, c in enumerate(basis)) for b in basis]


def split_vectors_reference(form):
    """split_vectors recomputing the restricted Gram after every split."""
    basis = [1 << i for i in range(form.dim)]
    aniso = []
    while True:
        gram = restricted_gram(form, basis)
        idx = next((i for i in range(len(basis)) if (gram[i] >> i) & 1), None)
        if idx is None:
            break
        v = basis[idx]
        aniso.append(v)
        basis = [b ^ v if (gram[j] >> idx) & 1 else b
                 for j, b in enumerate(basis) if j != idx]
    pairs = []
    while basis:
        gram = restricted_gram(form, basis)
        mate = next(j for j in range(1, len(basis)) if (gram[0] >> j) & 1)
        e, f = basis[0], basis[mate]
        rest = []
        for j in range(1, len(basis)):
            if j != mate:
                b = basis[j]
                if (gram[j] >> mate) & 1:
                    b ^= e
                if gram[j] & 1:
                    b ^= f
                rest.append(b)
        pairs.append((e, f))
        basis = rest
    return tuple(aniso), tuple(pairs)


def random_symmetric(dim, rng, isotropic):
    rows = [0] * dim
    for i in range(dim):
        for j in range(i + isotropic, dim):
            if rng.randrange(2):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Z2SymForm(dim, tuple(rows))


def test_large_form_keeps_its_values_on_its_instance():
    """The splitting is kept on the form: equal forms share nothing, there
    is no shared cache, and the values go with the form."""
    import gc
    import weakref

    rng = SplitMix64(29)
    a = random_symmetric(8, rng, 0)
    while not is_nonsingular(a):
        a = random_symmetric(8, rng, 0)
    b = Z2SymForm(8, a.rows)
    singular = Z2SymForm(8, (0,) + tuple(r & ~1 for r in a.rows[1:]))  # e_0 in the radical
    assert not hasattr(split_vectors, "cache_info")
    v = wu_class(a)
    assert wu_class(a) is v and split_vectors(a) is split_vectors(a)
    assert wu_class(b) == v and wu_class(b) is not v
    assert split_vectors(b) == split_vectors(a) and split_vectors(b) is not split_vectors(a)
    assert not is_nonsingular(singular)
    for read in (wu_class, split_vectors, decompose):
        with pytest.raises(SingularForm):
            read(singular)
    for x in range(1 << 8):  # the Wu class read off the splitting
        assert a.evaluate_masks(x, x) == a.evaluate_masks(x, v.mask)
    kept = weakref.ref(a)
    del a
    gc.collect()
    assert kept() is None


def test_split_vectors_matches_reference():
    """The Gram updated in place gives the vectors of the recomputed Gram."""
    for dim in range(0, 6):
        for form in enumerate_nonsingular_forms(dim):
            assert split_vectors(form) == split_vectors_reference(form), form.rows
    rng = SplitMix64(12)
    for dim in range(6, 25):
        for isotropic in (0, 1) if dim % 2 == 0 else (0,):  # odd: no isotropic one
            form = random_symmetric(dim, rng, isotropic)
            while not is_nonsingular(form):
                form = random_symmetric(dim, rng, isotropic)
            aniso, pairs = split_vectors(form)
            assert (aniso, pairs) == split_vectors_reference(form), form.rows
            # in the split basis the Gram is the identity on the lines and H on each pair
            p = len(aniso)
            split = list(aniso) + [v for pair in pairs for v in pair]
            assert len(rref_basis(split, dim)) == dim
            for i, v in enumerate(split):
                for k, w in enumerate(split):
                    if i < p or k < p:
                        expected = int(i == k)
                    else:
                        expected = int(i != k and (i - p) // 2 == (k - p) // 2)
                    assert form.evaluate_masks(v, w) == expected


# ------------------------------------------------------------ witt_class_sym

def test_witt_examples():
    assert witt_class_sym(P_FORM) == 1
    assert witt_class_sym(H_FORM) == 0
    assert witt_class_sym(Z2SymForm.from_matrix([[1, 0], [0, 1]])) == 0


def test_witt_additive_under_direct_sum():
    rng = SplitMix64(3)
    pool = [f for d in range(1, 5) for f in enumerate_nonsingular_forms(d)]
    for _ in range(40):
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        assert witt_class_sym(f.direct_sum(g)) == (
            witt_class_sym(f) + witt_class_sym(g)
        ) % 2


# ------------------------------------------------------------------ subspaces

def test_rref_basis_is_canonical():
    assert rref_basis([0b11, 0b10], 2) == rref_basis([0b01, 0b10], 2)
    assert rref_basis([0], 2) == ()


# ------------------------------------------- the GF(2) elimination, brute force

def _brute_span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def _all_symmetric(dim, isotropic_only=False):
    """Every symmetric matrix, in the order of its upper-triangle bits."""
    positions = [(i, j) for i in range(dim) for j in range(i + isotropic_only, dim)]
    for bits in range(1 << len(positions)):
        rows = [0] * dim
        for idx, (i, j) in enumerate(positions):
            if (bits >> idx) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield rows


def _random_vector_lists(count=400):
    rng = SplitMix64(71)
    for _ in range(count):
        dim = rng.randint(0, 8)
        yield dim, [rng.randrange(1 << dim) for _ in range(rng.randint(0, 9))]


def test_eliminate_rank_equals_brute_span():
    from sigmod8.z2forms import eliminate

    cases = [(d, rows) for d in range(5) for rows in _all_symmetric(d)]
    for dim, vectors in cases + list(_random_vector_lists()):
        rank = len(eliminate({}, vectors))
        assert 1 << rank == len(_brute_span(vectors)), (dim, vectors)


def test_nonsingular_and_solve_against_brute_force():
    """Every symmetric matrix of dim <= 4 and every right-hand side."""
    from sigmod8.z2forms import _apply, solve

    seen = {True: 0, False: 0}
    for dim in range(5):
        for rows in _all_symmetric(dim):
            images = {_apply(rows, x) for x in range(1 << dim)}
            nonsingular = len(images) == 1 << dim
            assert is_nonsingular(Z2SymForm(dim, tuple(rows))) == nonsingular
            seen[nonsingular] += 1
            for rhs in range(1 << dim):
                if nonsingular:
                    assert _apply(rows, solve(rows, dim, rhs)) == rhs
                else:
                    with pytest.raises(SingularForm):
                        solve(rows, dim, rhs)
    assert seen[True] and seen[False]


def test_rref_basis_canonical_against_brute_force():
    """Pivots at lowest set bits, increasing, clear in the other rows, and one
    output per span: the whole span as input gives the same basis."""
    for dim, vectors in _random_vector_lists():
        basis = rref_basis(vectors, dim)
        span = _brute_span(vectors)
        assert _brute_span(basis) == span
        pivots = [b & -b for b in basis]
        assert pivots == sorted(set(pivots)) and all(pivots)
        for b in basis:
            assert all(not (b & p) for p in pivots if p != b & -b)
        assert rref_basis(sorted(span, reverse=True), dim) == basis


# ------------------------------------------------ bordered enumeration, brute force

def _radical_is_zero(rows):
    """No x != 0 with M x = 0, found by trying every x: images[x] is M x."""
    images = [0]
    for r in rows:
        images += [m ^ r for m in images]
    return images.count(0) == 1


@pytest.mark.parametrize(
    "dim, isotropic_only",
    [(d, False) for d in range(6)] + [(d, True) for d in (0, 2, 4)],
)
def test_enumeration_is_the_brute_force_filter_in_order(dim, isotropic_only):
    """The same forms as filtering every candidate, in the same order."""
    expected = [tuple(rows) for rows in _all_symmetric(dim, isotropic_only)
                if _radical_is_zero(rows)]
    got = [f.rows for f in enumerate_nonsingular_forms(dim, isotropic_only)]
    assert got == expected


def _det_brute(matrix):
    """The determinant over Z2: the parity of the permutations whose entries are all 1."""
    n = len(matrix)
    return sum(all(matrix[i][p[i]] for i in range(n)) for p in permutations(range(n))) & 1


def test_det_adjugate_diagonal_against_cofactors():
    """The block keys det A | adj(A)_diag << 1 of every symmetric A of dim <= 4,
    in candidate order: coranks 0, 1 and >= 2."""
    from sigmod8.z2forms import _symmetric_blocks

    seen = set()
    for dim in range(5):
        blocks, keys = _symmetric_blocks(dim)
        assert blocks.tolist() == list(_all_symmetric(dim))
        for rows, key in zip(blocks.tolist(), keys.tolist()):
            matrix = Z2SymForm(dim, tuple(rows)).matrix
            det = _det_brute(matrix)
            adj = sum(_det_brute([[matrix[r][c] for c in range(dim) if c != i]
                                  for r in range(dim) if r != i]) << i
                      for i in range(dim))
            assert key == det | adj << 1, rows
            seen.add((det, bool(adj)))
    assert seen == {(1, True), (1, False), (0, True), (0, False)}


@pytest.mark.parametrize("chunk", [1, 3, 5, 32, 33, 4096])
def test_nonsingular_rows_come_in_chunks(chunk):
    """Every chunk but the last of each dim holds `chunk` forms, and together
    they are the enumeration, in its order."""
    from sigmod8.z2forms import nonsingular_rows

    for dim in range(6):
        chunks = [c.tolist() for c in nonsingular_rows(dim, chunk)]
        assert all(len(c) == chunk for c in chunks[:-1]) and 0 < len(chunks[-1]) <= chunk
        assert [tuple(r) for c in chunks for r in c] == [
            f.rows for f in enumerate_nonsingular_forms(dim)]


@pytest.mark.parametrize("dim", [ENUMERATION_DIM_LIMIT + 1, -1])
def test_enumeration_refuses_dims_outside_the_limit_at_the_call(dim):
    """Raised by the call itself, before any candidate is built."""
    from sigmod8.z2forms import nonsingular_rows

    with pytest.raises(DimTooLarge, match=r"dim in 0\.\.6"):
        enumerate_nonsingular_forms(dim)
    with pytest.raises(DimTooLarge, match=r"dim in 0\.\.6"):
        nonsingular_rows(dim, 1)
