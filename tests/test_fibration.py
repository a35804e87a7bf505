"""Symplectic monodromy, Wall forms, and the local-system signature."""
import io
import math
from fractions import Fraction

import pytest

from sigmod8.errors import (
    CommutatorRelationViolated,
    NotSymplectic,
    OddDimension,
    OneMinusFSingular,
    ZeroVector,
)
from sigmod8 import cli
import sigmod8.fibration as fib
from sigmod8.fibration import (
    MonodromyData,
    SymplecticMatrix,
    bundle_report,
    handle_signatures,
    is_symplectic,
    local_system_signature,
    one_minus_f_invertible,
    random_monodromy,
    random_transvection_word,
    standard_j,
    transvection,
    transvection_word,
    wall_form_closed,
    wall_form_general,
    z2_trivial_check,
    z4_trivial_check,
)
from sigmod8.intforms import signature_exact
from sigmod8.rng import SplitMix64


def _mat_sub(a, b):
    return tuple([tuple([x - y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])


def _rank_q(m):
    """Rank over Q by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in m]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


F1 = SymplecticMatrix.from_matrix([[0, 1], [-1, 0]])
G1 = SymplecticMatrix.from_matrix([[0, 1], [-1, 1]])
F2 = SymplecticMatrix.from_matrix([[0, -1], [1, -1]])
G2 = SymplecticMatrix.from_matrix([[0, 1], [-1, 0]])

EXAMPLE1 = MonodromyData(1, 2, ((F1, G1), (F2, G2)))

D = [[1, 1], [1, 2]]
F2B = SymplecticMatrix.from_matrix([[4, -3], [7, -5]])
G2B = SymplecticMatrix.from_matrix([[-3, 2], [-5, 3]])
EXAMPLE2 = MonodromyData(1, 2, ((F1, G1), (F2B, G2B)))

ENDO_A = [[1, 0, 0, -1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
ENDO_B = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
          [1, -1, 0, 1, 0, 0], [-1, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]


# ---------------------------------------------------------------- transvection

def test_transvection_reproduces_dehn_twist_matrix():
    t = transvection([0, 0, 0, 0, 1, 0])
    expected = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    assert [list(r) for r in t.entries] == expected


def test_transvection_always_symplectic():
    rng = SplitMix64(30)
    for _ in range(30):
        h = rng.randint(1, 3)
        c = [rng.randint(-3, 3) for _ in range(2 * h)]
        if not any(c):
            c[0] = 1
        assert is_symplectic(transvection(c).entries)


def test_doubled_transvection_is_identity_mod4():
    rng = SplitMix64(31)
    for _ in range(10):
        h = rng.randint(1, 3)
        c = [2 * rng.randint(-2, 2) for _ in range(2 * h)]
        if not any(c):
            c[0] = 2
        assert transvection(c).is_identity_mod(4)


def test_transvection_zero_vector():
    with pytest.raises(ZeroVector):
        transvection([0, 0])
    with pytest.raises(OddDimension):
        transvection([1, 0, 0])


def _reference_word(h, max_len, rng, doubled):
    """random_transvection_word by the validated transvection(c) and @,
    drawing from the SplitMix64 state in the same order."""
    n = 2 * h
    word = SymplecticMatrix(h, fib._identity(n))
    for _ in range(rng.randint(1, max_len)):
        c = [rng.randint(-1, 1) for _ in range(n)]
        if not any(c):
            c[rng.randrange(n)] = 1
        if doubled:
            c = [2 * x for x in c]
        word = word @ transvection(c)
    return word


@pytest.mark.parametrize("doubled", [False, True], ids=["plain", "doubled"])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_transvection_word_matches_validated_products(h, doubled):
    """The rank-one updates give the product of the checked transvections."""
    for seed in range(50):
        word = random_transvection_word(h, 6, SplitMix64(seed), doubled)
        reference = _reference_word(h, 6, SplitMix64(seed), doubled)
        assert word.entries == reference.entries, (h, doubled, seed)
        assert is_symplectic(word.entries)
        assert not doubled or word.is_identity_mod(4)


# --------------------------------------------------------------- is_symplectic

def test_is_symplectic_examples():
    assert is_symplectic([[0, 1], [-1, 0]])
    assert is_symplectic(ENDO_A)
    assert is_symplectic(ENDO_B)
    assert is_symplectic([[1, 1], [0, 1]])
    assert not is_symplectic([[2, 0], [0, 1]])
    with pytest.raises(OddDimension):
        is_symplectic([[1]])


def test_symplectic_matrix_constructor_rejects():
    with pytest.raises(NotSymplectic):
        SymplecticMatrix.from_matrix([[2, 0], [0, 1]])
    with pytest.raises(NotSymplectic):
        SymplecticMatrix(1, ((1, 1), (1, 1)))
    near = [[int(i == j) for j in range(4)] for i in range(4)]
    near[0][0] = 2  # det 2
    with pytest.raises(NotSymplectic):
        SymplecticMatrix.from_matrix(near)
    with pytest.raises(NotSymplectic):
        MonodromyData.from_matrices(2, [near, standard_j(2)])


def test_products_and_inverses_stay_symplectic():
    """Products and inverses skip the M^T J M check; they must not need it."""
    rng = SplitMix64(23)
    for trial in range(200):
        h = 1 + trial % 3
        f = random_transvection_word(h, 6, rng)
        g = random_transvection_word(h, 6, rng)
        for m in (f, f.inverse(), f @ g, (f @ g).inverse(), f @ g.inverse()):
            assert is_symplectic(m.entries)
        assert (f @ f.inverse()).entries == fib._identity(2 * h)


def _inverse_reference(m):
    """J (J M)^T, with J M as the signed row permutation (M_lower; -M_upper)."""
    h = len(m) // 2
    jm = m[h:] + fib._negate(m[:h])
    t = fib._transpose(jm)
    return t[h:] + fib._negate(t[:h])


def _test_words(rng):
    """(h, word) for plain and doubled transvection words at h = 0-4 and the identities."""
    yield 0, SymplecticMatrix(0, ())
    for h in range(1, 5):
        yield h, SymplecticMatrix(h, fib._identity(2 * h))
        for doubled in (False, True):
            for _ in range(12):
                yield h, random_transvection_word(h, 6, rng, doubled)


def test_symplectic_inverse_is_a_one_pass_inverse():
    """M M^{-1} = M^{-1} M = I, and M^{-1} equals the two-permutation J (J M)^T."""
    for h, word in _test_words(SplitMix64(46)):
        m = word.entries
        inv = fib._symplectic_inverse(m)
        eye = fib._identity(2 * h)
        assert fib._mat_mul(m, inv) == eye and fib._mat_mul(inv, m) == eye, m
        assert inv == _inverse_reference(m)
        assert all(type(r) is tuple and all(type(x) is int for x in r) for r in inv)
        assert word.inverse().entries == inv


def test_is_identity_mod_matches_entrywise_definition():
    """Plain words (rarely I mod 2), doubled words (always I mod 4) and identities."""
    seen = set()
    for h, word in _test_words(SplitMix64(47)):
        n = 2 * h
        for k in (2, 4):
            expected = all((word.entries[i][j] - (1 if i == j else 0)) % k == 0 for i in range(n) for j in range(n))
            assert word.is_identity_mod(k) is expected
            seen.add((k, expected))
    assert seen == {(2, True), (2, False), (4, True), (4, False)}


def test_symplectic_check_matches_two_product_reference():
    """The one-product check agrees with M^T J M = J by two products.

    Tried on symplectic words and on each of them with one entry moved by
    +-1, which is symplectic only when the row of J M it touches is a
    multiple of e_k: most such changes must be rejected.
    """
    rng = SplitMix64(24)
    rejected = tried = 0
    for trial in range(12):
        h = 1 + trial % 3
        m = [list(r) for r in random_transvection_word(h, 6, rng).entries]
        j = standard_j(h)
        for i in range(2 * h):
            for k in range(2 * h):
                for step in (1, -1):
                    bad = [r[:] for r in m]
                    bad[i][k] += step
                    reference = fib._mat_mul(fib._mat_mul(fib._transpose(bad), j), bad) == j
                    assert is_symplectic(bad) == reference
                    tried += 1
                    if reference:
                        SymplecticMatrix.from_matrix(bad)
                        continue
                    rejected += 1
                    with pytest.raises(NotSymplectic):
                        SymplecticMatrix.from_matrix(bad)
        assert SymplecticMatrix.from_matrix(m).entries == tuple(map(tuple, m))
    assert rejected > 0.9 * tried


# ------------------------------------------------------------ wall_form_closed

def test_wall_closed_printed_matrices():
    tw1 = G1 @ F1.inverse() @ G1.inverse()
    s1 = wall_form_closed(F1, tw1)
    assert s1.matrix == ((Fraction(4), Fraction(-3)), (Fraction(-3), Fraction(7, 2)))
    tw2 = G2 @ F2.inverse() @ G2.inverse()
    s2 = wall_form_closed(F2, tw2)
    assert s2.matrix == (
        (Fraction(-4, 3), Fraction(-2, 3)),
        (Fraction(-2, 3), Fraction(-10, 3)),
    )
    assert signature_exact(s1) == 2
    assert signature_exact(s2) == -2


def test_wall_closed_equal_arguments():
    z = wall_form_closed(F1, F1)
    assert all(x == 0 for row in z.matrix for x in row)
    assert signature_exact(z) == 0


def test_wall_closed_singular_raises():
    eye = SymplecticMatrix.from_matrix([[1, 0], [0, 1]])
    with pytest.raises(OneMinusFSingular):
        wall_form_closed(eye, F1)


def test_wall_closed_symmetric_random():
    rng = SplitMix64(32)
    checked = 0
    while checked < 100:
        h = rng.randint(1, 3)
        f = random_transvection_word(h, 6, rng)
        g = random_transvection_word(h, 6, rng)
        try:
            form = wall_form_closed(f, g)  # symmetry asserted inside
        except OneMinusFSingular:
            continue
        assert form.dim == 2 * h
        checked += 1


def test_wall_closed_matches_fraction_solve():
    """An exact oracle: X solves (1 - f) X = g - f by Fraction Gauss-Jordan
    and S = J (1 - g^{-1}) X; wall_form_closed returns exactly S on 150
    seeded pairs (f, g) with 1 - f invertible, at every h = 1..3."""
    rng = SplitMix64(35)
    genera = []
    while len(genera) < 150:
        h = rng.randint(1, 3)
        f = random_transvection_word(h, 6, rng)
        if not one_minus_f_invertible(f):
            continue
        g = random_transvection_word(h, 6, rng)
        n = 2 * h
        eye = fib._identity(n)
        system = [a + b for a, b in zip(_mat_sub(eye, f.entries), _mat_sub(g.entries, f.entries))]
        work, pivots = _rref_q(system, 2 * n)
        assert pivots == list(range(n))
        x = [row[n:] for row in work]
        left = fib._j_times(_mat_sub(eye, g.inverse().entries))
        expected = tuple(tuple(sum(left[i][k] * x[k][j] for k in range(n)) for j in range(n))
                         for i in range(n))
        assert wall_form_closed(f, g).matrix == expected, (f.entries, g.entries)
        genera.append(h)
    assert set(genera) == {1, 2, 3}


@pytest.mark.parametrize("h", [1, 2, 3])
def test_short_words_have_singular_one_minus_f(h):
    """f - I is a sum of L rank-one terms, so L < 2h transvections never give
    an invertible 1 - f; at L = 2h some words do, so the bound is sharp."""
    for seed in range(40):
        for length in range(1, 2 * h):
            f = transvection_word(h, length, SplitMix64(seed))
            assert not one_minus_f_invertible(f), (h, length, seed)
            assert _rank_q(_mat_sub(fib._identity(2 * h), f.entries)) <= length
            with pytest.raises(OneMinusFSingular):
                wall_form_closed(f, f)
    full = [one_minus_f_invertible(transvection_word(h, 2 * h, SplitMix64(seed)))
            for seed in range(40)]
    assert any(full)


def test_one_minus_f_invertible_matches_rank():
    rng = SplitMix64(34)
    seen = set()
    for _ in range(200):
        f = random_transvection_word(rng.randint(1, 3), 6, rng)
        n = 2 * f.h
        full = _rank_q(_mat_sub(fib._identity(n), f.entries)) == n
        assert one_minus_f_invertible(f) == full
        seen.add(full)
    assert seen == {False, True}


# ----------------------------------------------------------- wall_form_general

def test_wall_general_identity():
    eye = SymplecticMatrix.from_matrix([[1, 0], [0, 1]])
    form, sig = wall_form_general(eye, eye)
    assert form.dim == 4  # the whole of Q^{4h}
    assert sig == 0
    assert all(x == 0 for row in form.matrix for x in row)


def test_wall_general_matches_closed():
    rng = SplitMix64(33)
    checked = 0
    while checked < 25:
        h = rng.randint(1, 3)
        f = random_transvection_word(h, 6, rng)
        g = random_transvection_word(h, 6, rng)
        try:
            closed = wall_form_closed(f, g)
        except OneMinusFSingular:
            continue
        _, sig = wall_form_general(f, g)
        assert signature_exact(closed) == sig
        checked += 1


def test_wall_general_conjugation_invariance():
    rng = SplitMix64(34)
    for _ in range(10):
        h = rng.randint(1, 2)
        f = random_transvection_word(h, 5, rng)
        g = random_transvection_word(h, 5, rng)
        p = random_transvection_word(h, 5, rng)
        pi = p.inverse()
        _, sig = wall_form_general(f, g)
        _, sig_conj = wall_form_general(p @ f @ pi, p @ g @ pi)
        assert sig == sig_conj


def test_example1_per_handle_signatures():
    assert handle_signatures(EXAMPLE1) == [2, -2]


# ------------------------------------------------------------------- monodromy

def _walk_cases():
    rng = SplitMix64(43)
    eye = SymplecticMatrix.from_matrix([[1, 0], [0, 1]])
    return _gram_cases() + [MonodromyData(1, 0, ()), MonodromyData(1, 1, ((eye, eye),))] + _genus3_cases(rng)


def test_kept_prefixes_equal_an_independent_walk():
    for m in _walk_cases():
        expected = _prefix_walk(m)
        assert len(m._prefixes) == 4 * m.g + 1
        assert [[list(r) for r in q] for q in m._prefixes] == expected
        assert all(type(x) is int for q in m._prefixes for r in q for x in r)


def test_conjugates_are_g_f_inverse_g_inverse():
    for m in _walk_cases():
        assert len(m._conjugates) == m.g
        for (f, g), conj in zip(m.pairs, m._conjugates):
            assert conj == g @ f.inverse() @ g.inverse()


def test_commutator_relation_enforced():
    """`product` is the product of the commutators, which the CLI prints
    as the offending product."""
    rng = SplitMix64(44)
    cases = [((F1, G1), (F1, G1)), ((F1, G1),), ((F1, G1), (F2, G2), (G1, F2))]
    for h in (1, 2, 3):
        f, g, k = (random_transvection_word(h, 4, rng) for _ in range(3))
        cases += [((f, g),), ((f, g), (k, f)), ((f, g), (g, f), (k, g))]
    checked = 0
    for pairs in cases:
        product = None
        for f, g in pairs:
            c = f @ g @ f.inverse() @ g.inverse()
            product = c if product is None else product @ c
        n = 2 * product.h
        if product.entries == tuple(tuple(int(i == k) for k in range(n)) for i in range(n)):
            continue  # the relation happens to hold
        with pytest.raises(CommutatorRelationViolated) as exc:
            MonodromyData(pairs[0][0].h, len(pairs), pairs)
        assert exc.value.product == product.entries
        checked += 1
    assert checked >= 8


def test_bundle_request_forms_seven_products_per_handle_less_one(monkeypatch, tmp_path):
    """2g symplectic checks, 4g - 1 prefix products (Q_1 = f_1 is free) and g conjugates."""
    calls = []
    orig = fib._mat_mul

    def counting(a, b):
        calls.append(1)
        return orig(a, b)

    rng = SplitMix64(45)
    f, g, k = (random_transvection_word(2, 4, rng) for _ in range(3))
    for pairs in (((f, g), (g, f)), ((f, g), (g, f), (k, k))):
        rows = [row for pair in pairs for mat in pair for row in mat.entries]
        path = tmp_path / f"g{len(pairs)}.monodromy"
        path.write_text(f"monodromy 2 {len(pairs)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        calls.clear()
        monkeypatch.setattr(fib, "_mat_mul", counting)
        out = io.StringIO()
        assert cli.main(["bundle", str(path)], out=out) == 0
        monkeypatch.setattr(fib, "_mat_mul", orig)
        assert len(calls) == 7 * len(pairs) - 1, out.getvalue()


def test_bundle_signature_examples():
    # The printed per-handle forms have signatures +2 and -2.  Their naive
    # sum is 0, and the local coefficient system itself (computed from the
    # twisted cohomology of the base group) also has signature 0: for
    # 2x2 blocks every Sp(2,Z)-system over a closed surface has signature 0.
    rep1 = bundle_report(EXAMPLE1)
    assert rep1.handle_signatures == (2, -2)
    assert rep1.handle_sum == 0
    assert rep1.total == 0
    rep2 = bundle_report(EXAMPLE2)
    assert rep2.handle_signatures == (2, -2)
    assert rep2.total == 0


def test_bundle_signature_identity_any_genus():
    eye = SymplecticMatrix.from_matrix([[1, 0], [0, 1]])
    for g in (1, 2, 3):
        m = MonodromyData(1, g, tuple((eye, eye) for _ in range(g)))
        assert local_system_signature(m) == 0


def test_meyer_mod4_random_monodromies():
    rng = SplitMix64(35)
    for _ in range(12):
        h = rng.randint(1, 2)
        m = random_monodromy(h, rng)
        assert local_system_signature(m) % 4 == 0


def test_local_system_signature_conjugation_invariance():
    rng = SplitMix64(36)
    for _ in range(5):
        m = random_monodromy(1, rng)
        p = random_transvection_word(1, 5, rng)
        pi = p.inverse()
        conj = MonodromyData(
            m.h, m.g, tuple((p @ f @ pi, p @ g @ pi) for f, g in m.pairs)
        )
        assert local_system_signature(m) == local_system_signature(conj)


# ------------------------------------------------------------------ triviality

def test_triviality_checks():
    eye = SymplecticMatrix.from_matrix([[1, 0], [0, 1]])
    m = MonodromyData(1, 2, ((eye, eye), (eye, eye)))
    assert z4_trivial_check(m) and z2_trivial_check(m)
    endo_pairless = SymplecticMatrix.from_matrix(ENDO_A)
    assert not endo_pairless.is_identity_mod(4)
    assert not endo_pairless.is_identity_mod(2)
    assert not SymplecticMatrix.from_matrix(ENDO_B).is_identity_mod(2)
    assert not z4_trivial_check(EXAMPLE1)
    assert not z2_trivial_check(EXAMPLE1)


def test_z4_trivial_family_mod8():
    rng = SplitMix64(37)
    for _ in range(6):
        h = rng.randint(1, 2)
        m = random_monodromy(h, rng, doubled=True)
        assert z4_trivial_check(m)
        assert local_system_signature(m) % 8 == 0


def test_cup_form_nondegenerate_on_h1():
    """Twisted duality on H^1: the Gram on a complement of B^1 is nondegenerate."""

    captured = {}
    orig = fib.signature_exact

    def spy(form):
        captured["m"] = form.matrix
        return orig(form)

    rng = SplitMix64(38)
    try:
        fib.signature_exact = spy
        for _ in range(5):
            m = random_monodromy(rng.randint(1, 2), rng)
            fib.local_system_signature(m)
            gram = captured["m"]
            relator, _ = _relator_and_cup_oracle(m)
            dim_z1 = len(relator[0]) - _rank_q(relator)
            dim_b1 = _rank_q(_coboundary_matrix(m))
            assert len(gram) == dim_z1 - dim_b1
            assert _rank_q(gram) == len(gram)
    finally:
        fib.signature_exact = orig


# ------------------------------------------------- integral Gram matrices (oracles)

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _apply(mat, v):
    return [_dot(row, v) for row in mat]


def _phi(x, y):
    return _dot(x, _apply(standard_j(len(x) // 2), y))


def _coboundary_matrix(m):
    """D with D w = ((x_i - 1) w)_i: row (i, a) is row a of x_i - 1."""
    n = 2 * m.h
    return [
        [mat.entries[a][b] - int(a == b) for b in range(n)]
        for pair in m.pairs
        for mat in pair
        for a in range(n)
    ]


def _rref_q(rows, ncols):
    """Rational reduced row echelon form (Fractions) and its pivot columns."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        piv = next((k for k in range(len(pivots), len(work)) if work[k][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][col]:
                work[k] = [a - work[k][col] * b for a, b in zip(work[k], work[r])]
        pivots.append(col)
    return work, pivots


def _charpoly(m):
    """det(x I - m), highest coefficient first, by Berkowitz's recursion (no division)."""
    n = len(m)
    if n == 0:
        return [1]
    row, col = m[0][1:], [r[0] for r in m[1:]]
    sub = [r[1:] for r in m[1:]]
    toeplitz = [1, -m[0][0]]
    for _ in range(n - 1):
        toeplitz.append(-_dot(row, col))
        col = _apply(sub, col)
    inner = _charpoly(sub)
    return [
        sum(toeplitz[i - j] * inner[j] for j in range(min(i, n - 1) + 1))
        for i in range(n + 1)
    ]


def _inertia(matrix):
    """(p, q) of a symmetric integer matrix by Descartes' rule on its charpoly.

    The charpoly of a symmetric matrix is real-rooted, so the sign changes of
    p(x) and of p(-x), with the factor x^k of the radical removed, count the
    positive and the negative eigenvalues exactly.
    """
    p = _charpoly(matrix)
    while p[-1] == 0:
        p.pop()
    deg = len(p) - 1

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(p), changes([c * (-1) ** (deg - i) for i, c in enumerate(p)])


def _assert_primitive_kernel(basis, rows, ncols):
    """Primitive integer vectors in ker(rows), as many as ncols - rank."""
    assert len(basis) == ncols - _rank_q(rows)
    for v in basis:
        assert len(v) == ncols and all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert all(_dot(row, v) == 0 for row in rows)


def _relator_word(m):
    """(generator index, +-1) per letter of prod [f_i, g_i] = f_1 g_1 f_1^{-1} g_1^{-1} ..."""
    word = []
    for i in range(m.g):
        word += [(2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1)]
    return word


def _letter_matrices(m):
    """Each letter's matrix as nested lists; x^{-1} = J^T x^T J, checked against x."""
    n = 2 * m.h
    j = [list(r) for r in standard_j(m.h)]
    jt = [list(c) for c in zip(*j)]
    out = []
    for gi, sign in _relator_word(m):
        x = [list(r) for r in m.pairs[gi // 2][gi % 2].entries]
        if sign == -1:
            inv = _matmul(_matmul(jt, [list(c) for c in zip(*x)]), j)
            assert _matmul(x, inv) == [[int(a == b) for b in range(n)] for a in range(n)]
            x = inv
        out.append(x)
    return out


def _matmul(a, b):
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _prefix_walk(m):
    """P_0 = I, P_k = P_{k-1} (letter k) along the relator, as nested lists."""
    n = 2 * m.h
    prefixes = [[[int(i == k) for k in range(n)] for i in range(n)]]
    for a in _letter_matrices(m):
        prefixes.append(_matmul(prefixes[-1], a))
    return prefixes


def _relator_and_cup_oracle(m):
    """Relator matrix and the big x big cup matrix, from the cocycle rule.

    A cocycle u is its values on the generators x_0 .. x_{2g-1}; on a word,
    u(w y) = u(w) + w.u(y) and u(x^{-1}) = -x^{-1}.u(x).  Along the relator
    prod [f_i, g_i] = l_1 ... l_L the cup pairing through phi is
    sum_k phi(u(l_1 ... l_{k-1}), l_1 ... l_{k-1}.v(l_k)) + sum_i phi(u_i, v_i).
    """
    n = 2 * m.h
    ngens = 2 * m.g
    word = _relator_word(m)
    letters = _letter_matrices(m)
    prefixes = _prefix_walk(m)
    big = n * ngens

    def walk(u):
        """(u(prefix), prefix.u(letter)) per letter, and u(relator)."""
        value, steps = [0] * n, []
        for (gi, sign), a, prefix in zip(word, letters, prefixes):
            ux = u[gi * n : gi * n + n]
            letter = ux if sign == 1 else [-x for x in _apply(a, ux)]
            step = _apply(prefix, letter)
            steps.append((value, step))
            value = [x + y for x, y in zip(value, step)]
        return steps, value

    units = [[int(r == c) for c in range(big)] for r in range(big)]
    walks = [walk(e) for e in units]
    relator = [list(r) for r in zip(*(value for _, value in walks))]

    def cup(r, c):
        total = sum(_phi(ur, vc) for (ur, _), (_, vc) in zip(walks[r][0], walks[c][0]))
        total += sum(
            _phi(units[r][gi * n : gi * n + n], units[c][gi * n : gi * n + n])
            for gi in range(ngens)
        )
        return total

    return relator, [[cup(r, c) for c in range(big)] for r in range(big)]


def _genus3_cases(rng):
    """Base genus 3, so prefix products past the second handle are read."""
    cases = []
    for h in (1, 2):
        f, g, k = (random_transvection_word(h, 4, rng) for _ in range(3))
        cases.append(MonodromyData(h, 3, ((f, g), (g, f), (k, k))))
        cases.append(MonodromyData(h, 3, ((f, f @ f), (k, k), (g, g))))
    return cases


def _gram_cases():
    rng = SplitMix64(40)
    cases = [EXAMPLE1, EXAMPLE2]
    for h in (1, 2, 3):
        cases.append(random_monodromy(h, rng))
        cases.append(random_monodromy(h, rng, doubled=True))
    return cases + _genus3_cases(rng)


def test_integral_kernel_positive_multiples_of_rational_rref():
    rng = SplitMix64(39)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if rng.randint(0, 1):
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        basis = fib._integral_kernel(rows, ncols)
        _assert_primitive_kernel(basis, rows, ncols)
        # the rational RREF basis: 1 at a free column, 0 at the others
        work = [[Fraction(x) for x in r] for r in rows]
        pivots = []
        for col in range(ncols):
            piv = next((k for k in range(len(pivots), len(work)) if work[k][col]), None)
            if piv is None:
                continue
            r = len(pivots)
            work[r], work[piv] = work[piv], work[r]
            work[r] = [x / work[r][col] for x in work[r]]
            for k in range(len(work)):
                if k != r and work[k][col]:
                    work[k] = [a - work[k][col] * b for a, b in zip(work[k], work[r])]
            pivots.append(col)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(basis) == len(free)
        for v, fc in zip(basis, free):
            rational = [Fraction(int(c == fc)) for c in range(ncols)]
            for r, pc in enumerate(pivots):
                rational[pc] = -work[r][fc]
            assert v[fc] > 0 and [v[fc] * x for x in rational] == list(v)


@pytest.mark.parametrize("case", range(12))
def test_cup_gram_equals_fraction_triple_sum(case):
    m = _gram_cases()[case]
    relator, cup = _relator_and_cup_oracle(m)
    big = len(cup)
    cocycles, gram = fib._cup_gram(m)
    d = _coboundary_matrix(m)
    dropped = _rref_q([list(col) for col in zip(*d)], big)[1]  # pivots of D^T
    assert len(cocycles) == big - _rank_q(relator) - _rank_q(d)
    assert _rank_q(cocycles) == len(cocycles)
    for v in cocycles:
        assert len(v) == big and all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert all(_dot(row, v) == 0 for row in relator)
        assert not any(v[c] for c in dropped)
    assert len(gram) == len(cocycles)
    for p, cp in enumerate(cocycles):
        for q, cq in enumerate(cocycles):
            expected = sum(
                Fraction(cp[r]) * cup[r][c] * cq[c]
                for r in range(big)
                for c in range(big)
                if cup[r][c]
            )
            assert gram[p][q] == expected, (p, q)


def _inertia_cases():
    """Monodromies with H^0 != 0 (single twists), doubled words, S empty, g = 1."""
    rng = SplitMix64(42)
    eye2, eye4 = (
        SymplecticMatrix.from_matrix([[int(i == k) for k in range(n)] for i in range(n)])
        for n in (2, 4)
    )
    cases = [
        EXAMPLE1,
        MonodromyData(1, 1, ((eye2, eye2),)),
        MonodromyData(2, 2, ((eye4, eye4), (eye4, eye4))),
    ]
    for h in (1, 2, 3):
        cases.append(random_monodromy(h, rng, max_len=1))
        cases.append(random_monodromy(h, rng, max_len=3, doubled=True))
    f = random_transvection_word(2, 3, rng)
    cases.append(MonodromyData(2, 1, ((f, f @ f),)))
    return cases + _genus3_cases(rng)


@pytest.mark.parametrize("case", range(14))
def test_cup_inertia_on_h1_equals_inertia_on_z1(case):
    """(p, q) of the reduced Gram equal (p, q) of the full Z^1 Gram of the oracle.

    Every (f, g, g, f) total is 0, so equal signatures alone would prove
    little: the inertia compares the positive and negative parts.
    """
    m = _inertia_cases()[case]
    relator, cup = _relator_and_cup_oracle(m)
    big = len(cup)
    work, pivots = _rref_q(relator, big)
    z1 = []  # rational RREF kernel basis, scaled to integers
    for fc in (c for c in range(big) if c not in pivots):
        vec = [Fraction(int(c == fc)) for c in range(big)]
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        scale = math.lcm(*[x.denominator for x in vec])
        z1.append([int(x * scale) for x in vec])
    full = [[_dot(u, _apply(cup, v)) for v in z1] for u in z1]
    _, gram = fib._cup_gram(m)
    assert len(full) - len(gram) == _rank_q(_coboundary_matrix(m))
    assert _inertia(gram) == _inertia(full)


@pytest.mark.parametrize("case", range(12))
def test_wall_gram_equals_psi_on_kernel_basis(case):
    rng = SplitMix64(41 + case)
    m = _gram_cases()[case]
    pairs = [(f, g @ f.inverse() @ g.inverse()) for f, g in m.pairs]
    pairs.append((random_transvection_word(m.h, 6, rng), random_transvection_word(m.h, 6, rng)))
    for f, g in pairs:
        n = 2 * m.h
        rows = [
            [int(i == k) - f.entries[i][k] for k in range(n)]
            + [int(i == k) - g.entries[i][k] for k in range(n)]
            for i in range(n)
        ]
        basis = fib._integral_kernel(rows, 2 * n)
        _assert_primitive_kernel(basis, rows, 2 * n)

        def psi(u, v):
            x = [a + b for a, b in zip(u[:n], u[n:])]
            return _phi(x, [_dot(r, v[:n]) for r in rows])

        form, sig = wall_form_general(f, g)
        assert form.dim == len(basis)
        assert [list(r) for r in form.matrix] == [[psi(u, v) for v in basis] for u in basis]
        assert sig == signature_exact(form)
