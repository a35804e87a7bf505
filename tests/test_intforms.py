"""Integral and rational forms: signatures, mod-8 identities, linking forms."""
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from sigmod8 import kernels
from sigmod8.enhancements import bk_gauss
from sigmod8.errors import (
    DegenerateForm,
    GroupTooLarge,
    NoGaussMatch,
    NotMod4Multiplicative,
    NotTwoPrimary,
    NotUnimodular,
    OddDiagonal,
)
from sigmod8.formats import parse_intform
from sigmod8.intforms import (
    ENTRY_BOUND,
    LINKING_GROUP_LIMIT,
    IntSymForm,
    LinkingForm,
    RatSymForm,
    bk_linking,
    boundary_linking_form,
    characteristic_vector,
    multiplicativity_defect,
    random_unimodular_form,
    reduce_to_enhanced,
    signature_exact,
    smith_normal_form,
    tensor_product,
    van_der_blij_residue,
)
from sigmod8.rng import SplitMix64

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
I4 = IntSymForm.diagonal([1, 1, 1, 1])
HZ = IntSymForm.from_matrix([[0, 1], [1, 0]])


# ------------------------------------------------------------ signature_exact

def test_signature_paper_matrices():
    m1 = RatSymForm.from_matrix([[4, -3], [-3, Fraction(7, 2)]])
    m2 = RatSymForm.from_matrix(
        [[Fraction(-4, 3), Fraction(-2, 3)], [Fraction(-2, 3), Fraction(-10, 3)]]
    )
    assert signature_exact(m1) == 2
    assert signature_exact(m2) == -2
    assert signature_exact(RatSymForm.from_matrix([[0, 1], [1, 0]])) == 0


def test_signature_degenerate_and_empty():
    assert signature_exact(RatSymForm.from_matrix([[0, 0], [0, 0]])) == 0
    assert signature_exact(RatSymForm(0, ())) == 0
    assert signature_exact(RatSymForm.from_matrix([[0, 0], [0, 3]])) == 1


def _random_rat_symmetric(dim, rng):
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            m[i][j] = m[j][i] = v
    return m


def test_signature_congruence_invariance():
    rng = SplitMix64(9)
    for _ in range(20):
        dim = rng.randint(1, 6)
        m = _random_rat_symmetric(dim, rng)
        # random invertible rational P (retry until nonzero determinant)
        while True:
            p = [
                [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                for _ in range(dim)
            ]
            if _det_fraction(p) != 0:
                break
        pmp = [
            [
                sum(p[k][i] * m[k][l] * p[l][j] for k in range(dim) for l in range(dim))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        assert signature_exact(RatSymForm.from_matrix(pmp)) == signature_exact(
            RatSymForm.from_matrix(m)
        )


def _det_fraction(matrix):
    """Determinant of any square matrix by Gaussian elimination over Fractions.

    Shares nothing with the library's symmetric elimination, so it can check
    it, and it takes the non-symmetric P, U and V of the tests too.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            c = m[i][k] / m[k][k]
            m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    return int(det)


def _charpoly(m):
    """det(x I - m), highest coefficient first, by Berkowitz's recursion.

    Only ring operations, so it is exact on ints and Fractions and shares
    nothing with elimination: with m = [[a, R], [C, A]], the polynomial is
    the lower-triangular Toeplitz matrix of (1, -a, -R C, -R A C, ...)
    times the polynomial of A.
    """
    n = len(m)
    if n == 0:
        return [1]
    row, col = m[0][1:], [r[0] for r in m[1:]]
    sub = [r[1:] for r in m[1:]]
    toeplitz = [1, -m[0][0]]
    for _ in range(n - 1):
        toeplitz.append(-sum(x * y for x, y in zip(row, col)))
        col = [sum(x * y for x, y in zip(r, col)) for r in sub]
    inner = _charpoly(sub)
    return [
        sum(toeplitz[i - j] * inner[j] for j in range(min(i, n - 1) + 1))
        for i in range(n + 1)
    ]


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _signature_descartes(matrix):
    """sigma = V(p(x)) - V(p(-x)) for p = charpoly with the factor x^k removed.

    A symmetric matrix has only real eigenvalues, and for a real-rooted
    polynomial Descartes' rule counts the positive roots exactly.
    """
    p = _charpoly(matrix)
    while p[-1] == 0:  # the radical: roots at 0
        p.pop()
    deg = len(p) - 1
    return _sign_changes(p) - _sign_changes([c * (-1) ** (deg - i) for i, c in enumerate(p)])


def _seeded_signature_forms():
    """(label, matrix) pairs: generic, degenerate, zero-diagonal, rational."""
    rng = SplitMix64(61)
    for dim in range(13):
        for trial in range(4):
            m = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    m[i][j] = m[j][i] = rng.randint(-ENTRY_BOUND + 1, ENTRY_BOUND - 1)
            yield f"generic-{dim}-{trial}", m
            # rank r < dim: sum of r signed squares of small integer vectors
            r = rng.randint(0, max(dim - 1, 0))
            vecs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(r)]
            signs = [rng.choice((-1, 1)) for _ in range(r)]
            yield f"degenerate-{dim}-{trial}", [
                [sum(s * v[i] * v[j] for s, v in zip(signs, vecs)) for j in range(dim)]
                for i in range(dim)
            ]
            z = [[0 if i == j else m[i][j] % 5 - 2 for j in range(dim)] for i in range(dim)]
            yield f"zero-diagonal-{dim}-{trial}", z
            # a zero-diagonal block beside a radical and a negative line
            yield f"zero-diagonal-radical-{dim}-{trial}", [
                row + [0, 0] for row in z
            ] + [[0] * dim + [0, 0], [0] * dim + [0, -rng.randint(1, 9)]]
            dens = [[rng.randint(1, 12) for _ in range(dim)] for _ in range(dim)]
            yield f"rational-{dim}-{trial}", [
                [Fraction(m[i][j], dens[min(i, j)][max(i, j)]) for j in range(dim)]
                for i in range(dim)
            ]


def test_signature_matches_descartes_route():
    """signature_exact against an elimination-free second route."""
    negative = 0
    for label, matrix in _seeded_signature_forms():
        expected = _signature_descartes(matrix)
        if isinstance(matrix[0][0] if matrix else 0, Fraction):
            form = RatSymForm.from_matrix(matrix)
        else:
            form = IntSymForm.from_matrix(matrix)
        assert signature_exact(form) == expected, label
        negative += expected < 0
    assert negative > 50  # negative pivots are exercised, not just positive ones


def _symmetric_int_matrices():
    """(label, matrix): seeded symmetric integer matrices of dims 0-10.

    Small entries, entries within 8 of +-2^64, a zero diagonal (the
    congruence step), and rank-deficient sums of signed squares of vectors
    with entries near 2^32 beside a zero-diagonal 2 x 2 block (a radical
    reached after that step).
    """
    rng = SplitMix64(71)
    big = 1 << 64

    def symmetric(dim, entry):
        m = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                m[i][j] = m[j][i] = entry(i, j)
        return m

    def near(k):
        return rng.choice((-1, 1)) * (k - rng.randint(0, 8))

    for dim in range(11):
        for trial in range(3):
            yield f"small-{dim}-{trial}", symmetric(dim, lambda i, j: rng.randint(-9, 9))
            yield f"near-2^64-{dim}-{trial}", symmetric(
                dim, lambda i, j: near(big) if rng.randrange(2) else rng.randint(-9, 9)
            )
            yield f"zero-diagonal-{dim}-{trial}", symmetric(
                dim, lambda i, j: 0 if i == j else near(big) if rng.randrange(3) == 0
                else rng.randint(-3, 3)
            )
            if dim < 2:
                continue
            r = rng.randint(0, dim - 3) if dim > 2 else 0
            vecs = [[near(1 << 32) for _ in range(dim - 2)] for _ in range(r)]
            signs = [rng.choice((-1, 1)) for _ in range(r)]
            c = near(big)
            yield f"radical-{dim}-{trial}", [
                [sum(s * v[i] * v[j] for s, v in zip(signs, vecs)) for j in range(dim - 2)]
                + [0, 0]
                for i in range(dim - 2)
            ] + [[0] * (dim - 2) + [0, c], [0] * (dim - 2) + [c, 0]]


def test_signature_and_determinant_from_one_elimination():
    """(sigma, det) of the one elimination against two elimination-free routes.

    det against Gaussian elimination over Fractions; sigma against the
    Descartes route on Berkowitz's characteristic polynomial.
    """
    det_signs = [0, 0, 0]
    for label, matrix in _symmetric_int_matrices():
        form = IntSymForm.from_matrix(matrix)
        det = _det_fraction(matrix)
        assert form.determinant() == det, label
        assert signature_exact(form) == _signature_descartes(matrix), label
        assert signature_exact(RatSymForm.from_matrix(matrix)) == signature_exact(form), label
        det_signs[(det > 0) - (det < 0) + 1] += 1
    assert min(det_signs) > 20, det_signs


def test_signature_descartes_route_examples():
    """The second route itself on forms with known signature."""
    assert _charpoly([[2, 1], [1, 2]]) == [1, -4, 3]
    assert _signature_descartes([[0, 1], [1, 0]]) == 0
    assert _signature_descartes([[0, 0], [0, -3]]) == -1
    assert _signature_descartes([[1, 0, 0], [0, 1, 0], [0, 0, -1]]) == 1
    assert _signature_descartes([]) == 0


def test_signature_sum_and_product_rules():
    rng = SplitMix64(10)
    for _ in range(10):
        a = random_unimodular_form(rng.randint(1, 4), rng)
        b = random_unimodular_form(rng.randint(1, 4), rng)
        sa = signature_exact(a.to_rational())
        sb = signature_exact(b.to_rational())
        assert signature_exact(a.direct_sum(a.negate()).to_rational()) == 0
        assert signature_exact(tensor_product(a, b).to_rational()) == sa * sb


# ------------------------------------------------------ characteristic vector

def test_characteristic_vector_examples():
    assert characteristic_vector(I4) == (1, 1, 1, 1)
    assert characteristic_vector(HZ) == (0, 0)


def test_characteristic_vector_defining_property():
    rng = SplitMix64(12)
    for _ in range(25):
        form = random_unimodular_form(rng.randint(1, 6), rng)
        v = characteristic_vector(form)
        for i in range(form.dim):
            e = [int(k == i) for k in range(form.dim)]
            assert (form.evaluate(e, e) - form.evaluate(e, v)) % 2 == 0


def test_characteristic_vector_needs_unimodular():
    with pytest.raises(NotUnimodular):
        characteristic_vector(IntSymForm.from_matrix([[2]]))


# ------------------------------------------------- reduce / morita / van der Blij

def test_reduce_examples():
    assert bk_gauss(reduce_to_enhanced(IntSymForm.diagonal([1]))) == 1
    assert bk_gauss(reduce_to_enhanced(I4)) == 4


def test_van_der_blij_examples():
    assert van_der_blij_residue(I4) == 4
    assert van_der_blij_residue(HZ) == 0


def test_morita_and_van_der_blij_random():
    rng = SplitMix64(13)
    for _ in range(40):
        form = random_unimodular_form(rng.randint(1, 8), rng)
        sigma = signature_exact(form.to_rational())
        assert van_der_blij_residue(form) == sigma % 8
        assert bk_gauss(reduce_to_enhanced(form)) == sigma % 8


# ------------------------------------------------------------- linking forms

def test_boundary_of_four():
    lf = boundary_linking_form(IntSymForm.from_matrix([[4]]))
    assert lf.orders == (4,)
    assert lf.bmat[0][0] == Fraction(1, 4)
    assert lf.qvec[0] == Fraction(1, 4)  # that is q = 2 * (1/8) in Q/2Z
    assert bk_linking(lf) == 1


def test_boundary_of_two():
    lf = boundary_linking_form(IntSymForm.from_matrix([[2]]))
    assert lf.orders == (2,)
    assert lf.bmat[0][0] == Fraction(1, 2)


def test_boundary_unimodular_trivial():
    lf = boundary_linking_form(HZ)
    assert lf.orders == ()
    assert lf.order == 1
    assert bk_linking(lf) == 0


def test_boundary_sum_cancels():
    plus = boundary_linking_form(IntSymForm.from_matrix([[4]]))
    minus = boundary_linking_form(IntSymForm.from_matrix([[-4]]))
    assert bk_linking(plus.direct_sum(minus)) == 0


def test_boundary_rejections():
    with pytest.raises(OddDiagonal):
        boundary_linking_form(IntSymForm.from_matrix([[3]]))
    with pytest.raises(NotTwoPrimary):
        boundary_linking_form(IntSymForm.from_matrix([[6]]))
    with pytest.raises(DegenerateForm):
        boundary_linking_form(IntSymForm.from_matrix([[0]]))


def test_linking_quadratic_rule():
    lf = boundary_linking_form(IntSymForm.from_matrix([[4, 2], [2, 2]]))
    orders = lf.orders
    coords = []
    if len(orders) == 1:
        coords = [(a,) for a in range(orders[0])]
    else:
        coords = [(a, b) for a in range(orders[0]) for b in range(orders[1])]
    for x in coords:
        for y in coords:
            xy = tuple((a + b) for a, b in zip(x, y))
            lhs = lf.evaluate_q(xy)
            rhs = (lf.evaluate_q(x) + lf.evaluate_q(y) + 2 * lf.evaluate_b(x, y)) % 2
            assert lhs == rhs
            # scaling rule q(ax) = a^2 q(x)
    for x in coords:
        for a in range(5):
            ax = tuple(a * c for c in x)
            assert lf.evaluate_q(ax) == (a * a * lf.evaluate_q(x)) % 2


def _random_even_two_primary(rng, dim):
    m = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = rng.choice((2, -2, 4, -4))
    for _ in range(dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        k = rng.choice((-1, 1))
        for c in range(dim):
            m[j][c] += k * m[i][c]
        for r in range(dim):
            m[r][j] += k * m[r][i]
    return IntSymForm.from_matrix(m)


def test_linking_bk_equals_signature_mod8():
    rng = SplitMix64(14)
    checked = 0
    while checked < 12:
        dim = rng.randint(1, 4)
        form = _random_even_two_primary(rng, dim)
        det = form.determinant()
        if det == 0:
            continue
        odd = abs(det)
        while odd % 2 == 0:
            odd //= 2
        if odd != 1 or abs(det) > 1 << 10:
            continue
        lf = boundary_linking_form(form)
        sigma = signature_exact(form.to_rational())
        assert bk_linking(lf) == sigma % 8
        checked += 1


def _congruent_power_diagonal(rng, log_order):
    """Even form congruent over Z to diag(+-2^k_i), sum k_i = log_order, and its sigma."""
    dim = rng.randint(1, min(log_order, 5))
    ks = [1] * dim
    for _ in range(log_order - dim):
        ks[rng.randrange(dim)] += 1
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    m = [[signs[i] << ks[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        k = rng.choice((-1, 1))
        for c in range(dim):
            m[j][c] += k * m[i][c]
        for r in range(dim):
            m[r][j] += k * m[r][i]
    return IntSymForm.from_matrix(m), sum(signs)


@pytest.mark.parametrize("log_order", range(1, 13))
def test_linking_bk_exact_odd_and_even_log_order(log_order):
    rng = SplitMix64(500 + log_order)
    for _ in range(3):
        form, sigma = _congruent_power_diagonal(rng, log_order)
        lf = boundary_linking_form(form)
        assert lf.order == 1 << log_order
        assert sigma == signature_exact(form.to_rational())
        assert bk_linking(lf) == sigma % 8


def test_linking_bk_at_group_limit():
    for entry, bk in ((1 << 20, 1), (-(1 << 20), 7)):
        lf = boundary_linking_form(IntSymForm.from_matrix([[entry]]))
        assert lf.order == LINKING_GROUP_LIMIT
        assert bk_linking(lf) == bk


@pytest.mark.parametrize(
    "lf",
    [
        # b = 0 on Z2 and q = 1 on its generator: the sum 1 + e^(pi i) is 0
        LinkingForm((2,), ((Fraction(0),),), (Fraction(1),)),
        # degenerate Z2 (sum 2) plus the Z4 form of (Z, [4]) (sum 2 zeta_8):
        # 4 zeta_8, which has modulus 4, not sqrt(8)
        LinkingForm(
            (2, 4),
            ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 4))),
            (Fraction(0), Fraction(1, 4)),
        ),
    ],
)
def test_linking_gauss_no_match_at_odd_log_order(lf):
    assert (lf.order.bit_length() - 1) % 2 == 1
    with pytest.raises(NoGaussMatch):
        bk_linking(lf)


def _linking_forms_for_tables():
    yield LinkingForm(
        (4, 8),
        ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 8))),
        (Fraction(5, 4), Fraction(3, 8)),
    )
    yield boundary_linking_form(IntSymForm.from_matrix([[4, 2], [2, 2]]))
    rng = SplitMix64(77)
    for log_order in (3, 4, 5, 6):
        yield boundary_linking_form(_congruent_power_diagonal(rng, log_order)[0])


def test_linking_numerators_match_evaluate_q():
    for lf in _linking_forms_for_tables():
        denom = 2 * max(lf.orders)
        qnum = [q * denom for q in lf.qvec]
        bnum = [[2 * b * denom for b in row] for row in lf.bmat]
        assert all(x.denominator == 1 for x in qnum + sum(bnum, []))
        table = kernels.linking_numerators(
            lf.orders, [int(x) for x in qnum], [[int(x) for x in r] for r in bnum], 2 * denom
        )
        assert len(table) == lf.order
        # index sum a_i prod_{j<i} orders[j]: a_0 runs fastest
        for idx, rev in enumerate(itertools.product(*(range(d) for d in reversed(lf.orders)))):
            coeffs = rev[::-1]
            assert Fraction(int(table[idx]), denom) == lf.evaluate_q(coeffs)


F = Fraction


# (refused, accepted near-miss, error, message): every check of LinkingForm
# trips on its first input and lets the second through.
LINKING_CHECKS = [
    # an order of 3, and of 1, is not a power of two > 1; 4 is
    (((3,), ((F(1, 3),),), (F(1, 3),)), ((4,), ((F(1, 4),),), (F(1, 4),)),
     NotTwoPrimary, "order 3 is not a power of two"),
    (((1,), ((F(0),),), (F(0),)), ((2,), ((F(0),),), (F(0),)),
     NotTwoPrimary, "order 1 is not a power of two"),
    # two generators, one row of b; then one q
    (((2, 2), ((F(0), F(0)),), (F(0), F(0))),
     ((2, 2), ((F(0), F(0)), (F(0), F(0))), (F(0), F(0))),
     ValueError, "b and q must match the generator count"),
    (((2, 2), ((F(0), F(0)), (F(0), F(0))), (F(0),)),
     ((2, 2), ((F(0), F(0)), (F(0), F(0))), (F(0), F(0))),
     ValueError, "b and q must match the generator count"),
    # b_01 - b_10 = 1/2 is refused, b_01 - b_10 = 1 is not
    (((2, 2), ((F(0), F(1, 2)), (F(0), F(0))), (F(0), F(0))),
     ((2, 2), ((F(0), F(3, 2)), (F(1, 2), F(0))), (F(0), F(0))),
     ValueError, "b is not symmetric mod Z"),
    # 2 b_01 = 1/2 on Z2 + Z4; 2 b_01 = 1 is in Z
    (((2, 4), ((F(0), F(1, 4)), (F(1, 4), F(0))), (F(0), F(0))),
     ((2, 4), ((F(0), F(1, 2)), (F(1, 2), F(0))), (F(0), F(0))),
     ValueError, "b is not defined on the stated group"),
    # 2 q = 1/2 on Z2; q = 3/2 has 2 q = 3
    (((2,), ((F(1, 2),),), (F(1, 4),)), ((2,), ((F(1, 2),),), (F(3, 2),)),
     ValueError, "q is not defined on the stated group"),
    # q - b(x,x) = 1/2 is refused, q - b(x,x) = 1 is not
    (((4,), ((F(1, 4),),), (F(3, 4),)), ((4,), ((F(1, 4),),), (F(5, 4),)),
     ValueError, r"q\(x\) must reduce to b\(x,x\) mod Z"),
]


@pytest.mark.parametrize(
    "refused, accepted, error, message",
    LINKING_CHECKS,
    ids=["order-3", "order-1", "b-rows", "q-count", "b-symmetric", "b-defined", "q-defined", "q-congruence"],
)
def test_linking_form_checks(refused, accepted, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        LinkingForm(*refused)
    assert LinkingForm(*accepted).orders == accepted[0]


def _boundary_oracle_cases():
    rng = SplitMix64(16)
    for log_order in range(2, 13, 2):
        for _ in range(2):
            yield _congruent_power_diagonal(rng, log_order)[0]
    with open(SAMPLES / "four_bounding.intform", encoding="utf-8") as fh:
        yield parse_intform(fh.read())


@pytest.mark.parametrize("form", list(_boundary_oracle_cases()))
def test_boundary_linking_form_oracle(form):
    """The boundary form equals the one built in Fraction arithmetic from
    the Smith form: b_ij = (V^T phi V)_ij / (d_i d_j) mod 1 and
    q_i = (V^T phi V)_ii / d_i^2 mod 2; its BK is sigma mod 8."""
    _u, d, v = smith_normal_form(form.matrix)
    keep = [i for i in range(form.dim) if d[i][i] != 1]
    orders = tuple(d[i][i] for i in keep)
    n = form.dim
    gram = [
        [sum(v[a][i] * form.matrix[a][b] * v[b][j] for a in range(n) for b in range(n)) for j in keep]
        for i in keep
    ]
    lf = boundary_linking_form(form)
    assert lf.orders == orders
    assert lf.bmat == tuple(
        tuple(Fraction(x, di * dj) % 1 for x, dj in zip(row, orders))
        for row, di in zip(gram, orders)
    )
    assert lf.qvec == tuple(Fraction(gram[i][i], di * di) % 2 for i, di in enumerate(orders))
    assert all(type(x) is Fraction for x in lf.qvec + sum(lf.bmat, ()))
    assert bk_linking(lf) == signature_exact(form) % 8


def test_linking_group_bound():
    big = LinkingForm(
        (1 << 11, 1 << 11),
        ((Fraction(1, 1 << 11), Fraction(0)), (Fraction(0), Fraction(1, 1 << 11))),
        (Fraction(1, 1 << 11), Fraction(1, 1 << 11)),
    )
    with pytest.raises(GroupTooLarge):
        bk_linking(big)


# ------------------------------------------------------------------- tensor

def test_tensor_examples():
    one = IntSymForm.diagonal([1])
    assert tensor_product(one, one).matrix == ((1,),)
    two = IntSymForm.diagonal([1, 1])
    assert signature_exact(tensor_product(two, two).to_rational()) == 4
    hx1 = tensor_product(HZ, one)
    assert signature_exact(hx1.to_rational()) == 0
    assert characteristic_vector(hx1) == (0, 0)


def test_tensor_wu_vector_is_tensor():
    rng = SplitMix64(15)
    for _ in range(10):
        a = random_unimodular_form(rng.randint(1, 3), rng)
        b = random_unimodular_form(rng.randint(1, 3), rng)
        va = characteristic_vector(a)
        vb = characteristic_vector(b)
        vab = characteristic_vector(tensor_product(a, b))
        tensor_v = tuple(x * y for x in va for y in vb)
        prod = tensor_product(a, b)
        # both are characteristic: they agree mod 2E, so compare residues
        for i in range(prod.dim):
            e = [int(k == i) for k in range(prod.dim)]
            assert (prod.evaluate(e, list(tensor_v)) - prod.evaluate(e, list(vab))) % 2 == 0


# ------------------------------------------------------ multiplicativity defect

def test_defect_four_ones():
    empty = IntSymForm(0, ())
    rep = multiplicativity_defect(I4, empty, empty)
    assert rep.arf == 1
    assert rep.defect_mod8 == 4
    assert rep.subquotient_dim == 2


def test_defect_vanishes_on_products():
    b = IntSymForm.diagonal([1, -1])
    f = IntSymForm.diagonal([1, 1, 1])
    rep = multiplicativity_defect(tensor_product(b, f), b, f)
    assert rep.arf == 0
    assert rep.defect_mod8 == 0


def test_defect_random_triples():
    rng = SplitMix64(16)
    checked = 0
    while checked < 12:
        e = random_unimodular_form(rng.randint(1, 6), rng)
        b = random_unimodular_form(rng.randint(1, 2), rng)
        f = random_unimodular_form(rng.randint(1, 3), rng)
        se = signature_exact(e.to_rational())
        sb = signature_exact(b.to_rational())
        sf = signature_exact(f.to_rational())
        if (se - sb * sf) % 4 != 0:
            with pytest.raises(NotMod4Multiplicative):
                multiplicativity_defect(e, b, f)
            continue
        rep = multiplicativity_defect(e, b, f)
        assert (4 * rep.arf) % 8 == (se - sb * sf) % 8
        checked += 1


def test_defect_requires_mod4():
    one = IntSymForm.diagonal([1])
    empty = IntSymForm(0, ())
    with pytest.raises(NotMod4Multiplicative):
        multiplicativity_defect(one, empty, empty)


# ----------------------------------------------------------------------- SNF

def test_smith_normal_form_properties():
    rng = SplitMix64(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        u, d, v = smith_normal_form(m)
        prod = [
            [sum(u[i][k] * m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        prod = [
            [sum(prod[i][k] * v[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [list(row) for row in d]
        assert abs(_det_fraction(u)) == 1
        assert abs(_det_fraction(v)) == 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(n)]
        for i in range(n - 1):
            if diag[i] and diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
        for i in range(n - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0


def test_linking_gauss_mismatch_for_degenerate_pairing():
    """A degenerate b makes the Gauss sum miss every admissible value."""
    degenerate = LinkingForm((2,), ((Fraction(0),),), (Fraction(0),))
    with pytest.raises(NoGaussMatch):
        bk_linking(degenerate)


def test_one_determinant_per_report(monkeypatch):
    """An intform or middle-form report runs the one elimination once."""
    import io

    from sigmod8 import intforms
    from sigmod8.cli import _report_intform, _report_symcomplex
    from sigmod8.symcomplex import middle_form_complex

    calls = []
    bareiss = intforms._bareiss
    monkeypatch.setattr(intforms, "_bareiss", lambda m: calls.append(1) or bareiss(m))
    rng = SplitMix64(61)
    for dim in (4, 8):
        form = random_unimodular_form(dim, rng)
        for report, obj in ((_report_intform, IntSymForm.from_matrix(form.matrix)),
                            (_report_symcomplex, middle_form_complex(form.matrix))):
            calls.clear()
            assert report(obj, io.StringIO()) == 0
            assert len(calls) == 1, report.__name__


def test_trusted_objects_equal_validated_ones():
    """The random unimodular forms, their mod-2 reductions and their Z4
    enhancements are built without re-running the constructors' checks;
    each equals what the validating constructor builds from the same
    data, on seeded draws of dims 0-16."""
    from sigmod8.enhancements import Z4Quadratic
    from sigmod8.z2forms import Z2SymForm

    rng = SplitMix64(71)
    for dim in range(17):
        for _ in range(3):
            form = random_unimodular_form(dim, rng)
            assert form == IntSymForm.from_matrix(form.matrix) and form.is_unimodular()
            mod2 = Z2SymForm.from_matrix(form.matrix)
            assert form._mod2 == mod2 and hash(form._mod2) == hash(mod2)
            values = tuple(row[i] % 4 for i, row in enumerate(form.matrix))
            assert reduce_to_enhanced(form) == Z4Quadratic(mod2, values)


def _generated_digest(seed, words):
    """SHA-256 of the forms (dims 0-16), optionally the transvection words,
    and the final generator state drawn from one seed."""
    import hashlib

    from sigmod8.fibration import random_transvection_word

    rng = SplitMix64(seed)
    drawn = [[random_unimodular_form(dim, rng).matrix for dim in range(17)]]
    if words:
        drawn.append([random_transvection_word(h, 6, rng, doubled).entries
                      for h in (1, 2, 3) for doubled in (False, True)])
    return hashlib.sha256(repr((*drawn, rng.state)).encode()).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (0, "485134e9641420cb9318262c41de6c69dc3f0a46aeb9240b1646b95447af950a"),
    (1, "b1a4972af4909913252a0da4c71518c16143023e910f0a96a3e7d47551e4ad46"),
    (7, "74946a0fb557fdd37789778c303cd8e43b51bf508499c57ed627b839a55c75df"),
    (2015, "0ab08a72796248c161abf03f491194b2b2f55c644ac73f968a041489c82c1f73"),
])
def test_random_generators_stream_is_pinned(seed, digest):
    """The unimodular forms, transvection words and generator state of a seed
    never change: selfcheck counterexamples reproduce from the seed alone."""
    assert _generated_digest(seed, words=True) == digest


@pytest.mark.parametrize("seed, digest", [
    (0, "d25337afea79285b0b538dcf7f6252ab32652a6cc78d8875ed73162f8b12152b"),
    (1, "4794c63b835f9ceb872b49afab844b8fc54a125f818ac263052333a85c9e9d27"),
    (7, "32321b1360765ef46c4bfccf8f605c46f86b9f0d9553093ae6e9deaf00932e33"),
    (2015, "94f4e54c1633486f7c4bdd04bdbff769f84f7fd0f5bdfebe101313ea64826aaa"),
])
def test_random_unimodular_form_skips_steps_past_the_bound(monkeypatch, seed, digest):
    """With a bound of 6 most congruence steps overflow and are skipped; the
    forms and the generator state are still those pinned."""
    from sigmod8 import intforms

    monkeypatch.setattr(intforms, "ENTRY_BOUND", 6)
    assert _generated_digest(seed, words=False) == digest
