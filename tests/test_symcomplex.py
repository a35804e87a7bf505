"""Symmetric complexes: structure validation and Pontryagin squares."""
import numpy as np
import pytest

from sigmod8.errors import (
    InvalidClass,
    NotMiddleConcentrated,
    NotUnimodular,
    ShapeMismatch,
    SignatureMismatch,
)
from sigmod8.intforms import (
    characteristic_vector,
    random_unimodular_form,
    signature_exact,
)
from sigmod8 import symcomplex
from sigmod8.rng import SplitMix64
from sigmod8.symcomplex import (
    Mod2CohomologyClass,
    SymComplex,
    cohomology_mod2,
    middle_form_complex,
    pontryagin_square,
    two_degree_complex,
    validate_structure,
    wu_and_mod4_signature,
)


# --------------------------------------------------------- validate_structure

def test_middle_symmetric_form_is_valid():
    ok, violations = validate_structure(middle_form_complex([[1, 0], [0, 1]]))
    assert ok and not violations


def test_asymmetric_middle_form_fails():
    c = SymComplex(ranks=(0, 0, 2, 0, 0), phi0={2: [[0, 1], [0, 0]]})
    ok, violations = validate_structure(c)
    assert not ok
    assert any("s=1" in v for v in violations)


def test_two_degree_complex_sign():
    ok, violations = validate_structure(two_degree_complex(2, 1, 1))
    assert ok, violations
    flipped = SymComplex(
        ranks=(0, 0, 1, 1, 0),
        diffs={3: [[2]]},
        phi0={2: [[1]]},
        phi1={2: [[1]], 3: [[1]]},
    )
    ok, violations = validate_structure(flipped)
    assert not ok


def test_d_squared_checked():
    c = SymComplex(ranks=(1, 1, 1, 0, 0), diffs={1: [[1]], 2: [[1]]})
    ok, violations = validate_structure(c)
    assert not ok
    assert any("d_1 d_2" in v for v in violations)


@pytest.mark.parametrize("big", [1 << 62, 1 << 70], ids=["2^62", "2^70"])
def test_d_squared_exact_for_huge_entries(big):
    # 2^62 * 4 = 2^64 wraps to 0 in int64; 2^70 does not fit at all
    c = SymComplex(ranks=(1, 1, 1, 0, 0), diffs={1: [[big]], 2: [[4]]})
    ok, violations = validate_structure(c)
    assert not ok
    assert violations == ["d_1 d_2 != 0"]


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        SymComplex(ranks=(0, 0, 2, 0, 0), phi0={2: [[1]]})
    with pytest.raises(ShapeMismatch):
        SymComplex(ranks=(0, 0, 1, 1, 0), diffs={3: [[1, 2]]})


# ------------------------------------------------------------ cohomology_mod2

def test_middle_concentrated_classes():
    c = middle_form_complex([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    classes = cohomology_mod2(c, 2)
    assert len(classes) == 3
    assert all(x.u == () for x in classes)


def test_two_degree_class():
    c = two_degree_complex(2, 1, 1)
    classes = cohomology_mod2(c, 2)
    assert len(classes) == 1
    assert classes[0].v == (1,)
    assert classes[0].u == (1,)  # d*v = 2 = 2u


def test_acyclic_complex_no_classes():
    c = SymComplex(ranks=(0, 0, 1, 1, 0), diffs={3: [[1]]})
    assert cohomology_mod2(c, 2) == []


def test_cohomology_rejects_non_cocycle(monkeypatch):
    """With the mod-2 equations of d* dropped, e_0 comes out with d*e_0 = 1.

    The patched elimination keeps no rows and hands every vector back
    unreduced, as if each were new.
    """
    monkeypatch.setattr(symcomplex, "eliminate", lambda rows, vectors, tags=None: list(vectors))
    c = SymComplex(ranks=(0, 0, 1, 1, 0), diffs={3: [[1]]})
    with pytest.raises(InvalidClass):
        cohomology_mod2(c, 2)


# ---------------------------------------------------------- pontryagin_square

def test_pontryagin_middle_diagonal():
    c = middle_form_complex([[1, 0], [0, 3]])
    classes = cohomology_mod2(c, 2)
    values = {x.v: pontryagin_square(c, x) for x in classes}
    assert values[(1, 0)] == 1
    assert values[(0, 1)] == 3


def test_pontryagin_zero_class():
    c = middle_form_complex([[1]])
    assert pontryagin_square(c, Mod2CohomologyClass(2, (), (0,))) == 0


def test_pontryagin_invalid_class():
    c = two_degree_complex(2, 1, 1)
    with pytest.raises(InvalidClass):
        pontryagin_square(c, Mod2CohomologyClass(2, (0,), (1,)))  # d*v != 2u


def test_pontryagin_representative_independence():
    rng = SplitMix64(20)
    c = two_degree_complex(2, 3, 1)
    ok, _ = validate_structure(c)
    assert ok
    (x,) = cohomology_mod2(c, 2)
    base = pontryagin_square(c, x)
    for _ in range(20):
        # shift the integral representative within its mod-2 class:
        # v -> v + 2w forces u -> u + d* w
        w = rng.randint(-5, 5)
        v = (x.v[0] + 2 * w,)
        u = (x.u[0] + 2 * w,)  # d* = 2 here
        assert pontryagin_square(c, Mod2CohomologyClass(2, u, v)) == base


def test_pontryagin_representative_independence_middle():
    rng = SplitMix64(21)
    form = random_unimodular_form(4, rng)
    c = middle_form_complex([list(r) for r in form.matrix])
    for x in cohomology_mod2(c, 2):
        base = pontryagin_square(c, x)
        for _ in range(10):
            v = tuple(b + 2 * rng.randint(-3, 3) for b in x.v)
            assert pontryagin_square(c, Mod2CohomologyClass(2, (), v)) == base


def test_pontryagin_quadraticity():
    rng = SplitMix64(22)
    for _ in range(10):
        form = random_unimodular_form(rng.randint(1, 5), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        classes = cohomology_mod2(c, 2)
        for _ in range(10):
            a = classes[rng.randrange(len(classes))]
            b = classes[rng.randrange(len(classes))]
            va = np.array(a.v, dtype=object)
            vb = np.array(b.v, dtype=object)
            lam = int(va @ np.array([list(r) for r in form.matrix], dtype=object) @ vb) % 2
            s = Mod2CohomologyClass(2, (), tuple(x + y for x, y in zip(a.v, b.v)))
            lhs = (
                pontryagin_square(c, s)
                - pontryagin_square(c, a)
                - pontryagin_square(c, b)
            ) % 4
            assert lhs == 2 * lam


def test_pontryagin_mod2_is_cup_square():
    rng = SplitMix64(23)
    for _ in range(10):
        form = random_unimodular_form(rng.randint(1, 5), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        for x in cohomology_mod2(c, 2):
            v = np.array(x.v, dtype=object)
            cup = int(v @ np.array([list(r) for r in form.matrix], dtype=object) @ v) % 2
            assert pontryagin_square(c, x) % 2 == cup


# ------------------------------------------------------ wu_and_mod4_signature

def test_wu_and_mod4_examples():
    wu, sig4 = wu_and_mod4_signature(middle_form_complex([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert wu.v == (1, 1, 1, 1)
    assert sig4 == 0
    wu, sig4 = wu_and_mod4_signature(middle_form_complex([[1]]))
    assert wu.v == (1,)
    assert sig4 == 1


def test_wu_and_mod4_random():
    rng = SplitMix64(24)
    for _ in range(20):
        form = random_unimodular_form(rng.randint(1, 8), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        wu, sig4 = wu_and_mod4_signature(c)
        assert sig4 == signature_exact(form.to_rational()) % 4


def test_wu_and_mod4_preconditions():
    with pytest.raises(NotMiddleConcentrated):
        wu_and_mod4_signature(two_degree_complex(2, 1, 1))
    with pytest.raises(NotUnimodular):
        wu_and_mod4_signature(middle_form_complex([[2]]))


def test_wu_and_mod4_rejects_mismatch(monkeypatch):
    monkeypatch.setattr(symcomplex, "signature_exact", lambda form: 2)
    with pytest.raises(SignatureMismatch):
        wu_and_mod4_signature(middle_form_complex([[1]]))


# -------------------------------------------------------- cross-module oracle

def test_cross_module_agreement():
    rng = SplitMix64(25)
    for _ in range(10):
        form = random_unimodular_form(rng.randint(1, 6), rng)
        c = middle_form_complex([list(r) for r in form.matrix])
        wu, sig4 = wu_and_mod4_signature(c)
        assert wu.v == characteristic_vector(form)
        sigma = signature_exact(form.to_rational())
        assert sig4 == sigma % 4
        p2 = pontryagin_square(c, wu)
        assert p2 == form.evaluate(list(wu.v), list(wu.v)) % 4


@pytest.mark.parametrize("rank", [-1, symcomplex.RANK_LIMIT + 1, 10**20])
def test_rank_outside_limit_rejected(rank):
    with pytest.raises(ShapeMismatch):
        SymComplex(ranks=(0, 0, rank, 1, 0))


def test_rank_at_limit_accepted():
    c = SymComplex(ranks=(0, symcomplex.RANK_LIMIT))
    assert c.rank(1) == symcomplex.RANK_LIMIT


# ------------------------------------------------------------- absent blocks

def test_absent_blocks_are_full_zero_blocks():
    c = SymComplex(ranks=(2, 3, 0, 1, 4), diffs={1: [[1, 0, 0], [0, 0, 0]]})
    n = c.n
    assert c.diffs.keys() == {1} and not c.phi0 and not c.phi1
    for r in range(-1, n + 3):
        for block, rows, cols in (
            (c.d(r), c.rank(r - 1), c.rank(r)),
            (c.p0(r), c.rank(r), c.rank(n - r)),
            (c.p1(r), c.rank(r), c.rank(n - r + 1)),
        ):
            if block is c.diffs.get(r):
                continue
            assert block == tuple([(0,) * cols] * rows)
    assert c.d(1) == ((1, 0, 0), (0, 0, 0))


def test_given_zero_blocks_are_not_stored():
    c = SymComplex(ranks=(0, 0, 2, 0, 0), phi0={2: [[0, 0], [0, 0]]}, phi1={4: []})
    assert not c.phi0 and not c.phi1
    assert c.p0(2) == ((0, 0), (0, 0))


def _dense(block, rows, cols):
    return np.array(block, dtype=object).reshape(rows, cols)


def _dense_violations(c):
    """validate_structure on dense blocks, every absent block a zero matrix."""
    n, rk = c.n, c.rank
    d = lambda r: _dense(c.d(r), rk(r - 1), rk(r))
    p0 = lambda r: _dense(c.p0(r), rk(r), rk(n - r))
    p1 = lambda r: _dense(c.p1(r), rk(r), rk(n - r + 1))
    out = [f"d_{r-1} d_{r} != 0" for r in range(2, n + 1) if np.any(d(r - 1) @ d(r))]
    for r in range(n + 1):
        s0 = d(r + 1) @ p0(r + 1) + (-1) ** r * (p0(r) @ d(n - r).T)
        if np.any(s0):
            out.append(f"s=0 relation fails at r={r}")
        s1 = d(r + 1) @ p1(r + 1) + (-1) ** r * (p1(r) @ d(n - r + 1).T)
        s1 = s1 + (-1) ** n * (p0(r) - (-1) ** (r * (n - r)) * p0(n - r).T)
        if np.any(s1):
            out.append(f"s=1 relation fails at r={r}")
    return out


def _random_complex(rng):
    """Random small blocks; about half of the degrees have none."""
    if rng.randrange(2):
        # two-degree complexes summed in degrees (3, 2), a bare C_1 beside them
        k, j = rng.randint(1, 3), rng.randint(0, 2)
        ds = [2 * rng.randint(-2, 2) for _ in range(k)]
        ps = [rng.randint(-2, 2) for _ in range(k)]
        diag = lambda xs: [[x if a == b else 0 for b in range(k)] for a, x in enumerate(xs)]
        return SymComplex(
            ranks=(0, j, k, k, 0),
            diffs={3: diag(ds)},
            phi0={2: diag([rng.randint(-3, 3) for _ in range(k)])},
            phi1={2: diag(ps), 3: diag([-p for p in ps])},
        )
    n = rng.randint(1, 6)
    ranks = tuple(rng.randint(0, 3) for _ in range(n + 1))
    probe = SymComplex(ranks=ranks)
    blocks = {"diffs": {}, "phi0": {}, "phi1": {}}
    for name, low, full in (("diffs", 1, probe.d), ("phi0", 0, probe.p0), ("phi1", 0, probe.p1)):
        for r in range(low, n + 1):
            if rng.randrange(2):
                hi = rng.choice((0, 1, 2))
                step = 2 if name == "diffs" and rng.randrange(2) else 1
                blocks[name][r] = [
                    [step * rng.randint(-hi, hi) for _ in row] for row in full(r)
                ]
    return SymComplex(ranks=ranks, **blocks)


def _written_out(c):
    """The same complex with every block of every degree given in full."""
    n = c.n
    return SymComplex(
        ranks=c.ranks,
        diffs={r: c.d(r) for r in range(1, n + 1)},
        phi0={r: c.p0(r) for r in range(n + 1)},
        phi1={r: c.p1(r) for r in range(n + 1)},
    )


def _outcome(c):
    """Verdict, violations, classes in every degree and middle P2 values."""
    ok, violations = validate_structure(c)
    classes = [cohomology_mod2(c, r) for r in range(c.n + 1)]
    p2 = []
    if c.n % 2 == 0:
        for x in classes[c.n // 2]:
            try:
                p2.append(pontryagin_square(c, x))
            except InvalidClass as exc:
                p2.append(str(exc))
    return ok, violations, classes, p2


def test_omitted_and_written_out_zero_blocks_agree():
    rng = SplitMix64(26)
    seen_valid = seen_p2 = 0
    for _ in range(150):
        c = _random_complex(rng)
        outcome = _outcome(c)
        assert outcome == _outcome(_written_out(c))
        ok, violations, classes, p2 = outcome
        assert violations == _dense_violations(c)
        assert ok == (not violations)
        seen_valid += ok
        seen_p2 += any(isinstance(v, int) and v for v in p2)
        if ok and c.n % 2 == 0:
            mid = c.n // 2
            for x, value in zip(classes[mid], p2):
                v, u = np.array(x.v, dtype=object), np.array(x.u, dtype=object)
                p0 = _dense(c.p0(mid), c.rank(mid), c.rank(mid))
                p1 = _dense(c.p1(mid), c.rank(mid), c.rank(mid + 1))
                assert value == int(v @ p0 @ v + 2 * (v @ p1 @ u)) % 4
    # the seeded set reaches valid complexes and nonzero squares
    assert seen_valid >= 50 and seen_p2 >= 30
