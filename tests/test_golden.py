"""Golden digest of command-line reports.

The SHA-256 of every exit code and stdout below is pinned, so a change to
the arithmetic behind a report must leave every report byte-identical:
each file in samples/, even intforms with |T| = 2^1 .. 2^12 and the
rejected cases around them, and ratforms in p/q, decimal and refused
spellings.  A second digest pins the Wu subquotient reports of seeded
z4q files and unimodular intforms at dims 8-22.  On a deliberate change
of a report, take the new digest from the failure message and say in the
commit which reports changed and why.  A third digest pins `bundle`
reports: seeded (f, g, g, f) files at fibre genus 1-3, plain and doubled,
single twists (H^0 != 0), a base of genus 3, a violated commutator
relation and the empty headers `monodromy 1 0` and `monodromy 0 2`.
A fourth pins the bundle linear algebra below the report: the reprs of
the cup Gram with its cocycles, the bundle report and the Wall Grams of
seeded monodromies.
"""
import hashlib
import io
import os
import shutil
from pathlib import Path

from sigmod8 import cli
from sigmod8.enhancements import Z4Quadratic, p1, pm1, q00, q22
from sigmod8.fibration import (
    MonodromyData,
    _cup_gram,
    bundle_report,
    random_monodromy,
    random_transvection_word,
    wall_form_general,
)
from sigmod8.formats import parse_monodromy
from sigmod8.rng import SplitMix64
from sigmod8.z2forms import Z2SymForm, eliminate

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

GOLDEN_SHA256 = "3d2f4f9c044055d8c9245d6bc71f54c7992119c2cbfad3181ecf02be74f71be9"
SUBQUOTIENT_SHA256 = "d62045610a14357091adf42da8d672e62a4f24887af78acd103e2d2f826845ee"
BUNDLE_SHA256 = "3d3650cd021ca5cc2fbf1354146e0dda8c66ead258e4fde747da7bdb0e0bcbd2"
BUNDLE_ALGEBRA_SHA256 = "782004acd6c21a40a71c9d2b020a05921ec09b9f4ad29209db4262134bbe8521"


def _even_form(rng, log_order):
    """Rows of an even form congruent over Z to diag(+-2^k_i), sum k_i = log_order."""
    dim = rng.randint(1, min(log_order, 6))
    ks = [1] * dim
    for _ in range(log_order - dim):
        ks[rng.randrange(dim)] += 1
    m = [[rng.choice((1, -1)) << ks[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j, k = rng.randrange(dim), rng.randrange(dim), rng.choice((-2, -1, 1, 2))
        if i != j:  # e_j -> e_j + k e_i
            m[j] = [a + k * b for a, b in zip(m[j], m[i])]
            for row in m:
                row[j] += k * row[i]
    return m


def _text(keyword, rows):
    return f"{keyword} {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _inline_inputs():
    rng = SplitMix64(8)
    for log_order in range(1, 13):
        for t in range(3):
            yield f"even-{log_order}-{t}.intform", _text("intform", _even_form(rng, log_order))
    yield "odd-part.intform", _text("intform", [[2, 1], [1, 2]])  # det 3
    yield "odd-diagonal.intform", _text("intform", [[3, 1], [1, 2]])
    yield "degenerate.intform", _text("intform", [[2, 2], [2, 2]])
    yield "too-large.intform", _text("intform", [[1 << 21]])
    yield "asymmetric.intform", _text("intform", [[2, 1], [0, 2]])
    yield "pq.ratform", "ratform 3\n1/2 -3/4 5\n-3/4 7/3 0\n5 0 -11/6\n"
    yield "signed.ratform", "ratform 2\n+6/8 -0/5\n-0 -010/004\n"
    yield "decimal.ratform", "ratform 3\n1.5 -0.75 .5\n-0.75 2.5E-2 1e3\n.5 1e3 -7.25e-1\n"
    yield "mixed.ratform", "ratform 2\n1_000/3 ٣\n٣ -2.\n"
    yield "asymmetric.ratform", "ratform 2\n1 1/2\n0.25 1\n"
    for k, tok in enumerate(("3/-4", "1/+2", "1/0", "1e", "/3", "--1", "1e4301", "9" * 4301)):
        yield f"refused-{k}.ratform", f"ratform 2\n1 0\n0 {tok}\n"


def test_reports_match_golden_digest(tmp_path, monkeypatch):
    for name in sorted(os.listdir(SAMPLES)):
        shutil.copy(SAMPLES / name, tmp_path / name)
    names = sorted(os.listdir(tmp_path))
    for name, text in _inline_inputs():
        (tmp_path / name).write_text(text, encoding="utf-8")
        names.append(name)
    monkeypatch.chdir(tmp_path)  # reports name their input; keep the name relative
    digest = hashlib.sha256()
    for name in names:
        kind = name.rsplit(".", 1)[1]
        argv = ["bundle", name] if kind == "monodromy" else ["invariants", name, "--kind", kind]
        out = io.StringIO()
        code = cli.main(argv, out=out)
        digest.update(f"{name}\n{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _z4q_text(rng, dim, divisible):
    """A GL(dim, Z2) change of basis of a sum of P1, P-1, q00 and q22.

    With divisible and dim even, p_plus - p_minus = 0 mod 4, so BK = 0
    mod 4 and the report has a Wu subquotient.
    """
    pairs = rng.randint(0, dim // 2)
    lines = dim - 2 * pairs
    plus = rng.randint(0, lines)
    while divisible and dim % 2 == 0 and (2 * plus - lines) % 4:
        plus = rng.randint(0, lines)
    q = Z4Quadratic(Z2SymForm(0, ()), ())
    for piece in [p1] * plus + [pm1] * (lines - plus) + [rng.choice((q00, q22)) for _ in range(pairs)]:
        q = q.direct_sum(piece())
    basis = None
    while basis is None or len(eliminate({}, basis)) < dim:
        basis = [rng.randrange(1 << dim) for _ in range(dim)]
    gram = [[q.form.evaluate_masks(a, b) for b in basis] for a in basis]
    return _text("z4q", gram) + " ".join(str(q.evaluate_mask(a)) for a in basis) + "\n"


def _unimodular_text(rng, dim, divisible):
    """A unimodular congruence of a +-1 diagonal; with divisible, sigma = 0 mod 4."""
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    while divisible and sum(signs) % 4:
        signs = [rng.choice((1, -1)) for _ in range(dim)]
    m = [[signs[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j, k = rng.randrange(dim), rng.randrange(dim), rng.choice((-1, 1))
        if i != j:  # e_j -> e_j + k e_i
            m[j] = [a + k * b for a, b in zip(m[j], m[i])]
            for row in m:
                row[j] += k * row[i]
    return _text("intform", m)


def _subquotient_inputs():
    rng = SplitMix64(23)
    for dim in (8, 11, 14, 17, 20, 22):
        for t in range(2):
            yield f"sub-{dim}-{t}.z4q", _z4q_text(rng, dim, divisible=t == 0)
    for dim in (8, 12, 16):
        for t in range(2):
            yield f"sub-{dim}-{t}.intform", _unimodular_text(rng, dim, divisible=t == 0)


def test_subquotient_reports_match_golden_digest(tmp_path, monkeypatch):
    """Wu subquotient reports at the dims the command line serves, up to
    the Gauss limit: z4q files at dims 8-22 and unimodular intforms at
    dims 8-16, at least half of them with BK = 0 mod 4, so that the
    subquotient's dim and Arf invariant are printed."""
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    inputs = list(_subquotient_inputs())
    printed = 0
    for name, text in inputs:
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = io.StringIO()
        code = cli.main(["invariants", name, "--kind", name.rsplit(".", 1)[1]], out=out)
        printed += "subquotient dim" in out.getvalue()
        digest.update(f"{name}\n{code}\n{out.getvalue()}".encode())
    assert 2 * printed >= len(inputs)
    assert digest.hexdigest() == SUBQUOTIENT_SHA256


def _monodromy_text(h, pairs):
    rows = [row for pair in pairs for mat in pair for row in mat.entries]
    return f"monodromy {h} {len(pairs)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _bundle_inputs():
    rng = SplitMix64(25)
    for h in (1, 2, 3):
        for doubled in (False, True):
            for t in range(2):
                m = random_monodromy(h, rng, doubled=doubled)
                yield f"fggf-{h}-{int(doubled)}-{t}.monodromy", _monodromy_text(h, m.pairs)
    for t in range(3):
        m = random_monodromy(1, rng, max_len=1)  # single twists: H^0 != 0
        yield f"twist-1-{t}.monodromy", _monodromy_text(1, m.pairs)
    for h in (1, 2):
        f, g, k = (random_transvection_word(h, 4, rng) for _ in range(3))
        yield f"genus3-{h}.monodromy", _monodromy_text(h, ((f, g), (g, f), (k, k)))
        yield f"violated-{h}.monodromy", _monodromy_text(h, ((f, g), (k, f)))
    yield "empty-base.monodromy", "monodromy 1 0\n"
    yield "empty-fibre.monodromy", "monodromy 0 2\n"


def test_bundle_reports_match_golden_digest(tmp_path, monkeypatch):
    """`bundle` reports, exit codes included, on seeded monodromy files."""
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    codes = []
    for name, text in _bundle_inputs():
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = io.StringIO()
        code = cli.main(["bundle", name], out=out)
        codes.append(code)
        digest.update(f"{name}\n{code}\n{out.getvalue()}".encode())
    assert codes.count(0) == len(codes) - 2  # only the two violated relations refused
    assert digest.hexdigest() == BUNDLE_SHA256


def _algebra_cases():
    """Seeded monodromies for the bundle linear-algebra digest.

    (f, g, g, f) at fibre genus 1-3, plain and doubled; the genus-3
    relator solution ((f, g), (k g k^-1, k f k^-1), (k, [f, g])), whose
    commutators are nontrivial on every handle, so the cup Gram's
    cross-handle columns reach handle 3; and the degenerate headers.
    """
    rng = SplitMix64(26)
    for h in (1, 2, 3):
        for doubled in (False, True):
            for _ in range(40):
                yield random_monodromy(h, rng, doubled=doubled)
    for h in (1, 2, 3):
        for _ in range(21):
            f, g, k = (random_transvection_word(h, 4, rng) for _ in range(3))
            ki, fg = k.inverse(), f @ g @ f.inverse() @ g.inverse()
            yield MonodromyData(h, 3, ((f, g), (k @ g @ ki, k @ f @ ki), (k, fg)))
    for header in ("monodromy 0 2\n", "monodromy 1 0\n", "monodromy 0 0\n"):
        yield parse_monodromy(header)


def test_bundle_linear_algebra_matches_digest():
    """The reprs of `_cup_gram` (cocycles and Gram), `bundle_report` and the
    `wall_form_general` Gram of every pair (f_i, g_i) and of every handle's
    (f_i, g_i f_i^-1 g_i^-1), bit for bit, on 306 seeded monodromies."""
    digest = hashlib.sha256()
    count = 0
    for m in _algebra_cases():
        walls = [wall_form_general(f, g) for f, g in m.pairs]
        walls += [wall_form_general(f, conj) for (f, _), conj in zip(m.pairs, m._conjugates)]
        digest.update(f"{_cup_gram(m)!r}\n{bundle_report(m)!r}\n{walls!r}\n".encode())
        count += 1
    assert count == 306
    assert digest.hexdigest() == BUNDLE_ALGEBRA_SHA256
