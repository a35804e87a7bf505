"""Text formats and the command-line front end."""
import argparse
import importlib
import io
import os
import pkgutil
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import sigmod8
from sigmod8 import cli, formats
from sigmod8.errors import CommutatorRelationViolated, ParseError

EX1_MONODROMY = """\
# genus-2 local coefficient system, worked example
monodromy 1 2
0 1
-1 0
0 1
-1 1
0 -1
1 -1
0 1
-1 0
"""

I4_INTFORM = """\
intform 4
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
"""


def run_cli(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


# -------------------------------------------------------------------- parsing

def test_parse_z2form_with_comments():
    form = formats.parse_z2form("# H\nz2form 2\n0 1\n1 0\n")
    assert form.matrix == ((0, 1), (1, 0))


def test_parse_z4q():
    q = formats.parse_z4q("z4q 1\n1\n1\n")
    assert q.values == (1,)


def test_parse_z2q():
    h = formats.parse_z2q("z2q 2\n0 1\n1 0\n1 1\n")
    assert h.values == (1, 1)


def test_parse_ratform():
    f = formats.parse_ratform("ratform 2\n4 -3\n-3 7/2\n")
    assert f.matrix[1][1] == 3.5


def test_parse_symcomplex():
    text = """symcomplex 4
0 0 1 1 0
d 3
2
phi0 2
1
phi1 2
1
phi1 3
-1
"""
    c = formats.parse_symcomplex(text)
    assert c.ranks == (0, 0, 1, 1, 0)
    assert c.d(3)[0][0] == 2


def test_parse_monodromy():
    m = formats.parse_monodromy(EX1_MONODROMY)
    assert m.h == 1 and m.g == 2


def test_parse_error_names_file_and_line():
    with pytest.raises(ParseError) as exc:
        formats.parse_z2form("z2form 2\n0 1\n1\n", path="x.z2form")
    msg = str(exc.value)
    assert "x.z2form" in msg and ":3:" in msg and "expected 2 entries" in msg


def test_parse_error_bad_keyword():
    with pytest.raises(ParseError) as exc:
        formats.parse_z2form("intform 1\n1\n", path="y")
    assert "z2form" in str(exc.value)


def test_parse_error_names_line_of_bad_z2form_entry():
    with pytest.raises(ParseError) as exc:
        formats.parse_z2form("z2form 2\n# comment\n0 1\n1 2\n", path="bad.z2form")
    assert str(exc.value) == "bad.z2form:4: z2form entries must be 0 or 1"


@pytest.mark.parametrize(
    "kind, text, lineno",
    [
        ("z2q", "z2q 2\n0 3\n3 0\n1 1\n", 2),
        ("z4q", "z4q 1\n5\n1\n", 2),
        ("z2form", "z2form 2\n0 1\n1 -1\n", 3),
        ("z4q", "z4q 2\n0 1\n-1 0\n0 0\n", 3),
    ],
)
def test_cli_refuses_z2_entries_outside_0_1(tmp_path, kind, text, lineno):
    """Form entries are refused at their line, never read mod 2."""
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    code, out = run_cli(["invariants", str(path), "--kind", kind])
    assert code == 2, out
    label = kind if kind == "z2form" else f"{kind} form"
    assert f"bad.{kind}:{lineno}: {label} entries must be 0 or 1" in out


@pytest.mark.parametrize(
    "text, lineno, what, token",
    [
        ("z4q 2\n0 1\n1 0x\n0 2\n", 3, "z4q form matrix", "0x"),
        ("z4q 2\n0 1\n1 0\n0 2.0\n", 4, "z4q values", "2.0"),
        ("z4q 2\n0 1\n1 0\ny 1e3\n", 4, "z4q values", "y"),
        ("z4q x\n", 1, "z4q header arguments", "x"),
    ],
)
def test_cli_names_first_token_that_is_not_an_integer(tmp_path, text, lineno, what, token):
    path = tmp_path / "bad.z4q"
    path.write_text(text)
    code, out = run_cli(["invariants", str(path), "--kind", "z4q"])
    assert code == 2
    assert out == f"parse error: {path}:{lineno}: expected an integer for {what}, got {token!r}\n"


@pytest.mark.parametrize(
    "kind, header",
    [(kind, f"{kind} -1") for kind in formats.KINDS if kind != "monodromy"]
    + [("monodromy", "monodromy -1 1"), ("monodromy", "monodromy 1 -1")],
)
def test_cli_refuses_negative_header_sizes(tmp_path, kind, header):
    """A negative size is refused at the header, never read as dim 0."""
    path = tmp_path / f"neg.{kind}"
    path.write_text(header + "\n")
    argv = ["invariants", str(path), "--kind", kind]
    code, out = run_cli(["bundle", str(path)] if kind == "monodromy" else argv)
    assert code == 2
    assert out == f"parse error: {path}:1: {kind} header arguments must be >= 0\n"


@pytest.mark.parametrize(
    "kind, text, lineno, allowed",
    [
        ("z2q", "z2q 2\n0 1\n1 0\n# values\n1 2\n", 5, "{0,1}"),
        ("z4q", "z4q 2\n1 0\n0 0\n5 -2\n", 4, "{0,1,2,3}"),
    ],
)
def test_cli_refuses_enhancement_values_out_of_range(tmp_path, kind, text, lineno, allowed):
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    code, out = run_cli(["invariants", str(path), "--kind", kind])
    assert code == 2
    assert out == f"parse error: {path}:{lineno}: {kind} values must lie in {allowed}\n"


def test_public_names_resolve_and_kinds_agree():
    """Every name in a module's __all__ exists, and the CLI offers every
    parsed kind that has a report."""
    for info in pkgutil.iter_modules(sigmod8.__path__):
        module = importlib.import_module(f"sigmod8.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"sigmod8.{info.name}.__all__ lists {missing}"
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["invariants"]._actions if a.dest == "kind")
    assert list(kind.choices) == list(cli._REPORTS)
    assert set(kind.choices) == set(formats.KINDS) - {"monodromy"}


SAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples")
FUZZ_TOKENS = ("-1", "2", "x", "1/0", "3/2", str(10**12))


def _mutate(text, rng):
    """One seeded mutation: a token replaced or appended, a line dropped or
    duplicated, the text truncated, or a NUL, tab or `#` inserted."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.randrange(6)
    if op == 0:
        tokens = lines[i].split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
        lines[i] = " ".join(tokens)
    elif op == 1:
        del lines[i]
    elif op == 2:
        lines.insert(i, lines[i])
    elif op == 3:
        lines[i] += " " + rng.choice(FUZZ_TOKENS)
    body = "\n".join(lines) + "\n"
    pos = rng.randrange(len(body) + 1)
    if op == 4:
        return body[:pos]
    if op == 5:
        return body[:pos] + rng.choice(("\0", "\t", "#")) + body[pos:]
    return body


def test_fuzzed_samples_exit_0_2_or_3(tmp_path):
    """Mutated sample files, and a ratform (no sample has that kind), exit
    0, 2 or 3, never with a traceback."""
    from sigmod8.rng import SplitMix64

    sources = []
    for name in sorted(os.listdir(SAMPLES)):
        with open(os.path.join(SAMPLES, name), encoding="utf-8") as fh:
            sources.append((name, fh.read()))
    sources.append(("fuzz.ratform", "ratform 3\n1/2 0 1\n0 -3/4 2.5\n1 2.5 1e2\n"))
    assert {name.rsplit(".", 1)[1] for name, _ in sources} == set(formats.KINDS)
    rng = SplitMix64(2024)
    codes = []
    for name, text in sources:
        kind = name.rsplit(".", 1)[1]
        path = tmp_path / name
        argv = ["bundle", str(path)] if kind == "monodromy" else [
            "invariants", str(path), "--kind", kind]
        for _ in range(120):
            path.write_text(_mutate(text, rng), encoding="utf-8")
            code, out = run_cli(argv)
            assert code in (0, 2, 3), (name, path.read_text(encoding="utf-8"), out)
            codes.append(code)
    assert {0, 2, 3} <= set(codes)


def test_ratform_exponents(tmp_path):
    """Decimals and p/q parse; an exponent past +-4300 is a parse error with its
    line, refused before Fraction computes 10**exponent (hours for 1e999999999)."""
    f = formats.parse_ratform("ratform 2\n1.5e3 -3/4\n-0.75 2.5E-2\n")
    assert f.matrix == ((1500, Fraction(-3, 4)), (Fraction(-3, 4), Fraction(1, 40)))
    assert formats.parse_ratform("ratform 1\n1e4300\n").matrix == ((10**4300,),)
    for tok in ("1e1000000", "-2.5e-4301", "1e999_999_999"):
        path = tmp_path / "huge.ratform"
        path.write_text(f"ratform 2\n1 0\n0 {tok}\n")
        code, out = run_cli(["invariants", str(path), "--kind", "ratform"])
        assert code == 2, out
        assert f"huge.ratform:3: expected a rational p/q, got {tok!r}" in out


def test_parse_monodromy_commutator_violation_is_not_parse_error():
    bad = EX1_MONODROMY.replace("0 -1\n1 -1\n", "1 0\n0 1\n")
    with pytest.raises(CommutatorRelationViolated):
        formats.parse_monodromy(bad)


# ------------------------------------------------------------------------ CLI

def test_cli_intform_report(tmp_path):
    path = tmp_path / "i4.intform"
    path.write_text(I4_INTFORM)
    code, out = run_cli(["invariants", str(path), "--kind", "intform"])
    assert code == 0
    assert "sigma = 4" in out
    assert "sigma mod 8 = 4" in out
    assert "BK = 4" in out
    assert "Arf(subquotient) = 1" in out


def test_cli_z4q_p1_report(tmp_path):
    path = tmp_path / "p1.z4q"
    path.write_text("z4q 1\n1\n1\n")
    code, out = run_cli(["invariants", str(path), "--kind", "z4q"])
    assert code == 0
    assert "BK = 1" in out
    assert "wu-sublagrangian: undefined (q(v)=1)" in out


def test_cli_z2form_h_report(tmp_path):
    path = tmp_path / "h.z2form"
    path.write_text("z2form 2\n0 1\n1 0\n")
    code, out = run_cli(["invariants", str(path), "--kind", "z2form"])
    assert code == 0
    assert "decomposition: 0·P + 1·H" in out
    assert "witt = 0" in out


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.z2form"
    path.write_text("z2form 2\n0 1\n")
    code, out = run_cli(["invariants", str(path), "--kind", "z2form"])
    assert code == 2
    assert "parse error" in out


def test_cli_missing_file_exit_code(tmp_path):
    code, out = run_cli(["invariants", str(tmp_path / "missing"), "--kind", "z2form"])
    assert code == 2


@pytest.mark.parametrize("binary", [False, True], ids=["directory", "not-utf8"])
@pytest.mark.parametrize("command", [["bundle"], ["invariants", "--kind", "intform"]])
def test_cli_unreadable_path_exit_code(tmp_path, command, binary):
    """A directory or a file that is not UTF-8 text: both commands say so and exit 2."""
    path = tmp_path
    if binary:
        path = tmp_path / "bytes.intform"
        path.write_bytes(b"\xff\xfe intform 1\n")
    code, out = run_cli(command[:1] + [str(path)] + command[1:])
    assert code == 2
    assert out.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "rows, lines",
    [
        ([[4]], ["boundary linking form: T = Z4", "BK(linking) = 1"]),
        ([[0, 1], [1, 0]], ["boundary linking form: T = 0", "BK(linking) = 0"]),
        ([[1, 0], [0, 2]], []),  # odd diagonal
        ([[0, 0], [0, 0]], []),  # degenerate
        ([[2, 1], [1, 2]], []),  # det 3, odd cokernel
        ([[1 << 21]], ["boundary linking form: T = Z2097152"]),  # |T| past the limit
    ],
    ids=["z4", "hyperbolic", "odd", "degenerate", "odd-part", "too-large"],
)
def test_cli_intform_linking_lines(tmp_path, rows, lines):
    path = tmp_path / "f.intform"
    path.write_text(f"intform {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    code, out = run_cli(["invariants", str(path), "--kind", "intform"])
    assert code == 0
    assert [x for x in out.splitlines() if x.startswith(("boundary", "BK(linking)"))] == lines


def test_cli_precondition_exit_code(tmp_path):
    path = tmp_path / "sing.z2form"
    path.write_text("z2form 2\n0 0\n0 1\n")
    code, out = run_cli(["invariants", str(path), "--kind", "z2form"])
    assert code == 3
    assert "nonsingular = false" in out


@pytest.mark.parametrize("big", [1 << 62, 1 << 70], ids=["2^62", "2^70"])
def test_cli_symcomplex_huge_entries_exit_3(tmp_path, big):
    path = tmp_path / "big.symcomplex"
    path.write_text(f"symcomplex 4\n1 1 1 0 0\nd 1\n{big}\nd 2\n4\n")
    code, out = run_cli(["invariants", str(path), "--kind", "symcomplex"])
    assert code == 3
    assert "structure valid = false" in out
    assert "violation: d_1 d_2 != 0" in out


@pytest.mark.parametrize(
    "rank", ["99999999999999999999", "3000000000", "-1", "257"], ids=["1e20", "3e9", "-1", "257"]
)
def test_cli_symcomplex_oversized_rank_exit_2(tmp_path, rank):
    """A rank outside 0..RANK_LIMIT is a parse error: exit 2, no traceback.

    Runs in a child process whose address space is capped at 1 GiB, so a
    build of the dense blocks fails at once instead of taking memory.
    """

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "big.symcomplex"
    path.write_text(f"symcomplex 4\n0 0 {rank} 1 0\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sigmod8.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "sigmod8.cli", "invariants", str(path), "--kind", "symcomplex"],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "parse error" in proc.stdout and "outside 0..256" in proc.stdout


def test_cli_symcomplex_block_free_rank_256(tmp_path):
    """Absent blocks are never built: ranks at RANK_LIMIT and no blocks is quick."""
    path = tmp_path / "free.symcomplex"
    path.write_text("symcomplex 4\n0 256 256 256 0\n")
    start = time.perf_counter()
    code, out = run_cli(["invariants", str(path), "--kind", "symcomplex"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "structure valid = true" in out
    assert "mod-2 cohomology classes in degree 2: 256" in out
    squares = [x for x in out.splitlines() if x.startswith("P2(class ")]
    assert squares == [f"P2(class {i}) = 0" for i in range(256)]
    assert elapsed < 1.0


def test_importing_cli_does_not_load_numpy():
    """numpy is imported by the Gauss kernels on first use, not at import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sigmod8.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sigmod8.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_bundle_report(tmp_path):
    path = tmp_path / "ex1.monodromy"
    path.write_text(EX1_MONODROMY)
    code, out = run_cli(["bundle", str(path)])
    assert code == 0
    assert "handle 1: +2" in out
    assert "handle 2: -2" in out
    assert "z4-trivial: no" in out


def test_cli_bundle_commutator_violation(tmp_path):
    path = tmp_path / "bad.monodromy"
    path.write_text(EX1_MONODROMY.replace("0 -1\n1 -1\n", "1 0\n0 1\n"))
    code, out = run_cli(["bundle", str(path)])
    assert code == 3
    assert "offending product" in out


def test_cli_byte_determinism(tmp_path):
    path = tmp_path / "ex1.monodromy"
    path.write_text(EX1_MONODROMY)
    _, out1 = run_cli(["bundle", str(path)])
    _, out2 = run_cli(["bundle", str(path)])
    assert out1 == out2


def test_cli_selfcheck_small():
    code, out = run_cli(["selfcheck", "--max-dim", "2", "--trials", "3", "--seed", "1"])
    assert code == 0
    assert out.count("PASS") == 5


@pytest.mark.parametrize(
    "argv",
    [["--max-dim", "-1", "--trials", "-3"], ["--max-dim", "7"], ["--trials", "-1"]],
)
def test_cli_selfcheck_rejects_out_of_range(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(["selfcheck", *argv])
    assert exc.value.code == 2


def test_cli_selfcheck_zero_trials_reports_skip():
    """A suite that checked nothing reports SKIP, never PASS (0 checks)."""
    code, out = run_cli(["selfcheck", "--max-dim", "0", "--trials", "0"])
    assert code == 0
    assert "PASS (0 checks)" not in out
    for name in ("morita", "van-der-blij", "wall-closed-vs-general"):
        assert f"suite {name}: SKIP (0 checks)" in out
    assert out.count("PASS (") == 2
    assert "selfcheck: 2 suites passed, 3 skipped" in out
    assert "all suites passed" not in out


def test_cli_selfcheck_detects_mutation(monkeypatch, tmp_path):
    """A sign flip in the closed Wall form must trip the wall suite."""
    from sigmod8 import selfcheck as sc
    from sigmod8 import fibration

    real = fibration.wall_form_closed

    def flipped(f, g):
        form = real(f, g)
        from sigmod8.intforms import RatSymForm

        return RatSymForm(form.dim, tuple(tuple(-x for x in r) for r in form.matrix))

    monkeypatch.setattr(sc, "wall_form_closed", flipped)
    from sigmod8.rng import SplitMix64

    result = sc.suite_wall(10, SplitMix64(0))
    assert not result.passed
    assert result.counterexample is not None


def test_gauss_vs_classify_detects_wrong_classify_table(monkeypatch):
    from sigmod8 import selfcheck as sc

    real = sc._bk_classify_tables

    def shifted(split):
        tables = real(split)
        tables[:, -1] = (tables[:, -1] + 1) % 8
        return tables

    monkeypatch.setattr(sc, "_bk_classify_tables", shifted)
    result = sc._exhaustive_suites(3)[0]
    assert not result.passed
    assert result.checked == 0  # the dim-0 form's only entry
    assert result.counterexample == "form rows (), values ()"


def _forms_of(split):
    """The forms of a stack of splittings, from their Gram rows."""
    from sigmod8.z2forms import Z2SymForm

    return [Z2SymForm(split.rows.shape[1], tuple(rows)) for rows in split.rows.tolist()]


def _flip_arf_entry(monkeypatch, skip):
    """Flip entry 0 of every Arf table the suites build for a form after the
    first `skip` tables of that form in the run.

    The doubled half builds the first table of each isotropic form, in its
    own block; the subquotient half builds the second, when the form first
    appears as a W, which is in the same block (an isotropic form is its
    own W).
    """
    from sigmod8 import selfcheck as sc

    real = sc._arf_tables
    built = []

    def flipped(split):
        tables = real(split)
        for row, form in enumerate(_forms_of(split)):
            if built.count(form) >= skip:
                tables[row, 0] ^= 1
            built.append(form)
        return tables

    monkeypatch.setattr(sc, "_arf_tables", flipped)


def test_bk_4arf_detects_wrong_arf_table_doubled_half(monkeypatch):
    from sigmod8 import selfcheck as sc

    _flip_arf_entry(monkeypatch, 0)
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    assert result.checked == 0
    assert result.counterexample == "isotropic form rows (), h values ()"


def test_bk_4arf_detects_wrong_arf_table_subquotient_half(monkeypatch):
    from sigmod8 import selfcheck as sc
    from sigmod8.z2forms import enumerate_nonsingular_forms

    # the doubled half checks all 2^dim entries of each isotropic form of
    # dim 0, 2, 4, and its tables are left alone
    isotropic = [f for dim in (0, 2, 4)
                 for f in enumerate_nonsingular_forms(dim, isotropic_only=True)]
    _flip_arf_entry(monkeypatch, 1)
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    assert result.checked == sum(1 << f.dim for f in isotropic)
    assert result.counterexample == "form rows (), values ()"


def test_bk_4arf_doubled_failure_after_subquotient_failure(monkeypatch):
    """A doubled-half failure at dim 4 is reported over a subquotient-half
    failure at dim 0, even once gauss-vs-classify has failed too."""
    from sigmod8 import selfcheck as sc
    from sigmod8.z2forms import enumerate_nonsingular_forms

    real_classify, real_arf = sc._bk_classify_tables, sc._arf_tables
    built = []

    def shifted(split):
        tables = real_classify(split)
        tables[:, 0] ^= 1
        return tables

    def flipped(split):  # the second table of any form, the first of a dim-4 one
        tables = real_arf(split)
        for row, form in enumerate(_forms_of(split)):
            if built.count(form) or form.dim == 4:
                tables[row, 0] ^= 1
            built.append(form)
        return tables

    monkeypatch.setattr(sc, "_bk_classify_tables", shifted)
    monkeypatch.setattr(sc, "_arf_tables", flipped)
    isotropic = {dim: list(enumerate_nonsingular_forms(dim, isotropic_only=True))
                 for dim in (0, 2, 4)}
    gauss_vs_classify, bk_4arf = sc._exhaustive_suites(4)
    assert gauss_vs_classify.checked == 0 and not gauss_vs_classify.passed
    assert not bk_4arf.passed
    assert bk_4arf.checked == sum(1 << f.dim for f in isotropic[0] + isotropic[2])
    assert bk_4arf.counterexample == (
        f"isotropic form rows {isotropic[4][0].rows}, h values (0, 0, 0, 0)"
    )


def test_exhaustive_suites_stop_once_both_have_failed(monkeypatch):
    """No block past dim 0 is built when gauss-vs-classify and the doubled
    half of bk-4arf both fail on the dim-0 form."""
    from sigmod8 import selfcheck as sc

    real_classify, real_arf, real_split = sc._bk_classify_tables, sc._arf_tables, sc._split_arrays
    dims = []

    def shifted(split):
        tables = real_classify(split)
        tables[:, 0] ^= 1
        return tables

    def flipped(split):
        tables = real_arf(split)
        tables[:, 0] ^= 1
        return tables

    monkeypatch.setattr(sc, "_bk_classify_tables", shifted)
    monkeypatch.setattr(sc, "_arf_tables", flipped)
    monkeypatch.setattr(sc, "_split_arrays", lambda dim, forms: dims.append(dim) or real_split(dim, forms))
    results = sc._exhaustive_suites(5)
    assert [r.line() for r in results] == [
        "suite gauss-vs-classify: FAIL after 0 checks: form rows (), values ()",
        "suite bk-4arf: FAIL after 0 checks: isotropic form rows (), h values ()",
    ]
    assert dims == [0]


def _indices_by_form(max_dim):
    """(form, its row of _subquotient_indices) for every form up to max_dim."""
    from sigmod8.enhancements import _split_arrays, _subquotient_indices
    from sigmod8.z2forms import enumerate_nonsingular_forms

    out = []
    for dim in range(max_dim + 1):
        forms = list(enumerate_nonsingular_forms(dim))
        out += zip(forms, _subquotient_indices(_split_arrays(dim, forms))[2].tolist())
    return out


def test_bk_4arf_subquotient_failure_counts_indexed_entries(monkeypatch):
    """A wrong Gauss entry at d > 0 of a dim-4 form: `checked` counts only
    the enhancements with q(v) = 0 before it, not d."""
    import numpy as np

    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import enumerate_z4_enhancements
    from sigmod8.z2forms import enumerate_nonsingular_forms

    forms = _indices_by_form(4)
    for at, (target, indices) in enumerate(forms):  # an indexed entry d right after an unindexed one
        after_none = [d for d in range(1, len(indices))
                      if indices[d] >= 0 and indices[d - 1] < 0]
        if target.dim == 4 and after_none:
            break
    d = after_none[0]
    real = sc._bk_gauss_tables

    def wrong(rows):
        tables = real(rows)
        if rows.shape[1] == target.dim:
            hit = (rows == np.array(target.rows)).all(axis=1)
            tables[hit, d] = (tables[hit, d] + 4) % 8
        return tables

    monkeypatch.setattr(sc, "_bk_gauss_tables", wrong)
    doubled = sum(1 << f.dim for dim in (0, 2, 4)
                  for f in enumerate_nonsingular_forms(dim, isotropic_only=True))
    before = sum(index >= 0 for _, ix in forms[:at] for index in ix)
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    indexed_before_d = sum(index >= 0 for index in indices[:d])
    assert 0 < indexed_before_d < d - 1
    assert result.checked == doubled + before + indexed_before_d
    values = list(enumerate_z4_enhancements(target))[d].values
    assert result.counterexample == f"form rows {target.rows}, values {values}"


def test_bk_4arf_builds_each_subquotient_table_once_per_run(monkeypatch):
    """The doubled half builds one table per isotropic form, the subquotient
    half one per distinct W; a second run builds them all again."""
    from collections import Counter

    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import enumerate_z4_enhancements, isotropic_subquotient
    from sigmod8.z2forms import enumerate_nonsingular_forms, wu_class

    real = sc._arf_tables
    calls = []
    monkeypatch.setattr(sc, "_arf_tables", lambda split: calls.extend(_forms_of(split)) or real(split))
    isotropic = [f for dim in (0, 2, 4)
                 for f in enumerate_nonsingular_forms(dim, isotropic_only=True)]
    w_forms = {isotropic_subquotient(q).form for dim in range(5)
               for f in enumerate_nonsingular_forms(dim)
               for q in enumerate_z4_enhancements(f) if q.evaluate(wu_class(f)) == 0}
    assert len(w_forms) == 30
    assert sc._exhaustive_suites(4)[1].passed
    first = list(calls)
    assert list(dict.fromkeys(first)) == isotropic  # the doubled half, in enumeration order
    # every W is isotropic, and the subquotient half builds each one once
    assert set(first) == w_forms
    assert Counter(first) == Counter(isotropic + list(w_forms))
    assert sc._exhaustive_suites(4)[1].passed
    assert calls[len(first):] == first


def test_exhaustive_blocks_do_not_change_the_tables(monkeypatch):
    """Blocks of 5 forms (dims 3 and 4 end in a part block) give the same
    forms, tables and suite results as the default block size."""
    import numpy as np

    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import _bk_classify_tables, _subquotient_indices

    def tables(max_dim):
        out = {}
        for block in sc._blocks(max_dim):
            parts = out.setdefault(block.dim, [[], [], [], []])
            parts[0] += block.forms
            parts[1].append(block.gauss)
            parts[2].append(_bk_classify_tables(block.split))
            parts[3].append(_subquotient_indices(block.split)[2])
        return {dim: [forms] + [np.concatenate(t) for t in rest]
                for dim, (forms, *rest) in out.items()}

    default, default_suites = tables(4), sc._exhaustive_suites(4)
    assert sc.BLOCK_FORMS > len(default[4][0])  # the default runs each dim in one block
    monkeypatch.setattr(sc, "BLOCK_FORMS", 5)
    assert [len(block.forms) for block in sc._blocks(3)] == [1, 1, 4] + [5] * 5 + [3]
    small = tables(4)
    assert default.keys() == small.keys()
    for dim in default:
        assert default[dim][0] == small[dim][0]
        for a, b in zip(default[dim][1:], small[dim][1:]):
            assert np.array_equal(a, b)
    assert sc._exhaustive_suites(4) == default_suites


def _brute_selfcheck_counts(max_dim):
    """gauss-vs-classify and bk-4arf check counts, by brute force.

    Nonsingularity and the Wu class are found by trying every vector, with
    no elimination, so the counts do not rest on the library's GF(2) code.
    """
    def bilinear(rows, x, y):
        return sum((rows[i] >> j) & 1 for i in range(len(rows)) if (x >> i) & 1
                   for j in range(len(rows)) if (y >> j) & 1) % 2

    def q_value(rows, values, x):
        n = len(rows)
        total = sum(values[i] for i in range(n) if (x >> i) & 1)
        total += 2 * sum((rows[i] >> j) & 1 for i in range(n) for j in range(i + 1, n)
                         if (x >> i) & 1 and (x >> j) & 1)
        return total % 4

    gauss = arf_checks = 0
    for n in range(max_dim + 1):
        entries = [(i, j) for i in range(n) for j in range(i, n)]
        for bits in range(1 << len(entries)):
            rows = [0] * n
            for k, (i, j) in enumerate(entries):
                if (bits >> k) & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            vectors = range(1 << n)
            if any(all(bilinear(rows, x, y) == 0 for y in vectors) for x in range(1, 1 << n)):
                continue  # a nonzero radical vector: singular
            gauss += 1 << n
            diag = [(rows[i] >> i) & 1 for i in range(n)]
            if n % 2 == 0 and not any(diag):
                arf_checks += 1 << n  # every Z2 enhancement of an isotropic form
            wu = next(v for v in vectors
                      if all(bilinear(rows, x, x) == bilinear(rows, x, v) for x in vectors))
            for lift in vectors:
                values = [diag[i] + 2 * ((lift >> i) & 1) for i in range(n)]
                arf_checks += q_value(rows, values, wu) == 0
    return gauss, arf_checks


@pytest.mark.parametrize("max_dim, counts", [(3, (243, 16)), (4, (7411, 4272))])
def test_cli_selfcheck_counts_every_enhancement(max_dim, counts):
    gauss, arf_checks = _brute_selfcheck_counts(max_dim)
    assert (gauss, arf_checks) == counts
    code, out = run_cli(["selfcheck", "--max-dim", str(max_dim), "--trials", "0"])
    assert code == 0
    assert f"suite gauss-vs-classify: PASS ({gauss} checks)" in out
    assert f"suite bk-4arf: PASS ({arf_checks} checks)" in out


def test_cli_selfcheck_determinism():
    _, out1 = run_cli(["selfcheck", "--max-dim", "2", "--trials", "4", "--seed", "9"])
    _, out2 = run_cli(["selfcheck", "--max-dim", "2", "--trials", "4", "--seed", "9"])
    assert out1 == out2


def test_cli_ratform_report(tmp_path):
    path = tmp_path / "wall.ratform"
    path.write_text("ratform 2\n4 -3\n-3 7/2\n")
    code, out = run_cli(["invariants", str(path), "--kind", "ratform"])
    assert code == 0
    assert "sigma = 2" in out


def _calls_during(codes, run):
    """Run run() and list (code, form) for every call of a function in `codes`."""
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append((frame.f_code, frame.f_locals.get("form")))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def test_one_splitting_per_form_and_no_solve_per_report():
    """z4q reports at dims 8 and 12 and intform reports at dim 8 split each
    GF(2) form once, and read rank and Wu class off it: no solve."""
    from sigmod8 import z2forms
    from sigmod8.enhancements import Z4Quadratic
    from sigmod8.intforms import random_unimodular_form
    from sigmod8.rng import SplitMix64

    splitting = z2forms._splitting.__wrapped__.__code__
    codes = {splitting, z2forms.solve.__code__}
    rng = SplitMix64(83)
    reports = []
    for dim, count in ((8, 6), (12, 6)):
        for _ in range(count):
            rows = None
            while rows is None or len(z2forms.eliminate({}, rows)) < dim:
                rows = [0] * dim
                for i in range(dim):
                    for j in range(i, dim):
                        if rng.randrange(2):
                            rows[i] |= 1 << j
                            rows[j] |= 1 << i
            values = tuple((rows[i] >> i & 1) + 2 * rng.randrange(2) for i in range(dim))
            q = Z4Quadratic(z2forms.Z2SymForm(dim, tuple(rows)), values)
            reports.append((cli._report_z4q, q))
    reports += [(cli._report_intform, random_unimodular_form(8, rng)) for _ in range(6)]
    subquotients = 0
    for report, obj in reports:
        out = io.StringIO()
        exit_codes = []
        calls = _calls_during(codes, lambda: exit_codes.append(report(obj, out)))
        assert exit_codes == [0]
        assert all(code is splitting for code, _ in calls), report.__name__  # no solve
        forms = [form for _, form in calls]
        assert len({id(form) for form in forms}) == len(forms), report.__name__
        reported = obj.form if report is cli._report_z4q else obj._mod2
        assert any(form is reported for form in forms)
        subquotients += "subquotient dim" in out.getvalue()
    assert subquotients >= 4


def test_parse_symcomplex_zero_sided_block():
    # phi1 at the top degree has a zero-dimensional domain: header only
    text = "symcomplex 4\n0 0 1 1 0\nphi1 2\n1\nphi0 2\n1\nd 3\n2\nphi1 3\n-1\nphi1 4\n"
    c = formats.parse_symcomplex(text)
    assert c.p1(2)[0][0] == 1
