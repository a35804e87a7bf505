"""Text formats and the command-line front end."""
import argparse
import importlib
import importlib.util
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
from sigmod8.intforms import RatSymForm

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


def test_perfbench_traces_functions_that_exist():
    """Every (module, function) in perfbench's WRAPPED table exists in
    sigmod8: a renamed traced function would silently drop its series."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{m}.{f}" for m, f, *_ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"sigmod8.{m}"), f, None))]
    assert tracing.WRAPPED and not missing, f"perfbench traces missing {missing}"


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


# Every documented kind of ratform entry; the plain ones (signed integers and
# p/q in ASCII digits) are read by int(), the rest by Fraction(tok).
RATFORM_TOKENS = [
    "0", "-0", "+7", "-12", "007", "3/4", "-3/4", "+6/8", "-0/5", "010/004",
    "1_000/3", "\u0663", "\u0663/4", "1.5", "-0.75", ".5", "2.", "+1.25e2", "2.5E-2",
    "1e4300", "-1e-4300", "7.5e+4300", "9" * 4300, "-" + "9" * 4300, "1/" + "9" * 4300,
    "9" * 4300 + "/" + "8" * 4300,
]

# Fraction refuses each of these, and so must the parser (a bare split into
# int(p) and int(q) would accept 3/-4 and 1/+2); test_ratform_exponents has
# the exponents Fraction accepts and the parser refuses.
RATFORM_REFUSED = [
    "3/-4", "1/+2", "1/0", "-0/0", "1e", "/3", "3/", "--1", "+-1", "1//2", "1/2/3", "1.5/2",
    "0x10", "9" * 4301, "1/" + "9" * 4301,
]


@pytest.mark.parametrize("tok", RATFORM_TOKENS, ids=range(len(RATFORM_TOKENS)))
def test_ratform_entry_is_fraction_of_token(tok):
    (entry,), = formats.parse_ratform(f"ratform 1\n{tok}\n").matrix
    assert type(entry) is Fraction
    assert entry == Fraction(tok)


@pytest.mark.parametrize("tok", RATFORM_REFUSED, ids=range(len(RATFORM_REFUSED)))
def test_ratform_refused_entry(tmp_path, tok):
    with pytest.raises((ValueError, ZeroDivisionError)):
        Fraction(tok)
    path = tmp_path / "bad.ratform"
    path.write_text(f"ratform 2\n1 0\n0 {tok}\n")
    code, out = run_cli(["invariants", str(path), "--kind", "ratform"])
    assert code == 2, out
    assert out == f"parse error: {path}:3: expected a rational p/q, got {tok!r}\n"


def test_ratform_matrix_is_tuples_of_fractions():
    form = formats.parse_ratform("ratform 2\n1/2 -3\n-3 0.25\n")
    assert form == RatSymForm.from_matrix([[Fraction(1, 2), -3], [-3, Fraction(1, 4)]])
    assert all(type(row) is tuple for row in form.matrix)


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


@pytest.mark.parametrize("kind, report", [
    ("z4q", ["kind = z4q, dim = 0", "BK = 0", "decomposition: 0·q00 + 0·q22 + 0·P1 + 0·P-1",
             "witt class (Z8) = 0", "wu-sublagrangian: span of v = ()", "subquotient dim = 0",
             "Arf(subquotient) = 0"]),
    ("z2q", ["kind = z2q, dim = 0", "Arf = 0", "BK(2h) = 0"]),
])
def test_cli_dim0_enhancement(tmp_path, kind, report):
    """At dim 0 the row of values is empty, so the file is its header alone."""
    path = tmp_path / f"zero.{kind}"
    for text in (f"{kind} 0\n", f"# empty\n{kind} 0\n\n# no values\n"):
        path.write_text(text)
        code, out = run_cli(["invariants", str(path), "--kind", kind])
        assert code == 0, out
        assert out.splitlines()[1:] == report
    path.write_text(f"{kind} 0\n1\n")
    code, out = run_cli(["invariants", str(path), "--kind", kind])
    assert (code, out) == (2, f"parse error: {path}:2: unexpected trailing line: 1\n")


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
    """numpy is imported by the Gauss kernels on first use, not at import;
    dataclasses and inspect, which its code generation needs, never are."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sigmod8.__file__))
    code = ("import sys, sigmod8.cli; "
            "print(*(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_cli_closed_stdout_exits_quietly():
    """A reader that has closed stdout ends the run with the documented code
    and no traceback: the process writes into a pipe whose read end is gone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sigmod8.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sigmod8.cli", "selfcheck", "--max-dim", "4", "--trials", "0"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


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


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_suite_wall_calls_the_closed_form_once_per_trial(monkeypatch, seed):
    """Every trial's f already has 1 - f invertible, so wall_form_closed is
    called once per check and never raises OneMinusFSingular.  Genus 3
    needs words of exactly 2h = 6 letters, the longest drawn, so a sampler
    that also rejected L = 2h would never reach it."""
    from sigmod8 import selfcheck as sc
    from sigmod8.rng import SplitMix64

    real = sc.wall_form_closed
    genera = []

    def counted(f, g):
        genera.append(f.h)
        return real(f, g)  # an exception would propagate out of suite_wall

    monkeypatch.setattr(sc, "wall_form_closed", counted)
    result = sc.suite_wall(50, SplitMix64(seed))
    assert result.passed and result.checked == 50
    assert len(genera) == 50
    assert set(genera) == {1, 2, 3}


def test_gauss_vs_classify_detects_wrong_classify_table(monkeypatch):
    from sigmod8 import selfcheck as sc

    real = sc._bk_classify_tables

    def shifted(*args):
        tables = real(*args)
        tables[:, -1] = (tables[:, -1] + 1) % 8
        return tables

    monkeypatch.setattr(sc, "_bk_classify_tables", shifted)
    result = sc._exhaustive_suites(3)[0]
    assert not result.passed
    assert result.checked == 0  # the dim-0 form's only entry
    assert result.counterexample == "form rows (), values ()"


def _flip_arf_entry(monkeypatch, flip):
    """Flip entry 0 of each row of the Arf tables bk-4arf builds where
    flip(isotropic, dim) holds: isotropic tells whether the row's form has
    zero diagonal (its entries also check BK(2h) = 4 Arf(h)), and dim is
    the dim of its forms."""
    import numpy as np

    from sigmod8 import selfcheck as sc

    real_arf = sc._arf_tables

    def flipped(values, at):
        tables = real_arf(values, at)
        dim = tables.shape[1].bit_length() - 1
        # the block's first dim bit columns are its lines, each with lambda(s, s) = 1
        isotropic = values.odd[:, 0] & ((1 << dim) - 1) == 0
        hit = np.array([flip(bool(iso), dim) for iso in isotropic], dtype=bool)
        tables[hit, 0] ^= 1
        return tables

    monkeypatch.setattr(sc, "_arf_tables", flipped)


def _checked_by_form(max_dim):
    """(form, its row of flags q_d(v) = 0) for every form up to max_dim."""
    from sigmod8.enhancements import _split_rows, _values, _zero_at
    from sigmod8.z2forms import enumerate_nonsingular_forms, nonsingular_rows

    out = []
    for dim in range(max_dim + 1):
        (rows,) = nonsingular_rows(dim, 1 << 12)
        checked = _zero_at(_values(rows, _split_rows(rows).wu), 0).tolist()
        out += zip(enumerate_nonsingular_forms(dim), checked)
    return out


def _bk_4arf_checks(forms):
    """bk-4arf's checks on these (form, checked flags): an entry of an
    isotropic form checks both identities and counts twice."""
    return sum(sum(flags) * (2 if form.is_isotropic() else 1) for form, flags in forms)


def _first_flipped(forms, flip):
    """Index among (form, checked flags) of the first form whose entry 0 is
    checked and whose Arf table _flip_arf_entry(flip) flips."""
    return next(at for at, (form, flags) in enumerate(forms)
                if flags[0] and flip(form.is_isotropic(), form.dim))


def test_bk_4arf_detects_wrong_arf_table_doubled_half(monkeypatch):
    """Every Arf table flipped: the dim-0 form's only entry, of an isotropic
    form, fails first."""
    from sigmod8 import selfcheck as sc

    _flip_arf_entry(monkeypatch, lambda isotropic, dim: True)
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    assert result.checked == 0
    assert result.counterexample == "form rows (), values ()"


def test_bk_4arf_detects_wrong_arf_table_subquotient_half(monkeypatch):
    """The Arf tables of forms with v != 0 flipped, the isotropic forms'
    left alone: the first such form with entry 0 checked fails, after
    every check before it in enumeration order."""
    from sigmod8 import selfcheck as sc

    def flip(isotropic, dim):
        return not isotropic

    forms = _checked_by_form(4)
    at = _first_flipped(forms, flip)
    _flip_arf_entry(monkeypatch, flip)
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    assert result.checked == _bk_4arf_checks(forms[:at]) == 10
    assert forms[at][0].rows == (3, 1)
    assert result.counterexample == "form rows (3, 1), values (1, 0)"


def test_bk_4arf_doubled_failure_after_subquotient_failure(monkeypatch):
    """With the non-isotropic forms' tables flipped at every dim and the
    isotropic forms' at dim 4, the first failure in enumeration order, at
    dim 2, is reported, even once gauss-vs-classify has failed too."""
    from sigmod8 import selfcheck as sc

    real_classify = sc._bk_classify_tables

    def shifted(*args):
        tables = real_classify(*args)
        tables[:, 0] ^= 1
        return tables

    monkeypatch.setattr(sc, "_bk_classify_tables", shifted)

    def flip(isotropic, dim):
        return not isotropic or dim == 4

    _flip_arf_entry(monkeypatch, flip)
    forms = _checked_by_form(4)
    at = _first_flipped(forms, flip)
    gauss_vs_classify, bk_4arf = sc._exhaustive_suites(4)
    assert gauss_vs_classify.checked == 0 and not gauss_vs_classify.passed
    assert not bk_4arf.passed
    assert forms[at][0].rows == (3, 1)
    assert bk_4arf.checked == _bk_4arf_checks(forms[:at]) == 10
    assert bk_4arf.counterexample == "form rows (3, 1), values (1, 0)"


def test_bk_4arf_checks_isotropic_forms_as_their_own_subquotient(monkeypatch):
    """On every isotropic form of dim <= 4, v = 0: every enhancement has
    q(v) = 0 and _subquotient_pairs gives the form's own pairs, so
    bk-4arf's comparison there is BK(2h) = 4 Arf(h), and Arf tables
    flipped on isotropic forms alone fail it."""
    import numpy as np

    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import _split_rows, _subquotient_pairs, _values, _zero_at
    from sigmod8.z2forms import enumerate_nonsingular_forms

    for dim in (0, 2, 4):
        forms = list(enumerate_nonsingular_forms(dim, isotropic_only=True))
        split = _split_rows(np.array([f.rows for f in forms], dtype=np.uint32).reshape(len(forms), dim))
        pairs = _subquotient_pairs(split)
        checked = _zero_at(_values(split.rows, split.wu), 0)
        assert checked.all() and checked.shape == (len(forms), 1 << dim)
        assert (pairs == split.pairs).all()

    # only the isotropic forms of dim 4 flipped: the first of them fails
    def flip(isotropic, dim):
        return isotropic and dim == 4

    forms = _checked_by_form(4)
    at = _first_flipped(forms, flip)
    _flip_arf_entry(monkeypatch, flip)
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    assert result.checked == _bk_4arf_checks(forms[:at]) == 16
    assert result.counterexample == "form rows (8, 4, 2, 1), values (0, 0, 0, 0)"


def test_exhaustive_suites_stop_once_both_have_failed(monkeypatch):
    """No block past dim 0 is built when gauss-vs-classify and bk-4arf
    both fail on the dim-0 form."""
    from sigmod8 import selfcheck as sc

    real_classify, real_split = sc._bk_classify_tables, sc._split_rows
    dims = []

    def shifted(*args):
        tables = real_classify(*args)
        tables[:, 0] ^= 1
        return tables

    monkeypatch.setattr(sc, "_bk_classify_tables", shifted)
    _flip_arf_entry(monkeypatch, lambda isotropic, dim: True)
    monkeypatch.setattr(sc, "_split_rows", lambda rows: dims.append(rows.shape[1]) or real_split(rows))
    results = sc._exhaustive_suites(5)
    assert [r.line() for r in results] == [
        "suite gauss-vs-classify: FAIL after 0 checks: form rows (), values ()",
        "suite bk-4arf: FAIL after 0 checks: form rows (), values ()",
    ]
    assert dims == [0]


def test_bk_4arf_subquotient_failure_counts_checked_entries(monkeypatch):
    """A wrong Gauss entry at d > 0 of a dim-4 form: `checked` counts only
    the enhancements with q(v) = 0 before it, not d, and each entry of an
    isotropic form before it twice."""
    import numpy as np

    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import enumerate_z4_enhancements

    forms = _checked_by_form(4)
    for at, (target, flags) in enumerate(forms):  # a checked entry d right after an unchecked one
        after_none = [d for d in range(1, len(flags)) if flags[d] and not flags[d - 1]]
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
    result = sc._exhaustive_suites(4)[1]
    assert not result.passed
    checked_before_d = sum(flags[:d])
    assert 0 < checked_before_d < d - 1
    assert result.checked == _bk_4arf_checks(forms[:at]) + checked_before_d
    values = list(enumerate_z4_enhancements(target))[d].values
    assert result.counterexample == f"form rows {target.rows}, values {values}"


def test_bk_4arf_fails_on_a_zeroed_lifted_pair(monkeypatch):
    """bk-4arf reads Arf(W) off the lifted pairs: with the last lifted pair
    of every form with v != 0 zeroed, it fails."""
    from sigmod8 import selfcheck as sc

    real = sc._subquotient_pairs

    def zeroed(split):
        pairs = real(split)
        for f in (split.wu[:, 0] != 0).nonzero()[0]:
            at = (pairs[f, 0::2] != 0).nonzero()[0]  # W's nonzero pairs
            if len(at):
                pairs[f, 2 * at[-1]:2 * at[-1] + 2] = 0
        return pairs

    monkeypatch.setattr(sc, "_subquotient_pairs", zeroed)
    assert sc._exhaustive_suites(4)[1].line() == (
        "suite bk-4arf: FAIL after 54 checks: form rows (9, 4, 2, 1), values (1, 2, 2, 0)"
    )


def test_bk_4arf_passes_on_a_dim6_block():
    """A block of dim-6 forms with 4 and 6 lines, where W's line pairs sit
    beside the form's own pairs (p = 4) or make up all of W (p = 6)."""
    from sigmod8 import selfcheck as sc
    from sigmod8.z2forms import nonsingular_rows

    block = sc._block(next(nonsingular_rows(6, 512)))
    assert {4, 6} <= set(block.split.counts.tolist())
    result = sc.suite_bk_4arf(block)
    assert result.passed and result.checked > 0


def test_a_full_dim6_block_passes_both_suites():
    """The first BLOCK_FORMS dim-6 forms as one block, as the exhaustive pass
    builds it: int8 butterflies at 2^dim = 64, the top of their range, and
    the int16 root index.  Both suites pass, and the Gauss table agrees
    with bk_gauss, counted one enhancement at a time, on all 64
    enhancements of 64 sampled forms."""
    from sigmod8 import kernels
    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import _diagonal, bk_gauss, enumerate_z4_enhancements
    from sigmod8.rng import SplitMix64
    from sigmod8.z2forms import nonsingular_rows

    rows = next(nonsingular_rows(6, sc.BLOCK_FORMS))
    assert rows.shape == (sc.BLOCK_FORMS, 6)
    assert kernels.gauss_sums(6, _diagonal(rows), rows)[0].dtype.name == "int8"
    block = sc._block(rows)
    assert sc.suite_gauss_vs_classify(block) == sc.SuiteResult("gauss-vs-classify", True, 64 * sc.BLOCK_FORMS)
    bk_4arf = sc.suite_bk_4arf(block)
    assert bk_4arf.passed and bk_4arf.checked > 0
    rng, sample = SplitMix64(6), {0, sc.BLOCK_FORMS - 1}
    while len(sample) < 64:
        sample.add(rng.randrange(sc.BLOCK_FORMS))
    for f in sorted(sample):
        form = sc._form(block, f)
        assert [bk_gauss(q) for q in enumerate_z4_enhancements(form)] == block.gauss[f].tolist(), f


def test_exhaustive_blocks_do_not_change_the_tables(monkeypatch):
    """Blocks of 5 forms (dims 3 and 4 end in a part block) give the same
    forms, tables and suite results as the default block size."""
    import numpy as np

    from sigmod8 import selfcheck as sc
    from sigmod8.enhancements import _bk_classify_tables, _subquotient_pairs

    def tables(max_dim):
        out = {}
        for block in sc._blocks(max_dim):
            parts = out.setdefault(block.dim, [[], [], [], [], [], []])
            parts[0] += block.split.rows.tolist()
            parts[1].append(block.gauss)
            parts[2].append(_bk_classify_tables(block.split, block.values.high))
            parts[3].append(_subquotient_pairs(block.split))
            parts[4].append(block.values.high)
            parts[5].append(block.values.odd)
        return {dim: [forms] + [np.concatenate(t) for t in rest]
                for dim, (forms, *rest) in out.items()}

    default, default_suites = tables(4), sc._exhaustive_suites(4)
    assert sc.BLOCK_FORMS > len(default[4][0])  # the default runs each dim in one block
    monkeypatch.setattr(sc, "BLOCK_FORMS", 5)
    assert [len(block.split.rows) for block in sc._blocks(3)] == [1, 1, 4] + [5] * 5 + [3]
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


def test_selfcheck_builds_no_form_objects(monkeypatch):
    """A passing exhaustive selfcheck works on stacks of Gram rows: it builds
    no Z2SymForm, checked or trusted, and no module keeps a per-form cache."""
    from sigmod8 import enhancements, z2forms
    from sigmod8.z2forms import Z2SymForm

    built = []
    real_init, real_trusted = Z2SymForm.__init__, Z2SymForm._trusted.__func__

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    def trusted(cls, *args):
        built.append(args)
        return real_trusted(cls, *args)

    monkeypatch.setattr(Z2SymForm, "__init__", init)
    monkeypatch.setattr(Z2SymForm, "_trusted", classmethod(trusted))
    code, out = run_cli(["selfcheck", "--max-dim", "4", "--trials", "0"])
    assert code == 0 and "suite bk-4arf: PASS (4272 checks)" in out
    assert built == []
    Z2SymForm(1, (1,))
    Z2SymForm._trusted(1, (1,))
    assert built == [(1, (1,))] * 2  # both are counted
    for module in (z2forms, enhancements):
        assert not hasattr(module, "FORM_CACHE_SIZE")
        assert [name for name, v in vars(module).items() if hasattr(v, "cache_info")] == []


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

    splitting = z2forms._splitting.__code__
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
