"""Batch command-line front end.

Subcommands:
    invariants PATH --kind KIND   parse a form/enhancement/complex file and
                                  print its invariant report
    bundle PATH                   per-handle Wall signatures and the local
                                  coefficient system signature of monodromy
                                  data
    selfcheck [--max-dim N] [--trials T] [--seed S]
                                  run the cross-module identity suites
                                  (0 <= N <= 6, T >= 0; with T = 0 the
                                  randomized suites report SKIP)

Exit codes: 0 success, 1 selfcheck identity failure, 2 parse error,
3 precondition error, 141 stdout closed by its reader (the output is cut
short; nothing is printed about it).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from . import enhancements as enh
from . import formats, intforms, symcomplex, z2forms
from .errors import (
    CommutatorRelationViolated,
    DegenerateForm,
    GroupTooLarge,
    InvariantError,
    NotDivisibleBy4,
    NotTwoPrimary,
    NotUnimodular,
    OddDiagonal,
    ParseError,
)
from .fibration import bundle_report
from .rng import SplitMix64
from .selfcheck import run_all_suites

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it


def _fmt_vec(bits) -> str:
    return "(" + ", ".join(str(b) for b in bits) + ")"


def _report_z2form(form: z2forms.Z2SymForm, out) -> int:
    print(f"kind = z2form, dim = {form.dim}", file=out)
    nonsingular = z2forms.is_nonsingular(form)
    print(f"nonsingular = {'true' if nonsingular else 'false'}", file=out)
    if not nonsingular:
        print("error: singular form; no further invariants", file=out)
        return EXIT_PRECONDITION
    wu = z2forms.wu_class(form)
    print(f"wu class = {_fmt_vec(wu.bits)}", file=out)
    p, k = z2forms.decompose(form)
    print(f"decomposition: {p}·P + {k}·H", file=out)
    print(f"witt = {z2forms.witt_class_sym(form)}", file=out)
    return EXIT_OK


def _report_subquotient(q: enh.Z4Quadratic, out) -> None:
    v = z2forms.wu_class(q.form)
    try:
        sub = enh.isotropic_subquotient(q)
    except NotDivisibleBy4:
        print(f"wu-sublagrangian: undefined (q(v)={q.evaluate(v)})", file=out)
        return
    print(f"wu-sublagrangian: span of v = {_fmt_vec(v.bits)}", file=out)
    print(f"subquotient dim = {sub.dim}", file=out)
    print(f"Arf(subquotient) = {enh.arf(sub)}", file=out)


def _report_z4q(q: enh.Z4Quadratic, out) -> int:
    print(f"kind = z4q, dim = {q.dim}", file=out)
    if not z2forms.is_nonsingular(q.form):
        print("error: singular underlying form", file=out)
        return EXIT_PRECONDITION
    print(f"BK = {enh.bk_gauss(q)}", file=out)
    m, n, pp, pm = enh.bk_classify(q)
    print(
        f"decomposition: {m}·q00 + {n}·q22 + {pp}·P1 + {pm}·P-1",
        file=out,
    )
    print(f"witt class (Z8) = {(4 * n + pp - pm) % 8}", file=out)
    _report_subquotient(q, out)
    return EXIT_OK


def _report_z2q(h: enh.Z2Quadratic, out) -> int:
    print(f"kind = z2q, dim = {h.dim}", file=out)
    if not z2forms.is_nonsingular(h.form):
        print("error: singular underlying form", file=out)
        return EXIT_PRECONDITION
    print(f"Arf = {enh.arf(h)}", file=out)
    print(f"BK(2h) = {enh.bk_gauss(enh.double(h))}", file=out)
    return EXIT_OK


def _report_intform(form: intforms.IntSymForm, out) -> int:
    print(f"kind = intform, dim = {form.dim}", file=out)
    det = form.determinant()
    print(f"det = {det}", file=out)
    sigma = intforms.signature_exact(form)
    print(f"sigma = {sigma}", file=out)
    print(f"sigma mod 8 = {sigma % 8}", file=out)
    if abs(det) == 1:
        v = intforms.characteristic_vector(form)
        print(f"characteristic vector = {_fmt_vec(v)}", file=out)
        print(f"phi(v,v) mod 8 = {intforms.van_der_blij_residue(form)}", file=out)
        q = intforms.reduce_to_enhanced(form)
        print(f"BK = {enh.bk_gauss(q)}", file=out)
        _report_subquotient(q, out)
    else:
        print("characteristic vector: undefined (not unimodular)", file=out)
    try:
        lf = intforms.boundary_linking_form(form)
    except (DegenerateForm, OddDiagonal, NotTwoPrimary):
        return EXIT_OK
    orders = " + ".join(f"Z{d}" for d in lf.orders) or "0"
    print(f"boundary linking form: T = {orders}", file=out)
    try:
        bk = intforms.bk_linking(lf)
    except GroupTooLarge:
        return EXIT_OK
    print(f"BK(linking) = {bk}", file=out)
    return EXIT_OK


def _report_ratform(form: intforms.RatSymForm, out) -> int:
    sigma = intforms.signature_exact(form)
    print(f"kind = ratform, dim = {form.dim}", file=out)
    print(f"sigma = {sigma}", file=out)
    return EXIT_OK


def _report_symcomplex(c: symcomplex.SymComplex, out) -> int:
    print(f"kind = symcomplex, n = {c.n}, ranks = {_fmt_vec(c.ranks)}", file=out)
    ok, violations = symcomplex.validate_structure(c)
    print(f"structure valid = {'true' if ok else 'false'}", file=out)
    if not ok:
        for v in violations:
            print(f"violation: {v}", file=out)
        return EXIT_PRECONDITION
    if c.n % 2 == 0:
        mid = c.n // 2
        classes = symcomplex.cohomology_mod2(c, mid)
        print(f"mod-2 cohomology classes in degree {mid}: {len(classes)}", file=out)
        for idx, x in enumerate(classes):
            p2 = symcomplex.pontryagin_square(c, x)
            print(f"P2(class {idx}) = {p2}", file=out)
        middle = all(r == 0 for d, r in enumerate(c.ranks) if d != mid)
        if middle and c.rank(mid):
            try:
                wu, sigma = symcomplex._wu_and_signature(c)
            except NotUnimodular:
                return EXIT_OK
            # _wu_and_signature has checked that P2(wu) = sigma mod 4
            print(f"sigma = {sigma}", file=out)
            print(f"sigma mod 4 = {sigma % 4}", file=out)
            print(f"wu class = {_fmt_vec(wu.v)}", file=out)
            print(f"P2(wu) = {sigma % 4}", file=out)
    return EXIT_OK


_REPORTS = {
    "z2form": _report_z2form, "z4q": _report_z4q, "z2q": _report_z2q,
    "intform": _report_intform, "ratform": _report_ratform, "symcomplex": _report_symcomplex,
}


def _report_bundle(data, out) -> int:
    print(f"fibre genus h = {data.h}, base genus g = {data.g}", file=out)
    report = bundle_report(data)
    for i, sig in enumerate(report.handle_signatures, start=1):
        print(f"handle {i}: {sig:+d}", file=out)
    print(f"sum of handle Wall signatures: {report.handle_sum}", file=out)
    print(f"local system signature (total): {report.total}", file=out)
    print(f"z2-trivial: {'yes' if report.z2_trivial else 'no'}", file=out)
    print(f"z4-trivial: {'yes' if report.z4_trivial else 'no'}", file=out)
    if report.total % 4 != 0:
        print(
            "warning: total is not divisible by 4; this contradicts "
            "multiplicativity mod 4 and indicates bad input",
            file=out,
        )
    return EXIT_OK


def _run_on_file(path: str, parse, report, out) -> int:
    """Read and parse the file at `path`, then print its report.

    A file that cannot be read as UTF-8 text, or a parse error, exits 2; an
    InvariantError from parsing or from the report exits 3.  A violated
    commutator relation also prints its offending product.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=out)
        return EXIT_PARSE
    try:
        obj = parse(text, path=path)
    except ParseError as exc:
        print(f"parse error: {exc}", file=out)
        return EXIT_PARSE
    except InvariantError as exc:
        print(f"error: {exc}", file=out)
        if isinstance(exc, CommutatorRelationViolated):
            print(f"offending product: {exc.product}", file=out)
        return EXIT_PRECONDITION
    print(f"input: {path}", file=out)
    try:
        return report(obj, out)
    except InvariantError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PRECONDITION


def _cmd_selfcheck(args, out) -> int:
    rng = SplitMix64(args.seed)
    results = run_all_suites(args.max_dim, args.trials, rng)
    failed = False
    for res in results:
        print(res.line(), file=out)
        failed = failed or not res.passed
    if failed:
        print("selfcheck: FAIL", file=out)
        return EXIT_SUITE_FAILURE
    skipped = sum(1 for res in results if res.checked == 0)
    if skipped:
        print(f"selfcheck: {len(results) - skipped} suites passed, {skipped} skipped", file=out)
    else:
        print("selfcheck: all suites passed", file=out)
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared.

    `parse_args` leaves a parser unchanged, so every `main` call can reuse
    it; a fresh parser per call would leave about 130 objects of cyclic
    garbage (argparse actions point back at their parser) for the cycle
    collector.  Callers must not add arguments to the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="sigmod8",
        description="Exact Arf / Brown-Kervaire / signature-mod-8 invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariant report for a form file")
    p_inv.add_argument("path")
    p_inv.add_argument(
        "--kind",
        required=True,
        choices=list(_REPORTS),
    )

    p_bun = sub.add_parser("bundle", help="signature report for monodromy data")
    p_bun.add_argument("path")

    p_self = sub.add_parser("selfcheck", help="run the identity suites")
    p_self.add_argument(
        "--max-dim", type=int, default=5, choices=range(z2forms.ENUMERATION_DIM_LIMIT + 1)
    )
    p_self.add_argument("--trials", type=_non_negative_int, default=50)
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        code = _dispatch(build_parser().parse_args(argv), out)
        out.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: send whatever is still buffered to
        # devnull, so that the interpreter's last flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _dispatch(args, out) -> int:
    if args.command == "invariants":
        parse = functools.partial(formats.load, kind=args.kind)
        return _run_on_file(args.path, parse, _REPORTS[args.kind], out)
    if args.command == "bundle":
        return _run_on_file(args.path, formats.parse_monodromy, _report_bundle, out)
    if args.command == "selfcheck":
        return _cmd_selfcheck(args, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
