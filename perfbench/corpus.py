"""Seeded input generator for the sigmod8 end-to-end benchmark.

Every input is built from pieces whose invariants are known, so each
request carries its exact expected answer:

* z4q: a GL(n, F2) change of basis of a sum of P1, P-1, q00 and q22, so
  BK = 4 * #q22 + #P1 - #P-1 (mod 8);
* z2q: a GL(n, F2) change of basis of a sum of h00 and h11, so
  Arf = #h11 (mod 2);
* intform / ratform: a unimodular integer congruence of a diagonal, so
  sigma = #positive - #negative entries; even diagonals of +-2^k give a
  2-primary cokernel whose linking form has BK = sigma (mod 8);
* symcomplex: a unimodular form in the middle degree (P2(wu) = sigma mod 4,
  P2(e_i) = phi(e_i, e_i) mod 4) or Z -> Z in two degrees
  (P2 = a + p*d mod 4 when d is even, no class when d is odd);
* monodromy: (f, g, g, f) with f, g words in transvections, so the
  commutator relation holds; the total signature is 0 mod 4, 0 mod 8 for
  doubled words (trivial mod 4) and exactly 0 at fibre genus 1.

The generator carries its own PRNG and its own GF(2) and integer linear
algebra, so the corpus does not change when the library's generators do.
Nothing here imports sigmod8.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

_MASK = (1 << 64) - 1

WORKLOADS = ("selfcheck", "invariants", "bundle")

# selfcheck request shape: the exhaustive suites run on every form up to
# SELFCHECK_MAX_DIM (the same forms on every request, so caches are reused);
# SELFCHECK_TRIALS random cases per randomized suite.
SELFCHECK_MAX_DIM = 4
SELFCHECK_TRIALS = 10
SELFCHECK_REQUESTS_PER_PASS = 2

# Entry bound for the integer congruences: large enough that the exact
# elimination works on multi-digit entries, small enough that a dim-16
# signature stays in the tens of milliseconds.
ENTRY_BOUND = 1 << 10


class Rng:
    """SplitMix64, seeded per stream so each workload's inputs are independent."""

    def __init__(self, seed: int, stream: int = 0):
        self.state = (seed * 0x9E3779B97F4A7C15 + stream * 0xD1B54A32D192ED03) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform on the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: List) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------- GF(2)
# Square matrices are lists of row bit masks; bit j of row i is entry (i, j).


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def random_gl2(n: int, rng: Rng) -> List[int]:
    """A random invertible n x n matrix over F2: row additions and a shuffle."""
    rows = [1 << i for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.below(n), rng.below(n)
        if i != j:
            rows[i] ^= rows[j]
    rng.shuffle(rows)
    return rows


def _f2_apply(gram: Sequence[int], x: int) -> int:
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= gram[i]
        x >>= 1
        i += 1
    return out


def f2_base_change(gram: Sequence[int], basis: Sequence[int]) -> List[int]:
    """Gram matrix of the form restricted to the new basis vectors."""
    images = [_f2_apply(gram, b) for b in basis]
    return [
        sum(_parity(basis[i] & images[j]) << j for j in range(len(basis)))
        for i in range(len(basis))
    ]


def quadratic_value(gram: Sequence[int], values: Sequence[int], x: int, modulus: int) -> int:
    """q(x) from q on the basis: sum q(e_i) + (modulus/2) * sum_{i<j} lambda(e_i, e_j)."""
    idx = [i for i in range(len(values)) if (x >> i) & 1]
    total = sum(values[i] for i in idx)
    cross = sum((gram[i] >> j) & 1 for a, i in enumerate(idx) for j in idx[a + 1 :])
    return (total + (modulus // 2) * cross) % modulus


def _block_sum(blocks: Sequence[Tuple[List[int], List[int]]]) -> Tuple[List[int], List[int]]:
    gram: List[int] = []
    values: List[int] = []
    for rows, vals in blocks:
        shift = len(gram)
        gram += [r << shift for r in rows]
        values += vals
    return gram, values


_P1 = ([1], [1])
_PM1 = ([1], [3])
_Q00 = ([2, 1], [0, 0])
_Q22 = ([2, 1], [2, 2])
_H00 = ([2, 1], [0, 0])
_H11 = ([2, 1], [1, 1])


def _f2_rows_text(gram: Sequence[int]) -> List[str]:
    n = len(gram)
    return [" ".join(str((r >> j) & 1) for j in range(n)) for r in gram]


def z4q_input(n: int, rng: Rng) -> Tuple[str, int]:
    """A z4q file of dimension n and its Brown-Kervaire invariant."""
    pairs = rng.between(0, n // 2)
    lines = n - 2 * pairs
    n22 = rng.between(0, pairs)
    p_plus = rng.between(0, lines)
    blocks = [_Q22] * n22 + [_Q00] * (pairs - n22) + [_P1] * p_plus + [_PM1] * (lines - p_plus)
    rng.shuffle(blocks)
    gram, values = _block_sum(blocks)
    basis = random_gl2(n, rng)
    new_gram = f2_base_change(gram, basis)
    new_values = [quadratic_value(gram, values, b, 4) for b in basis]
    text = "\n".join(
        [f"z4q {n}"] + _f2_rows_text(new_gram) + [" ".join(map(str, new_values))]
    )
    return text + "\n", (4 * n22 + p_plus - (lines - p_plus)) % 8


def z2q_input(n: int, rng: Rng) -> Tuple[str, int]:
    """A z2q file of even dimension n and its Arf invariant."""
    pairs = n // 2
    n11 = rng.between(0, pairs)
    blocks = [_H11] * n11 + [_H00] * (pairs - n11)
    rng.shuffle(blocks)
    gram, values = _block_sum(blocks)
    basis = random_gl2(n, rng)
    new_gram = f2_base_change(gram, basis)
    new_values = [quadratic_value(gram, values, b, 2) for b in basis]
    text = "\n".join(
        [f"z2q {n}"] + _f2_rows_text(new_gram) + [" ".join(map(str, new_values))]
    )
    return text + "\n", n11 % 2


# ---------------------------------------------------------------- over Z


def congruent_form(diagonal: Sequence, rng: Rng, steps: int) -> List[List]:
    """E D E^T for a random unimodular E: elementary steps and swaps.

    A step that would push an entry to ENTRY_BOUND or beyond is skipped, so
    entries stay bounded and the result is reproducible.
    """
    n = len(diagonal)
    m = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.below(n), rng.below(n)
        if i == j:
            continue
        if rng.below(4) == 0:  # swap basis vectors i and j
            m[i], m[j] = m[j], m[i]
            for row in m:
                row[i], row[j] = row[j], row[i]
            continue
        k = (1, -1, 2, -2)[rng.below(4)]
        # e_i -> e_i + k e_j: row_i += k row_j, then col_i += k col_j
        row = [a + k * b for a, b in zip(m[i], m[j])]
        new_ii = row[i] + k * row[j]
        if max(abs(x) for x in row) >= ENTRY_BOUND or abs(new_ii) >= ENTRY_BOUND:
            continue
        m[i] = row
        for r in m:
            r[i] += k * r[j]
    return m


def _signs(n: int, rng: Rng) -> List[int]:
    return [1 if rng.below(2) else -1 for _ in range(n)]


def _int_rows_text(m: Sequence[Sequence]) -> List[str]:
    return [" ".join(str(x) for x in row) for row in m]


def unimodular_input(n: int, rng: Rng) -> Tuple[str, List[List[int]], int, int]:
    """(intform text, matrix, sigma, det) for a congruence of a +-1 diagonal."""
    signs = _signs(n, rng)
    m = congruent_form(signs, rng, 3 * n)
    det = 1
    for s in signs:
        det *= s
    text = "\n".join([f"intform {n}"] + _int_rows_text(m)) + "\n"
    return text, m, sum(signs), det


def even_input(n: int, log_order: int, rng: Rng) -> Tuple[str, int, int, List[int]]:
    """(intform text, sigma, det, orders) for a congruence of +-2^k_i, sum k_i = log_order."""
    ks = [1] * n
    for _ in range(log_order - n):
        ks[rng.below(n)] += 1
    signs = _signs(n, rng)
    diagonal = [s * (1 << k) for s, k in zip(signs, ks)]
    m = congruent_form(diagonal, rng, 3 * n)
    det = 1
    for d in diagonal:
        det *= d
    text = "\n".join([f"intform {n}"] + _int_rows_text(m)) + "\n"
    return text, sum(signs), det, sorted(1 << k for k in ks)


def ratform_input(n: int, rng: Rng) -> Tuple[str, int]:
    """(ratform text, sigma) for a congruence of a diagonal of nonzero rationals."""
    signs = _signs(n, rng)
    diagonal = [Fraction(s * rng.between(1, 9), rng.between(1, 9)) for s in signs]
    m = congruent_form(diagonal, rng, 2 * n)
    text = "\n".join([f"ratform {n}"] + _int_rows_text(m)) + "\n"
    return text, sum(signs)


def middle_complex_input(n: int, rng: Rng) -> Tuple[str, List[List[int]], int]:
    """A unimodular form carried in the middle degree of a 4-dimensional complex."""
    _, m, sigma, _ = unimodular_input(n, rng)
    text = "\n".join(
        ["symcomplex 4", f"0 0 {n} 0 0", "phi0 2"] + _int_rows_text(m)
    ) + "\n"
    return text, m, sigma


def two_degree_complex_input(rng: Rng) -> Tuple[str, int, int, int]:
    """Z -> Z in degrees (3, 2): differential d, phi0 = (a), phi1 = (p), (-p).

    The s = 1 structure relation at r = 2 reads d(-p) + p d + (a - a) = 0,
    so every (d, a, p) is a valid structure.
    """
    d = rng.between(1, 12) * (1 if rng.below(2) else -1)
    a = rng.between(-9, 9)
    p = rng.between(-9, 9)
    text = "\n".join(
        ["symcomplex 4", "0 0 1 1 0", "d 3", str(d), "phi0 2", str(a),
         "phi1 2", str(p), "phi1 3", str(-p)]
    ) + "\n"
    return text, d, a, p


# ------------------------------------------------------------ monodromy


def _j(h: int) -> List[List[int]]:
    n = 2 * h
    return [[(1 if j == i + h else -1 if i == j + h else 0) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transvection_matrix(c: Sequence[int]) -> List[List[int]]:
    """I + (J c) c^T, the transvection x -> x + phi(x, c) c."""
    n = len(c)
    j = _j(n // 2)
    jc = [sum(j[i][k] * c[k] for k in range(n)) for i in range(n)]
    return [[int(i == k) + jc[i] * c[k] for k in range(n)] for i in range(n)]


def transvection_word(h: int, length: int, rng: Rng, doubled: bool) -> List[List[int]]:
    n = 2 * h
    word = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(length):
        c = [rng.between(-1, 1) for _ in range(n)]
        if not any(c):
            c[rng.below(n)] = 1
        if doubled:
            c = [2 * x for x in c]
        word = _matmul(word, transvection_matrix(c))
    return word


def _identity_mod(m: Sequence[Sequence[int]], k: int) -> bool:
    return all((x - int(i == j)) % k == 0 for i, row in enumerate(m) for j, x in enumerate(row))


def monodromy_input(h: int, length: int, rng: Rng, doubled: bool) -> Tuple[str, bool, bool]:
    """(text, z2-trivial, z4-trivial) for genus-2 data (f, g, g, f)."""
    f = transvection_word(h, length, rng, doubled)
    g = transvection_word(h, length, rng, doubled)
    z2 = _identity_mod(f, 2) and _identity_mod(g, 2)
    z4 = _identity_mod(f, 4) and _identity_mod(g, 4)
    lines = [f"monodromy {h} 2"]
    for m in (f, g, g, f):
        lines += _int_rows_text(m)
    return "\n".join(lines) + "\n", z2, z4


# ------------------------------------------------------------ selfcheck


def _f2_rank(rows: Sequence[int], n: int) -> int:
    work = list(rows)
    rank = 0
    for col in range(n):
        piv = next((k for k in range(rank, len(work)) if (work[k] >> col) & 1), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for k in range(len(work)):
            if k != rank and (work[k] >> col) & 1:
                work[k] ^= work[rank]
        rank += 1
    return rank


def _f2_solve(gram: Sequence[int], rhs: int) -> int:
    """The unique v with gram * v = rhs, by trying every v (dims here are <= 6)."""
    n = len(gram)
    for v in range(1 << n):
        if _f2_apply(gram, v) == rhs:
            return v
    raise ValueError("singular system")


def selfcheck_counts(max_dim: int) -> Tuple[int, int]:
    """Check counts of the gauss-vs-classify and bk-4arf suites, by enumeration.

    gauss-vs-classify checks every Z4 enhancement of every nonsingular
    symmetric form of dim <= max_dim.  bk-4arf checks every Z2 enhancement of
    every nonsingular alternating form of even dim, then every Z4 enhancement
    whose value on the Wu class is 0.
    """
    gauss = arf_checks = 0
    for n in range(max_dim + 1):
        for bits in range(1 << (n * (n + 1) // 2)):
            gram = [0] * n
            idx = 0
            for i in range(n):
                for j in range(i, n):
                    if (bits >> idx) & 1:
                        gram[i] |= 1 << j
                        gram[j] |= 1 << i
                    idx += 1
            if _f2_rank(gram, n) != n:
                continue
            gauss += 1 << n
            diag = [(gram[i] >> i) & 1 for i in range(n)]
            if n % 2 == 0 and not any(diag):
                arf_checks += 1 << n
            wu = _f2_solve(gram, sum(d << i for i, d in enumerate(diag)))
            for lift in range(1 << n):
                values = [diag[i] + 2 * ((lift >> i) & 1) for i in range(n)]
                if quadratic_value(gram, values, wu, 4) == 0:
                    arf_checks += 1
    return gauss, arf_checks


# ------------------------------------------------------------ workloads


def _selfcheck_expected(counts: Tuple[int, int], trials: int) -> List[str]:
    gauss, arf_checks = counts
    return [
        f"suite gauss-vs-classify: PASS ({gauss} checks)",
        f"suite bk-4arf: PASS ({arf_checks} checks)",
        f"suite morita: PASS ({trials} checks)",
        f"suite van-der-blij: PASS ({trials} checks)",
        f"suite wall-closed-vs-general: PASS ({trials} checks)",
        "selfcheck: all suites passed",
    ]


def _subquotient_line(bk: int) -> str:
    if bk % 4:
        return f"wu-sublagrangian: undefined (q(v)={bk % 4})"
    return f"Arf(subquotient) = {bk // 4}"


# One invariants pass: (class name, request maker).  Each class has a fixed shape
# (dimension, group order, number of generators) so requests of one class
# cost about the same on every seed; the mix spans single huge Gauss
# enumerations, exact signatures, Smith forms and linking sums, and the
# symmetric-complex path.  The heaviest class (|T| = 2^12) appears twice per
# pass so the tail percentile falls inside one class.
def _z4q(n):
    def build(rng):
        text, bk = z4q_input(n, rng)
        return "z4q", text, [f"kind = z4q, dim = {n}", f"BK = {bk}",
                             f"witt class (Z8) = {bk}", _subquotient_line(bk)], None
    return build


def _z2q(n):
    def build(rng):
        text, a = z2q_input(n, rng)
        return "z2q", text, [f"kind = z2q, dim = {n}", f"Arf = {a}",
                             f"BK(2h) = {4 * a}"], None
    return build


def _unimodular(n):
    def build(rng):
        text, _, sigma, det = unimodular_input(n, rng)
        s8 = sigma % 8
        return "intform", text, [
            f"kind = intform, dim = {n}", f"det = {det}", f"sigma = {sigma}",
            f"sigma mod 8 = {s8}", f"phi(v,v) mod 8 = {s8}", f"BK = {s8}",
            _subquotient_line(s8),
        ], None
    return build


def _even(n, log_order):
    def build(rng):
        text, sigma, det, orders = even_input(n, log_order, rng)
        return "intform", text, [
            f"kind = intform, dim = {n}", f"det = {det}", f"sigma = {sigma}",
            f"sigma mod 8 = {sigma % 8}",
            "characteristic vector: undefined (not unimodular)",
            "boundary linking form: T = " + " + ".join(f"Z{d}" for d in orders),
            f"BK(linking) = {sigma % 8}",
        ], None
    return build


def _ratform(n):
    def build(rng):
        text, sigma = ratform_input(n, rng)
        return "ratform", text, [f"kind = ratform, dim = {n}", f"sigma = {sigma}"], None
    return build


def _middle(n):
    def build(rng):
        text, m, sigma = middle_complex_input(n, rng)
        lines = [
            f"kind = symcomplex, n = 4, ranks = (0, 0, {n}, 0, 0)",
            "structure valid = true",
            f"mod-2 cohomology classes in degree 2: {n}",
        ]
        lines += [f"P2(class {i}) = {m[i][i] % 4}" for i in range(n)]
        lines += [f"sigma = {sigma}", f"sigma mod 4 = {sigma % 4}", f"P2(wu) = {sigma % 4}"]
        return "symcomplex", text, lines, None
    return build


def _two_degree(rng):
    text, d, a, p = two_degree_complex_input(rng)
    lines = ["kind = symcomplex, n = 4, ranks = (0, 0, 1, 1, 0)", "structure valid = true"]
    if d % 2:
        lines.append("mod-2 cohomology classes in degree 2: 0")
    else:
        lines += ["mod-2 cohomology classes in degree 2: 1", f"P2(class 0) = {(a + p * d) % 4}"]
    return "symcomplex", text, lines, None


INVARIANTS_CLASSES = (
    [(f"z4q-{n}", _z4q(n)) for n in (8, 11, 14, 17, 20, 22)]
    + [(f"z2q-{n}", _z2q(n)) for n in (8, 14, 20)]
    + [(f"unimodular-{n}", _unimodular(n)) for n in (4, 8, 12, 16)]
    + [(f"even-{n}-T2^{k}", _even(n, k)) for n, k in ((2, 2), (3, 4), (4, 6), (4, 8), (5, 10))]
    + [("even-6-T2^12", _even(6, 12)), ("even-6-T2^12", _even(6, 12))]
    + [(f"ratform-{n}", _ratform(n)) for n in (4, 8, 12)]
    + [(f"middle-{n}", _middle(n)) for n in (4, 8, 12)]
    + [("two-degree", _two_degree), ("two-degree", _two_degree)]
)


def _bundle(h, length, doubled):
    def build(rng):
        text, z2, z4 = monodromy_input(h, length, rng, doubled)
        lines = [
            f"fibre genus h = {h}, base genus g = 2",
            f"z2-trivial: {'yes' if z2 else 'no'}",
            f"z4-trivial: {'yes' if z4 else 'no'}",
        ]
        total = {"modulus": 8 if z4 else 4, "zero": h == 1}
        return "monodromy", text, lines, total
    return build


# One bundle pass.  Two thirds of the requests are at fibre genus 1, whose
# cost hardly depends on the input, so the median falls inside that class;
# the cost at genus 2 varies several-fold with the words' entries.  The three
# genus-3 requests form the tail.
BUNDLE_CLASSES = (
    [(f"h1-len{k}", _bundle(1, k, False)) for k in (2, 4)] * 4
    + [("h1-doubled", _bundle(1, 2, True))] * 4
    + [(f"h2-len{k}", _bundle(2, k, False)) for k in (2, 3)]
    + [("h2-doubled", _bundle(2, 2, True))]
    + [("h3-len2", _bundle(3, 2, False))] * 3
)


def passes_for(workload: str, seconds: int) -> int:
    """How many distinct passes to generate: about three times what fits in
    `seconds` on a 2-vCPU Xeon at 2.1 GHz with the numpy kernel, so a faster
    program still sees fresh inputs (passes wrap around after the last)."""
    per_pass = {"selfcheck": 2.8, "invariants": 1.2, "bundle": 4.6}[workload]
    return max(4, int(3 * seconds / per_pass) + 1)


def build_corpus(workload: str, seed: int, seconds: int, directory: str) -> Dict:
    """Write the workload's inputs under `directory` and return its manifest.

    The manifest lists passes; each pass is a list of requests
    {"cls", "argv", "expect", "total"}; `argv` names files under
    `directory`.  The corpus hash covers every argv, every expected answer
    and every input byte.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = Rng(seed, WORKLOADS.index(workload) + 1)
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    passes = []
    if workload == "selfcheck":
        expect = _selfcheck_expected(selfcheck_counts(SELFCHECK_MAX_DIM), SELFCHECK_TRIALS)
    classes = {"invariants": INVARIANTS_CLASSES, "bundle": BUNDLE_CLASSES}.get(workload, ())
    for p in range(passes_for(workload, seconds)):
        requests = []
        if workload == "selfcheck":
            for _ in range(SELFCHECK_REQUESTS_PER_PASS):
                argv = ["selfcheck", "--max-dim", str(SELFCHECK_MAX_DIM),
                        "--trials", str(SELFCHECK_TRIALS), "--seed", str(rng.below(1 << 31))]
                requests.append({"cls": "selfcheck", "argv": argv, "expect": expect, "total": None})
        else:
            for idx, (cls, build) in enumerate(classes):
                kind, text, expect, total = build(rng)
                path = os.path.join(directory, f"p{p:03d}-{idx:02d}-{cls}.{kind}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                digest.update(text.encode())
                if kind == "monodromy":
                    argv = ["bundle", path]
                else:
                    argv = ["invariants", path, "--kind", kind]
                requests.append({"cls": cls, "argv": argv, "expect": expect, "total": total})
        for req in requests:
            # paths enter the hash by file name only, so it does not depend
            # on where the corpus is written
            argv = [os.path.basename(a) if a.startswith(directory) else a for a in req["argv"]]
            digest.update(json.dumps([argv, req["expect"], req["total"]]).encode())
        passes.append(requests)
    return {"workload": workload, "seed": seed, "passes": passes, "corpus_sha256": digest.hexdigest()}
