"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every metric is reported per traced pass (the pass is the workload's fixed
request sequence), so counts compare across runs that fit a different number
of passes into the same time.  BENCHMARK.json lists the same names; the
"moves" column here says which end-to-end metric, on which workload, a
change in the layer should show up in.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

# (name, unit, better, moves)
LAYER_METRICS: List[Tuple[str, str, str, str]] = []


def _add(names, unit, better, moves):
    for n in names:
        LAYER_METRICS.append((n, unit, better, moves))


_SC = "selfcheck wall_rel"
_add(["kernels.gauss_counts.calls"], "count", "lower", _SC + " (per-call overhead)")
_add(["kernels.gauss_counts.busy_s"], "s", "lower", _SC + "; invariants latency_tail_rel")
_add(["kernels.gauss_counts.vectors"], "count", "lower", "invariants latency_tail_rel")
_add(["kernels.gauss_counts.ns_per_vector"], "ns", "lower", "invariants latency_tail_rel")
for fn in ("bk_gauss", "bk_classify", "arf", "isotropic_subquotient"):
    _add([f"enhancements.{fn}.calls"], "count", "lower", _SC)
    _add([f"enhancements.{fn}.busy_s", f"enhancements.{fn}.self_s"], "s", "lower", _SC)
_add(["enhancements.isotropic_subquotient.useful_ratio"], "ratio", "higher", _SC)
_Z2 = "selfcheck wall_rel (high reuse); invariants latency_p50_rel (no reuse)"
for fn in ("is_nonsingular", "split_vectors", "solve", "rref_basis", "wu_class"):
    _add([f"z2forms.{fn}.calls"], "count", "lower", _Z2)
    _add([f"z2forms.{fn}.busy_s"], "s", "lower", _Z2)
_add(["z2forms.split_vectors.cache_hit_ratio"], "ratio", "higher", _Z2)
_add(["z2forms.enumerate_nonsingular_forms.yielded"], "count", "lower", _Z2)
_add(["z2forms.enumerate_nonsingular_forms.busy_s"], "s", "lower", _Z2)
_INT = "invariants latency_tail_rel; bundle wall_rel"
_add(["intforms.signature_exact.calls"], "count", "lower", _INT)
_add(["intforms.signature_exact.busy_s"], "s", "lower", _INT)
_add(["intforms.signature_exact.dim_sum"], "count", "lower", _INT)
for fn in ("smith_normal_form", "boundary_linking_form", "characteristic_vector"):
    _add([f"intforms.{fn}.calls"], "count", "lower", _INT)
    _add([f"intforms.{fn}.busy_s"], "s", "lower", _INT)
_add(["intforms.bk_linking.calls", "intforms.bk_linking.elements"], "count", "lower", _INT)
_add(["intforms.bk_linking.busy_s"], "s", "lower", _INT)
for fn in ("validate_structure", "cohomology_mod2", "pontryagin_square", "wu_and_mod4_signature"):
    _add([f"symcomplex.{fn}.calls"], "count", "lower", "invariants latency_p50_rel")
    _add([f"symcomplex.{fn}.busy_s"], "s", "lower", "invariants latency_p50_rel")
_FIB = "bundle wall_rel and latency_tail_rel; selfcheck wall_rel (wall suite)"
for fn in ("wall_form_general", "wall_form_closed", "local_system_signature", "bundle_report"):
    _add([f"fibration.{fn}.calls"], "count", "lower", _FIB)
    _add([f"fibration.{fn}.busy_s", f"fibration.{fn}.self_s"], "s", "lower", _FIB)
_add(["fibration.wall_form_closed.singular_retries"], "count", "lower", _FIB)
for fn in ("load", "parse_monodromy"):
    _add([f"formats.{fn}.calls"], "count", "lower", "invariants and bundle latency_p50_rel")
    _add([f"formats.{fn}.busy_s"], "s", "lower", "invariants and bundle latency_p50_rel")
    _add([f"formats.{fn}.bytes"], "B", "lower", "invariants and bundle latency_p50_rel")
for suite in ("gauss_vs_classify", "bk_4arf", "morita", "van_der_blij", "wall"):
    _add([f"selfcheck.suite_{suite}.busy_s"], "s", "lower", _SC)
    _add([f"selfcheck.suite_{suite}.checks"], "count", "higher", _SC)
_add(["setup.import_numpy_s", "setup.import_sigmod8_s"], "s", "lower", "setup_s on every workload")
_add(["trace.overhead_frac"], "ratio", "lower", "none: traced wall_rel / untraced wall_rel - 1")

NAMES = [m[0] for m in LAYER_METRICS]


def layer_values(totals: Dict[str, Dict[str, float]], counters: Dict[str, int],
                 cache: Tuple[int, int], passes: int) -> Dict[str, float]:
    """Per-pass values of every traced metric (all but setup.* and trace.*).

    `totals` maps span names to calls / busy_s / self_s summed over the
    traced passes, `counters` holds the named counts, `cache` the
    split_vectors cache (hits, misses) during the traced passes.
    """
    out: Dict[str, float] = {}
    for name in NAMES:
        module, _, rest = name.partition(".")
        fn, _, stat = rest.rpartition(".")
        span = f"{module}.{fn}"
        if module in ("setup", "trace"):
            continue
        t = totals.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if stat in t:
            out[name] = t[stat] / passes
        elif stat == "ns_per_vector":
            vectors = counters.get("kernels.gauss_counts.vectors", 0)
            out[name] = t["busy_s"] * 1e9 / vectors if vectors else 0.0
        elif stat == "useful_ratio":
            out[name] = 1.0 - counters.get(f"{span}.not_divisible", 0) / t["calls"] if t["calls"] else 0.0
        elif stat == "cache_hit_ratio":
            hits, misses = cache
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        else:
            out[name] = counters.get(name, 0) / passes
    return out
