"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import io
import json
import os
import re

import pytest

import corpus
import layers
import run
import worker
from check import check_response
import tracing
from tracing import Tracer

_, cli = worker.import_checked()

SECONDS = 1  # smallest corpus: passes_for() gives its minimum of four passes


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    return {w: corpus.build_corpus(w, 5, SECONDS, str(base / w)) for w in corpus.WORKLOADS}


def _failed_frac(main, requests):
    res = worker.run_pass(main, requests)
    return res["failed"] / len(res["latencies"])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_library_passes_every_check(manifests, workload):
    requests = manifests[workload]["passes"][0]
    if workload == "selfcheck":
        requests = requests[:1]
    res = worker.run_pass(cli.main, requests)
    assert res["failed"] == 0, res["reasons"]


def _zero_everywhere(argv, out):
    """The real report with every number replaced by 0."""
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    out.write(re.sub(r"-?\d+", "0", buf.getvalue()))
    return code


_ANSWER = re.compile(r"^(BK|BK\(2h\)|BK\(linking\)|Arf|sigma|sigma mod \d|phi\(v,v\) mod 8|"
                     r"P2\(.*\)|witt class \(Z8\)|Arf\(subquotient\)) = .*$", re.MULTILINE)


def _zero_answers(argv, out):
    """The real report with only the invariant values replaced by 0."""
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    out.write(_ANSWER.sub(lambda m: f"{m.group(1)} = 0", buf.getvalue()))
    return code


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_fake_zero_program_is_caught(manifests, workload):
    requests = manifests[workload]["passes"][0][:3]
    assert _failed_frac(_zero_everywhere, requests) > 0


def test_zero_invariant_values_are_caught(manifests):
    # Every invariants class has a nonzero answer on some seed; one pass of
    # this seed already gives enough of them.
    assert _failed_frac(_zero_answers, manifests["invariants"]["passes"][0]) > 0.5


def test_wrong_bundle_total_is_caught():
    request = {"expect": [], "total": {"modulus": 8, "zero": False}}
    assert check_response(request, 0, "local system signature (total): 4") is not None
    assert check_response(request, 0, "local system signature (total): 8") is None
    request = {"expect": [], "total": {"modulus": 4, "zero": True}}
    assert check_response(request, 0, "local system signature (total): 8") is not None


def test_check_allows_annotations_but_not_other_values():
    request = {"expect": ["BK = 5"], "total": None}
    assert check_response(request, 0, "BK = 5 (0.01 s)") is None
    assert check_response(request, 0, "BK = 57") is not None
    assert check_response(request, 3, "BK = 5") is not None


def test_same_seed_same_corpus_hash(tmp_path):
    a = corpus.build_corpus("invariants", 11, SECONDS, str(tmp_path / "a"))
    b = corpus.build_corpus("invariants", 11, SECONDS, str(tmp_path / "b"))
    c = corpus.build_corpus("invariants", 12, SECONDS, str(tmp_path / "c"))
    assert a["corpus_sha256"] == b["corpus_sha256"] != c["corpus_sha256"]
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_selfcheck_counts_match_the_program():
    gauss, arf_checks = corpus.selfcheck_counts(3)
    out = io.StringIO()
    assert cli.main(["selfcheck", "--max-dim", "3", "--trials", "0"], out=out) == 0
    assert f"suite gauss-vs-classify: PASS ({gauss} checks)" in out.getvalue()
    assert f"suite bk-4arf: PASS ({arf_checks} checks)" in out.getvalue()


def test_tracer_rebinds_every_reference_and_restores(manifests):
    from sigmod8 import enhancements, selfcheck, z2forms

    originals = (enhancements.bk_gauss, selfcheck.bk_gauss, enhancements.split_vectors)
    tracer = Tracer()
    tracer.install()
    try:
        assert enhancements.bk_gauss is selfcheck.bk_gauss is not originals[0]
        assert enhancements.split_vectors is z2forms.split_vectors is not originals[2]
        worker.run_pass(cli.main, manifests["invariants"]["passes"][0], tracer)
    finally:
        tracer.uninstall()
    assert (enhancements.bk_gauss, selfcheck.bk_gauss, enhancements.split_vectors) == originals
    totals = tracer.totals()
    assert totals["cli.main"]["calls"] == len(manifests["invariants"]["passes"][0])
    assert totals["enhancements.bk_gauss"]["calls"] > 0
    for t in totals.values():
        assert -1e-9 <= t["self_s"] <= t["busy_s"] + 1e-9
    values = layers.layer_values(totals, tracer.counters, (tracer.cache_hits, tracer.cache_misses), 1)
    assert values["intforms.bk_linking.elements"] == sum(
        1 << int(c.rsplit("^", 1)[1]) for c in (r["cls"] for r in manifests["invariants"]["passes"][0])
        if c.startswith("even-"))


def test_tracer_skips_functions_the_program_lacks(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (("kernels", "gone", None, None, None),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["kernels.gone"]


def test_pass_samples_the_reference_outside_its_time(manifests):
    res = worker.run_pass(cli.main, manifests["invariants"]["passes"][0][:3])
    assert len(res["refs"]) == len(res["latencies"]) == len(res["starts"])
    for (seconds, pieces, mid), start, latency in zip(res["refs"], res["starts"], res["latencies"]):
        assert pieces >= 1 and seconds >= worker.REF_SHARE * latency
        assert start + latency < mid < res["total_s"]
    assert res["wall_s"] == pytest.approx(res["total_s"] - sum(r[0] for r in res["refs"]))
    assert res["wall_s"] >= sum(res["latencies"])


def test_request_units_match_the_time_scale():
    # a 10 ms request, then a 1 s one whose span covers the first's pieces
    res = {"starts": [0.0, 0.02], "latencies": [0.01, 1.0],
           "refs": [[0.004, 2, 0.012], [0.3, 100, 1.17]]}
    short, long_ = worker.request_units(res)
    assert short == pytest.approx(0.002)
    assert long_ == pytest.approx(0.304 / 102)


def test_tail_latency_leaves_ten_beyond():
    value, pct = run.tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_benchmark_json_lists_the_layer_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in layers.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
