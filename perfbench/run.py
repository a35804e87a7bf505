#!/usr/bin/env python3
"""End-to-end benchmark of the sigmod8 command line.

    python3 perfbench/run.py --workload {selfcheck,invariants,bundle} \
        --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed (perfbench/corpus.py), then
runs the requests in one worker process (perfbench/worker.py) for S
seconds, checks every answer and times fresh interpreters importing
sigmod8.cli (set-up) between passes.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
perfbench/layers.py instead.  Run it from the root of a checkout: the
program is imported from that checkout's src/ and nowhere else.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

WORK = ".perfbench_work"
IMPORTTIME_LAUNCHES = 5
DEADLINE_S = 170
# The metrics BENCHMARK.json gates, in its order.  Timings are relative to
# the reference work (worker.reference_piece), unit x_ref; the same timings in
# seconds are printed and recorded but not gated, because a shared host's
# speed can drift by tens of percent from one half-minute to the next.
END_TO_END = ("setup_s", "wall_rel", "latency_p50_rel", "latency_tail_rel", "peak_rss_mb")


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def _import_self_times(n: int) -> Dict[str, float]:
    """Median over n launches of the summed `-X importtime` self times of the
    numpy and sigmod8 packages (the package and all its submodules)."""
    src = os.path.join(ROOT, "src")
    code = "import sys; sys.path.insert(0, sys.argv[1]); import sigmod8.cli"
    samples: Dict[str, List[float]] = {"numpy": [], "sigmod8": []}
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, src], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        sums = {"numpy": 0, "sigmod8": 0}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3).split(".")[0] in sums:
                sums[m.group(3).split(".")[0]] += int(m.group(1))
        for k, v in sums.items():
            samples[k].append(v / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def tail_latency(latencies: List[float]):
    """(value, percentile): the highest percentile with >= 10 requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "sigmod8", "cli.py")):
        print(f"error: no sigmod8 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus_dir = os.path.join(WORK, f"corpus-{args.workload}-seed{args.seed}")
    os.chdir(ROOT)
    manifest_path = os.path.join(WORK, f"manifest-{tag}.json")
    os.makedirs(WORK, exist_ok=True)
    try:
        t0 = time.perf_counter()
        manifest = corpus.build_corpus(args.workload, args.seed, args.seconds, corpus_dir)
        corpus_s = time.perf_counter() - t0
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        imports = _import_self_times(IMPORTTIME_LAUNCHES) if args.trace else {}

        spans_path = os.path.join(WORK, f"spans-{args.workload}.npz")
        budget = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
             str(args.seconds), str(args.trace), spans_path],
            cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 1),
        )
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        if os.path.exists(manifest_path):
            os.remove(manifest_path)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    setup = res["setup_s"]
    latencies = [x for pass_ in res["latencies_s"] for x in pass_]
    tail, tail_pct = tail_latency(latencies)
    # Relative timings (worker.request_units, worker.pass_rel): latencies and
    # pass times divided by the time per reference piece run beside them, so
    # a host that runs everything slower for a while moves the seconds but
    # not these.
    latencies_rel = [x for pass_ in res["latencies_rel"] for x in pass_]
    wall_rel = res["untraced_pass_rel"]
    piece_s = [w / r for w, r in zip(res["untraced_pass_s"], wall_rel)]
    tail_rel, _ = tail_latency(latencies_rel)
    failed_frac = res["failed"] / res["attempted"]
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_rel": (statistics.median(wall_rel), "x_ref"),
        "latency_p50_rel": (statistics.median(latencies_rel), "x_ref"),
        "latency_tail_rel": (tail_rel, "x_ref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    seconds = {
        "wall_s": (statistics.median(res["untraced_pass_s"]), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "reference_ms": (statistics.median(piece_s) * 1e3, "ms"),
    }
    provenance = dict(res["provenance"], nproc=len(os.sched_getaffinity(0)), commit=_commit(),
                      workload=args.workload, seed=args.seed, seconds=args.seconds,
                      corpus_sha256=manifest["corpus_sha256"])
    record = {
        "provenance": provenance,
        "corpus_s": corpus_s,
        "setup_samples_s": setup,
        "passes_untraced": len(res["untraced_pass_s"]),
        "passes_traced": len(res["traced_pass_s"]),
        "requests_measured": len(latencies),
        "latency_tail_percentile": tail_pct,
        "failed_frac": failed_frac,
        "failure_reasons": res["reasons"],
        "end_to_end": {k: v[0] for k, v in gated.items()},
        "seconds": {k: v[0] for k, v in seconds.items()},
        "untraced_passes": {"wall_s": res["untraced_pass_s"], "starts_s": res["starts_s"],
                            "latencies_s": res["latencies_s"], "refs_s": res["refs_s"]},
    }
    for key, value in sorted(provenance.items()):
        print(f"# {key}: {value}")
    for name, (value, unit) in {**gated, **seconds}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"latency_tail_ms is p{tail_pct:.2f} of {len(latencies)} requests")
    print(f"failed_frac = {failed_frac:.6g} ({res['failed']} of {res['attempted']})")
    for reason in res["reasons"]:
        print(f"# failed: {reason}")

    if args.trace:
        layers = dict(res["layers"])
        layers["setup.import_numpy_s"] = imports["numpy"]
        layers["setup.import_sigmod8_s"] = imports["sigmod8"]
        layers["trace.overhead_frac"] = res["overhead_frac"]
        record["layers"] = layers
        record["spans"] = res["spans"]
        record["untraced_functions"] = res["untraced_functions"]
        for name in res["untraced_functions"]:
            print(f"# not traced (absent from the program): {name}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u, *_ in LAYER_METRICS}
        print(f"trace.overhead_frac = {res['overhead_frac']:.4g} ({res['spans']} spans)")
    else:
        metrics = {n: {"value": gated[n][0], "unit": gated[n][1]} for n in END_TO_END}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
