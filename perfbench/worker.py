"""Benchmark worker: runs one workload's requests through sigmod8.cli.main.

    python3 perfbench/worker.py MANIFEST SECONDS TRACE SPANS_PATH

Runs in its own process, started by run.py with the checkout root as the
working directory: one client, closed loop (each request starts when the
previous one has returned), no threads.  Passes of the manifest run in
order until SECONDS of passes have elapsed.  With TRACE=1 passes alternate
untraced and traced, so the tracing overhead is measured on comparable work.
After each request the worker times fixed pieces of reference work that do
not use sigmod8, a quarter of the request's time, so each request and pass
can be expressed in multiples of the host's speed at that time.  Between
passes it times fresh interpreters importing sigmod8.cli (set-up), spread
over the run so that set-up and passes sample the same stretch of a noisy
host.  Prints one JSON object on stdout.
"""
from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional

from check import check_response

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
# Import takes about 0.2 s and is the noisiest metric; the median over this
# many fresh interpreters keeps its run-to-run spread small.
SETUP_LAUNCHES = 15

# Reference work: pieces of about 2 ms of interpreter work each on a 2.1 GHz
# Xeon.  After each request, pieces run until they add up to REF_SHARE of
# its latency (at least one), so the reference is sampled wherever the
# requests spend their time.
REF_PIECE_ITERATIONS = 5_000
REF_SHARE = 0.25

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import sigmod8.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, sigmod8.__file__)\n"
)


def setup_time() -> float:
    """Seconds for a fresh interpreter to import sigmod8.cli, timed inside it."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(os.path.join(SRC, "sigmod8") + os.sep):
        raise SystemExit(f"set-up child imported sigmod8 from {path}")
    return float(seconds)


def reference_piece() -> float:
    """Seconds for a fixed piece of interpreter work that calls nothing in
    sigmod8: a yardstick for how fast the host runs this process now.  The
    shared host's speed drifts by tens of percent over tens of seconds, in
    the reference and the program alike."""
    t0 = perf_counter()
    table: Dict[int, int] = {}
    row = [0] * 64
    acc = 1
    for i in range(REF_PIECE_ITERATIONS):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        row[i & 63] ^= acc
        table[acc & 1023] = i
    return perf_counter() - t0


def reference_after(latency: float) -> List[float]:
    """[seconds, pieces] of reference work run right after a request."""
    spent, pieces = reference_piece(), 1
    while spent < REF_SHARE * latency:
        spent += reference_piece()
        pieces += 1
    return [spent, pieces]


def request_units(res: Dict) -> List[float]:
    """For each request of a pass, the time per reference piece to divide its
    latency by: over the pieces that ran within one latency of the request's
    midpoint, and always its own.  A short request is measured against the
    host's speed in the same few milliseconds, a long one against its speed
    over the request's own span."""
    units = []
    for i, (start, latency) in enumerate(zip(res["starts"], res["latencies"])):
        mid = start + latency / 2
        near = [r for j, r in enumerate(res["refs"]) if j == i or abs(r[2] - mid) <= latency]
        units.append(sum(r[0] for r in near) / sum(r[1] for r in near))
    return units


def run_pass(main: Callable, requests: List[Dict], tracer=None) -> Dict:
    """Run one pass; returns start times and latencies (s), the [seconds,
    pieces, midpoint] of reference work after each request (times from the
    start of the pass), the pass time without it, failure count and first
    reasons."""
    starts: List[float] = []
    latencies: List[float] = []
    refs: List[List[float]] = []
    failed = 0
    reasons: List[str] = []
    call = tracer.wrap_request(main) if tracer is not None else main
    t_pass = perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request_id += 1
        buf = io.StringIO()
        error: Optional[str] = None
        t0 = perf_counter()
        starts.append(t0 - t_pass)
        try:
            code = call(req["argv"], out=buf)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the request fails; the run goes on
            code = None
            error = traceback.format_exc(limit=3)
        latencies.append(perf_counter() - t0)
        reason = error or check_response(req, code, buf.getvalue())
        if reason:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{req['cls']} {' '.join(req['argv'])}: {reason}")
        t_ref = perf_counter()
        spent, pieces = reference_after(latencies[-1])
        refs.append([spent, pieces, t_ref - t_pass + spent / 2])
    total = perf_counter() - t_pass
    return {"wall_s": total - sum(r[0] for r in refs), "total_s": total, "starts": starts,
            "latencies": latencies, "refs": refs, "failed": failed, "reasons": reasons}


def pass_rel(res: Dict) -> float:
    """Pass time in multiples of the time per reference piece over the pass."""
    return res["wall_s"] * sum(r[1] for r in res["refs"]) / sum(r[0] for r in res["refs"])


def run_workload(main: Callable, passes: List[List[Dict]], seconds: float,
                 tracer=None, between: Optional[Callable[[float], None]] = None) -> List[Dict]:
    """Passes in order (wrapping around) until they have taken `seconds`.

    Untraced: at least MIN_PASSES.  Traced: passes alternate untraced and
    traced, with at least one of each.  `between(progress)` runs after each
    pass, outside the timed region.
    """
    results: List[Dict] = []
    spent = 0.0
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        try:
            res = run_pass(main, passes[k % len(passes)], tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        res["traced"] = traced
        results.append(res)
        spent += res["total_s"]
        k += 1
        if between is not None:
            between(min(spent / seconds, 1.0))
        enough = k >= (2 if tracer is not None else MIN_PASSES)
        if enough and spent >= seconds:
            return results


def import_checked():
    """Import sigmod8.cli from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import sigmod8
    from sigmod8 import cli

    where = os.path.dirname(os.path.abspath(sigmod8.__file__))
    if where != os.path.join(SRC, "sigmod8"):
        raise SystemExit(f"sigmod8 was imported from {where}, not from {SRC}")
    return sigmod8, cli


def main(argv: List[str]) -> int:
    manifest_path, seconds, trace, spans_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    sigmod8, cli = import_checked()
    import importlib

    import numpy

    try:
        backend = importlib.import_module("sigmod8.kernels").backend()
    except (ImportError, AttributeError):
        backend = "unknown (no sigmod8.kernels.backend)"

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    setup: List[float] = []

    def launch_setup(progress: float) -> None:
        while len(setup) < SETUP_LAUNCHES * progress:
            setup.append(setup_time())

    results = run_workload(cli.main, manifest["passes"], seconds, tracer, launch_setup)
    launch_setup(1.0)
    untraced = [r for r in results if not r["traced"]]
    out = {
        "setup_s": setup,
        "untraced_pass_s": [r["wall_s"] for r in untraced],
        "untraced_pass_rel": [pass_rel(r) for r in untraced],
        "traced_pass_s": [r["wall_s"] for r in results if r["traced"]],
        "latencies_s": [r["latencies"] for r in untraced],
        "latencies_rel": [[x / u for x, u in zip(r["latencies"], request_units(r))]
                          for r in untraced],
        "starts_s": [r["starts"] for r in untraced],
        "refs_s": [r["refs"] for r in untraced],
        "attempted": sum(len(r["latencies"]) for r in results),
        "failed": sum(r["failed"] for r in results),
        "reasons": [x for r in results for x in r["reasons"]][:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {
            "backend": backend,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sigmod8_path": os.path.dirname(os.path.abspath(sigmod8.__file__)),
        },
    }
    if tracer is not None:
        from layers import layer_values

        passes = len(out["traced_pass_s"])
        out["layers"] = layer_values(tracer.totals(), tracer.counters,
                                     (tracer.cache_hits, tracer.cache_misses), passes)
        out["overhead_frac"] = (statistics.median(pass_rel(r) for r in results if r["traced"])
                                / statistics.median(pass_rel(r) for r in untraced) - 1.0)
        out["spans"] = len(tracer.span_name)
        out["untraced_functions"] = tracer.missing
        tracer.save(spans_path)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
