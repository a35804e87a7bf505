"""Span tracing of sigmod8's public functions, installed from outside.

The tracer rebinds each wrapped function in every sigmod8 module that holds
a reference to it (``bk_gauss`` lives in ``enhancements`` and is bound again
in ``selfcheck``; ``split_vectors`` in ``z2forms`` and ``enhancements``), so
calls between modules are seen as well as calls from the CLI.  Spans (name,
start, end, parent, request) are kept in flat arrays in memory; self time
and the per-layer metrics are computed from them when the run ends.
"""
from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, counter name, how to count from (args, result), exception
# class counted under the same counter when raised).  A counter function of
# None counts nothing; "yielded" marks a generator whose items are counted.
WRAPPED: Tuple[Tuple[str, str, Optional[str], Optional[Callable], Optional[str]], ...] = (
    ("kernels", "gauss_counts", "vectors", lambda a, r: 1 << a[0], None),
    ("enhancements", "bk_gauss", None, None, None),
    ("enhancements", "bk_classify", None, None, None),
    ("enhancements", "arf", None, None, None),
    ("enhancements", "isotropic_subquotient", "not_divisible", None, "NotDivisibleBy4"),
    ("z2forms", "is_nonsingular", None, None, None),
    ("z2forms", "split_vectors", None, None, None),
    ("z2forms", "solve", None, None, None),
    ("z2forms", "rref_basis", None, None, None),
    ("z2forms", "wu_class", None, None, None),
    ("z2forms", "enumerate_nonsingular_forms", "yielded", None, None),
    ("intforms", "signature_exact", "dim_sum", lambda a, r: a[0].dim, None),
    ("intforms", "smith_normal_form", None, None, None),
    ("intforms", "boundary_linking_form", None, None, None),
    ("intforms", "characteristic_vector", None, None, None),
    ("intforms", "bk_linking", "elements", lambda a, r: a[0].order, None),
    ("symcomplex", "validate_structure", None, None, None),
    ("symcomplex", "cohomology_mod2", None, None, None),
    ("symcomplex", "pontryagin_square", None, None, None),
    ("symcomplex", "wu_and_mod4_signature", None, None, None),
    ("fibration", "wall_form_general", None, None, None),
    ("fibration", "wall_form_closed", "singular_retries", None, "OneMinusFSingular"),
    ("fibration", "local_system_signature", None, None, None),
    ("fibration", "bundle_report", None, None, None),
    ("formats", "load", "bytes", lambda a, r: len(a[0]), None),
    ("formats", "parse_monodromy", "bytes", lambda a, r: len(a[0]), None),
    ("selfcheck", "suite_gauss_vs_classify", "checks", lambda a, r: r.checked, None),
    ("selfcheck", "suite_bk_4arf", "checks", lambda a, r: r.checked, None),
    ("selfcheck", "suite_morita", "checks", lambda a, r: r.checked, None),
    ("selfcheck", "suite_van_der_blij", "checks", lambda a, r: r.checked, None),
    ("selfcheck", "suite_wall", "checks", lambda a, r: r.checked, None),
)

REQUEST_SPAN = "cli.main"


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self, package: str = "sigmod8"):
        self.package = package
        self.names: List[str] = [REQUEST_SPAN] + [f"{m}.{f}" for m, f, *_ in WRAPPED]
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("I")
        self.stack = [-1]
        self.request_id = 0
        self.counters: Dict[str, int] = defaultdict(int)
        self.cache_hits = 0
        self.cache_misses = 0
        self._saved: List[Tuple[object, str, object]] = []
        self._cache_base = None
        self.missing: List[str] = []  # wrapped names the program no longer has

    # -------------------------------------------------------------- spans
    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _wrap(self, name: str, fn, counter, count, exc_type):
        name_id = self.name_ids[name]
        counters = self.counters
        key = f"{name}.{counter}" if counter else None
        stack = self.stack
        start, end = self.start, self.end
        opener = self._open

        def traced(*args, **kwargs):
            sid = opener(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc_type is not None and isinstance(exc, exc_type):
                    counters[key] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if count is not None:
                counters[key] += count(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; items are counted."""
        name_id = self.name_ids[name]
        counters = self.counters
        key = f"{name}.yielded"
        stack = self.stack
        start, end = self.start, self.end
        opener = self._open

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = opener(name_id)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    start[sid] = t0
                    end[sid] = t1
                counters[key] += 1
                yield item

        return traced

    def wrap_request(self, main):
        """The request root span around one CLI call."""
        return self._wrap(REQUEST_SPAN, main, None, None, None)

    # ------------------------------------------------------ (un)install
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._cache_base = self._split_cache_info()
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]
        errors = sys.modules.get(f"{self.package}.errors")
        self.missing = []
        for mod_name, fn_name, counter, count, exc_name in WRAPPED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules.get(f"{self.package}.{mod_name}"), fn_name, None)
            if original is None:  # moved or removed by a refactor: reported as 0
                self.missing.append(name)
                continue
            if counter == "yielded":
                wrapper = self._wrap_generator(name, original)
            else:
                exc_type = getattr(errors, exc_name, None) if exc_name else None
                wrapper = self._wrap(name, original, counter, count, exc_type)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []
        info = self._split_cache_info()
        if info is not None and self._cache_base is not None:
            self.cache_hits += info.hits - self._cache_base.hits
            self.cache_misses += info.misses - self._cache_base.misses

    def _split_cache_info(self):
        fn = getattr(sys.modules.get(f"{self.package}.z2forms"), "split_vectors", None)
        info = getattr(fn, "cache_info", None)
        return info() if info is not None else None

    # ------------------------------------------------------------ results
    def span_arrays(self):
        """numpy views of the spans: name id, start, end, parent, request."""
        import numpy as np

        return (
            np.frombuffer(self.span_name, dtype=np.uint16),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.request, dtype=np.uint32),
        )

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds."""
        import numpy as np

        names, start, end, parent, _ = self.span_arrays()
        k = len(self.names)
        dur = end - start
        # time covered by children, credited to each parent span
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        self_t = np.bincount(names, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_t[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        import numpy as np

        names, start, end, parent, request = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), name=names, start=start,
                            end=end, parent=parent, request=request)
