"""Spans around the public functions of each coxmon layer, from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``coxmon`` module namespace that binds it (``morphisms`` imports ``lcm`` by
name, so patching ``monoid`` alone would miss those calls), and each traced
method on its class.  A span is (name, start, end, parent, job); spans stay
in memory, up to a cap, and are written out when the run ends.  Calls and
self time (span time minus the time of child spans) are aggregated for
every call, recorded or not, with the time from install to summary.

An untraced run installs nothing; ``patched_objects()`` checks that its
process holds no wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

MARK = "_perfbench_span"

# span name -> (module, attribute path) of every function it covers
TRACED = {
    "graphs.is_spherical": [("coxmon.graphs", "is_spherical")],
    "graphs.automorphisms": [("coxmon.graphs", "automorphisms")],
    "graphs.restrict": [("coxmon.graphs", "CoxeterGraph.restrict")],
    "exact.scalar_mul": [("coxmon.exact", "ExactScalar.__mul__"),
                         ("coxmon.exact", "ExactScalar.__rmul__")],
    "exact.sign": [("coxmon.exact", "ExactScalar.sign")],
    "exact.minimal_polynomial": [("coxmon.exact", "minimal_polynomial")],
    "elements.root_system": [("coxmon.elements", "root_system")],
    "elements.perm_gen": [("coxmon.elements", "RootPermElement.gen_left"),
                          ("coxmon.elements", "RootPermElement.gen_right")],
    "elements.matrix_gen": [("coxmon.elements", "MatrixElement.gen_left"),
                            ("coxmon.elements", "MatrixElement.gen_right")],
    "elements.matrix_mul": [("coxmon.elements", "MatrixElement.__mul__")],
    "elements.order": [("coxmon.elements", "RootPermElement.order"),
                       ("coxmon.elements", "MatrixElement.order")],
    "elements.longest_element": [("coxmon.elements", "longest_element")],
    "elements.canonical_word": [("coxmon.elements", "canonical_word")],
    "monoid.normalize": [("coxmon.monoid", "normalize")],
    "monoid.reverse_complement": [("coxmon.monoid", "reverse_complement")],
    "monoid.lcm": [("coxmon.monoid", "lcm")],
    "monoid.divides": [("coxmon.monoid", "divides")],
    "monoid.gcd": [("coxmon.monoid", "gcd")],
    "monoid.braid_from_word": [("coxmon.monoid", "braid_from_word")],
    "partitions.check_pair": [("coxmon.partitions", "check_pair")],
    "partitions.pair_order": [("coxmon.partitions", "pair_order")],
    "partitions.check_admissible": [("coxmon.partitions", "check_admissible")],
    "partitions.partition_type": [("coxmon.partitions", "partition_type")],
    "partitions.classify_2partitions": [("coxmon.partitions", "classify_2partitions")],
    "morphisms.apply_morphism": [("coxmon.morphisms", "apply_morphism")],
    "morphisms.build_morphism": [("coxmon.morphisms", "build_morphism")],
    "morphisms.verify_respects_lcm": [("coxmon.morphisms", "verify_respects_lcm")],
    "morphisms.verify_respects_normal_forms": [
        ("coxmon.morphisms", "verify_respects_normal_forms")],
    "morphisms.verify_burst": [("coxmon.morphisms", "verify_burst")],
    "cli.main": [("coxmon.cli", "main")],
}

# lru caches whose misses count builds
CACHES = {
    "exact.minimal_polynomial": ("coxmon.exact", "minimal_polynomial"),
    "elements.root_system": ("coxmon.elements", "root_system"),
    "exact.field_for_modulus": ("coxmon.exact", "field_for_modulus"),
}


def cache_info() -> dict:
    """hits/misses/currsize of the library's module-level caches."""
    out = {}
    for name, (mod, attr) in CACHES.items():
        fn = getattr(sys.modules[mod], attr)
        fn = getattr(fn, "__wrapped__", fn) if getattr(fn, MARK, None) else fn
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


def _resolve(mod: str, path: str):
    owner = sys.modules[mod]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _coxmon_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coxmon" or name.startswith("coxmon."))]


def patched_objects() -> list:
    """Names of coxmon attributes that currently hold a tracing wrapper."""
    found = []
    for m in _coxmon_modules():
        for name, value in vars(m).items():
            if getattr(value, MARK, None):
                found.append(f"{m.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, None):
                        found.append(f"{m.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Aggregates per span name, plus the first ``max_spans`` spans."""

    def __init__(self, max_spans: int = 200_000):
        self.names = list(TRACED)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.max_spans = max_spans
        self.span_name = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.dropped = 0
        self.job = -1  # -1: set-up
        self.budget_exceeded = 0
        self.decided_pairs = 0
        self.skipped_pairs = 0
        self._stack = []  # [span id, child ns]

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter_ns
        calls, self_ns = self.calls, self.self_ns
        starts, ends = self.span_start, self.span_end
        on_result = {
            "partitions.check_pair": self._count_decided,
            "morphisms.verify_respects_lcm": self._count_skipped,
        }.get(name)
        counts_budget = name == "monoid.reverse_complement"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(idx, stack)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if counts_budget and type(e).__name__ == "StepBudgetExceeded":
                    self.budget_exceeded += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid >= 0:
                    starts[sid] = t0
                    ends[sid] = t1
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _open(self, idx: int, stack) -> int:
        sid = len(self.span_name)
        if sid >= self.max_spans:
            self.dropped += 1
            return -1
        self.span_name.append(idx)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self.job)
        return sid

    def _count_decided(self, verdict) -> None:
        if verdict.outcome != "unknown":
            self.decided_pairs += 1

    def _count_skipped(self, report) -> None:
        self.skipped_pairs += len(report.skipped)

    def install(self) -> None:
        """Patch every binding of every traced function in loaded coxmon
        modules; modules must be imported first."""
        self.caches_before = cache_info()
        self.installed_at = time.perf_counter()
        modules = _coxmon_modules()
        for name, targets in TRACED.items():
            for mod, path in targets:
                if mod not in sys.modules:
                    continue
                owner, attr = _resolve(mod, path)
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    # aliases such as __rmul__ = __mul__ on the same class
                    for other, member in list(vars(owner).items()):
                        if member is original:
                            setattr(owner, other, wrapper)
                    continue
                for m in modules:
                    for other, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, other, wrapper)

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        after = cache_info()
        builds = {
            name: after[name]["misses"] - self.caches_before[name]["misses"]
            for name in CACHES
        }
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": {n: ns / 1e9 for n, ns in zip(self.names, self.self_ns)},
            "builds": builds,
            "elapsed_s": time.perf_counter() - self.installed_at,
            "budget_exceeded": self.budget_exceeded,
            "decided_pairs": self.decided_pairs,
            "skipped_pairs": self.skipped_pairs,
            "spans_recorded": len(self.span_name),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        """One JSON list per span: name, start ns, end ns, parent, job."""
        with open(path, "w") as f:
            f.write('{"names": %s, "spans": [\n' % json.dumps(self.names))
            n = len(self.span_name)
            for k in range(n):
                f.write("[%d,%d,%d,%d,%d]%s\n" % (
                    self.span_name[k], self.span_start[k], self.span_end[k],
                    self.span_parent[k], self.span_job[k], "," if k + 1 < n else ""))
            f.write("]}\n")


def merge(summaries: list) -> dict:
    """Sum tracer summaries of several processes."""
    out = {"calls": {}, "self_s": {}, "builds": {}}
    for s in summaries:
        for key in ("calls", "self_s", "builds"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for key in ("elapsed_s", "budget_exceeded", "decided_pairs", "skipped_pairs",
                    "spans_recorded", "spans_dropped"):
            out[key] = out.get(key, 0) + s[key]
    return out
