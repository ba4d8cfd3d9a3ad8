"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the class_spectrum modules through
their module (or class) attributes, so the program itself is unchanged:
every module attribute that is bound to a wrapped function is rebound to
the wrapper, which covers ``from .x import y`` aliases. Spans (name,
start, end, parent, workload id) stay in memory and are written as JSONL
once the traced pass ends.

Generators (``partitions``, ``fixed_point_free_partitions``,
``psi_members``) are wrapped at consumption: their span is busy only
while the consumer is inside ``next()``, so a generator span records its
busy time separately from its first-to-last interval.

Only the process that installed the recorder records; forked pool workers
inherit the wrappers but call straight through, so their spans are never
kept.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from statistics import median
from time import perf_counter

PACKAGE = "class_spectrum"
MODULES = ("partitions", "classes", "divgraph", "primes", "verify", "cache", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "busy")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        # None for call spans; accumulated time inside next() for generator spans
        self.busy = None

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


class Recorder:
    """In-memory spans and counters for one workload pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def active(self) -> bool:
        return os.getpid() == self.pid

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, perf_counter(), parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self.stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def iterate(self, name: str, iterator):
        """Re-yield iterator's items, charging only time inside next() to a span."""
        idx = None
        yielded = 0
        try:
            while True:
                if idx is None:
                    idx = self.open(name)
                    self.spans[idx].busy = 0.0
                else:
                    self.stack.append(idx)
                span = self.spans[idx]
                t0 = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    span.busy += t1 - t0
                    span.end = t1
                    self.stack.pop()
                yielded += 1
                yield item
        finally:
            self.add(name + ".yielded", yielded)

    # -- installation --------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every class_spectrum module attribute bound to original at replacement."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _wrapper(self, name: str, original, before=None, after=None, generator=False):
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not rec.active():
                return original(*args, **kwargs)
            if before is not None:
                args = before(args)
            if generator:
                return rec.iterate(name, original(*args, **kwargs))
            idx = rec.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def wrap_function(self, module: str, attr: str, **hooks) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        self._rebind(original, self._wrapper(f"{module}.{attr}", original, **hooks))

    def wrap_method(self, module: str, cls_name: str, attr: str, **hooks) -> None:
        cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
        raw = vars(cls)[attr]
        name = f"{module}.{cls_name}.{attr}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(name, raw.__func__, **hooks))
        else:
            replacement = self._wrapper(name, raw, **hooks)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "busy": span.busy,
                            "parent": span.parent,
                            "workload": self.workload,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# -- the recorder's own cost ------------------------------------------------


def _calls_seconds(fn, n: int) -> float:
    t0 = perf_counter()
    for _ in range(n):
        fn(0)
    return perf_counter() - t0


def _items_seconds(iterator) -> float:
    t0 = perf_counter()
    for _ in iterator:
        pass
    return perf_counter() - t0


def wrapper_costs(repeats: int = 15, n: int = 20_000) -> tuple[float, float]:
    """Seconds the recorder adds per wrapped call and per generator item.

    Timed on a no-op function and a bare iterator, each repeat running
    the wrapped and the bare loop back to back; the medians are returned.
    """
    rec = Recorder("calibration")

    def noop(x):
        return x

    wrapped = rec._wrapper("calibration.noop", noop)
    per_call, per_item = [], []
    for _ in range(repeats):
        rec.spans.clear()
        per_call.append((_calls_seconds(wrapped, n) - _calls_seconds(noop, n)) / n)
        traced = _items_seconds(rec.iterate("calibration.items", iter(range(n))))
        per_item.append((traced - _items_seconds(iter(range(n)))) / n)
    return max(0.0, median(per_call)), max(0.0, median(per_item))


def recorder_cost(rec: Recorder, per_call: float, per_item: float) -> float:
    """Estimated seconds the recorder added to its pass: spans and generator items times their unit cost.

    The hooks' own work (copying and counting a DP's input, reading a
    cache file's size) is not included.
    """
    items = sum(v for k, v in rec.counters.items() if k.endswith(".yielded"))
    return len(rec.spans) * per_call + items * per_item


# -- counters taken at the layer boundaries ------------------------------


def _materialize_first(args):
    # longest_chain accepts any iterable; a list lets the counter read it afterwards
    return (list(args[0]),) + tuple(args[1:])


def _after_longest_chain(rec, args, result):
    k = len(set(args[0]))
    rec.add("divgraph.longest_chain.values_in", k)
    rec.add("divgraph.longest_chain.pairs_bound", k * (k - 1) // 2)
    rec.peak("divgraph.longest_chain.max_values", k)
    if k:
        rec.peak("divgraph.longest_chain.max_bits", max(args[0]).bit_length())


def _after_family(name):
    def after(rec, args, result):
        rec.add(name + ".values_out", len(result.values))

    return after


def _after_moved_heights(original):
    state = {"hits": original.cache_info().hits}

    def after(rec, args, result):
        hits = original.cache_info().hits
        rec.add("verify._moved_heights.hits" if hits > state["hits"] else "verify._moved_heights.misses")
        state["hits"] = hits

    return after


def _after_omega_sweep(rec, args, result):
    rec.add("verify.omega_sweep.checked", result.checked)
    rec.add("verify.omega_sweep.failures", len(result.failures))


def _after_sieve(rec, args, result):
    rec.peak("primes.sieve.limit", result.limit)


def _after_cache_get(rec, args, result):
    if result is not None:
        rec.add("cache.SpectrumCache.get.hits")


def _after_cache_put(rec, args, result):
    cache, key = args[0], args[1]
    if cache.enabled:
        try:
            rec.add("cache.SpectrumCache.put.bytes", cache._path(key).stat().st_size)
        except OSError:
            pass


def _after_dump_json(rec, args, result):
    rec.add("cli.serialize.bytes", len(result.encode()))


def _after_csv_row(rec, args, result):
    # comma separators plus the line terminator csv.writer adds
    rec.add("cli.serialize.bytes", sum(len(f.encode()) for f in result) + len(result) + 1)


def install(workload: str) -> Recorder:
    """Wrap the traced functions of every class_spectrum module; return the recorder."""
    rec = Recorder(workload)
    verify = sys.modules[f"{PACKAGE}.verify"]
    rec.wrap_function("partitions", "partitions", generator=True)
    rec.wrap_function("partitions", "fixed_point_free_partitions", generator=True)
    for family in ("spectrum", "moved_class_sizes", "phi_set", "psi_set"):
        rec.wrap_function("classes", family, after=_after_family(f"classes.{family}"))
    rec.wrap_function("classes", "psi_members", generator=True)
    rec.wrap_method("classes", "Spectrum", "build")
    rec.wrap_function("divgraph", "longest_chain", before=_materialize_first, after=_after_longest_chain)
    rec.wrap_function("primes", "sieve", after=_after_sieve)
    rec.wrap_function("primes", "chebyshev_sweep")
    rec.wrap_function("primes", "factorial_ratio")
    rec.wrap_method("primes", "PrimalityTable", "count")
    rec.wrap_function("verify", "check_case")
    rec.wrap_function("verify", "_moved_heights", after=_after_moved_heights(verify._moved_heights))
    rec.wrap_function("verify", "hz_table")
    rec.wrap_function("verify", "omega_sweep", after=_after_omega_sweep)
    rec.wrap_function("verify", "scan_range")
    rec.wrap_function("verify", "certificate_csv_row", after=_after_csv_row)
    rec.wrap_method("cache", "SpectrumCache", "get", after=_after_cache_get)
    rec.wrap_method("cache", "SpectrumCache", "put", after=_after_cache_put)
    rec.wrap_function("cli", "dump_json", after=_after_dump_json)
    # the request span leaves argument parsing, printing and --out writes as cli self time
    rec.wrap_function("cli", "main")
    return rec


# -- reduction to per-layer numbers ---------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its children cover.

    Call children cover the union of their [start, end] intervals. A
    generator child covers only its busy time, because the parent runs
    between the generator's yields.
    """
    intervals: list[list[tuple[float, float]]] = [[] for _ in spans]
    generator_busy = [0.0] * len(spans)
    for span in spans:
        if span.parent < 0:
            continue
        if span.busy is None:
            intervals[span.parent].append((span.start, span.end))
        else:
            generator_busy[span.parent] += span.busy
    return [
        span.duration - _union_length(intervals[i]) - generator_busy[i]
        for i, span in enumerate(spans)
    ]


def busy(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def module_self_times(spans) -> dict[str, float]:
    out = {m: 0.0 for m in MODULES}
    for span, own in zip(spans, self_times(spans)):
        out[span.name.split(".", 1)[0]] += own
    return out


PER_LAYER = (
    "divgraph.longest_chain.calls",
    "divgraph.longest_chain.busy_s",
    "divgraph.longest_chain.busy_share",
    "divgraph.longest_chain.values_in",
    "divgraph.longest_chain.max_values",
    "divgraph.longest_chain.max_bits",
    "divgraph.longest_chain.pairs_bound",
    "verify.check_case.calls",
    "verify.check_case.busy_s",
    "verify.check_case.p50_ms",
    "verify.check_case.p99_ms",
    "verify.check_case.candidate_yield",
    "verify._moved_heights.hits",
    "verify._moved_heights.misses",
    "verify._moved_heights.busy_s",
    "verify.hz_table.busy_s",
    "verify.omega_sweep.busy_s",
    "verify.omega_sweep.checked",
    "verify.omega_sweep.failures",
    "verify.scan_range.self_s",
    "verify.scan_range.pool_busy_ratio",
    "verify.scan_range.pool_idle_s",
    "classes.psi_members.yielded",
    "classes.psi_members.busy_s",
    *(f"classes.{f}.{m}" for f in ("spectrum", "moved_class_sizes", "phi_set", "psi_set") for m in ("calls", "busy_s", "values_out")),
    "classes.Spectrum.build.busy_s",
    "partitions.partitions.yielded",
    "partitions.partitions.busy_s",
    "partitions.fixed_point_free_partitions.yielded",
    "primes.sieve.calls",
    "primes.sieve.busy_s",
    "primes.sieve.limit",
    "primes.PrimalityTable.count.calls",
    "primes.PrimalityTable.count.busy_s",
    "primes.chebyshev_sweep.busy_s",
    "primes.factorial_ratio.busy_s",
    "cache.SpectrumCache.get.calls",
    "cache.SpectrumCache.get.hits",
    "cache.SpectrumCache.get.busy_s",
    "cache.SpectrumCache.put.calls",
    "cache.SpectrumCache.put.busy_s",
    "cache.SpectrumCache.put.bytes",
    "cli.serialize.busy_s",
    "cli.serialize.bytes",
    *(f"layer.{m}.self_s" for m in MODULES),
    "trace.overhead_ratio",
)

_TIMED = (
    "divgraph.longest_chain",
    "verify._moved_heights",
    "verify.hz_table",
    "verify.omega_sweep",
    "classes.psi_members",
    "classes.Spectrum.build",
    "partitions.partitions",
    "primes.sieve",
    "primes.PrimalityTable.count",
    "primes.chebyshev_sweep",
    "primes.factorial_ratio",
    "cache.SpectrumCache.get",
    "cache.SpectrumCache.put",
)
_COUNTED = (
    "divgraph.longest_chain",
    "primes.sieve",
    "primes.PrimalityTable.count",
    "cache.SpectrumCache.get",
    "cache.SpectrumCache.put",
)


def per_layer(rec: Recorder, case_elapsed, wall: float, jobs: int, recorder_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed as in PER_LAYER.

    ``wall`` is the traced pass's wall time and ``recorder_s`` the
    recorder's estimated share of it, so ``trace.overhead_ratio`` is the
    recorder's cost against the pass's untraced time.

    Certificate latencies, check_case busy time and the pool ratios come
    from the certificates' own ``elapsed``, which is the only source when
    the scan runs in pool workers; everything else comes from this
    process's spans and counters.
    """
    from stats import percentile

    spans = rec.spans
    out = {name: 0 for name in PER_LAYER}
    out.update({k: v for k, v in rec.counters.items() if k in out})
    for name in _TIMED:
        out[name + ".busy_s"] = busy(spans, name)
    for name in _COUNTED:
        out[name + ".calls"] = calls(spans, name)
    for family in ("spectrum", "moved_class_sizes", "phi_set", "psi_set"):
        name = f"classes.{family}"
        out[name + ".calls"] = calls(spans, name)
        out[name + ".busy_s"] = busy(spans, name)
    out["divgraph.longest_chain.busy_share"] = out["divgraph.longest_chain.busy_s"] / wall
    out["cli.serialize.busy_s"] = busy(spans, "cli.dump_json") + busy(spans, "verify.certificate_csv_row")

    if case_elapsed:
        out["verify.check_case.calls"] = len(case_elapsed)
        out["verify.check_case.busy_s"] = sum(case_elapsed)
        out["verify.check_case.p50_ms"] = percentile(case_elapsed, 50) * 1e3
        out["verify.check_case.p99_ms"] = percentile(case_elapsed, 99) * 1e3
    case_idx = {i for i, s in enumerate(spans) if s.name == "verify.check_case"}
    family_dps = sum(1 for s in spans if s.name == "divgraph.longest_chain" and s.parent in case_idx)
    if family_dps:
        out["verify.check_case.candidate_yield"] = len(case_idx) / family_dps

    own = self_times(spans)
    scans = [i for i, s in enumerate(spans) if s.name == "verify.scan_range"]
    if scans:
        out["verify.scan_range.self_s"] = sum(own[i] for i in scans)
        capacity = jobs * sum(spans[i].duration for i in scans)
        out["verify.scan_range.pool_busy_ratio"] = sum(case_elapsed) / capacity
        out["verify.scan_range.pool_idle_s"] = capacity - sum(case_elapsed)
    for module, seconds in module_self_times(spans).items():
        out[f"layer.{module}.self_s"] = seconds
    out["trace.overhead_ratio"] = recorder_s / (wall - recorder_s)
    return out
