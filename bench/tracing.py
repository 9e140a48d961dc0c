"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules
(except core's, see `CORE_COUNTED`), and every public method of the measure
classes, with a wrapper that records a span. The wrapper is installed on
every module attribute that names the function (for example both
``equidyn.systems.step`` and ``equidyn.orbit.step``), so calls made inside
the package are seen too.

A span's self time is its duration minus the part of it that child spans
cover. Children on the same thread run one after another, so their
durations add; children that `rng.pmap` runs on worker threads may overlap,
so the union of their intervals is subtracted instead. Work counts are
taken from arguments and results at the boundaries named in `COUNTERS`.
Stats live in per-thread tables and are merged after the run, so counts are
exact under threads.

`Tracer(counters=True)` also counts core's hot calls (`CORE_COUNTED` and
`Configuration` constructions) and, through `INNER_COUNTS`, how many of them
a span made. Those counters run millions of times and their cost lands in
the caller's self time, so times are taken from a tracer without them and
counts from a second pass with them.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "orbit", "systems", "core", "measures", "periodicity", "spectral", "sensitivity", "rng")
PACKAGE = "equidyn"
# core's helpers are leaves called millions of times per pass; even a bare
# counter on each would cost more than the work. So core gets no spans (its
# time stays in the caller's span) and only these calls are counted, plus
# Configuration constructions.
CORE_COUNTED = ("compare_cylinders",)


def _rows(a) -> int:
    return int(a.shape[0])


def _computed_bytes(a) -> int:
    # n x width int64 cells produced by the call, whether or not they stay resident
    return int(a.shape[0]) * int(a.shape[1]) * 8


def _count_orbit_ball_event(tracer, args, kwargs, result, add):
    system = args[0] if args else kwargs["system"]
    core, systems = tracer.originals_of("core"), tracer.originals_of("systems")
    sizes = systems["cell_sizes"](system, core["window_cells"](result.sided, result.rho))
    add("words", core["count_words"](sizes))
    add("hits", len(result.words))


def _count_event_table(tracer, args, kwargs, result, add):
    spec = args[0] if args else kwargs["spec"]
    horizon = args[1] if len(args) > 1 else kwargs["horizon"]
    tracer.keys("spectral.event_table").add((spec.system, spec.y, spec.m, horizon))


def _count_vitali(tracer, args, kwargs, result, add):
    add("balls", len(result.balls))


COUNTERS = {
    "orbit.orbit_ball_event": _count_orbit_ball_event,
    "orbit.density_ratio_estimate": lambda t, a, k, r, add: add("samples", r.n_samples),
    "systems.trace_agreement_batch": lambda t, a, k, r, add: add("rows", _rows(r)),
    "systems.step_batch": lambda t, a, k, r, add: add("rows", _rows(r)),
    "spectral.event_table": _count_event_table,
    "measures.conditional_batch": lambda t, a, k, r, add: (
        add("samples", _rows(r)), add("bytes_computed", _computed_bytes(r))),
    "measures.sample_batch": lambda t, a, k, r, add: (
        add("samples", _rows(r)), add("bytes_computed", _computed_bytes(r))),
    "sensitivity.mu_sensitivity_estimate": lambda t, a, k, r, add: add("pairs", r.n_samples),
    "periodicity.lep_certificate": lambda t, a, k, r, add: add("certified", int(r is not None)),
    "rng.pmap": lambda t, a, k, r, add: add("items", len(r)),
    "measures.vitali_cover": _count_vitali,
}


# span -> {quantity: counter}: the span's quantity is how much the counter
# grew while the span ran (only with counters=True)
INNER_COUNTS = {
    "measures.vitali_cover": {"pairs_checked": "core.compare_cylinders.calls"},
}


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Span:
    __slots__ = ("start", "child_s", "offthread")

    def __init__(self, start: float):
        self.start = start
        self.child_s = 0.0
        self.offthread = None  # intervals of child spans run on worker threads


class Tracer:
    """Wraps the package's public functions; `report()` merges what they recorded."""

    def __init__(self, counters: bool = False):
        self.counters = counters
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._keys: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, dict[str, object]] = defaultdict(dict)

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.parent = None
            local.table = defaultdict(float)
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def keys(self, name: str) -> set:
        return self._keys[name]

    def originals_of(self, layer: str) -> dict:
        return self._originals[layer]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        inner = INNER_COUNTS.get(name) if self.counters else None
        clock = time.perf_counter
        local = self._local
        tracer = self

        def traced(*args, **kwargs):
            try:
                stack, table = local.stack, local.table
            except AttributeError:
                stack, table = tracer._state()
            before = {q: table[key] for q, key in inner.items()} if inner else None
            span = _Span(clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - span.start
                covered = span.child_s
                if span.offthread:
                    covered += _union_length(span.offthread)
                if stack:
                    stack[-1].child_s += dur
                elif local.parent is not None:
                    local.parent.offthread.append((span.start, end))
                table[name + ".calls"] += 1
                table[name + ".total_s"] += dur
                table[name + ".self_s"] += dur - covered
                if inner:
                    for quantity, key in inner.items():
                        table[f"{name}.{quantity}"] += table[key] - before[quantity]
            if counter is not None:
                def add(key, value):
                    table[f"{name}.{key}"] += value

                counter(tracer, args, kwargs, result, add)
            return result

        traced.__wrapped__ = fn
        return traced

    def _adopting_pmap(self, pmap):
        """pmap whose worker-thread spans count as children of the pmap span."""
        tracer = self

        def adopting(fn, items, threads=1):
            stack, _ = tracer._state()
            parent = stack[-1]
            parent.offthread = []
            caller = threading.get_ident()

            def child(item):
                if threading.get_ident() == caller:
                    return fn(item)
                tracer._state()
                tracer._local.parent = parent
                try:
                    return fn(item)
                finally:
                    tracer._local.parent = None

            return pmap(child, items, threads)

        return adopting

    def _counting(self, key: str, fn):
        tracer = self
        local = self._local

        def counted(*args, **kwargs):
            try:
                table = local.table
            except AttributeError:
                table = tracer._state()[1]
            table[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                self._originals[layer][attr] = obj
                name = f"{layer}.{attr}"
                if layer == "core":
                    if not self.counters or attr not in CORE_COUNTED:
                        continue
                    wrapper = self._counting(name + ".calls", obj)
                else:
                    wrapper = self._wrap(name, self._adopting_pmap(obj) if name == "rng.pmap" else obj)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is obj:
                        self._patch(ns, attr, wrapper)
        measures = modules["measures"]
        for cls in vars(measures).values():
            if not inspect.isclass(cls) or cls.__module__ != measures.__name__:
                continue
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    self._patch(cls, attr, self._wrap(f"measures.{attr}", obj))
        if not self.counters:
            return
        config_cls = modules["core"].Configuration
        self._patch(config_cls, "__post_init__",
                    self._counting("core.Configuration.constructed", config_cls.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Merged totals: `<layer>.<function>.<quantity>` plus `<layer>.self_s`."""
        merged: dict[str, float] = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    merged[key] += value
        for name, keys in self._keys.items():
            merged[name + ".distinct"] = len(keys)
        for key, value in list(merged.items()):
            if key.endswith(".self_s") and key.count(".") == 2:
                merged[key.split(".", 1)[0] + ".self_s"] += value
        return dict(merged)
