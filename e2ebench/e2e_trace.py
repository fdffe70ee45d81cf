"""Span tracing for the benchmark's traced run, recorded from outside ``src/``.

:class:`Tracer` keeps one span stack per thread.  Closing a span adds its
duration to its parent's child time, so every layer's *self* time is its span
time minus the part covered by wrapped child spans.  Calls made once per
simulated cycle are aggregated per layer (calls, total, self); only the
coarse spans named in :data:`KEPT_SPANS` are stored one by one, with their
parent and the identifier of the operation (cell, mix or request) that
caused them.

:func:`install_layers` wraps the public functions of each layer of the
``repro`` package in place (class attributes and module globals) and
returns a :class:`Patches` that restores the originals.  Cores, ports and
controllers bind methods when they are built, so the wrappers must be in
place before the traced operations build them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from e2e_stats import ratio

#: Layer names whose spans are stored individually (one per call).
KEPT_SPANS = frozenset(
    {
        "op",
        "simulation.run_simulation",
        "simulation.run_multicore",
        "simulation.engine.run_sweep",
        "service.submit",
        "service.wait",
        "service.result",
    }
)


class Tracer:
    """Thread-aware span recorder with per-layer aggregation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Stored spans: ``(span_id, parent_id, name, op_id, start, end)``.
        self.spans: List[Tuple[int, Optional[int], str, Optional[str], float, float]] = []
        #: Identifier of the operation in flight, shared by all of its spans.
        self.op_id: Optional[str] = None
        #: Label splitting the aggregates, e.g. ``warm``/``cold`` requests.
        self.tag = ""
        #: Named timestamps linking spans across threads (see :meth:`mark`).
        self.marks: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[Tuple[Dict[Tuple[str, str], List[float]], Dict[str, int]]] = []
        self._span_ids = itertools.count(1)

    def _state(self):
        local = self._local
        try:
            return local.stack, local.totals, local.counts
        except AttributeError:
            local.stack, local.totals, local.counts = [], {}, {}
            with self._lock:
                self._per_thread.append((local.totals, local.counts))
            return local.stack, local.totals, local.counts

    def enter(self, name: str) -> list:
        """Open a span on this thread; returns the frame to pass to :meth:`exit`."""
        stack = self._state()[0]
        span_id = None
        if name in KEPT_SPANS:
            with self._lock:
                span_id = next(self._span_ids)
        frame = [name, 0.0, 0.0, span_id]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        end = self.clock()
        stack, totals, _ = self._state()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self._add(totals, frame[0], duration, duration - frame[2])
        if frame[3] is not None:
            parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            self.spans.append((frame[3], parent, frame[0], self.op_id, frame[1], end))
        return duration

    def _add(self, totals, name: str, total: float, own: float) -> None:
        key = (self.tag, name)
        entry = totals.get(key)
        if entry is None:
            entry = totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += total
        entry[2] += own

    def add_interval(self, name: str, seconds: float) -> None:
        """Record a measured interval that is not a span on one thread's stack."""
        self._add(self._state()[1], name, seconds, seconds)

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + amount

    def mark(self, name: str) -> None:
        self.marks[name] = self.clock()

    def take_mark(self, name: str) -> Optional[float]:
        return self.marks.pop(name, None)

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    # ------------------------------------------------------------ read-out

    def totals(self, tag: Optional[str] = None) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` summed over threads (and tags)."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = [totals for totals, _ in self._per_thread]
        for table in tables:
            for (entry_tag, name), (calls, total, own) in list(table.items()):
                if tag is not None and entry_tag != tag:
                    continue
                slot = merged.setdefault(name, [0, 0.0, 0.0])
                slot[0] += calls
                slot[1] += total
                slot[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in merged.items()}

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        with self._lock:
            tables = [counts for _, counts in self._per_thread]
        for table in tables:
            for name, value in list(table.items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    def tags(self) -> List[str]:
        with self._lock:
            tables = [totals for totals, _ in self._per_thread]
        return sorted({tag for table in tables for tag, _ in list(table)})


# -------------------------------------------------------------- patching


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _spanned(tracer: Tracer, name: str, func: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(func)
    def traced(*args, **kwargs):
        frame = enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            exit_(frame)

    return traced


def _wrap_method(patches: Patches, cls: type, attr: str, wrapper: Callable) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        patches.replace(cls, attr, classmethod(wrapper(original.__func__)))
    else:
        patches.replace(cls, attr, wrapper(original))


def _wrap_global(patches: Patches, modules, attr: str, wrapper: Callable) -> None:
    """Wrap a module-level function under every module that bound its name."""
    original = getattr(modules[0], attr)
    traced = wrapper(original)
    for module in modules:
        if module.__dict__.get(attr) is original:
            patches.replace(module, attr, traced)


#: Runahead-controller entry points the core calls (``attach`` runs once at
#: build time and belongs to set-up).
CONTROLLER_HOOKS = (
    "on_full_window_stall",
    "on_complete",
    "on_decode",
    "on_runahead_prefetch",
    "runahead_dispatch",
    "tick",
    "next_wake_cycle",
    "treat_poison_as_ready",
)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install_layers(tracer: Tracer) -> Patches:
    """Wrap every traced layer of ``repro``; call ``restore()`` to undo."""
    import repro.simulation as simulation
    import repro.simulation.engine as engine
    import repro.simulation.multicore as multicore
    import repro.simulation.simulator as simulator
    from repro.core.base import RunaheadController
    from repro.energy.model import EnergyModel
    from repro.memory.hierarchy import PrivateHierarchy, SharedUncore
    from repro.serde import JSONSerializable
    from repro.service.client import ServiceClient
    from repro.service.journal import JobJournal
    from repro.uarch.core import OoOCore
    from repro.uarch.frontend import FrontEnd
    from repro.uarch.issue_queue import IssueQueue
    from repro.workloads.generators import WorkloadSpec

    patches = Patches()

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda func: _spanned(tracer, name, func)

    def method(cls: type, attr: str, name: str) -> None:
        _wrap_method(patches, cls, attr, span(name))

    # workloads: trace generation.
    method(WorkloadSpec, "build", "workloads.build")
    method(WorkloadSpec, "source", "workloads.build")

    # uarch: the per-cycle stepping API and the stages it drives.
    method(OoOCore, "run", "uarch.run")
    method(OoOCore, "step_cycle", "uarch.step")
    method(OoOCore, "next_wake_cycle", "uarch.wake")

    def skip_wrapper(func):
        @functools.wraps(func)
        def skip_to(core, wake):
            before = core.cycle
            frame = tracer.enter("uarch.skip")
            try:
                return func(core, wake)
            finally:
                tracer.exit(frame)
                # The no-progress cycle before a skip was itself stepped.
                tracer.count("uarch.skipped_cycles", core.cycle - before - 1)

        return skip_to

    _wrap_method(patches, OoOCore, "skip_to", skip_wrapper)

    def select_wrapper(func):
        @functools.wraps(func)
        def select(queue, *args, **kwargs):
            scanned = len(queue)
            frame = tracer.enter("uarch.issue_queue.select")
            try:
                selected = func(queue, *args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.count("uarch.issue_queue.scanned", scanned)
            tracer.count("uarch.issue_queue.selected", len(selected))
            return selected

        return select

    _wrap_method(patches, IssueQueue, "select_ready", select_wrapper)
    _wrap_method(patches, IssueQueue, "select_ready_fast", select_wrapper)
    method(FrontEnd, "tick", "uarch.frontend.tick")

    # core: the runahead controllers' hooks, on every class that defines one.
    for cls in _subclasses(RunaheadController):
        for hook in CONTROLLER_HOOKS:
            if hook in cls.__dict__:
                method(cls, hook, "core.controller")

    # memory: private-hierarchy accesses and the shared uncore behind them.
    method(PrivateHierarchy, "access_data", "memory.access")
    method(PrivateHierarchy, "access_instruction", "memory.access")
    method(SharedUncore, "read", "memory.uncore")
    method(SharedUncore, "write", "memory.uncore")

    method(EnergyModel, "evaluate", "energy.evaluate")

    # simulation: the single-run and lockstep drivers.
    sim_modules = (simulator, simulation, engine)
    _wrap_global(patches, sim_modules, "run_simulation", span("simulation.run_simulation"))
    _wrap_global(
        patches, (multicore, simulation, engine), "run_multicore",
        span("simulation.run_multicore"),
    )
    method(multicore.MultiCoreSimulator, "run", "simulation.multicore.driver")

    # simulation.engine: sweep expansion, keys, cache, execution.
    def run_sweep_wrapper(func):
        @functools.wraps(func)
        def run_sweep(self, *args, **kwargs):
            accepted = tracer.take_mark("service.accepted")
            frame = tracer.enter("simulation.engine.run_sweep")
            if accepted is not None:
                tracer.add_interval("service.queue_wait", frame[1] - accepted)
            try:
                return func(self, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.mark("service.sweep_done")

        return run_sweep

    _wrap_method(patches, engine.ExperimentEngine, "run_sweep", run_sweep_wrapper)
    method(engine.ExperimentEngine, "expand_sweep_payloads", "simulation.engine.expand")
    _wrap_global(patches, (engine,), "_job_cache_key", span("simulation.engine.key"))
    _wrap_global(patches, (engine,), "_execute_job", span("simulation.engine.execute"))

    def cache_get_wrapper(func):
        @functools.wraps(func)
        def get(cache, key):
            frame = tracer.enter("simulation.engine.cache_get")
            try:
                payload = func(cache, key)
            finally:
                tracer.exit(frame)
            tracer.count(
                "simulation.engine.cache_hits"
                if payload is not None
                else "simulation.engine.cache_misses"
            )
            return payload

        return get

    _wrap_method(patches, engine.ResultCache, "get", cache_get_wrapper)
    method(engine.ResultCache, "put", "simulation.engine.cache_put")
    method(JSONSerializable, "to_dict", "serde")
    method(JSONSerializable, "from_dict", "serde")

    # service: the client's calls, and the journal on the daemon side.
    method(ServiceClient, "submit", "service.submit")
    method(ServiceClient, "result", "service.result")
    method(ServiceClient, "request", "service.http")

    def wait_wrapper(func):
        @functools.wraps(func)
        def wait(client, *args, **kwargs):
            frame = tracer.enter("service.wait")
            try:
                return func(client, *args, **kwargs)
            finally:
                done = tracer.take_mark("service.sweep_done")
                if done is not None:
                    tracer.add_interval("service.notify", tracer.clock() - done)
                tracer.exit(frame)

        return wait

    _wrap_method(patches, ServiceClient, "wait", wait_wrapper)

    def append_wrapper(func):
        @functools.wraps(func)
        def append(journal, event):
            frame = tracer.enter("service.journal_append")
            try:
                return func(journal, event)
            finally:
                tracer.exit(frame)
                if event.get("event") == "submitted":
                    tracer.mark("service.accepted")

        return append

    _wrap_method(patches, JobJournal, "append", append_wrapper)
    return patches


# ------------------------------------------------------- per-layer metrics

#: Every per-layer metric of a traced run: ``(name, unit, better)``.  Host
#: times are in seconds over the traced pass; ``*_calls`` and cycle counts
#: are exact.  A layer the workload never enters reads 0.
PER_LAYER = (
    ("workloads.build_s", "s", "lower"),
    ("uarch.step_s", "s", "lower"),
    ("uarch.stepped_cycles", "cycles", "lower"),
    ("uarch.skipped_cycles", "cycles", "higher"),
    ("uarch.skip_ratio", "ratio", "higher"),
    ("uarch.host_ns_per_cycle", "ns", "lower"),
    ("uarch.issue_queue.select_s", "s", "lower"),
    ("uarch.issue_queue.select_calls", "count", "lower"),
    ("uarch.issue_queue.issued_per_scan", "ratio", "higher"),
    ("uarch.frontend.tick_s", "s", "lower"),
    ("uarch.frontend.tick_calls", "count", "lower"),
    ("core.controller_s", "s", "lower"),
    ("core.runahead_invocations", "count", "higher"),
    ("core.useful_prefetch_ratio", "ratio", "higher"),
    ("core.sst_hit_ratio", "ratio", "higher"),
    ("memory.access_s", "s", "lower"),
    ("memory.access_calls", "count", "lower"),
    ("memory.uncore_s", "s", "lower"),
    ("memory.l3_miss_ratio", "ratio", "lower"),
    ("memory.dram_reads", "count", "lower"),
    ("memory.dram_queue_delay_cycles", "cycles", "lower"),
    ("memory.bus_busy_cycles", "cycles", "lower"),
    ("energy.evaluate_s", "s", "lower"),
    ("simulation.run_setup_s", "s", "lower"),
    ("simulation.multicore.driver_s", "s", "lower"),
    ("simulation.engine.expand_s", "s", "lower"),
    ("simulation.engine.key_s", "s", "lower"),
    ("simulation.engine.cache_get_s", "s", "lower"),
    ("simulation.engine.cache_put_s", "s", "lower"),
    ("simulation.engine.cache_hits", "count", "higher"),
    ("simulation.engine.cache_misses", "count", "lower"),
    ("simulation.engine.execute_s", "s", "lower"),
    ("simulation.engine.overhead_s", "s", "lower"),
    ("serde.s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.notify_s", "s", "lower"),
    ("service.result_s", "s", "lower"),
    ("service.journal_append_s", "s", "lower"),
    ("service.journal_appends", "count", "lower"),
    ("service.http_requests", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, tag: Optional[str] = None) -> Dict[str, float]:
    """The span-derived per-layer metrics (simulated counters come separately).

    ``*_s`` figures are self time (span time minus wrapped child spans)
    unless the layer is an inclusive step of the engine or service, where
    the issue's definition is the whole call.
    """
    totals = tracer.totals(tag)
    counts = tracer.counts()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    stepped = calls("uarch.step")
    skipped = counts.get("uarch.skipped_cycles", 0)
    cycles = stepped + skipped
    return {
        "workloads.build_s": own("workloads.build"),
        "uarch.step_s": own("uarch.step"),
        "uarch.stepped_cycles": stepped,
        "uarch.skipped_cycles": skipped,
        "uarch.skip_ratio": ratio(skipped, cycles),
        "uarch.host_ns_per_cycle": ratio(
            (total("uarch.step") + total("uarch.skip")) * 1e9, cycles
        ),
        "uarch.issue_queue.select_s": own("uarch.issue_queue.select"),
        "uarch.issue_queue.select_calls": calls("uarch.issue_queue.select"),
        "uarch.issue_queue.issued_per_scan": ratio(
            counts.get("uarch.issue_queue.selected", 0),
            counts.get("uarch.issue_queue.scanned", 0),
        ),
        "uarch.frontend.tick_s": own("uarch.frontend.tick"),
        "uarch.frontend.tick_calls": calls("uarch.frontend.tick"),
        "core.controller_s": own("core.controller"),
        "memory.access_s": own("memory.access"),
        "memory.access_calls": calls("memory.access"),
        "memory.uncore_s": own("memory.uncore"),
        "energy.evaluate_s": total("energy.evaluate"),
        "simulation.run_setup_s": own("simulation.run_simulation"),
        "simulation.multicore.driver_s": own("simulation.multicore.driver"),
        "simulation.engine.expand_s": total("simulation.engine.expand"),
        "simulation.engine.key_s": total("simulation.engine.key"),
        "simulation.engine.cache_get_s": total("simulation.engine.cache_get"),
        "simulation.engine.cache_put_s": total("simulation.engine.cache_put"),
        "simulation.engine.cache_hits": counts.get("simulation.engine.cache_hits", 0),
        "simulation.engine.cache_misses": counts.get("simulation.engine.cache_misses", 0),
        "simulation.engine.execute_s": total("simulation.engine.execute"),
        "simulation.engine.overhead_s": total("simulation.engine.run_sweep")
        - total("simulation.engine.execute"),
        "serde.s": own("serde"),
        "service.submit_s": total("service.submit"),
        "service.queue_wait_s": total("service.queue_wait"),
        "service.notify_s": total("service.notify"),
        "service.result_s": total("service.result"),
        "service.journal_append_s": total("service.journal_append"),
        "service.journal_appends": calls("service.journal_append"),
        "service.http_requests": calls("service.http"),
    }
