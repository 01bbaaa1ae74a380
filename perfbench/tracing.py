"""Opt-in span tracing of the compiler and simulator, from the outside.

Nothing in ``src/`` knows about this module.  :func:`instrument` replaces
public functions and methods with thin wrappers at the places the program
looks them up -- a class attribute for methods, the importing module's
global for functions imported by name -- and returns a handle whose
``close()`` restores every original.  The wrappers open a span per call;
spans nest on one stack (the benchmark runs single-threaded), so each
layer's *self* time is its span's duration minus the time its child spans
cover.

Per name the tracer keeps a call count, total and self seconds, plus any
counters a wrapper adds (``waiting_scanned``, ``affinity_hits``, ...).
The first ``MAX_EVENTS`` spans are also kept as complete events and can be
written out as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "instrument"]

MAX_EVENTS = 200_000  # spans kept for the Chrome trace; the aggregates count all


class Tracer:
    """An in-memory span recorder with per-name self-time aggregation."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.events: List[tuple] = []
        self.dropped_events = 0
        self._stack: List[List[float]] = []  # [start, child seconds]
        self._origin = time.perf_counter()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[0]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if len(self.events) < MAX_EVENTS:
                self.events.append((name, frame[0] - self._origin, duration, len(self._stack)))
            else:
                self.dropped_events += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copies of the aggregates, for differencing two points in time."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def write_chrome_trace(self, path: str, metadata: Optional[dict] = None) -> str:
        """Write the kept spans as Chrome trace-event JSON (``X`` events)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self.events
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, dropped_events=self.dropped_events),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path


class _Instrumentation:
    def __init__(self):
        self._restore: List[tuple] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def close(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _wrap(tracer: Tracer, name: str, fn: Callable, before=None, after=None) -> Callable:
    """A wrapper running ``fn`` in a span; ``before(args)`` and
    ``after(args, result)`` may add counters."""

    def wrapped(*args, **kwargs):
        if before is not None:
            before(args)
        result = tracer.span(name, fn, *args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", name)
    return wrapped


def instrument(tracer: Tracer) -> _Instrumentation:
    """Wrap every layer boundary the per-layer metrics read.

    Returns a handle; call ``close()`` to restore the untraced program.
    """
    import repro.pipeline.driver as driver
    import repro.pipeline.passes as passes
    import repro.serving.step_model as step_model
    from repro.codegen.backend import BACKENDS
    from repro.layout.tv import TVLayout
    from repro.pipeline.cache import CompileCache
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.memory import KvBlockManager
    from repro.serving.prefix import PrefixStore
    from repro.serving.router import PrefixAffinityRouter
    from repro.serving.scheduler import SCHEDULERS
    from repro.serving.simulator import ReplicaEngine
    from repro.synthesis.search import InstructionSelector
    from repro.synthesis.tv_solver import ThreadValueSolver

    handle = _Instrumentation()

    def method(cls, attr: str, name: str, before=None, after=None) -> None:
        handle.patch(cls, attr, _wrap(tracer, name, cls.__dict__[attr], before, after))

    # Compiler: passes, cache keys and loads, the solvers, emission, timing.
    for cls in passes.PASS_REGISTRY.values():
        method(cls, "run", f"pipeline.pass.{cls.name}")
    for module in (driver, step_model):
        handle.patch(
            module, "compile_key", _wrap(tracer, "pipeline.cache.key", module.compile_key)
        )
    method(CompileCache, "load_disk", "pipeline.cache.load")
    method(ThreadValueSolver, "solve", "synthesis.tv_solver.solve")
    method(TVLayout, "equivalent", "layout.tv.equivalent")
    method(InstructionSelector, "best", "synthesis.search.best")
    for backend_cls in {type(b) for b in BACKENDS.values()}:
        method(backend_cls, "emit", "codegen.emit")
    handle.patch(
        passes,
        "estimate_kernel_latency",
        _wrap(tracer, "sim.timing.estimate", passes.estimate_kernel_latency),
    )

    # Serving: scheduler admission, the engine step, step-latency lookups.
    def scanned(args):
        tracer.count("scheduler.waiting_scanned", len(args[1]))

    def admitted(args, result):
        tracer.count("scheduler.admitted", len(result))

    for cls in SCHEDULERS.values():
        if "select" in cls.__dict__:
            method(cls, "select", "serving.scheduler.select", scanned, admitted)
    method(ReplicaEngine, "advance", "serving.engine.advance")
    method(step_model.StepLatencyModel, "step_latency_ms", "serving.step_model.lookup")

    # Fleet: routing, snapshots and what they read, KV allocation, prefixes.
    def affinity(args, choice):
        request, snapshots = args[1], args[2]
        prefix_id = getattr(request, "prefix_id", None)
        if prefix_id is None:
            return
        tracer.count("router.prefixed_routes")
        chosen = next(s for s in snapshots if s.replica_id == choice)
        if chosen.resident_prefixes.get(prefix_id, 0) > 0:
            tracer.count("router.affinity_hits")

    method(PrefixAffinityRouter, "route", "serving.router.route", after=affinity)
    method(ClusterSimulator, "_snapshot", "serving.router.snapshot")
    method(ReplicaEngine, "resident_prefix_tokens", "serving.cluster.snapshot_read")
    reserved = ReplicaEngine.__dict__["kv_reserved_blocks"]
    handle.patch(
        ReplicaEngine,
        "kv_reserved_blocks",
        property(_wrap(tracer, "serving.cluster.snapshot_read", reserved.fget)),
    )
    method(KvBlockManager, "allocate", "serving.memory.allocate")
    method(PrefixStore, "acquire", "serving.prefix.acquire")
    return handle
