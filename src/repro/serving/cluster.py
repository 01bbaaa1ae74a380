"""The multi-replica cluster simulator: N replicas behind one router.

``kv_budget_blocks()`` already shards a model's weights at
``tensor_parallel`` — one :class:`~repro.serving.simulator.ServingSimulator`
is one tensor-parallel *replica*.  This module composes N of them into a
fleet the way a production serving frontend does: every arriving request
is routed to exactly one replica by a pluggable policy
(:mod:`repro.serving.router`), each replica runs its own continuous
batching loop with its own KV block budget and scheduler, and the step
models share the process-wide compile cache so fleet startup compiles each
kernel shape once.

**How the interleaving works.** Replicas are independent once a request is
assigned, but routing needs each replica's *live* state at the request's
arrival time.  The cluster therefore processes requests in global arrival
order: before routing a request arriving at ``t`` it advances every
replica engine (:class:`~repro.serving.simulator.ReplicaEngine`) until its
clock passes ``t``, asks the router, and injects the request into the
chosen replica's queue.  The router reads each replica through a
:class:`ReplicaView` — :class:`~repro.serving.router.ReplicaSnapshot`'s
fields, read live from the engine — built once per replica per run, so
routing a request copies no replica state.  While advancing, the
engines are told the global next unrouted arrival time and that more
traffic is pending, so time-based scheduler deferrals and ``max-batch``'s
flush-on-last-arrival behave exactly as they would with full knowledge of
the replica's eventual workload.  After the last request is routed, every
replica drains to completion.

**Determinism and the equivalence gate.** Routing is deterministic
(:mod:`repro.serving.router`), each replica engine is deterministic, and
replicas do not interact after assignment — so a cluster run is bit-exact
reproducible, and :meth:`ClusterReport.digest` is stable across runs.  A
**single-replica cluster is bit-identical to the bare simulator** under
every routing policy: all routers must pick the only replica, the engine
sees the same request sequence at the same loop boundaries, and
``ClusterReport.digest()`` of a 1-replica fleet is *defined* as that
replica's ``ServeReport.digest()`` — so the gate in
``tests/test_serving.py`` (and ``benchmarks/bench_serving.py --smoke``) is
a literal digest equality.

**Fault injection.** :meth:`ClusterSimulator.simulate` takes a
:class:`~repro.serving.faults.FaultSchedule` (empty by default) and
merges its timed events into the arrival loop (ties process faults
first).  A crash wipes the replica — KV pool, prefix cache, every owned
request — and the lost requests re-enter global routing (each
re-placement is a *retry*; landing on a different replica than before is
a *failover*).  Health-aware
routing (the default) shows routers only the views of healthy replicas
(a tuple rebuilt at each crash and recovery); the health-blind baseline
(``health_aware=False``) routes into the dark and pays for it, which is
exactly the comparison ``tests/test_faults.py`` gates on.  The robustness
rollups (retries, failovers, shed, downtime, availability, goodput) live
outside :meth:`ClusterReport.digest`.  With every replica healthy, health
filtering shows the router every view and there is nothing to evacuate
or account as downtime, so an empty schedule changes nothing.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Union

from repro.serving.faults import FaultSchedule, ReplicaCrash, ReplicaRecover
from repro.serving.report import BaseReport, RequestMetrics, ServeReport, report_columns
from repro.serving.router import Router, get_router
from repro.serving.scheduler import Scheduler
from repro.serving.simulator import ReplicaEngine, ServingSimulator
from repro.serving.step_model import PrecompileStats, StepLatencyModel, shared_step_model
from repro.serving.workload import Request, arrival_key, check_unique_ids
from repro.sim.arch import DEFAULT_EVAL_ARCH

__all__ = [
    "ClusterReport",
    "ClusterSimulator",
    "ReplicaView",
]


# Per-replica ServeReport counters a ClusterReport exposes as fleet sums.
FLEET_SUMS = (
    "num_requests", "total_output_tokens", "preemptions", "prefix_hits",
    "prefix_misses", "prefix_blocks_saved", "prefix_evictions",
    "prefix_resident_peak", "crashes", "downtime_ms",
)


@dataclass
class ClusterReport(BaseReport):
    """Aggregate outcome of one simulated fleet serve.

    Carries the per-replica :class:`ServeReport`\\ s plus fleet-level
    rollups: combined throughput and latency/TTFT percentiles, SLO
    attainment, the spread of per-replica KV peak utilization, and a
    load-imbalance coefficient (population coefficient of variation of
    per-replica generated tokens — 0.0 is a perfectly balanced fleet).
    Every counter named in :data:`FLEET_SUMS` reads as the sum over the
    replicas.  Under fault injection it also carries the robustness
    rollups: retries, failovers, shed requests, crash count, downtime,
    availability and goodput — all zero fault-free, and all outside
    :meth:`digest`.
    """

    COLUMNS = report_columns(
        ("preempt", lambda r: r.preemptions),
        ("imbalance", lambda r: r.load_imbalance),
        ("kv spread", lambda r: r.kv_utilization_spread),
    )

    model: str
    backend: str
    scheduler: str
    router: str
    workload: str
    arch: str
    num_replicas: int
    replicas: List[ServeReport] = field(default_factory=list, repr=False)
    # request_id -> replica index, as routed (the *final* placement for a
    # request re-routed after a crash).
    assignments: Dict[int, int] = field(default_factory=dict, repr=False)
    # Robustness rollups (zeros on a fault-free run), outside digest()
    # like every other non-trace stat.
    retries: int = 0
    failovers: int = 0
    shed_while_down: int = 0

    # ------------------------------------------------------------------ #
    @cached_property
    def requests(self) -> List[RequestMetrics]:
        """Every completed request across the fleet, by request id.

        Cached: a report is immutable once built, and the percentile /
        duration / SLO properties all derive from this merge.
        """
        merged = [m for report in self.replicas for m in report.requests]
        merged.sort(key=lambda m: m.request_id)
        return merged

    def __getattr__(self, name: str):
        # Only reached for names the instance and its class lack.
        if name in FLEET_SUMS:
            return sum(getattr(report, name) for report in self.replicas)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def duration_ms(self) -> float:
        """Fleet makespan: first arrival to last finish, across replicas."""
        finished = self.requests
        if not finished:
            return 0.0
        return max(m.finish_ms for m in finished) - min(m.arrival_ms for m in finished)

    @property
    def mean_batch_size(self) -> float:
        """Step-weighted mean decode batch across the fleet."""
        steps = sum(r.steps for r in self.replicas)
        if not steps:
            return 0.0
        return sum(r.mean_batch_size * r.steps for r in self.replicas) / steps

    @property
    def kv_utilization_spread(self) -> float:
        """Max minus min per-replica KV *peak* utilization."""
        peaks = [r.kv_peak_utilization for r in self.replicas]
        return max(peaks) - min(peaks)

    @property
    def shed(self) -> int:
        """Requests dropped past their hard deadline: shed from a
        replica's waiting set, plus arrivals whose deadline lapsed while
        the whole fleet was down (``shed_while_down``)."""
        return self.shed_while_down + sum(r.shed for r in self.replicas)

    @property
    def load_imbalance(self) -> float:
        """Population coefficient of variation of per-replica output tokens.

        0.0 means every replica generated the same token count; round-robin
        under heterogeneous request lengths drifts well above 0, and a
        load-aware router should pull it back down.
        """
        tokens = [float(r.total_output_tokens) for r in self.replicas]
        mean = sum(tokens) / len(tokens)
        if mean <= 0:
            return 0.0
        variance = sum((t - mean) ** 2 for t in tokens) / len(tokens)
        return (variance ** 0.5) / mean

    # ------------------------------------------------------------------ #
    def digest(self) -> str:
        """A bit-exact content hash of the fleet outcome.

        A single-replica cluster digests as its replica's plain
        :meth:`ServeReport.digest` — that replica's trace *is* the whole
        outcome — which makes the cluster-vs-bare-simulator equivalence
        gate a literal digest equality.  Multi-replica fleets hash the
        router, the routing assignment and every replica's digest.
        """
        if len(self.replicas) == 1:
            return self.replicas[0].digest()
        payload = {
            "router": self.router,
            "workload": self.workload,
            "assignments": sorted(self.assignments.items()),
            "replicas": [r.digest() for r in self.replicas],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        return f"{self.model} / {self.backend} / {self.num_replicas}x{self.scheduler} / {self.router}"

    def _summary_load(self) -> List[str]:
        load = [f"imbalance {self.load_imbalance:.2f}"]
        if self.preemptions:
            load.append(f"{self.preemptions} preemptions")
        return load

    def _summary_outage(self) -> str:
        return f"{self.retries} retries, {self.failovers} failovers"


class ReplicaView:
    """One replica as a router sees it, read live from its engine.

    The names are :class:`~repro.serving.router.ReplicaSnapshot`'s fields
    plus ``load`` and ``kv_unreserved_blocks``, with the same meanings,
    so every router reads a view exactly as it reads a snapshot.  The
    cluster builds one view per replica per run and shows routers the
    same views at every placement: a value read during ``route`` is the
    replica's state at that routing decision, and a router that keeps
    one past ``route`` must copy it.  ``replica_id``, ``max_batch_size``,
    ``kv_total_blocks`` and ``resident_prefixes`` (the prefix store's
    live read-only map) are fixed for the engine's lifetime and set
    once; every other name reads the engine on access.  Views are
    read-only: assigning any attribute raises ``AttributeError``.
    """

    __slots__ = ("_engine", "replica_id", "max_batch_size", "kv_total_blocks", "resident_prefixes")

    def __init__(self, replica_id: int, engine: ReplicaEngine):
        set_field = object.__setattr__
        set_field(self, "_engine", engine)
        set_field(self, "replica_id", replica_id)
        set_field(self, "max_batch_size", engine.sim.max_batch_size)
        set_field(self, "kv_total_blocks", engine.manager.total_blocks)
        set_field(self, "resident_prefixes", engine.resident_prefix_tokens())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only (setting {name!r})")

    @property
    def now_ms(self) -> float:
        return self._engine.now

    @property
    def waiting(self) -> int:
        """Assigned but not running: the arrival queue plus the
        scheduler's waiting set."""
        engine = self._engine
        return engine.assigned - len(engine.running)

    @property
    def running(self) -> int:
        return len(self._engine.running)

    @property
    def kv_free_blocks(self) -> int:
        return self._engine.manager.free_blocks

    @property
    def kv_reserved_blocks(self) -> int:
        return self._engine.kv_reserved_blocks

    @property
    def preemptions(self) -> int:
        return self._engine.preemptions

    @property
    def finished(self) -> int:
        return len(self._engine.finished)

    @property
    def healthy(self) -> bool:
        return self._engine.healthy

    @property
    def load(self) -> int:
        """Outstanding requests: ``waiting + running``."""
        return self._engine.assigned

    @property
    def kv_unreserved_blocks(self) -> int:
        """``kv_total_blocks - kv_reserved_blocks``; may go negative."""
        return self.kv_total_blocks - self._engine.kv_reserved_blocks


class ClusterSimulator:
    """N continuous-batching replicas behind one request router.

    Every replica is a full :class:`ServingSimulator` — its own scheduler
    instance, KV block budget and batch-slot count — and all replicas
    share one :class:`StepLatencyModel` (the process-wide shared model for
    ``arch`` by default), so the fleet compiles each kernel shape once and
    the per-step latencies are memo hits across replicas.

    ``kv_budget_blocks`` accepts a single count (every replica gets the
    same pool), a sequence of per-replica counts (a heterogeneous fleet),
    or ``None`` to derive each replica's real capacity from the model and
    architecture.  ``seed`` feeds the router's private RNG (only
    ``power-of-two-choices`` uses it); everything else is deterministic.

    ``scheduler`` may be a policy name (each replica gets a fresh
    instance) or a :class:`Scheduler` instance (shared — safe because
    schedulers hold no per-run mutable state).

    Prefix caches are strictly per replica — sharing happens *within* a
    replica's pool, and the ``prefix-affinity`` router is what keeps a
    fleet from duplicating hot prefixes across pools.

    ``health_aware`` only matters once a fault schedule crashes a
    replica: ``True`` (the default) filters crashed replicas out of the
    views shown to the router, so every policy fails over
    automatically; ``False`` is the health-blind baseline — the router
    keeps routing into dead replicas, whose queues wait out the outage.
    """

    def __init__(
        self,
        model_config,
        replicas: int = 2,
        router: Union[str, Router] = "round-robin",
        backend: str = "hexcute",
        scheduler: Union[str, Scheduler] = "fcfs",
        arch=DEFAULT_EVAL_ARCH,
        max_batch_size: int = 32,
        step_model: Optional[StepLatencyModel] = None,
        seed: int = 0,
        kv_budget_blocks: Union[int, Sequence[int], None] = None,
        health_aware: bool = True,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if isinstance(kv_budget_blocks, (list, tuple)):
            if len(kv_budget_blocks) != replicas:
                raise ValueError(
                    f"kv_budget_blocks has {len(kv_budget_blocks)} entries "
                    f"for {replicas} replicas"
                )
            budgets = list(kv_budget_blocks)
        else:
            budgets = [kv_budget_blocks] * replicas
        self.router = get_router(router)
        self.seed = seed
        self.health_aware = health_aware
        if step_model is None:
            step_model = shared_step_model(arch)
        self.step_model = step_model
        self.replicas: List[ServingSimulator] = [
            ServingSimulator(
                model_config,
                backend=backend,
                scheduler=scheduler,
                arch=arch,
                max_batch_size=max_batch_size,
                step_model=step_model,
                kv_budget_blocks=budgets[index],
            )
            for index in range(replicas)
        ]
        self.model_config = model_config
        self.backend = backend
        self.arch = self.replicas[0].arch

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------ #
    def precompile(self) -> PrecompileStats:
        """Fleet startup: one replica's buckets — the step model is shared,
        so every other replica starts warm for free."""
        return self.replicas[0].precompile()

    # ------------------------------------------------------------------ #
    def _snapshot(self, index: int, engine: ReplicaEngine) -> ReplicaView:
        """The router's view of replica ``index``: built once per run."""
        return ReplicaView(index, engine)

    def simulate(
        self,
        requests: Sequence[Request],
        workload: str = "custom",
        faults: Optional[FaultSchedule] = None,
    ) -> ClusterReport:
        """Route ``requests`` across the fleet and play every replica out.

        ``faults`` merges a timed
        :class:`~repro.serving.faults.FaultSchedule` into the arrival
        loop (ties process the fault first); ``None`` is the empty
        schedule.  A crash wipes the replica
        and its lost requests re-enter global routing — each
        re-placement is a *retry*, landing on a different replica than
        before is a *failover*.  Health-aware mode routes around down
        replicas; health-blind keeps routing into them, and anything
        still stranded on a dead replica when the schedule ends is
        evacuated to the survivors.  With the whole fleet down, arrivals
        are held for the next recovery — or, when none remains, the run
        fails with ``ValueError`` rather than losing traffic silently.  A
        repeated ``request_id`` in ``requests`` raises ``ValueError``.
        """
        check_unique_ids(requests)
        if faults is None:
            faults = FaultSchedule()
        ordered = sorted(requests, key=arrival_key)
        engines = [
            ReplicaEngine(sim, replica_id=index)
            for index, sim in enumerate(self.replicas)
        ]
        self.router.reset(len(engines), seed=self.seed)
        # Routers get these tuples as they are.  ``views`` serves
        # health-blind placement; ``healthy_views`` is rebuilt after every
        # crash and recovery, the only events that change a replica's
        # health.
        views = tuple(self._snapshot(index, engine) for index, engine in enumerate(engines))
        healthy_views = views
        assignments: Dict[int, int] = {}
        fault_events = faults.events
        if faults.max_replica_id() >= len(engines):
            raise ValueError(
                f"fault schedule targets replica {faults.max_replica_id()} "
                f"but the fleet has {len(engines)} replicas"
            )
        healthy_only = self.health_aware
        retry_counts: Dict[int, int] = {}
        failovers = 0
        shed_while_down = 0
        deferred: List[Request] = []  # arrivals held while the whole fleet is down
        # Min-heap of (engine clock, replica id): only the replicas whose
        # clocks still trail the next arrival are touched per event,
        # instead of scanning the whole fleet.  An engine leaves the heap
        # when advance() returns False — which, for an engine behind the
        # arrival, only happens when it is fully drained (every blocked
        # path either wakes at a hint > now, and the arrival itself is
        # such a hint, or requires the hints to be in the past) or
        # crashed — and re-enters when a request is injected into it (or
        # it recovers).  Per-engine advance() call sequences (and hints)
        # are exactly the scan loop's, and replicas are independent, so
        # the traces (and every digest) are bit-identical.
        heap = [(engine.now, index) for index, engine in enumerate(engines)]
        heapq.heapify(heap)
        in_heap = [True] * len(engines)
        num_arrivals = len(ordered)
        num_faults = len(fault_events)
        ai = fi = 0

        def advance_to(horizon: float, pending: bool) -> None:
            # Advance every trailing replica as far as this event allows
            # so the router (or the fault) sees state as of its time, not
            # launch time.  A replica may overshoot (a decode step
            # crossing the horizon) or stop short (idle/blocked — its
            # clock then reads its last event, but nothing about it can
            # change before new input) — both are exactly the states the
            # monolithic loop would be in at this time.
            while heap and heap[0][0] < horizon:
                clock, index = heapq.heappop(heap)
                engine = engines[index]
                if clock != engine.now:  # stale entry superseded by a re-push
                    continue
                if engine.advance(
                    external_next_arrival_ms=horizon, external_pending=pending
                ):
                    heapq.heappush(heap, (engine.now, index))
                else:
                    in_heap[index] = False

        def place(request: Request, healthy_required: bool) -> None:
            nonlocal failovers
            previous = assignments.get(request.request_id)
            candidates = healthy_views if healthy_required else views
            if not candidates:
                # Whole fleet down: hold the arrival for the next
                # recovery — and fail loudly if none is coming.
                if not any(
                    isinstance(e, ReplicaRecover) for e in fault_events[fi:]
                ):
                    raise ValueError(
                        f"request {request.request_id} has nowhere to go: "
                        f"every replica is down and the fault schedule "
                        f"holds no further recovery"
                    )
                deferred.append(request)
                return
            choice = self.router.route(request, candidates)
            if not isinstance(choice, int) or not 0 <= choice < len(engines):
                raise RuntimeError(
                    f"router {self.router.name!r} picked replica {choice!r} "
                    f"out of {len(engines)} replicas"
                )
            if healthy_required and not engines[choice].healthy:
                raise RuntimeError(
                    f"router {self.router.name!r} picked crashed replica "
                    f"{choice} from a healthy-only candidate list"
                )
            if previous is not None and choice != previous:
                failovers += 1
            assignments[request.request_id] = choice
            engines[choice].inject(request)
            if engines[choice].healthy and not in_heap[choice]:
                in_heap[choice] = True
                heapq.heappush(heap, (engines[choice].now, choice))

        def reroute(lost: Sequence[Request], healthy_required: bool) -> None:
            for request in lost:
                retry_counts[request.request_id] = (
                    retry_counts.get(request.request_id, 0) + 1
                )
                place(request, healthy_required)

        while ai < num_arrivals or fi < num_faults:
            if fi < num_faults and (
                ai >= num_arrivals
                or fault_events[fi].at_ms <= ordered[ai].arrival_ms
            ):
                event = fault_events[fi]
                fi += 1
                advance_to(event.at_ms, ai < num_arrivals or bool(deferred))
                engine = engines[event.replica_id]
                if isinstance(event, ReplicaCrash):
                    lost = engine.crash(event.at_ms)
                    healthy_views = tuple(v for v in views if v.healthy)
                    in_heap[event.replica_id] = False
                    reroute(lost, healthy_only)
                elif isinstance(event, ReplicaRecover):
                    engine.recover(event.at_ms)
                    healthy_views = tuple(v for v in views if v.healthy)
                    if not in_heap[event.replica_id]:
                        in_heap[event.replica_id] = True
                        heapq.heappush(heap, (engine.now, event.replica_id))
                    if deferred:
                        held = deferred[:]
                        del deferred[:]
                        for request in held:
                            if (
                                request.deadline_ms is not None
                                and request.deadline_ms <= event.at_ms
                            ):
                                # The deadline lapsed during the outage:
                                # shed instead of serving dead work.
                                shed_while_down += 1
                            else:
                                place(request, healthy_only)
                else:  # ReplicaSlowdown
                    engine.slow_down(event.at_ms, event.factor, event.duration_ms)
            else:
                request = ordered[ai]
                ai += 1
                advance_to(request.arrival_ms, True)
                place(request, healthy_only)
        # Final failover: whatever health-blind routing stranded on a
        # replica still down when the schedule ends would never finish —
        # evacuate it to the survivors (health stops being optional here:
        # even a blind frontend eventually declares a backend dead).
        for engine in engines:
            if not engine.healthy and engine.assigned:
                reroute(engine.evacuate(), True)
        for engine in engines:
            while engine.advance():
                pass
        # Replicas down at the end of the run accrue downtime to the
        # fleet's last event, so availability reflects the outage.
        fleet_end = max(engine.now for engine in engines)
        for engine in engines:
            engine.close_downtime(fleet_end)
        reports = [engine.report(workload) for engine in engines]
        return ClusterReport(
            model=self.model_config.name,
            backend=self.backend,
            scheduler=self.replicas[0].scheduler.name,
            router=self.router.name,
            workload=workload,
            arch=self.arch.name,
            num_replicas=len(self.replicas),
            replicas=reports,
            assignments=assignments,
            retries=sum(retry_counts.values()),
            failovers=failovers,
            shed_while_down=shed_while_down,
        )
