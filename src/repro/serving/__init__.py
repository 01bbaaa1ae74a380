"""Continuous-batching serving simulation on top of the compile pipeline.

The subsystem turns the repo's kernel + cost-model stack into a
traffic-level system (the vLLM-integration story of Fig. 13, at serving
scale): seeded workload generators feed a deterministic discrete-event
engine whose decode-step latencies come from a memoized, batch-bucketed
:class:`StepLatencyModel` that precompiles its buckets through
``repro.pipeline.compile_many``, whose admissions are bounded by a
vLLM-style KV-cache block budget, and whose replicas compose into a
multi-replica cluster behind pluggable request routers.

* :mod:`repro.serving.workload` — ``Request``/``RequestQueue`` and the
  steady / bursty / heavy-tail / memory-pressure generators;
* :mod:`repro.serving.memory` — the KV-cache memory model: per-replica
  block budgets (HBM minus weights), paged block accounting
  (``KvBlockManager``) and the ``KvMemoryView`` schedulers see;
* :mod:`repro.serving.prefix` — refcounted copy-on-write prefix caching
  (``PrefixStore``): requests declaring a shared prompt prefix store its
  whole-block KV once per replica and are charged only their private
  suffix, with cached zero-refcount prefixes evicted on demand;
* :mod:`repro.serving.scheduler` — FCFS, SLO-aware (EDF), max-batch and
  memory-aware continuous-batching policies, each with a
  ``preempt_order`` hook for KV-pressure eviction;
* :mod:`repro.serving.step_model` — the (config, backend, batch) -> step
  latency provider shared with ``e2e.decode_latency``;
* :mod:`repro.serving.simulator` — the discrete-event engine (admission,
  block growth, preemption with recompute-on-readmit), steppable as
  ``ReplicaEngine`` so the cluster can interleave replicas;
* :mod:`repro.serving.router` — round-robin / least-loaded / kv-aware /
  power-of-two-choices / prefix-affinity request routing over live
  read-only replica views;
* :mod:`repro.serving.cluster` — ``ClusterSimulator``: N replicas behind
  one router, with the fleet-level ``ClusterReport``;
* :mod:`repro.serving.faults` — seeded ``FaultSchedule`` of timed replica
  crashes, recoveries and slowdowns the cluster interleaves with
  arrivals: crash-lost requests retry through global routing,
  health-aware routing fails over around down replicas, and requests
  carrying a hard ``deadline_ms`` are shed once it lapses;
* :mod:`repro.serving.report` — percentiles, SLO attainment, preemption /
  KV-utilization counters and the bit-exact ``ServeReport`` digest the CI
  determinism check relies on.

**Determinism contract.** Every layer here is deterministic: workload
generators draw from a private ``random.Random(seed)``, schedulers and
routers break ties on request/replica ids (the one randomized router
reseeds a private RNG per run), block accounting is integer arithmetic,
and step latencies are memoized analytical results.  Two runs of the same
seeded workload therefore produce bit-identical ``ServeReport`` /
``ClusterReport`` digests — CI enforces this.

**Digest compatibility.** ``ServeReport.digest()`` hashes only the
per-request trace (plus run identity), and every replica runs one code
path whose extra machinery is inert until used: a KV budget that is
never reached changes nothing, removing prefix ids from a trace whose
prefixes nobody shares changes nothing, an empty ``FaultSchedule``
changes nothing, and a single-replica cluster is bit-identical to the
bare ``ServingSimulator`` under every routing policy.  See
``docs/serving.md``.
"""

from repro.serving.cluster import ClusterReport, ClusterSimulator
from repro.serving.faults import (
    FaultEvent,
    FaultSchedule,
    ReplicaCrash,
    ReplicaRecover,
    ReplicaSlowdown,
)
from repro.serving.memory import (
    DEFAULT_HBM_UTILIZATION,
    DEFAULT_KV_BLOCK_TOKENS,
    KvBlockManager,
    KvMemoryView,
    kv_budget_blocks,
    kv_bytes_per_token,
    weight_bytes,
)
from repro.serving.prefix import PrefixStore
from repro.serving.report import RequestMetrics, ServeReport, format_reports, percentile
from repro.serving.router import (
    KvAwareRouter,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    PrefixAffinityRouter,
    ROUTERS,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    get_router,
)
from repro.serving.scheduler import (
    FcfsScheduler,
    MaxBatchScheduler,
    MemoryAwareScheduler,
    RunningInfo,
    SCHEDULERS,
    Scheduler,
    SloScheduler,
    fitting_prefix,
    get_scheduler,
)
from repro.serving.simulator import ReplicaEngine, ServingSimulator
from repro.serving.step_model import (
    DEFAULT_BATCH_BUCKETS,
    PrecompileStats,
    StepLatencyModel,
    operator_plan,
    shared_step_model,
)
from repro.serving.workload import (
    Request,
    RequestQueue,
    WORKLOADS,
    bursty_workload,
    deadline_workload,
    diurnal_workload,
    heavy_tail_workload,
    make_workload,
    memory_pressure_workload,
    prefix_shared_workload,
    steady_workload,
)

__all__ = [
    "ClusterReport",
    "ClusterSimulator",
    "DEFAULT_BATCH_BUCKETS",
    "DEFAULT_HBM_UTILIZATION",
    "DEFAULT_KV_BLOCK_TOKENS",
    "FaultEvent",
    "FaultSchedule",
    "FcfsScheduler",
    "KvAwareRouter",
    "KvBlockManager",
    "KvMemoryView",
    "LeastLoadedRouter",
    "MaxBatchScheduler",
    "MemoryAwareScheduler",
    "PowerOfTwoRouter",
    "PrecompileStats",
    "PrefixAffinityRouter",
    "PrefixStore",
    "ROUTERS",
    "ReplicaCrash",
    "ReplicaEngine",
    "ReplicaRecover",
    "ReplicaSlowdown",
    "ReplicaSnapshot",
    "Request",
    "RequestMetrics",
    "RequestQueue",
    "RoundRobinRouter",
    "Router",
    "RunningInfo",
    "SCHEDULERS",
    "Scheduler",
    "ServeReport",
    "ServingSimulator",
    "SloScheduler",
    "StepLatencyModel",
    "WORKLOADS",
    "bursty_workload",
    "deadline_workload",
    "diurnal_workload",
    "fitting_prefix",
    "format_reports",
    "get_router",
    "get_scheduler",
    "heavy_tail_workload",
    "kv_budget_blocks",
    "kv_bytes_per_token",
    "make_workload",
    "memory_pressure_workload",
    "operator_plan",
    "percentile",
    "prefix_shared_workload",
    "shared_step_model",
    "steady_workload",
    "weight_bytes",
]
