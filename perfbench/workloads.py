"""The three workloads: seeded inputs and the phases that run them.

Every workload runs the same three phases over its own inputs, so every
end-to-end metric has a value on every workload:

* **compile** -- a set of tile programs (``CompileRequest``\\ s) compiled
  once from empty caches (cold) and once more as a warm startup: a fresh
  ``CompileCache`` loaded from the JSON store the cold phase wrote, with
  the process memos cleared, compiling freshly rebuilt programs (replay).
* **serve** -- one seeded trace played through the serving simulator,
  repeated for the run's time budget.
* **setup** -- building the programs and the trace, plus (for the hexcute
  serving workloads) the step-bucket warm-up: the cold compile of the
  model's bucket kernels and one latency lookup per bucket.

``compile-buckets`` puts its weight on the compile phase (the bucket union
of the three paper models on h100); its serve phase is a short fcfs run on
the analytical library-baseline step model, which compiles nothing.  The
two serving workloads compile only the small simulation model's step
buckets and put their weight on the serve phase.

Isolation: each compile phase starts from ``clear_caches()`` and
``clear_smem_cache()`` with a fresh cache in a temporary directory inside
the output directory, and every simulator gets its own
``StepLatencyModel`` (never ``shared_step_model``).  Compiles run with
``compile_many(max_workers=1)`` and warm-up lookups with
``parallel=False``, so the run never starts a worker thread.

Timing: every phase is a sequence of :class:`meter.Meter` steps (one
compile request, one play, one piece of set-up), each reported in
reference seconds.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from meter import Meter
from repro.e2e.engine import DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B, ModelConfig
from repro.pipeline import CompileCache, compile_many
from repro.serving import (
    ClusterSimulator,
    FaultSchedule,
    ReplicaCrash,
    ReplicaRecover,
    ReplicaSlowdown,
    ServingSimulator,
    diurnal_workload,
    prefix_shared_workload,
    steady_workload,
)
from repro.serving.step_model import StepLatencyModel
from repro.synthesis.smem_solver import clear_smem_cache
from repro.utils.memo import clear_caches

# The 32-layer tiny-shape dense model of benchmarks/bench_sim_scale.py:
# realistic step latency (~0.35 ms at batch 16, ~1.1k simulated req/s of
# service capacity per replica) over kernels that compile in seconds.
SIM_MODEL = ModelConfig(
    name="sim-scale-dense",
    num_layers=32,
    hidden_size=256,
    num_heads=4,
    kv_len=256,
    head_dim=64,
    dense_ffn_layers=32,
    ffn_intermediate=512,
    weight_dtype="fp16",
    tensor_parallel=1,
)
PAPER_MODELS = (DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B)
MAX_BATCH = 16
# Step-latency buckets of the serving workloads: the smallest and the
# largest.  Step latency is nearly flat up to batch 16 (0.32 vs 0.35 ms), and
# two buckets keep the warm-up -- paid three times per run -- near 2 s.
SIM_BUCKETS = (1, 16)
# The smallest and largest serving bucket: every kernel family and both
# ends of the shape range, at the cost of two thirds of {1, 16, 256}.
PAPER_BUCKETS = (1, 256)


@dataclass(frozen=True)
class CompileSpec:
    """Which tile programs a workload compiles: ``models`` x ``buckets``."""

    arch: str
    models: Tuple[ModelConfig, ...]
    buckets: Tuple[int, ...]


@dataclass(frozen=True)
class ServeSpec:
    """One serving experiment: the trace generator and the simulator shape."""

    trace: Callable[[int], Tuple[list, Optional[FaultSchedule]]]
    backend: str = "hexcute"
    scheduler: str = "fcfs"
    replicas: int = 1
    router: Optional[str] = None
    kv_budget_blocks: Optional[int] = None
    workload_label: str = "custom"


# --------------------------------------------------------------------------- #
# Seeded traces
# --------------------------------------------------------------------------- #
CROWD_PERIOD_S = 4.0
CROWD_CYCLES = 1  # one "day": plays of about a second, several per run
CROWD_OFFSETS = (0.15, 0.45, 0.8)  # flash-crowd starts, as fractions of a day


def flash_crowd_trace(seed: int):
    """Diurnal traffic shaped like ``bench_sim_scale.tier_workload``:
    a 500..1500 rps day/night swing plus three flash crowds per day at
    triple rate.  The crowds sit at fixed offsets (``diurnal_workload``
    would draw them from the seed), so every seed builds backlogs of the
    same depth and only the Poisson arrivals and token counts change."""
    requests = list(
        diurnal_workload(
            num_requests=int(1000 * CROWD_CYCLES * CROWD_PERIOD_S),
            base_rate_rps=500.0,
            peak_rate_rps=1500.0,
            period_s=CROWD_PERIOD_S,
            num_spikes=0,
            spike_duration_s=0.0,
            mean_prompt_tokens=64,
            mean_output_tokens=32,
            seed=seed,
        )
    )
    crowd_size = int(2000 * CROWD_PERIOD_S / 16)
    for cycle in range(CROWD_CYCLES):
        for index, offset in enumerate(CROWD_OFFSETS):
            start_ms = (cycle + offset) * CROWD_PERIOD_S * 1000.0
            crowd = steady_workload(
                num_requests=crowd_size,
                rate_rps=2000.0,
                mean_prompt_tokens=64,
                mean_output_tokens=32,
                seed=seed * 1000 + cycle * 10 + index + 1,
            )
            requests.extend(
                dataclasses.replace(r, arrival_ms=round(r.arrival_ms + start_ms, 6))
                for r in crowd
            )
    requests.sort(key=lambda r: r.arrival_ms)
    return [dataclasses.replace(r, request_id=i) for i, r in enumerate(requests)], None


FLEET_REQUESTS = 10_000
FLEET_RATE_RPS = 2800.0
FLEET_REPLICAS = 4
FAULTS_PER_REPLICA = 4


def staggered_faults(seed: int, span_ms: float) -> FaultSchedule:
    """Per replica, FAULTS_PER_REPLICA crashes (each down for 1/400 of the
    span) and as many slowdowns: one of each per slot of
    span / FAULTS_PER_REPLICA.  The replicas take turns: replica r crashes
    in the r-th quarter of each slot, at a seeded point, so no two replicas
    are ever down together.

    ``FaultSchedule.generate`` draws exponential gaps instead.  At 16
    crashes per replica its crash count and overlaps varied with the seed,
    and so did the re-routed work: 2k to 11k retries over 10k requests,
    which moved the play time by 30% from seed to seed.  Four staggered
    crashes per replica give about 230 retries and a 4% spread."""
    rng = random.Random(f"perfbench-faults:{seed}")
    slot = span_ms / FAULTS_PER_REPLICA
    quarter = slot / FLEET_REPLICAS
    events = []
    for k in range(FAULTS_PER_REPLICA):
        for rid in range(FLEET_REPLICAS):
            crash_ms = k * slot + (rid + rng.uniform(0.1, 0.6)) * quarter
            events.append(ReplicaCrash(at_ms=round(crash_ms, 6), replica_id=rid))
            events.append(
                ReplicaRecover(at_ms=round(crash_ms + span_ms / 400.0, 6), replica_id=rid)
            )
            events.append(
                ReplicaSlowdown(
                    at_ms=round(k * slot + rng.uniform(0.0, 1.0) * slot, 6),
                    replica_id=rid,
                    factor=round(rng.uniform(1.5, 4.0), 6),
                    duration_ms=span_ms / 200.0,
                )
            )
    return FaultSchedule(events)


def prefix_crash_trace(seed: int):
    """Prefix-shared traffic from 16 tenants at ~65% of a 4-replica
    fleet's capacity, with a seeded, staggered fault schedule."""
    requests = prefix_shared_workload(
        num_requests=FLEET_REQUESTS,
        rate_rps=FLEET_RATE_RPS,
        num_tenants=16,
        system_prompt_tokens=48,
        tenant_template_tokens=16,
        mean_unique_tokens=16,
        mean_output_tokens=32,
        seed=seed,
    )
    return requests, staggered_faults(seed, max(r.arrival_ms for r in requests))


def steady_trace(seed: int):
    """Poisson traffic at ~70% of one replica: short queues, no crowds."""
    return (
        steady_workload(
            num_requests=6000,
            rate_rps=800.0,
            mean_prompt_tokens=64,
            mean_output_tokens=32,
            seed=seed,
        ),
        None,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    compile: CompileSpec
    serve: ServeSpec
    # Seconds of serve plays per run; None means the run's ``--seconds``.
    # compile-buckets' measurement is its compile phases, and its short
    # baseline plays need only a couple of seconds.
    serve_seconds: Optional[float] = None
    executor_check: bool = False


WORKLOADS: Dict[str, Workload] = {
    "compile-buckets": Workload(
        name="compile-buckets",
        compile=CompileSpec("h100", PAPER_MODELS, PAPER_BUCKETS),
        serve=ServeSpec(trace=steady_trace, backend="baseline", workload_label="steady"),
        serve_seconds=2.0,
        executor_check=True,
    ),
    "serve-backlog": Workload(
        name="serve-backlog",
        compile=CompileSpec("a100", (SIM_MODEL,), SIM_BUCKETS),
        serve=ServeSpec(trace=flash_crowd_trace, scheduler="slo", workload_label="diurnal"),
    ),
    "fleet-prefix-crash": Workload(
        name="fleet-prefix-crash",
        compile=CompileSpec("a100", (SIM_MODEL,), SIM_BUCKETS),
        serve=ServeSpec(
            trace=prefix_crash_trace,
            replicas=FLEET_REPLICAS,
            router="prefix-affinity",
            kv_budget_blocks=80,
            workload_label="prefix-shared",
        ),
    ),
}


# --------------------------------------------------------------------------- #
# Compile phase
# --------------------------------------------------------------------------- #
@dataclass
class LabeledRequests:
    labels: List[str]
    requests: list


def build_requests(spec: CompileSpec, order_seed: Optional[int] = None) -> LabeledRequests:
    """Every ``StepLatencyModel.precompile_requests`` program of ``spec``,
    labeled ``arch/model/b<bucket>/<index>``.  ``order_seed`` shuffles the
    submission order (results do not depend on it)."""
    import random

    model = StepLatencyModel(arch=spec.arch, buckets=spec.buckets)
    labels, requests = [], []
    for config in spec.models:
        for bucket in spec.buckets:
            batch = model.precompile_requests(config, "hexcute", buckets=[bucket])
            labels += [f"{spec.arch}/{config.name}/b{bucket}/{i}" for i in range(len(batch))]
            requests += batch
    if order_seed is not None:
        order = list(range(len(requests)))
        random.Random(order_seed).shuffle(order)
        labels = [labels[i] for i in order]
        requests = [requests[i] for i in order]
    return LabeledRequests(labels, requests)


@dataclass
class CompilePhase:
    seconds: float  # reference seconds
    wall_s: float  # the same steps in wall seconds, the unit of pass_stats
    results: list
    labels: List[str]
    cache: CompileCache
    memo_hits: int = 0
    memo_misses: int = 0


def _memo_totals() -> Tuple[int, int]:
    from repro.utils.memo import cache_stats

    infos = cache_stats().values()
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_compile(
    spec: CompileSpec, batch: LabeledRequests, cache_path: str, cold: bool, meter: Meter
) -> CompilePhase:
    """One compile phase over ``batch``.  Cold starts from an empty store
    at ``cache_path``; replay loads the store the cold phase wrote.  Cache
    construction (the disk load) and the final store flush are timed: a
    warm startup pays them.  Each request is its own ``compile_many`` call
    and its own meter step; the cache's deferred-write scope keeps the
    store to one flush, as a batched call would."""
    if cold and os.path.exists(cache_path):
        os.remove(cache_path)
    clear_caches()
    clear_smem_cache()
    mark, wall_mark = meter.seconds, meter.wall_s
    cache = meter.step(CompileCache, max_entries=4096, disk_path=cache_path)
    results = []
    with cache.deferred_writes():
        for request in batch.requests:
            results += meter.step(
                compile_many, [request], arch=spec.arch, cache=cache, max_workers=1,
                return_errors=True,
            )
        meter.step(cache.flush)
    hits, misses = _memo_totals()
    return CompilePhase(
        meter.seconds - mark, meter.wall_s - wall_mark, results, batch.labels, cache, hits, misses
    )


# --------------------------------------------------------------------------- #
# Setup and serve phase
# --------------------------------------------------------------------------- #
SETUP_CACHE = "setup-cache.json"
COMPILE_CACHE = "compile-cache.json"


@dataclass
class Setup:
    seconds: float
    generate_s: float
    requests: list
    faults: Optional[FaultSchedule]
    simulator: object
    step_model: StepLatencyModel
    compile_requests: LabeledRequests
    cold: Optional[CompilePhase] = None


def setup(workload: Workload, seed: int, scratch: str, meter: Meter) -> Setup:
    """Build the inputs and the simulator; for hexcute serving also run
    the step-bucket warm-up (cold bucket compile + one lookup per bucket).

    ``compile-buckets`` builds its bucket programs here; its cold compile
    is the measured compile phase, not part of set-up.
    """
    spec, serve = workload.compile, workload.serve
    mark = meter.seconds
    (requests, faults), generate_s = meter.timed(serve.trace, seed)
    batch = meter.step(build_requests, spec, order_seed=seed)

    cold = None
    step_model = StepLatencyModel(arch="a100", buckets=SIM_BUCKETS)
    if serve.backend == "hexcute":
        cold = run_compile(spec, batch, os.path.join(scratch, SETUP_CACHE), cold=True, meter=meter)
        step_model.cache = cold.cache

    def warm_up():
        # One lookup per bucket: replays of the cold compiles for hexcute,
        # analytical memo fills for the library baseline.
        for bucket in SIM_BUCKETS:
            step_model.operator_latencies_us(SIM_MODEL, serve.backend, bucket, parallel=False)
        return make_simulator(workload, step_model, seed)

    simulator = meter.step(warm_up)
    return Setup(
        seconds=meter.seconds - mark,
        generate_s=generate_s,
        requests=requests,
        faults=faults,
        simulator=simulator,
        step_model=step_model,
        compile_requests=batch,
        cold=cold,
    )


def make_simulator(workload: Workload, step_model: StepLatencyModel, seed: int):
    """The workload's simulator (one replica or a fleet) on ``step_model``."""
    serve = workload.serve
    common = dict(
        backend=serve.backend,
        scheduler=serve.scheduler,
        arch=step_model.arch,
        max_batch_size=MAX_BATCH,
        step_model=step_model,
        kv_budget_blocks=serve.kv_budget_blocks,
    )
    if serve.replicas > 1:
        return ClusterSimulator(
            SIM_MODEL, replicas=serve.replicas, router=serve.router, seed=seed, **common
        )
    return ServingSimulator(SIM_MODEL, **common)


@dataclass
class ServeRep:
    seconds: float
    report: Optional[object]
    digest: str
    digest_s: float
    served: int  # completed + shed


def serve_once(workload: Workload, state: Setup, meter: Meter, span=None) -> ServeRep:
    """Play the trace once as one meter step; ``span(name, fn)`` wraps the
    (untimed) digest call when tracing."""
    label = workload.serve.workload_label
    if workload.serve.replicas > 1:
        report, seconds = meter.timed(
            state.simulator.simulate, state.requests, workload=label, faults=state.faults
        )
    else:
        report, seconds = meter.timed(state.simulator.simulate, state.requests, workload=label)
    digest_start = time.perf_counter()
    digest = span("serving.report.digest", report.digest) if span else report.digest()
    digest_s = time.perf_counter() - digest_start
    return ServeRep(seconds, report, digest, digest_s, report.num_requests + report.shed)


def scratch_dir(root: str) -> tempfile.TemporaryDirectory:
    """A temporary directory under ``root`` (inside the checkout), removed on exit."""
    os.makedirs(root, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=root)
