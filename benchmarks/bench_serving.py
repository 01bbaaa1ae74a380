"""Serving-level benchmark: continuous batching over the Fig. 13 models.

Sweeps the three paper models (DeepSeek-R1-AWQ, Jamba-mini-1.7, Qwen-3-32B)
x (hexcute, baseline) backends x the continuous-batching schedulers over
one seeded workload, then serves a tight KV budget, shared prompt
prefixes, a replica-count x routing-policy **cluster** sweep, a mid-run
replica crash and the ``cpu-sim`` codegen backend.  It reports throughput,
p50/p95/p99 latency, TTFT, SLO attainment and batch occupancy (fleets:
load imbalance and KV spread).  It also measures **serving startup**:
precompiling every decode batch bucket through
``repro.pipeline.compile_many`` with a cold compile cache versus a warm one.

Every serve is one :class:`Cell` of a table (:func:`cell_table`), and one
runner (:func:`play`) plays each cell twice: the regenerated workload must
be identical, the two digests bit-equal and every request completed or
shed.  Then the cell's own checks apply: the memory-pressure cells must preempt with KV
utilization in (0, 1], the prefix cell must hit the cache, and the crash
cell must report availability < 1 with goodput > 0.  The gates that compare
cells are explicit: warm startup at least 2x faster than cold; a
**single-replica cluster digest-identical to the bare simulator** under
every routing policy; ``least-loaded`` no worse than ``round-robin`` on p99
under bursty load; and the cpu-sim serve distinct from the cuda one, while
a step model whose ``precompile()`` never ran serves digest-identically to
the precompiled model and puts strictly fewer compile-cache entries than
startup compiled.  ``--smoke`` runs every check on a small workload; any
violation exits nonzero.

Run with:  PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.e2e import DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B, ModelConfig
from repro.pipeline import CompileCache
from repro.reporting import geometric_mean
from repro.serving import (
    DEFAULT_BATCH_BUCKETS,
    ClusterSimulator,
    FaultSchedule,
    ROUTERS,
    ReplicaCrash,
    ReplicaRecover,
    ServingSimulator,
    StepLatencyModel,
    bursty_workload,
    format_reports,
    make_workload,
    prefix_shared_workload,
)
from repro.serving.memory import blocks_for_tokens
from repro.sim.arch import DEFAULT_EVAL_ARCH

MODELS = {
    "deepseek": DEEPSEEK_R1_AWQ,
    "jamba": JAMBA_MINI,
    "qwen": QWEN3_32B,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload: fewer requests, smaller batches, same checks",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the simulator hot loop on one serve and print the top "
        "functions (kernel compilation is warmed up first so the profile "
        "shows the discrete-event loop, not the compiler)",
    )
    parser.add_argument("--arch", default=DEFAULT_EVAL_ARCH, help="a100 or h100")
    parser.add_argument(
        "--models", default="deepseek,jamba,qwen", help=f"comma list of {sorted(MODELS)}"
    )
    parser.add_argument("--backends", default="hexcute,baseline")
    parser.add_argument("--schedulers", default="fcfs,slo,max-batch,memory-aware")
    parser.add_argument(
        "--workload", default="steady",
        help="steady, bursty, heavy-tail, or memory-pressure",
    )
    parser.add_argument("--requests", type=int, default=None, help="requests per cell")
    parser.add_argument("--rate-rps", type=float, default=None, help="arrival rate")
    parser.add_argument("--max-batch", type=int, default=None, help="max decode batch")
    parser.add_argument(
        "--replicas", default=None,
        help="comma list of cluster sizes to sweep (default: 1,2 smoke / 1,2,4 full)",
    )
    parser.add_argument(
        "--routers", default=",".join(sorted(ROUTERS)),
        help=f"comma list of routing policies ({sorted(ROUTERS)})",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def split(names: str) -> List[str]:
    return [name.strip() for name in names.split(",") if name.strip()]


def build_workload(args, num_requests: int) -> List:
    kwargs = {"num_requests": num_requests, "seed": args.seed}
    if args.workload in ("steady", "heavy-tail", "memory-pressure") and args.rate_rps is not None:
        kwargs["rate_rps"] = args.rate_rps
    return make_workload(args.workload, **kwargs)


def pressure_workload(num_requests: int, seed: int) -> List:
    """The KV-pressure traffic of the smoke check: near-simultaneous
    arrivals, short prompts (cheap admission packs the batch) and long
    outputs (every running request keeps growing its block footprint)."""
    return make_workload(
        "memory-pressure",
        num_requests=num_requests,
        rate_rps=2000.0,
        mean_prompt_tokens=16,
        mean_output_tokens=96,
        max_prompt_tokens=64,
        max_output_tokens=192,
        seed=seed,
    )


def cluster_workload(num_requests: int, seed: int) -> List:
    """Bursty fleet traffic: recurring near-simultaneous bursts that
    overflow one replica's batch slots, with exponentially distributed
    output lengths so round-robin drifts out of balance."""
    return bursty_workload(
        num_requests=num_requests,
        burst_size=16,
        burst_interval_ms=2000.0,
        mean_prompt_tokens=512,
        mean_output_tokens=96,
        seed=seed,
    )


# The per-cell checks: (predicate on the report, failure message formatted
# with the report as ``r``).
PRESSURE_CHECKS = (
    (lambda r: r.preemptions > 0,
     "memory-pressure run produced no preemptions (budget {r.kv_total_blocks} blocks)"),
    (lambda r: 0.0 < r.kv_peak_utilization <= 1.0,
     "KV peak utilization out of range: {r.kv_peak_utilization}"),
)
PREFIX_CHECKS = (
    (lambda r: r.prefix_hit_rate > 0.0 and r.prefix_hits > 0,
     "prefix-shared run never hit the cache (hit rate {r.prefix_hit_rate:.2f})"),
)
FAULT_CHECKS = (
    (lambda r: r.crashes == 1 and r.availability < 1.0,
     "crash schedule left no outage trace (crashes={r.crashes}, "
     "availability={r.availability:.3f})"),
    (lambda r: r.goodput_tok_s > 0.0, "faulted run produced no goodput"),
)


def tight_budget(requests) -> int:
    """A KV budget about twice the largest single-request footprint: every
    request is individually feasible, but concurrent growth is not."""
    return 2 * max(blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in requests)


@dataclass
class Cell:
    """One serve of the bench: ``replicas=0`` plays a bare
    :class:`ServingSimulator`, otherwise a :class:`ClusterSimulator`."""

    config: ModelConfig
    workload: Callable[[], List]
    label: str
    arch: str
    step_model: StepLatencyModel
    seed: int
    backend: str = "hexcute"
    scheduler: str = "fcfs"
    max_batch: int = 8
    replicas: int = 0
    router: str = "round-robin"
    kv_budget: Optional[int] = None
    faults: Optional[FaultSchedule] = None
    checks: tuple = ()  # e.g. PRESSURE_CHECKS


def simulate(cell: Cell, requests: List):
    """One play of ``cell`` over ``requests`` on a freshly built simulator."""
    common = dict(
        backend=cell.backend, scheduler=cell.scheduler, arch=cell.arch,
        max_batch_size=cell.max_batch, step_model=cell.step_model,
        kv_budget_blocks=cell.kv_budget,
    )
    if cell.replicas:
        cluster = ClusterSimulator(
            cell.config, replicas=cell.replicas, router=cell.router, seed=cell.seed, **common
        )
        return cluster.simulate(requests, workload=cell.label, faults=cell.faults)
    return ServingSimulator(cell.config, **common).simulate(requests, workload=cell.label)


def play(cell: Cell, failures: List[str]):
    """Play ``cell`` twice: the regenerated workload must be identical, the
    digests bit-equal and every request completed or shed.  Then apply the
    cell's own checks."""
    requests = cell.workload()
    report = simulate(cell, requests)
    regenerated = cell.workload()
    where = f"{report.label()} ({cell.label})"
    if regenerated != requests:
        failures.append(f"workload generation is nondeterministic: {where}")
    if simulate(cell, regenerated).digest() != report.digest():
        failures.append(f"nondeterministic serve: {where}")
    served = report.num_requests + report.shed
    if served != len(requests):
        failures.append(f"lost requests ({served}/{len(requests)} completed or shed): {where}")
    for predicate, message in cell.checks:
        if not predicate(report):
            failures.append(f"{message.format(r=report)}: {where}")
    print(report.summary())
    return report


def cell_table(args, configs, step_model, num_requests: int, max_batch: int) -> dict:
    """Every section of the bench: name -> (table title, cells)."""
    cell = functools.partial(Cell, arch=args.arch, step_model=step_model, seed=args.seed)
    config = configs[0]
    traffic = functools.partial(build_workload, args, num_requests)
    pressure = functools.partial(pressure_workload, num_requests, args.seed)
    shared = functools.partial(
        prefix_shared_workload, num_requests=num_requests, rate_rps=2000.0, num_tenants=4,
        seed=args.seed,
    )
    fleet_requests = 32 if args.smoke else 64
    bursty = functools.partial(cluster_workload, fleet_requests, args.seed)
    span = max(r.arrival_ms for r in bursty())
    crash = FaultSchedule(
        [ReplicaCrash(round(0.25 * span, 3), 0), ReplicaRecover(round(0.75 * span, 3), 0)]
    )
    if args.replicas is not None:
        replica_counts = [int(n) for n in split(args.replicas)]
    else:
        replica_counts = [1, 2] if args.smoke else [1, 2, 4]
    # Prefer an fp16 model for cpu-sim: it sits on the pre-Hopper
    # instruction tier, so fp8 FFN kernels are not compilable there.
    fp16 = next((c for c in configs if c.weight_dtype == "fp16"), config)
    cpu_model = StepLatencyModel(
        arch="cpu-sim", buckets=step_model.buckets, cache=CompileCache(max_entries=2048)
    )
    return {
        "sweep": (
            f"Serving: {args.workload} x{num_requests}, max batch {max_batch} ({args.arch})",
            [
                cell(c, traffic, args.workload, backend=backend, scheduler=scheduler,
                     max_batch=max_batch)
                for c in configs for backend in split(args.backends)
                for scheduler in split(args.schedulers)
            ],
        ),
        "pressure": (
            f"Memory pressure: tight KV budget, max batch 8 ({args.arch})",
            [
                cell(config, pressure, "memory-pressure", scheduler=scheduler,
                     kv_budget=tight_budget(pressure()), checks=PRESSURE_CHECKS)
                for scheduler in ("fcfs", "memory-aware")
            ],
        ),
        "prefix": (
            f"Prefix sharing: multi-tenant shared prompts, max batch 8 ({args.arch})",
            [cell(config, shared, "prefix-shared", kv_budget=tight_budget(shared()),
                  checks=PREFIX_CHECKS)],
        ),
        "cluster": (
            f"Cluster: bursty x{fleet_requests}, {config.name}, max batch 8/replica ({args.arch})",
            [
                cell(config, bursty, "bursty", replicas=replicas, router=router)
                for replicas in replica_counts for router in split(args.routers)
            ],
        ),
        "fault": (
            f"Fault tolerance: mid-run crash, 2 replicas, {config.name} ({args.arch})",
            [cell(config, bursty, "bursty", replicas=2, router="least-loaded", faults=crash,
                  checks=FAULT_CHECKS)],
        ),
        "cross": (
            f"Cross-backend: {args.workload} x{num_requests}, cpu-sim codegen ({fp16.name})",
            [cell(fp16, traffic, args.workload, arch="cpu-sim", step_model=cpu_model,
                  max_batch=max_batch)],
        ),
    }


def check_cluster(played, failures: List[str]) -> None:
    """Every 1-replica cluster must be digest-identical to the bare
    simulator, and at the largest fleet least-loaded routing must not lose
    to round-robin on p99."""
    singles = [(cell, report) for cell, report in played if cell.replicas == 1]
    if singles:
        reference = singles[0][0]
        bare = simulate(replace(reference, replicas=0), reference.workload())
        for cell, report in singles:
            if report.digest() != bare.digest():
                failures.append(
                    f"1-replica cluster not bit-identical to the bare simulator "
                    f"under {cell.router!r} routing"
                )
    p99 = {(cell.replicas, cell.router): report.latency_percentile_ms(99) for cell, report in played}
    at = max((cell.replicas for cell, _ in played), default=0)
    if at > 1 and {(at, "least-loaded"), (at, "round-robin")} <= p99.keys():
        ll, rr = p99[(at, "least-loaded")], p99[(at, "round-robin")]
        print(
            f"\np99 under bursty load at {at} replicas: "
            f"least-loaded {ll:.0f} ms vs round-robin {rr:.0f} ms"
        )
        if ll > rr:
            failures.append(
                f"least-loaded routing lost to round-robin on p99 under bursty "
                f"load ({ll:.0f} ms vs {rr:.0f} ms at {at} replicas)"
            )


def check_cross_backend(
    arch: str, cpu_cell: Cell, cpu_report, precompiled: StepLatencyModel,
    precompiled_kernels: int, failures: List[str],
) -> None:
    """(a) **cuda vs cpu-sim**: the cpu-sim serve must have compiled
    through the cpu codegen backend and must not collide with the cuda
    serve's digest.  (b) **never precompiled vs precompiled**: a step model
    whose ``precompile()`` never ran (cold cache) compiles each bucket cell
    on its first lookup and must produce bit-identical fcfs and slo serve
    digests to the precompiled model, whose serves only hit its cache.
    (c) **compiling on first lookup compiles less**: those serves must put
    strictly fewer cache entries than the ``precompiled_kernels`` the
    startup ``precompile()`` compiled."""
    model = StepLatencyModel(
        arch=arch, buckets=precompiled.buckets, cache=CompileCache(max_entries=2048)
    )
    precompiled_puts = precompiled.cache.stats.puts
    for scheduler in ("fcfs", "slo"):
        cuda = replace(cpu_cell, arch=arch, scheduler=scheduler)
        requests = cuda.workload()
        expected = simulate(replace(cuda, step_model=precompiled), requests)
        report = simulate(replace(cuda, step_model=model), requests)
        if report.digest() != expected.digest():
            failures.append(
                f"never-precompiled serve not bit-identical to the precompiled "
                f"one ({scheduler}): {report.digest()} vs {expected.digest()}"
            )
        if scheduler == "fcfs" and expected.digest() == cpu_report.digest():
            failures.append(
                "cpu-sim serve digest collides with the cuda serve — the arch/"
                "backend is not reaching the report"
            )
    if cpu_cell.step_model.cache.stats.puts <= 0:
        failures.append("cpu-sim serve never compiled a kernel")
    if precompiled.cache.stats.puts != precompiled_puts:
        failures.append("the precompiled model compiled while serving")
    puts = model.cache.stats.puts
    if not 0 < puts < precompiled_kernels:
        failures.append(
            f"never-precompiled serving put {puts} cache entries, not strictly "
            f"between 0 and the {precompiled_kernels} kernels precompile() compiled"
        )
    print(
        f"cross-backend: cpu-sim digest stable and distinct from cuda "
        f"({cpu_cell.step_model.cache.stats.puts} cpu kernels compiled on first lookup); "
        f"never-precompiled == precompiled digests on fcfs/slo with {puts} "
        f"kernels compiled on first lookup vs {precompiled_kernels} precompiled"
    )


def run_profile(args) -> int:
    """cProfile one representative serve: where does a simulated second go?

    This is the profile-first step of the simulator-scale work — the
    numbers it surfaced (the per-step waiting-list sort, the per-step
    request-list rebuilds, the O(holdings) pool scan) are what
    ``tests/test_sim_scale.py`` and ``benchmarks/bench_sim_scale.py`` now
    keep optimized.  Kernel compilation is forced before profiling starts
    so the report shows the discrete-event loop, not the compiler.
    """
    import cProfile
    import pstats

    config = MODELS[split(args.models)[0]]
    num_requests = args.requests if args.requests is not None else 5000
    max_batch = args.max_batch if args.max_batch is not None else 16
    workload = build_workload(args, num_requests)
    sim = ServingSimulator(
        config, backend="hexcute", scheduler=split(args.schedulers)[0],
        arch=args.arch, max_batch_size=max_batch,
    )
    for batch in range(1, max_batch + 1):  # compile/memoize outside the profile
        sim.step_model.step_latency_ms(config, "hexcute", batch)
    profiler = cProfile.Profile()
    profiler.enable()
    report = sim.simulate(workload, workload=args.workload)
    profiler.disable()
    print(report.summary())
    print()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(30)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.profile:
        return run_profile(args)
    num_requests = args.requests if args.requests is not None else (24 if args.smoke else 64)
    max_batch = args.max_batch if args.max_batch is not None else (8 if args.smoke else 16)
    configs = [MODELS[name] for name in split(args.models)]
    buckets = tuple(b for b in DEFAULT_BATCH_BUCKETS if b <= max_batch) or (max_batch,)

    failures: List[str] = []

    # Serving startup: cold vs warm bucket precompilation.
    cache = CompileCache(max_entries=2048)
    cold = StepLatencyModel(arch=args.arch, buckets=buckets, cache=cache).precompile(configs)
    warm_model = StepLatencyModel(arch=args.arch, buckets=buckets, cache=cache)
    warm = warm_model.precompile(configs)
    speedup = cold.seconds / max(warm.seconds, 1e-9)
    print(
        f"serving startup, {len(configs)} models x buckets {buckets}: "
        f"cold {cold.seconds:.2f} s ({cold.compiled} kernels compiled from "
        f"{cold.requests} tile programs), warm {warm.seconds * 1000:.1f} ms "
        f"({warm.already_cached} fingerprints already cached) -> {speedup:.0f}x faster"
    )
    if warm.seconds * 2 > cold.seconds:
        failures.append(
            f"warm precompile not >=2x faster than cold ({cold.seconds:.2f}s vs {warm.seconds:.2f}s)"
        )
    if cold.errors or warm.errors:
        failures.append(f"precompile errors: cold={cold.errors} warm={warm.errors}")

    played = {}
    table = cell_table(args, configs, warm_model, num_requests, max_batch)
    for name, (title, cells) in table.items():
        print()
        reports = [play(cell, failures) for cell in cells]
        print()
        print(format_reports(title, reports))
        played[name] = list(zip(cells, reports))

    check_cluster(played["cluster"], failures)
    print()
    check_cross_backend(args.arch, *played["cross"][0], warm_model, cold.compiled, failures)

    throughput = {
        (cell.config.name, cell.backend, cell.scheduler): report.throughput_tok_s
        for cell, report in played["sweep"]
    }
    backends = {backend for _, backend, _ in throughput}
    if {"hexcute", "baseline"} <= backends:
        ratios = [
            tokens / max(throughput[(model, "baseline", scheduler)], 1e-9)
            for (model, backend, scheduler), tokens in throughput.items()
            if backend == "hexcute"
        ]
        print(
            f"\ngeomean serving throughput, hexcute vs baseline: "
            f"{geometric_mean(ratios):.2f}x over {len(ratios)} cells"
        )

    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall determinism and startup checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
