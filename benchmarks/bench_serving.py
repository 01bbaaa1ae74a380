"""Serving-level benchmark: continuous batching over the Fig. 13 models.

Sweeps the three paper models (DeepSeek-R1-AWQ, Jamba-mini-1.7, Qwen-3-32B)
x (hexcute, baseline) backends x the continuous-batching schedulers, playing
one seeded workload per model through the discrete-event simulator, and
reports throughput, p50/p95/p99 request latency, TTFT, SLO attainment and
batch occupancy.  A second sweep composes replicas into a
**cluster** (replica count x routing policy over one bursty workload) and
reports fleet throughput, tail latency, load imbalance and KV spread.

It also measures **serving startup**: precompiling every decode batch
bucket through ``repro.pipeline.compile_many`` with a cold compile cache
versus a warm one (warm startup only verifies fingerprints; it must be at
least 2x faster — it is orders of magnitude faster in practice).

The guards that make this CI-able (``--smoke``): each sweep cell is
simulated twice with identically seeded inputs and must produce bit-equal
``ServeReport`` digests; the regenerated workload itself must be
identical; a **memory-pressure** run against a deliberately tight KV
block budget must report preemptions > 0 with KV utilization <= 1.0 and a
bit-equal digest on a second run; a **prefix-sharing** cell must hit the
prefix cache under full sharing and digest bit-equal across two runs;
every cluster cell must be digest-stable across two runs; a
**single-replica cluster must be digest-identical to the bare simulator**
under every routing policy; under bursty load ``least-loaded`` routing
must not lose to ``round-robin`` on p99 latency; a **fault-tolerance**
cell under a fixed crash/recovery schedule must digest bit-equal across
two runs and report availability < 1 with goodput > 0 while conserving
every request; and a **cross-backend** cell must serve the same seeded
workload through the ``cpu-sim`` codegen backend digest-stably (and
distinctly from the cuda serve), a ``lazy=True`` step model must serve
digest-identically to the eager precompiled model, and the lazy serve
must compile strictly fewer bucket cells than ``precompile()`` covers.
Any violation exits nonzero.

Run with:  PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.e2e import DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B
from repro.pipeline import CompileCache
from repro.reporting import geometric_mean
from repro.serving import (
    DEFAULT_BATCH_BUCKETS,
    ClusterSimulator,
    ROUTERS,
    ServingSimulator,
    StepLatencyModel,
    bursty_workload,
    format_cluster_reports,
    format_reports,
    make_workload,
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


def run_memory_pressure_check(args, configs, step_model, num_requests: int, failures: List[str]):
    """Constrained-KV run: preemptions must occur, utilization must stay
    within the pool, and two identically seeded runs must be bit-equal."""
    config = configs[0]
    workload = pressure_workload(num_requests, args.seed)
    # A budget about twice the largest single-request footprint: every
    # request is individually feasible, but concurrent growth is not.
    budget = 2 * max(
        blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in workload
    )
    reports = []
    for scheduler in ("fcfs", "memory-aware"):
        def run():
            sim = ServingSimulator(
                config,
                backend="hexcute",
                scheduler=scheduler,
                arch=args.arch,
                max_batch_size=8,
                kv_budget_blocks=budget,
                step_model=step_model,
            )
            return sim.simulate(workload, workload="memory-pressure")

        report = run()
        if report.digest() != run().digest():
            failures.append(f"nondeterministic memory-pressure serve: {report.label()}")
        if report.preemptions <= 0:
            failures.append(
                f"memory-pressure run produced no preemptions ({report.label()}, "
                f"budget {budget} blocks)"
            )
        if not 0.0 < report.kv_peak_utilization <= 1.0:
            failures.append(
                f"KV peak utilization out of range: {report.kv_peak_utilization} "
                f"({report.label()})"
            )
        if report.num_requests != len(workload):
            failures.append(f"memory-pressure run lost requests: {report.label()}")
        reports.append(report)
        print(report.summary())
    return reports


def run_prefix_sharing_check(args, configs, step_model, num_requests: int, failures: List[str]):
    """The prefix-cache smoke cell: a multi-tenant shared-prompt workload
    must digest bit-equal across two runs and actually hit the cache."""
    from repro.serving import prefix_shared_workload

    config = configs[0]
    shared = prefix_shared_workload(
        num_requests=num_requests, rate_rps=2000.0, num_tenants=4, seed=args.seed
    )
    budget = 2 * max(
        blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in shared
    )

    def run():
        sim = ServingSimulator(
            config,
            backend="hexcute",
            scheduler="fcfs",
            arch=args.arch,
            max_batch_size=8,
            kv_budget_blocks=budget,
            step_model=step_model,
        )
        return sim.simulate(shared, workload="prefix-shared")

    report = run()
    if report.digest() != run().digest():
        failures.append(f"nondeterministic prefix-shared serve: {report.label()}")
    if report.prefix_hit_rate <= 0.0 or report.prefix_hits <= 0:
        failures.append(
            f"prefix-shared run never hit the cache (hit rate "
            f"{report.prefix_hit_rate:.2f}, {report.label()})"
        )
    if report.num_requests != len(shared):
        failures.append(f"prefix-shared run lost requests: {report.label()}")
    print(report.summary())
    print(
        f"prefix cache: {report.prefix_hits} hits / {report.prefix_misses} misses "
        f"(hit rate {report.prefix_hit_rate:.2f}), "
        f"{report.prefix_blocks_saved} blocks saved"
    )
    return [report]


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


def run_cluster_sweep(args, config, step_model, failures: List[str]):
    """Replica-count x routing-policy sweep over one bursty workload, with
    the digest-stability, single-replica-identity and least-loaded-vs-
    round-robin p99 checks."""
    routers = [r.strip() for r in args.routers.split(",") if r.strip()]
    if args.replicas is not None:
        replica_counts = [int(n) for n in args.replicas.split(",") if n.strip()]
    else:
        replica_counts = [1, 2] if args.smoke else [1, 2, 4]
    num_requests = 32 if args.smoke else 64
    workload = cluster_workload(num_requests, args.seed)

    bare = ServingSimulator(
        config, backend="hexcute", scheduler="fcfs", arch=args.arch,
        max_batch_size=8, step_model=step_model,
    )
    bare_digest = bare.simulate(workload, workload="bursty").digest()

    reports = []
    p99 = {}
    for replicas in replica_counts:
        for router in routers:
            def run():
                cluster = ClusterSimulator(
                    config,
                    replicas=replicas,
                    router=router,
                    backend="hexcute",
                    scheduler="fcfs",
                    arch=args.arch,
                    max_batch_size=8,
                    step_model=step_model,
                    seed=args.seed,
                )
                return cluster.simulate(workload, workload="bursty")

            report = run()
            if report.digest() != run().digest():
                failures.append(f"nondeterministic cluster serve: {report.label()}")
            if report.num_requests != len(workload):
                failures.append(f"cluster lost requests: {report.label()}")
            if replicas == 1 and report.digest() != bare_digest:
                failures.append(
                    f"1-replica cluster not bit-identical to the bare simulator "
                    f"under {router!r} routing"
                )
            reports.append(report)
            p99[(replicas, router)] = report.latency_percentile_ms(99)
            print(report.summary())

    check_at = max(n for n in replica_counts if n > 1) if any(
        n > 1 for n in replica_counts
    ) else None
    if check_at and {"least-loaded", "round-robin"} <= set(routers):
        ll, rr = p99[(check_at, "least-loaded")], p99[(check_at, "round-robin")]
        print(
            f"\np99 under bursty load at {check_at} replicas: "
            f"least-loaded {ll:.0f} ms vs round-robin {rr:.0f} ms"
        )
        if ll > rr:
            failures.append(
                f"least-loaded routing lost to round-robin on p99 under bursty "
                f"load ({ll:.0f} ms vs {rr:.0f} ms at {check_at} replicas)"
            )
    return reports


def run_fault_tolerance_check(args, config, step_model, failures: List[str]):
    """The fault-injection smoke cell: a fixed crash/recovery schedule on
    a small cluster must (a) digest bit-equal across two runs and (b)
    report the outage (availability < 1) while still doing useful work
    (goodput > 0) and conserving every request."""
    from repro.serving import FaultSchedule, ReplicaCrash, ReplicaRecover

    workload = cluster_workload(32 if args.smoke else 64, args.seed)
    span = max(r.arrival_ms for r in workload)
    schedule = FaultSchedule(
        [
            ReplicaCrash(round(0.25 * span, 3), 0),
            ReplicaRecover(round(0.75 * span, 3), 0),
        ]
    )

    def run():
        cluster = ClusterSimulator(
            config,
            replicas=2,
            router="least-loaded",
            backend="hexcute",
            scheduler="fcfs",
            arch=args.arch,
            max_batch_size=8,
            step_model=step_model,
            seed=args.seed,
        )
        return cluster.simulate(workload, workload="bursty", faults=schedule)

    report = run()
    if report.digest() != run().digest():
        failures.append(f"nondeterministic faulted serve: {report.label()}")
    if report.crashes != 1 or not report.availability < 1.0:
        failures.append(
            f"crash schedule left no outage trace (crashes={report.crashes}, "
            f"availability={report.availability:.3f}, {report.label()})"
        )
    if not report.goodput_tok_s > 0.0:
        failures.append(f"faulted run produced no goodput: {report.label()}")
    if report.num_requests != len(workload):
        failures.append(
            f"faulted run lost requests ({report.num_requests}/{len(workload)}, "
            f"{report.label()})"
        )
    print(report.summary())
    print(
        f"fault injection: {report.retries} retries, {report.failovers} "
        f"failovers, availability {report.availability * 100.0:.1f}%, "
        f"goodput {report.goodput_tok_s:.0f} tok/s"
    )
    return [report]


def run_cross_backend_check(
    args, configs, eager_model, buckets, num_requests: int, max_batch: int,
    failures: List[str],
):
    """The backend-registry smoke cell.

    (a) **cuda vs cpu-sim sweep**: the same seeded workload served on the
    ``cpu-sim`` arch — kernel compilation dispatches through the cpu
    codegen backend — must be digest-stable across two runs and must not
    collide with the cuda serve's digest.  (b) **lazy vs eager**: a
    ``lazy=True`` step model (cold cache, nothing precompiled) must
    produce bit-identical serve digests to the eager precompiled model.
    (c) **lazy compiles less**: the lazy serve must compile strictly
    fewer (config, backend, bucket) cells than the eager
    ``precompile()`` fan-out covers.
    """
    # Prefer an fp16 model: the cpu-sim arch sits on the pre-Hopper
    # instruction tier, so fp8 FFN kernels are not compilable there.
    config = next((c for c in configs if c.weight_dtype == "fp16"), configs[0])
    workload = build_workload(args, num_requests)

    def serve(step_model, arch, scheduler="fcfs"):
        sim = ServingSimulator(
            config,
            backend="hexcute",
            scheduler=scheduler,
            arch=arch,
            max_batch_size=max_batch,
            step_model=step_model,
        )
        return sim.simulate(workload, workload=args.workload)

    # (a) the cpu-sim serve, lazily compiled through the cpu backend.
    cpu_model = StepLatencyModel(
        arch="cpu-sim", buckets=buckets, cache=CompileCache(max_entries=2048),
        lazy=True,
    )
    cpu_report = serve(cpu_model, "cpu-sim")
    cuda_report = serve(eager_model, args.arch)
    if cpu_report.digest() != serve(cpu_model, "cpu-sim").digest():
        failures.append(f"nondeterministic cpu-sim serve: {cpu_report.label()}")
    if cpu_report.digest() == cuda_report.digest():
        failures.append(
            "cpu-sim serve digest collides with the cuda serve — the arch/"
            "backend is not reaching the report"
        )
    if cpu_model.buckets_compiled <= 0:
        failures.append("cpu-sim serve never compiled a bucket cell")
    print(cpu_report.summary())

    # (b) + (c) lazy vs eager on the primary arch, from a cold cache.
    lazy_model = StepLatencyModel(
        arch=args.arch, buckets=buckets, cache=CompileCache(max_entries=2048),
        lazy=True,
    )
    lazy_stats = lazy_model.precompile([config])
    if lazy_stats.compiled != 0 or lazy_stats.errors != 0:
        failures.append(
            f"lazy precompile did not defer (compiled={lazy_stats.compiled}, "
            f"errors={lazy_stats.errors})"
        )
    if lazy_model.compiles_deferred <= 0:
        failures.append("lazy precompile on a cold cache deferred nothing")
    for scheduler in ("fcfs", "slo"):
        lazy_report = serve(lazy_model, args.arch, scheduler)
        eager_report = serve(eager_model, args.arch, scheduler)
        if lazy_report.digest() != eager_report.digest():
            failures.append(
                f"lazy serve not bit-identical to eager ({scheduler}): "
                f"{lazy_report.digest()} vs {eager_report.digest()}"
            )
    if lazy_model.buckets_compiled <= 0:
        failures.append("lazy serving compiled no bucket cell")
    if eager_model.buckets_compiled or eager_model.compiles_deferred:
        failures.append(
            f"eager model counted lazy compiles: {eager_model.buckets_compiled}"
            f"/{eager_model.compiles_deferred}"
        )
    eager_cells = len(configs) * len(buckets)
    if not lazy_model.buckets_compiled < eager_cells:
        failures.append(
            f"lazy serving compiled {lazy_model.buckets_compiled} bucket cells, "
            f"not strictly fewer than the {eager_cells} eager precompile covers"
        )
    print(
        f"cross-backend: cpu-sim digest stable and distinct from cuda "
        f"({cpu_model.buckets_compiled} cpu bucket cells compiled lazily); "
        f"lazy == eager digests on fcfs/slo with "
        f"{lazy_model.buckets_compiled}/{eager_cells} bucket cells compiled "
        f"({lazy_model.compiles_deferred} tile programs deferred at startup)"
    )
    return [cpu_report]


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

    config = MODELS[args.models.split(",")[0].strip()]
    num_requests = args.requests if args.requests is not None else 5000
    max_batch = args.max_batch if args.max_batch is not None else 16
    workload = build_workload(args, num_requests)
    sim = ServingSimulator(
        config, backend="hexcute", scheduler=args.schedulers.split(",")[0].strip(),
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
    configs = [MODELS[name.strip()] for name in args.models.split(",") if name.strip()]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    buckets = tuple(b for b in DEFAULT_BATCH_BUCKETS if b <= max_batch) or (max_batch,)

    failures: List[str] = []

    # ------------------------------------------------------------------ #
    # Serving startup: cold vs warm bucket precompilation.
    # ------------------------------------------------------------------ #
    cache = CompileCache(max_entries=2048)
    cold_model = StepLatencyModel(arch=args.arch, buckets=buckets, cache=cache)
    cold = cold_model.precompile(configs)
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

    # ------------------------------------------------------------------ #
    # The sweep: one seeded workload per model, shared across cells.
    # ------------------------------------------------------------------ #
    reports = []
    throughput = {}
    for config in configs:
        workload = build_workload(args, num_requests)
        replayed = build_workload(args, num_requests)
        if workload != replayed:
            failures.append(f"workload generation is nondeterministic for {config.name}")
        for backend in backends:
            for scheduler in schedulers:
                def run():
                    sim = ServingSimulator(
                        config,
                        backend=backend,
                        scheduler=scheduler,
                        arch=args.arch,
                        max_batch_size=max_batch,
                        step_model=warm_model,
                    )
                    return sim.simulate(workload, workload=args.workload)

                report = run()
                rerun = run()
                if report.digest() != rerun.digest():
                    failures.append(f"nondeterministic serve: {report.label()}")
                reports.append(report)
                throughput[(config.name, backend, scheduler)] = report.throughput_tok_s
                print(report.summary())

    print()
    print(
        format_reports(
            f"Serving: {args.workload} x{num_requests}, max batch {max_batch} ({args.arch})",
            reports,
        )
    )

    # ------------------------------------------------------------------ #
    # KV memory pressure: preemptions must fire, deterministically.
    # ------------------------------------------------------------------ #
    print()
    pressure_reports = run_memory_pressure_check(
        args, configs, warm_model, num_requests, failures
    )
    print()
    print(
        format_reports(
            f"Memory pressure: tight KV budget, max batch 8 ({args.arch})",
            pressure_reports,
        )
    )

    # ------------------------------------------------------------------ #
    # Prefix sharing: cache hits, deterministically.
    # ------------------------------------------------------------------ #
    print()
    prefix_reports = run_prefix_sharing_check(
        args, configs, warm_model, num_requests, failures
    )
    print()
    print(
        format_reports(
            f"Prefix sharing: multi-tenant shared prompts, max batch 8 ({args.arch})",
            prefix_reports,
        )
    )

    # ------------------------------------------------------------------ #
    # Cluster: replica count x routing policy over bursty fleet traffic.
    # ------------------------------------------------------------------ #
    print()
    cluster_reports = run_cluster_sweep(args, configs[0], warm_model, failures)
    print()
    print(
        format_cluster_reports(
            f"Cluster: bursty x{32 if args.smoke else 64}, "
            f"{configs[0].name}, max batch 8/replica ({args.arch})",
            cluster_reports,
        )
    )

    # ------------------------------------------------------------------ #
    # Fault tolerance: crash/recovery must be deterministic and conserve
    # requests.
    # ------------------------------------------------------------------ #
    print()
    fault_reports = run_fault_tolerance_check(args, configs[0], warm_model, failures)
    print()
    print(
        format_cluster_reports(
            f"Fault tolerance: mid-run crash, 2 replicas, {configs[0].name} ({args.arch})",
            fault_reports,
        )
    )

    # ------------------------------------------------------------------ #
    # Cross-backend: cpu-sim codegen serve + lazy-vs-eager compilation.
    # ------------------------------------------------------------------ #
    print()
    cross_reports = run_cross_backend_check(
        args, configs, warm_model, buckets, num_requests, max_batch, failures
    )
    print()
    print(
        format_reports(
            f"Cross-backend: {args.workload} x{num_requests}, cpu-sim codegen "
            f"({cross_reports[0].model})",
            cross_reports,
        )
    )

    if "hexcute" in backends and "baseline" in backends:
        ratios = [
            throughput[(config.name, "hexcute", sched)]
            / max(throughput[(config.name, "baseline", sched)], 1e-9)
            for config in configs
            for sched in schedulers
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
