"""Route bursty traffic across a replica fleet under all four routers.

The single-replica examples stop where production starts: a real
deployment puts N tensor-parallel replicas behind a request router, and
the routing policy decides tail latency as much as the schedulers behind
it do.  This walk sizes a small DeepSeek fleet with
``repro.sim.arch.fleet_size``, precompiles the shared step model once
(every replica reuses the same compile cache), then plays one seeded
bursty workload through a 2-replica cluster under each routing policy —
``round-robin``, ``least-loaded``, ``kv-aware`` and
``power-of-two-choices`` — and compares fleet throughput, p99 latency and
load imbalance.

The cluster layer and every routing policy are documented in
``docs/serving.md`` ("Cluster layer" and "Routing policies"); the
benchmark sweeping replicas x routers is ``benchmarks/bench_serving.py``
(see ``docs/benchmarks.md``).

Run with:  PYTHONPATH=src python examples/cluster_routing.py
"""

from repro.e2e import DEEPSEEK_R1_AWQ
from repro.pipeline import CompileCache
from repro.serving import (
    ClusterSimulator,
    ROUTERS,
    StepLatencyModel,
    bursty_workload,
    format_reports,
    kv_bytes_per_token,
    weight_bytes,
)
from repro.sim.arch import fleet_size

REPLICAS = 2


def main():
    # One shared step model: the fleet compiles each kernel shape once and
    # every replica's step latencies are memo hits on the same cache.
    cache = CompileCache(max_entries=512)
    step_model = StepLatencyModel(arch="h100", buckets=(1, 2, 4, 8), cache=cache)
    stats = step_model.precompile(DEEPSEEK_R1_AWQ)
    print(
        f"precompiled {stats.compiled} kernels for {stats.requests} tile programs "
        f"in {stats.seconds:.1f} s — shared by every replica in the fleet"
    )

    # Sixteen requests hitting enter at once, every two seconds.
    workload = bursty_workload(
        num_requests=32,
        burst_size=16,
        burst_interval_ms=2000.0,
        mean_prompt_tokens=512,
        mean_output_tokens=96,
        seed=0,
    )

    # How big must the fleet be just to *hold* this traffic?  Worst case
    # every request is resident at full context on one replica.
    peak_tokens = sum(r.prompt_tokens + r.output_tokens for r in workload)
    demand_gb = (
        REPLICAS * weight_bytes(DEEPSEEK_R1_AWQ)
        + peak_tokens * kv_bytes_per_token(DEEPSEEK_R1_AWQ)
    ) / 1e9
    print(
        f"aggregate demand {demand_gb:.1f} GB (weights x {REPLICAS} + worst-case KV) "
        f"-> fleet_size says >= {fleet_size(demand_gb, 'h100')} H100 replicas; "
        f"we serve with {REPLICAS}"
    )

    reports = []
    for router in sorted(ROUTERS):
        cluster = ClusterSimulator(
            DEEPSEEK_R1_AWQ,
            replicas=REPLICAS,
            router=router,
            backend="hexcute",
            scheduler="fcfs",
            arch="h100",
            max_batch_size=8,
            step_model=step_model,
        )
        report = cluster.simulate(workload, workload="bursty")
        reports.append(report)
        print(report.summary())

    print()
    print(
        format_reports(
            f"DeepSeek-R1-AWQ, bursty traffic, {REPLICAS} replicas x batch 8", reports
        )
    )
    print()
    by_p99 = sorted(reports, key=lambda r: r.latency_percentile_ms(99))
    best, worst = by_p99[0], by_p99[-1]
    print(
        f"best p99: {best.router} ({best.latency_percentile_ms(99):.0f} ms), "
        f"worst: {worst.router} ({worst.latency_percentile_ms(99):.0f} ms). "
        "Round-robin ignores replica state, so a burst of long generations can "
        "pile onto one replica; state-aware policies (least-loaded, kv-aware, "
        "power-of-two-choices) route against live queue depth or KV commitments. "
        "Policies and the equivalence gate are documented in docs/serving.md."
    )


if __name__ == "__main__":
    main()
