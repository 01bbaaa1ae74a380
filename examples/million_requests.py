"""Simulate one million requests of diurnal traffic through a replica fleet.

The scale run the hot-loop optimizations exist for: a full simulated
"day" of non-stationary traffic — a sinusoidal day/night arrival-rate
curve with seeded flash-crowd spikes — played through a 4-replica
cluster behind round-robin routing, one million requests end to end.
Deep queues build at the peaks and drain through the troughs, which is
exactly the regime where the incrementally sorted waiting list and the
cursor-backed request queue earn their keep (see "Scaling & performance"
in ``docs/serving.md``).

The kernel compiles are warmed before the clock starts, so the printed
simulated-requests-per-second measures the discrete-event loop itself —
the same headline metric ``benchmarks/bench_sim_scale.py`` tracks in
``BENCH_sim_scale.json``.  Expect a few minutes of wall time.

Run with:  PYTHONPATH=src python examples/million_requests.py
"""

import time

from repro.e2e import ModelConfig
from repro.serving import ClusterSimulator, ServingSimulator, diurnal_workload

# The same 32-layer tiny-shape dense config the scale benchmark uses:
# realistic step latency (~0.35 ms at batch 16) over kernel shapes the
# compile cache already knows, so warmup is seconds, not minutes.
MODEL = ModelConfig(
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

ARCH = "a100"
MAX_BATCH = 16
REPLICAS = 4
NUM_REQUESTS = 1_000_000


def main():
    # One simulated day, compressed: the sinusoid swings the fleet between
    # 45% and 135% of its aggregate service capacity, with three 3x flash
    # crowds landing on top of it.
    period_s = NUM_REQUESTS / 7500.0
    gen_start = time.perf_counter()
    workload = diurnal_workload(
        num_requests=NUM_REQUESTS,
        base_rate_rps=1500.0,
        peak_rate_rps=4500.0,
        period_s=period_s,
        num_spikes=3,
        spike_multiplier=3.0,
        spike_duration_s=period_s / 16.0,
        mean_prompt_tokens=64,
        mean_output_tokens=32,
        seed=0,
    )
    print(
        f"generated {len(workload):,} diurnal requests "
        f"({workload[-1].arrival_ms / 1000.0:.0f} s of simulated traffic) "
        f"in {time.perf_counter() - gen_start:.1f} s"
    )

    # Warm the compiled step buckets outside the timed region: the first
    # latency query per bucket compiles kernels, and the point of this
    # walk is to time the event loop, not the compiler.
    warm = ServingSimulator(MODEL, arch=ARCH, max_batch_size=MAX_BATCH)
    warm_start = time.perf_counter()
    for batch in range(1, MAX_BATCH + 1):
        warm.step_model.step_latency_ms(MODEL, "hexcute", batch)
    print(f"warmed step buckets in {time.perf_counter() - warm_start:.1f} s")

    cluster = ClusterSimulator(
        MODEL,
        replicas=REPLICAS,
        router="round-robin",
        backend="hexcute",
        scheduler="fcfs",
        arch=ARCH,
        max_batch_size=MAX_BATCH,
        seed=0,
    )
    print(f"simulating over {REPLICAS} replicas (round-robin)...")
    sim_start = time.perf_counter()
    report = cluster.simulate(workload, workload="diurnal")
    wall = time.perf_counter() - sim_start

    steps = sum(r.steps for r in report.replicas)
    print()
    print(
        f"simulated {NUM_REQUESTS:,} requests in {wall:.1f} s of wall time "
        f"-> {NUM_REQUESTS / wall:,.0f} simulated requests/s"
    )
    print(
        f"  {steps:,} decode steps across the fleet, "
        f"makespan {report.duration_ms / 1000.0:.0f} s of simulated time, "
        f"fleet throughput {report.throughput_tok_s:,.0f} tok/s"
    )
    print(
        f"  p50/p99 latency {report.latency_percentile_ms(50):.0f}/"
        f"{report.latency_percentile_ms(99):.0f} ms, "
        f"SLO attainment {report.slo_attainment * 100.0:.1f}%, "
        f"load imbalance {report.load_imbalance:.3f}"
    )
    print(f"  digest {report.digest()}")


if __name__ == "__main__":
    main()
