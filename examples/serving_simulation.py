"""Serve bursty traffic on Jamba-mini with continuous batching.

Walks the serving subsystem end to end: precompile the decode batch
buckets up front (one ``compile_many`` batch, paid once per bucket),
generate a seeded bursty workload, then play it through two schedulers —
plain FCFS continuous batching and the SLO-aware (earliest-deadline-first)
policy — and compare throughput, tail latency and SLO attainment.

Run with:  PYTHONPATH=src python examples/serving_simulation.py
"""

from repro.e2e import JAMBA_MINI
from repro.pipeline import CompileCache
from repro.serving import (
    ServingSimulator,
    StepLatencyModel,
    bursty_workload,
    format_reports,
)


def main():
    # One replica serving decode batches of up to 4 requests.  The step
    # model compiles each batch-size bucket once; a second process with the
    # same (disk-backed) cache would start warm and skip the compiles.
    cache = CompileCache(max_entries=512)
    step_model = StepLatencyModel(arch="h100", buckets=(1, 2, 4), cache=cache)
    stats = step_model.precompile(JAMBA_MINI)
    print(
        f"precompiled {stats.compiled} kernels for {stats.requests} tile programs "
        f"in {stats.seconds:.1f} s ({stats.already_cached} already cached)"
    )

    # Four bursts of four requests: everyone hits enter at once.
    workload = bursty_workload(
        num_requests=16, burst_size=4, mean_output_tokens=24, seed=7
    )

    reports = []
    for scheduler in ("fcfs", "slo"):
        sim = ServingSimulator(
            JAMBA_MINI,
            backend="hexcute",
            scheduler=scheduler,
            arch="h100",
            max_batch_size=4,
            step_model=step_model,
        )
        report = sim.simulate(workload, workload="bursty")
        reports.append(report)
        print(report.summary())

    print()
    print(format_reports("Jamba-mini-1.7, bursty traffic, max batch 4", reports))
    print()
    fcfs, slo = reports
    winner = max(reports, key=lambda r: (r.slo_attainment, -r.latency_percentile_ms(95)))
    print(
        f"fcfs {fcfs.slo_attainment * 100.0:.0f}% vs slo {slo.slo_attainment * 100.0:.0f}% "
        f"SLO attainment: {winner.scheduler} wins on this workload — scheduling is "
        "workload-dependent (EDF helps under steady overload, see bench_serving.py)"
    )
    print(
        "\nThe simulator loop, scheduler policies and determinism contract this "
        "walk relies on are documented in docs/serving.md (sections 'The "
        "discrete-event engine' and 'Scheduling policies')."
    )


if __name__ == "__main__":
    main()
