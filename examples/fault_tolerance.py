"""Fault injection on a diurnal fleet: crash at rush hour, fail over, recover.

A four-replica fleet plays one seeded diurnal "day" (sinusoidal rate with
flash-crowd spikes) in which every request carries a hard deadline — one
SLO budget past its arrival, after which serving it is pointless and the
engine sheds it instead.  Mid-day, right as the rate climbs, replica 0
crashes and stays down for ~40% of the day (losing everything it owned:
queued, waiting and mid-decode requests alike), and replica 1 limps
through a 2x slowdown window.  The same day is played twice:

1. **Health-aware** (the default) — routers only see healthy replicas,
   so the crash-lost requests retry on the survivors and new arrivals
   steer around the hole;
2. **Health-blind** — the router keeps round-robining into the dead
   replica; everything sent there waits out the outage and is mostly
   past its deadline by the time the replica returns.

The fault model (crash wipe, retries, failover accounting, deadline
shedding, availability and goodput) is documented in ``docs/serving.md``
("Fault injection & recovery"); the CI gate over this comparison is
``tests/test_faults.py``.

Run with:  PYTHONPATH=src python examples/fault_tolerance.py
"""

import dataclasses

from repro.e2e import QWEN3_32B
from repro.serving import (
    ClusterSimulator,
    FaultSchedule,
    ReplicaCrash,
    ReplicaRecover,
    ReplicaSlowdown,
    diurnal_workload,
    format_reports,
)

REPLICAS = 4


def main():
    # One compressed diurnal day with a hard deadline stamped on every
    # request: arrival + its own SLO budget.
    base = diurnal_workload(
        num_requests=600,
        base_rate_rps=4.0,
        peak_rate_rps=12.0,
        period_s=60.0,
        mean_output_tokens=64,
        seed=0,
    )
    workload = [
        dataclasses.replace(r, deadline_ms=r.arrival_ms + r.slo_ms) for r in base
    ]
    day_ms = max(r.arrival_ms for r in workload)
    crash_ms = round(0.30 * day_ms, 3)
    recover_ms = round(0.70 * day_ms, 3)
    faults = FaultSchedule(
        [
            ReplicaCrash(crash_ms, 0),
            ReplicaRecover(recover_ms, 0),
            ReplicaSlowdown(crash_ms, 1, factor=2.0, duration_ms=0.2 * day_ms),
        ]
    )
    print(
        f"{len(workload)} requests over a {day_ms / 1000.0:.0f} s day, "
        f"hard deadline = arrival + SLO; replica 0 down "
        f"{crash_ms / 1000.0:.0f}-{recover_ms / 1000.0:.0f} s, "
        f"replica 1 at 2x step latency for {0.2 * day_ms / 1000.0:.0f} s\n"
    )

    reports = []
    for label, health_aware in [("health-aware", True), ("health-blind", False)]:
        cluster = ClusterSimulator(
            QWEN3_32B,
            replicas=REPLICAS,
            router="round-robin",
            backend="hexcute",
            scheduler="fcfs",
            arch="h100",
            max_batch_size=8,
            health_aware=health_aware,
        )
        report = cluster.simulate(workload, workload="diurnal", faults=faults)
        reports.append((label, report))
        print(f"[{label}]")
        print(report.summary())
        print(
            f"  completed {report.num_requests}/{len(workload)}, "
            f"{report.shed} shed, {report.retries} retries "
            f"({report.failovers} failovers), availability "
            f"{report.availability * 100.0:.1f}%, goodput "
            f"{report.goodput_tok_s:.0f} tok/s\n"
        )

    print(
        format_reports(
            f"Mid-day crash, {REPLICAS} replicas x batch 8, hard deadlines",
            [report for _, report in reports],
        )
    )
    print()
    aware = reports[0][1]
    blind = reports[1][1]
    print(
        f"completed {blind.num_requests} -> {aware.num_requests} requests, "
        f"shed {blind.shed} -> {aware.shed}, goodput "
        f"{blind.goodput_tok_s:.0f} -> {aware.goodput_tok_s:.0f} tok/s "
        "(health-blind vs health-aware).  Both fleets suffer the same "
        "outage, but the health-aware router re-routes the crash's lost "
        "requests and steers new arrivals onto the three survivors, so "
        "most traffic still meets its deadline; the blind router keeps "
        "feeding the dead replica its round-robin share, and those "
        "requests are past their deadline by the time the replica comes "
        "back — shed on recovery instead of served."
    )


if __name__ == "__main__":
    main()
