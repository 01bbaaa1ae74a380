"""Decode steps and routing decisions run few Python frames.

The engine reads what a decode step needs as attributes and memoized C
calls: the pool level (``KvBlockManager.used_blocks``), block counts
(``blocks_for_tokens``), the prefix store's reclaimable blocks and its
one refreshed ``KvMemoryView``.  The prefix-affinity router returns a
sole holder without ranking it.  A clock cannot pin that on a shared
machine, but a count of Python ``call`` events (``sys.setprofile``) can:
for a given trace it is deterministic.  Each play is counted after a
warm-up play of the same trace, so kernel compiles and first-time memo
misses are not counted.

* A 2,000-request ``slo`` replica on diurnal traffic with three flash
  crowds at 2000 rps: a backlog up to about 200 deep, no preemption, no
  prefixes.
* A 2,000-request 4-replica ``prefix-affinity`` fleet of 16-tenant
  prefix-shared traffic on an 80-block pool per replica, with staggered
  crashes and slowdowns: routing, prefix hits and evictions, preemption,
  re-routing.

Each bound is 0.8 of the reading when those values came from Python
helpers (a property per pool read, a ``blocks_for`` method per block
count, a new view per ``select``, a ranking key per routed request):
19.81 and 29.87 calls per decode step.
"""

from __future__ import annotations

import dataclasses
import sys

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

from test_slo_order import ARCH, SIM_MODEL

REPLICAS = 4


def _flash_crowd_trace():
    """Diurnal traffic (500..1500 rps over a 1.4 s day) plus three crowds
    of 200 requests at 2000 rps, at fixed points of the day."""
    period_s = 1.4
    requests = diurnal_workload(
        num_requests=1400, base_rate_rps=500.0, peak_rate_rps=1500.0, period_s=period_s,
        num_spikes=0, spike_duration_s=0.0, mean_prompt_tokens=64, mean_output_tokens=32,
        seed=0,
    )
    for index, offset in enumerate((0.15, 0.45, 0.8)):
        start_ms = offset * period_s * 1000.0
        crowd = steady_workload(
            num_requests=200, rate_rps=2000.0, mean_prompt_tokens=64, mean_output_tokens=32,
            seed=index + 1,
        )
        requests.extend(
            dataclasses.replace(r, arrival_ms=round(r.arrival_ms + start_ms, 6)) for r in crowd
        )
    requests.sort(key=lambda r: r.arrival_ms)
    return [dataclasses.replace(r, request_id=i) for i, r in enumerate(requests)]


def _staggered_faults(span_ms):
    """Two crashes per replica, each down for 1/100 of the span, and two
    slowdowns: replica r crashes in the r-th quarter of each half of the
    span, so no two replicas are down together."""
    half = span_ms / 2
    quarter = half / REPLICAS
    events = []
    for k in range(2):
        for replica in range(REPLICAS):
            crash_ms = round(k * half + (replica + 0.4) * quarter, 6)
            events.append(ReplicaCrash(at_ms=crash_ms, replica_id=replica))
            recover_ms = round(crash_ms + span_ms / 100, 6)
            events.append(ReplicaRecover(at_ms=recover_ms, replica_id=replica))
            events.append(ReplicaSlowdown(
                at_ms=round(k * half + (REPLICAS - replica - 0.5) * quarter, 6),
                replica_id=replica, factor=2.5, duration_ms=span_ms / 50,
            ))
    return FaultSchedule(events)


def _calls_per_step(play):
    """Python ``call`` events per decode step over the second of two
    plays, and that play's report."""
    play()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report = play()
    finally:
        sys.setprofile(previous)
    steps = sum(replica.steps for replica in getattr(report, "replicas", [report]))
    return calls / steps, report


def test_slo_replica_decode_step_calls_are_bounded():
    requests = _flash_crowd_trace()
    sim = ServingSimulator(
        SIM_MODEL, backend="hexcute", scheduler="slo", arch=ARCH, max_batch_size=16
    )
    per_step, report = _calls_per_step(lambda: sim.simulate(requests, workload="diurnal"))
    # The shape the bound was read on: a deep backlog, nothing preempted.
    assert report.num_requests == len(requests) and report.preemptions == 0
    assert report.max_queue_depth > 100
    assert per_step <= 0.8 * 19.81, f"{per_step:.2f} Python calls per decode step"


def test_prefix_fleet_decode_step_calls_are_bounded():
    requests = prefix_shared_workload(
        num_requests=2000, rate_rps=2800.0, num_tenants=16, system_prompt_tokens=48,
        tenant_template_tokens=16, mean_unique_tokens=16, mean_output_tokens=32, seed=0,
    )
    faults = _staggered_faults(max(r.arrival_ms for r in requests))
    fleet = ClusterSimulator(
        SIM_MODEL, replicas=REPLICAS, router="prefix-affinity", backend="hexcute",
        scheduler="fcfs", arch=ARCH, max_batch_size=16, kv_budget_blocks=80,
    )
    per_step, report = _calls_per_step(
        lambda: fleet.simulate(requests, workload="prefix-shared", faults=faults)
    )
    # The shape the bound was read on: crashes re-route work, the tight
    # pools preempt and evict cached prefixes, and affinity hits.
    assert report.num_requests + report.shed == len(requests)
    assert report.retries > 0 and report.preemptions > 0
    assert sum(replica.prefix_evictions for replica in report.replicas) > 0
    assert sum(replica.prefix_hits for replica in report.replicas) > len(requests) // 2
    assert per_step <= 0.8 * 29.87, f"{per_step:.2f} Python calls per decode step"
