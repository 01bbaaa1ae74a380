"""``slo`` admits from the head of a deadline-ordered waiting list.

Each replica keeps its waiting list sorted by the scheduler's
``queue_key``; ``SloScheduler`` keys on the SLO deadline, so its
earliest-deadline-first admission is a head slice and the engine splits
the admitted requests off the front of the list.  ``FullScanEdf`` is the
policy as it stood before that index: the default arrival key, and every
step scans the whole backlog for the ``free_slots`` earliest deadlines.
The differential test below plays generated cases through both and asks
for the same per-request trace and the same counters outside it —
preemptions, prefix hits and evictions, shed requests.  The cases put the
ordering under stress: tight KV pools with shared prefixes (preemption
victims re-enter by key, prefix acquire and eviction order follow the
running batch), hard deadlines (shedding filters the key-ordered list)
and crashing fleets (retries re-enter with their original arrival).

A second test pins the work bound without a clock: the engine calls
``queue_key`` a bounded number of times per request, where the full scan
made hundreds of key calls per request under a flash crowd.
"""

from __future__ import annotations

import dataclasses
import heapq

import pytest

from repro.e2e import ModelConfig
from repro.serving import (
    ClusterSimulator,
    FaultSchedule,
    Scheduler,
    ServingSimulator,
    SloScheduler,
    diurnal_workload,
    fitting_prefix,
    prefix_shared_workload,
)
from repro.serving.memory import DEFAULT_KV_BLOCK_TOKENS

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
ARCH = "a100"


class FullScanEdf(Scheduler):
    """EDF over an arrival-ordered waiting list, by a full scan per step."""

    name = "slo"  # the digest covers the policy name

    def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
        if free_slots <= 0:
            return []
        return fitting_prefix(
            heapq.nsmallest(
                free_slots, waiting, key=lambda r: (r.slo_deadline_ms, r.request_id)
            ),
            memory,
        )

    preempt_order = SloScheduler.preempt_order


def _workload(seed: int, blocks: int, deadline_factor=None, num_requests: int = 160):
    """Prefix-shared traffic trimmed to fit a ``blocks``-block pool, with
    hard deadlines at ``arrival + deadline_factor * slo`` when given."""
    limit = blocks * DEFAULT_KV_BLOCK_TOKENS
    requests = []
    for r in prefix_shared_workload(
        num_requests=num_requests, rate_rps=900.0, num_tenants=4,
        system_prompt_tokens=32, tenant_template_tokens=16,
        mean_unique_tokens=24, mean_output_tokens=48, seed=seed,
    ):
        prompt = min(r.prompt_tokens, limit // 2)
        r = dataclasses.replace(
            r, prompt_tokens=prompt, output_tokens=min(r.output_tokens, limit - prompt)
        )
        if deadline_factor is not None:
            r = dataclasses.replace(
                r, deadline_ms=round(r.arrival_ms + deadline_factor * r.slo_ms, 6)
            )
        requests.append(r)
    return requests


# (seed, KV blocks per replica, max batch, deadline factor, replicas)
PRESSURE_CASES = [
    (seed, blocks, batch, None, 1)
    for seed in (1, 2, 3) for blocks in (12, 20, 28, 40) for batch in (4, 8)
]
DEADLINE_CASES = [(seed, blocks, 8, 0.05, 1) for seed in (4, 5) for blocks in (12, 28)] + [
    (seed, blocks, 4, 0.2, 1) for seed in (6, 7) for blocks in (20, 40)
]
FLEET_CASES = [
    (seed, blocks, 4, None, replicas)
    for seed in (8, 9) for blocks in (16, 32) for replicas in (2, 3)
]
CASES = PRESSURE_CASES + DEADLINE_CASES + FLEET_CASES


def _play(
    scheduler, seed, blocks, batch, deadline_factor, replicas,
    router="prefix-affinity", health_aware=True,
):
    workload = _workload(seed, blocks, deadline_factor)
    common = dict(
        backend="hexcute", scheduler=scheduler, arch=ARCH,
        max_batch_size=batch, kv_budget_blocks=blocks,
    )
    if replicas == 1:
        return ServingSimulator(SIM_MODEL, **common).simulate(workload, workload="prefix-shared")
    span = max(r.arrival_ms for r in workload)
    faults = FaultSchedule.generate(
        replicas, horizon_ms=span, seed=seed, mean_uptime_ms=span / 3.0,
        mean_downtime_ms=span / 10.0,
    )
    cluster = ClusterSimulator(
        SIM_MODEL, replicas=replicas, router=router, seed=seed,
        health_aware=health_aware, **common
    )
    return cluster.simulate(workload, workload="prefix-shared", faults=faults)


def _observed(report):
    return {
        "digest": report.digest(),
        "preemptions": report.preemptions,
        "prefix_hits": report.prefix_hits,
        "prefix_evictions": report.prefix_evictions,
        "shed": report.shed,
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: "s{}-b{}-x{}-d{}-r{}".format(*c))
def test_slo_head_admission_matches_full_scan(case):
    indexed = _play("slo", *case)
    assert _observed(indexed) == _observed(_play(FullScanEdf(), *case))
    seed, blocks, _, deadline_factor, _ = case
    assert indexed.num_requests + indexed.shed == len(_workload(seed, blocks, deadline_factor))


def test_cases_exercise_preemption_shedding_and_crashes():
    """The oracle cases are only worth their runtime if they reach the
    paths the key order touches."""
    pressure = _play("slo", *PRESSURE_CASES[0])
    assert pressure.preemptions > 0 and pressure.prefix_evictions > 0
    assert _play("slo", *DEADLINE_CASES[0]).shed > 0
    fleet = _play("slo", *FLEET_CASES[-1])
    assert fleet.crashes > 0 and fleet.retries > 0


def test_slo_queue_key_calls_per_request_are_bounded(monkeypatch):
    """A flash-crowd ``slo`` play keys each request a handful of times
    (its insertion and the bisect probes), never once per waiting request
    per step — a select that scans the backlog by this key makes over 200
    calls per request here."""
    calls = 0
    original = SloScheduler.queue_key

    def counted(self, request):
        nonlocal calls
        calls += 1
        return original(self, request)

    monkeypatch.setattr(SloScheduler, "queue_key", counted)
    period_s = 6000 / 2500.0
    workload = diurnal_workload(
        num_requests=6000, base_rate_rps=500.0, peak_rate_rps=1500.0,
        period_s=period_s, num_spikes=3, spike_multiplier=3.0,
        spike_duration_s=period_s / 8.0, mean_prompt_tokens=64,
        mean_output_tokens=32, seed=0,
    )
    sim = ServingSimulator(
        SIM_MODEL, backend="hexcute", scheduler="slo", arch=ARCH, max_batch_size=16
    )
    report = sim.simulate(workload, workload="diurnal")
    assert report.num_requests == len(workload)
    assert report.max_queue_depth > 500  # a real backlog, or the bound says nothing
    assert calls <= 24 * len(workload), f"{calls / len(workload):.1f} queue_key calls per request"
