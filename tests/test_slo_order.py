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

The engine computes each waiting request's key once, when it enqueues
the request, and keeps the keys beside ``waiting``.  A checking engine
asserts after every step, on the same 40 cases under every policy, that
those keys are the scheduler's keys of ``waiting`` in increasing order.
A clock-free test pins the work bound: the engine calls ``queue_key``
once per enqueue, where the bisect probes made about ten calls per
request under a flash crowd and the full scan hundreds.

Admission splits the head off ``waiting`` when the policy returns it as
a list of the same requests, and otherwise matches the returned requests
to waiting ones by request id.  Policies that return the head in other
shapes (a value-equal copy, reversed, a tuple, a repeated request) must
admit the waiting objects themselves, once each and in arrival order.
"""

from __future__ import annotations

import dataclasses
import heapq

import pytest

import repro.serving.cluster as cluster_module
import repro.serving.simulator as simulator_module
from repro.e2e import ModelConfig
from repro.serving import (
    SCHEDULERS,
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
from repro.serving.simulator import ReplicaEngine
from repro.serving.workload import arrival_key

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
    """A flash-crowd ``slo`` play keys each request once, when it is
    enqueued (nothing is preempted here).  Bisecting by calling the key
    on each probe made 9.7 calls per request here, and a select that
    scans the backlog by this key makes over 200."""
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
    assert calls <= 2 * len(workload), f"{calls / len(workload):.1f} queue_key calls per request"


class KeyCheckedEngine(ReplicaEngine):
    """The engine, checking after every step that the keys it holds
    beside ``waiting`` are the scheduler's keys of ``waiting``, in
    increasing order (keys are unique: they end in ``request_id``)."""

    def advance(self, *args, **kwargs):
        progressed = super().advance(*args, **kwargs)
        keys = list(map(self.sim.scheduler.queue_key, self.waiting))
        assert self._live_keys() == keys == sorted(keys)
        return progressed


# Every registered policy, plus the full scan: it and memory-aware return
# choices that are not the head of ``waiting``.
KEYED_POLICIES = {**{name: name for name in sorted(SCHEDULERS)}, "full-scan-edf": FullScanEdf()}


@pytest.mark.parametrize("policy", sorted(KEYED_POLICIES))
@pytest.mark.parametrize("case", CASES, ids=lambda c: "s{}-b{}-x{}-d{}-r{}".format(*c))
def test_waiting_keys_are_the_queue_keys_after_every_step(monkeypatch, policy, case):
    monkeypatch.setattr(simulator_module, "ReplicaEngine", KeyCheckedEngine)
    monkeypatch.setattr(cluster_module, "ReplicaEngine", KeyCheckedEngine)
    report = _play(KEYED_POLICIES[policy], *case)
    seed, blocks, _, deadline_factor, _ = case
    assert report.num_requests + report.shed == len(_workload(seed, blocks, deadline_factor))


class HeadShaped(Scheduler):
    """fcfs whose ``select`` returns its choice reshaped by ``shape``."""

    name = "fcfs"  # the digest covers the policy name

    def __init__(self, shape):
        self.shape = shape

    def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
        chosen = fitting_prefix(waiting[:free_slots], memory)
        return self.shape(chosen) if chosen else chosen


# Shape -> (what the policy returns for the fitting head, the plain list
# of waiting requests that must join for it).
HEAD_SHAPES = {
    "value-equal-copy": (lambda head: [dataclasses.replace(head[0])], lambda head: head[:1]),
    "reversed": (lambda head: head[::-1], lambda head: head),
    "tuple": (tuple, lambda head: head),
    "head-twice": (lambda head: [head[0], head[0]], lambda head: head[:1]),
}


@pytest.mark.parametrize("shape", sorted(HEAD_SHAPES))
def test_admission_joins_the_waiting_objects_whatever_shape_the_policy_returns(shape):
    returned, plain = HEAD_SHAPES[shape]
    seed, blocks, batch, deadline_factor, _ = PRESSURE_CASES[0]
    workload = _workload(seed, blocks, deadline_factor)
    queued = {r.request_id: r for r in workload}
    common = dict(
        backend="hexcute", arch=ARCH, max_batch_size=batch, kv_budget_blocks=blocks
    )
    engine = ReplicaEngine(
        ServingSimulator(SIM_MODEL, scheduler=HeadShaped(returned), **common), workload
    )
    while engine.advance():
        running = list(engine.running.values())
        # The queued objects themselves, never the policy's: a copy is
        # equal to the queued request but is not it.
        assert all(s.request is queued[s.request.request_id] for s in running)
        # This step's joiners, in join order, arrived in that order.
        joined = [s.request for s in running if s.join_step == engine.steps - 1]
        assert joined == sorted(joined, key=arrival_key)
        # Each request is in exactly one place: queued, waiting, running
        # or finished (a joiner left in ``waiting`` would count twice).
        assert engine.assigned + len(engine.finished) == len(workload)
        assert engine._live_keys() == [arrival_key(r) for r in engine.waiting]
    report = engine.report("prefix-shared")
    assert report.num_requests == len(workload) and report.preemptions > 0
    expected = ServingSimulator(SIM_MODEL, scheduler=HeadShaped(plain), **common)
    assert report.digest() == expected.simulate(workload, "prefix-shared").digest()
