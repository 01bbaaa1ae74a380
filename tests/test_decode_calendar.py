"""Decode steps take their events from calendars, not from batch scans.

``ReplicaEngine`` books each request into two step-keyed calendars when
it joins the running batch: the step of its next KV-block crossing and
the step it finishes at.  A step's grow phase then allocates for that
step's crossers only, and its retire phase retires that step's finishers
only.  ``ScanEngine`` is the engine as it stood before the calendars:
every step it recomputes every running request's block demand from its
decoded-token count and finishes a request once that count reaches its
output length.  The differential test plays ``test_slo_order``'s
generated cases through both, under every scheduler, and asks for the
same per-request trace and the same counters outside it: steps, batch
and queue means, KV utilization (bit-exact), preemptions, the prefix
counters, shed requests, retries and failovers.  The cases put the
calendars under stress: tight KV pools preempt and readmit requests
(their old calendar entries must be skipped), shared prefixes offset
each request's first crossing by its private prompt length, and
crashing fleets wipe the calendars.

A checking engine asserts after every step, on the same cases under
every scheduler, that each running request holds exactly the blocks
its private context needs (a crossing grows it by one block, never
more, never none) and that the pool holds nothing but those holdings
and the resident prefix entries, so a drained pool holds only its
prefixes.

More tests pin work bounds without a clock: a pressure-free play
computes block counts (the engine's ``blocks_for_tokens`` calls, plus
the one each ``KvBlockManager.allocate`` makes) well under once per
decoded token, where the per-step scans computed about two, and at most
four per admitted request, whatever its output length: a block crossing
computes none.  It calls ``PrefixStore.ensure_free`` at most once per
admitted request: a block crossing that finds a free block evicts
nothing and asks nothing.
"""

from __future__ import annotations

import pytest

import repro.serving.cluster as cluster_module
import repro.serving.simulator as simulator_module
from repro.serving import SCHEDULERS, ServingSimulator, steady_workload
from repro.serving.memory import KvBlockManager
from repro.serving.prefix import PrefixStore
from repro.serving.simulator import ReplicaEngine

from test_slo_order import ARCH, CASES, PRESSURE_CASES, SIM_MODEL, _play, _workload


class ScanEngine(ReplicaEngine):
    """The per-step batch scans the calendars replace: the test oracle."""

    def _grow_running(self):
        manager = self.manager
        store = self.prefix_store
        step = self.steps

        def context(state):
            request = state.request
            return request.prompt_tokens + step - state.join_step + 1 - state.shared_tokens

        demand = store.referenced_blocks + sum(
            manager.blocks_for(context(s)) for s in self.running.values()
        )
        if demand > manager.total_blocks:
            self._preempt()
        for request_id, state in self.running.items():
            tokens = context(state)
            target = manager.blocks_for(tokens)
            held = manager.held(request_id)
            if target != held:
                store.ensure_free(target - held)
                manager.allocate(request_id, tokens)

    def _retire(self, joining):
        for state in list(self.running.values()):
            if state.first_token_ms < 0:
                state.first_token_ms = self.now
            if self.steps - state.join_step >= state.request.output_tokens:
                self._finish(state)


# Counters every replica reports that the digest does not cover.
REPLICA_COUNTERS = (
    "steps", "mean_batch_size", "mean_queue_depth", "max_queue_depth",
    "kv_peak_utilization", "mean_kv_utilization", "preemptions",
    "prefix_hits", "prefix_misses", "prefix_evictions", "prefix_blocks_saved",
    "prefix_resident_peak", "shed", "crashes", "downtime_ms",
)


def _observed(report):
    return {
        "digest": report.digest(),
        "replicas": [
            {name: getattr(replica, name) for name in REPLICA_COUNTERS}
            for replica in getattr(report, "replicas", [report])
        ],
        "shed": report.shed,
        "retries": getattr(report, "retries", 0),
        "failovers": getattr(report, "failovers", 0),
    }


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", CASES, ids=lambda c: "s{}-b{}-x{}-d{}-r{}".format(*c))
def test_calendar_engine_matches_batch_scan(monkeypatch, scheduler, case):
    calendar = _observed(_play(scheduler, *case))
    monkeypatch.setattr(simulator_module, "ReplicaEngine", ScanEngine)
    monkeypatch.setattr(cluster_module, "ReplicaEngine", ScanEngine)
    assert calendar == _observed(_play(scheduler, *case))


class HoldingCheckedEngine(ReplicaEngine):
    """The calendar engine, checking after every step that each running
    request holds the blocks of its private context (prompt plus decoded
    tokens, less its attached shared tokens) and that the pool holds
    nothing else but the resident prefix entries."""

    def advance(self, *args, **kwargs):
        progressed = super().advance(*args, **kwargs)
        manager = self.manager
        holdings = 0
        for request_id, state in self.running.items():
            private = (
                state.request.prompt_tokens + self.steps - state.join_step - state.shared_tokens
            )
            held = manager.held(request_id)
            assert held == manager.blocks_for(private), (request_id, self.steps)
            holdings += held
        assert manager.used_blocks == holdings + self.prefix_store.resident_blocks
        return progressed


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", CASES, ids=lambda c: "s{}-b{}-x{}-d{}-r{}".format(*c))
def test_running_holdings_are_what_the_calendar_booked(monkeypatch, scheduler, case):
    engines = []

    class Recorded(HoldingCheckedEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(simulator_module, "ReplicaEngine", Recorded)
    monkeypatch.setattr(cluster_module, "ReplicaEngine", Recorded)
    _play(scheduler, *case)
    # Drained, a pool holds exactly its resident prefix entries, which
    # the prefix store books under negative ids that no request has.
    assert engines and all(engine.idle for engine in engines)
    assert [e.manager.used_blocks for e in engines] == [
        e.prefix_store.resident_blocks for e in engines
    ]
    assert any(e.prefix_store.resident_blocks for e in engines)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_cases_preempt_and_readmit_under_every_scheduler(scheduler):
    """Stale calendar entries only exist once a request is preempted and
    readmitted; the tightest pressure case must do that."""
    seed, blocks, _, deadline_factor, _ = case = PRESSURE_CASES[0]
    report = _play(scheduler, *case)
    assert report.preemptions > 0
    assert report.num_requests == len(_workload(seed, blocks, deadline_factor))


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` (a method, or a module's function) to count
    its calls; returns the one-entry count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_block_computations(monkeypatch):
    """Count every block-count computation of the engine and its pool:
    the engine's own ``blocks_for_tokens`` calls (reservation, admission's
    eviction, finish, preemption) and one per ``KvBlockManager.allocate``,
    which computes its target.  Returns a function reading the total."""
    engine = _count_calls(monkeypatch, simulator_module, "blocks_for_tokens")
    allocate = _count_calls(monkeypatch, KvBlockManager, "allocate")
    return lambda: engine[0] + allocate[0]


def _pressure_free_play(mean_output):
    """fcfs at about 90% of the batch-16 decode capacity, so batches run
    nearly full, on the default KV pool, so nothing is preempted."""
    workload = steady_workload(
        num_requests=3000, rate_rps=40_000.0 / mean_output, mean_prompt_tokens=64,
        mean_output_tokens=mean_output, seed=0,
    )
    sim = ServingSimulator(
        SIM_MODEL, backend="hexcute", scheduler="fcfs", arch=ARCH, max_batch_size=16
    )
    report = sim.simulate(workload, workload="steady")
    assert report.num_requests == len(workload) and report.preemptions == 0
    assert report.mean_batch_size > 8  # a real batch, or the bounds say nothing
    return report


@pytest.mark.parametrize("mean_output", [32, 128])
def test_blocks_for_calls_per_decoded_token_are_bounded(monkeypatch, mean_output):
    """A pressure-free play computes block counts at admission and at
    finish — a fraction of one per decoded token.  Scanning the batch
    every step computes two per running request per step: 2.15 and 2.09
    per decoded token here."""
    computations = _count_block_computations(monkeypatch)
    report = _pressure_free_play(mean_output)
    per_token = computations() / report.total_output_tokens
    assert per_token <= 0.5, f"{per_token:.2f} block computations per decoded token"


@pytest.mark.parametrize("mean_output", [32, 128])
def test_blocks_for_calls_per_admitted_request_are_bounded(monkeypatch, mean_output):
    """A request's block counts are computed four times, however long it
    decodes: its reservation, its admission (eviction and allocation)
    and its finish.  A block crossing grows its holding by one block and
    computes nothing; allocating each crossing's token made 5.92 and
    11.92 per admitted request here."""
    computations = _count_block_computations(monkeypatch)
    report = _pressure_free_play(mean_output)
    per_request = computations() / report.num_requests
    assert per_request <= 4.0, f"{per_request:.2f} block computations per admitted request"


@pytest.mark.parametrize("mean_output", [32, 128])
def test_ensure_free_calls_per_admission_are_bounded(monkeypatch, mean_output):
    """Without pressure every admission makes room once and no block
    crossing asks at all: the pool always has the one free block a
    crossing grows into.  Asking at every crossing too made 2.92 and 8.92
    calls per admitted request here."""
    calls = _count_calls(monkeypatch, PrefixStore, "ensure_free")
    report = _pressure_free_play(mean_output)
    per_request = calls[0] / report.num_requests
    assert per_request <= 1.0, f"{per_request:.2f} ensure_free calls per admitted request"
