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

A second test pins the work bound without a clock: a pressure-free play
asks ``KvBlockManager.blocks_for`` well under once per decoded token,
where the per-step scans asked about twice.
"""

from __future__ import annotations

import pytest

import repro.serving.cluster as cluster_module
import repro.serving.simulator as simulator_module
from repro.serving import SCHEDULERS, ServingSimulator, steady_workload
from repro.serving.memory import KvBlockManager
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


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_cases_preempt_and_readmit_under_every_scheduler(scheduler):
    """Stale calendar entries only exist once a request is preempted and
    readmitted; the tightest pressure case must do that."""
    seed, blocks, _, deadline_factor, _ = case = PRESSURE_CASES[0]
    report = _play(scheduler, *case)
    assert report.preemptions > 0
    assert report.num_requests == len(_workload(seed, blocks, deadline_factor))


@pytest.mark.parametrize("mean_output", [32, 128])
def test_blocks_for_calls_per_decoded_token_are_bounded(monkeypatch, mean_output):
    """A pressure-free play asks for block counts at admission, at each
    block crossing and at finish — a fraction of a call per decoded token.
    Scanning the batch every step asks twice per running request per step:
    2.15 and 2.09 calls per decoded token here."""
    calls = 0
    original = KvBlockManager.blocks_for

    def counted(self, tokens):
        nonlocal calls
        calls += 1
        return original(self, tokens)

    monkeypatch.setattr(KvBlockManager, "blocks_for", counted)
    # About 90% of the batch-16 decode capacity, so batches run nearly full.
    workload = steady_workload(
        num_requests=3000, rate_rps=40_000.0 / mean_output, mean_prompt_tokens=64,
        mean_output_tokens=mean_output, seed=0,
    )
    sim = ServingSimulator(
        SIM_MODEL, backend="hexcute", scheduler="fcfs", arch=ARCH, max_batch_size=16
    )
    report = sim.simulate(workload, workload="steady")
    assert report.num_requests == len(workload) and report.preemptions == 0
    assert report.mean_batch_size > 8  # a real batch, or the bound says nothing
    per_token = calls / report.total_output_tokens
    assert per_token <= 0.5, f"{per_token:.2f} blocks_for calls per decoded token"
