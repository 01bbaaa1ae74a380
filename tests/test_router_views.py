"""Routers read live replica views, built once per replica per run.

``ClusterSimulator._snapshot`` builds one ``ReplicaView`` per replica per
``simulate()``, and every placement shows the router the same views —
all of them, or the healthy tuple the cluster rebuilds at each crash and
recovery.  A view reads its engine on access, and its resident-prefix
map is the prefix store's live read-only proxy.  ``snapshot_of`` is the
frozen ``ReplicaSnapshot`` the cluster used to build for every replica
at every placement, with the resident prefixes recomputed from the
store's entries.  The differential test wraps each registered router in
``CheckingRouter``, which compares every view field by field with that
oracle, and the candidate ids with the old health filter, at every
routing decision.  The cases are ``test_slo_order``'s fleets: 2-3
replicas, generated crashes and slowdowns, tight KV pools with shared
prefixes, so views are read across crashes, recoveries, preemptions and
prefix evictions.

A second test pins the work bound without a clock: a crashing 4-replica
fleet builds exactly one view per replica per run, where the per-arrival
snapshots built one per replica per placement.

A third test checks what makes the cluster's id-order replica scan exact
over the same fleets: a call to ``ReplicaEngine.advance`` behind its
horizon that returns ``False`` finds the replica down or drained, and
leaves its clock where it was.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.serving import ROUTERS, ClusterSimulator, ReplicaSnapshot, get_router
from repro.serving.router import Router
from repro.serving.simulator import ReplicaEngine

from test_slo_order import FLEET_CASES, _play

FIELDS = tuple(f.name for f in dataclasses.fields(ReplicaSnapshot)) + (
    "load", "kv_unreserved_blocks",
)


def snapshot_of(index, engine):
    """The per-placement snapshot the views replace: the test oracle."""
    manager = engine.manager
    block_tokens = manager.block_tokens
    return ReplicaSnapshot(
        replica_id=index,
        now_ms=engine.now,
        waiting=engine.assigned - len(engine.running),
        running=len(engine.running),
        max_batch_size=engine.sim.max_batch_size,
        kv_total_blocks=manager.total_blocks,
        kv_free_blocks=manager.free_blocks,
        kv_reserved_blocks=engine.kv_reserved_blocks,
        preemptions=engine.preemptions,
        finished=len(engine.finished),
        resident_prefixes={
            key: entry.blocks * block_tokens
            for key, entry in engine.prefix_store._entries.items()
        },
        healthy=engine.healthy,
    )


class CheckingRouter(Router):
    """Checks the candidates against the oracle, then routes with ``inner``."""

    def __init__(self, inner: Router, engines: dict, health_aware: bool):
        self.inner = inner
        self.name = inner.name  # the digest covers the router name
        self.engines = engines  # replica index -> engine, filled by _snapshot
        self.health_aware = health_aware
        self.checked = 0

    def reset(self, num_replicas, seed=0):
        self.inner.reset(num_replicas, seed)

    def route(self, request, replicas):
        expected = [snapshot_of(i, e) for i, e in sorted(self.engines.items())]
        if self.health_aware:
            expected = [s for s in expected if s.healthy]
        assert isinstance(replicas, tuple)
        assert [v.replica_id for v in replicas] == [s.replica_id for s in expected]
        for view, snapshot in zip(replicas, expected):
            for name in FIELDS:
                assert getattr(view, name) == getattr(snapshot, name), (
                    f"request {request.request_id}: replica {snapshot.replica_id} "
                    f"{name} reads {getattr(view, name)!r}, "
                    f"expected {getattr(snapshot, name)!r}"
                )
        self.checked += 1
        return self.inner.route(request, replicas)


def _record_engines(monkeypatch, engines: dict) -> None:
    original = ClusterSimulator._snapshot

    def recording(self, index, engine):
        engines[index] = engine
        return original(self, index, engine)

    monkeypatch.setattr(ClusterSimulator, "_snapshot", recording)


@pytest.mark.parametrize("health_aware", [True, False], ids=["aware", "blind"])
@pytest.mark.parametrize("router", sorted(ROUTERS))
@pytest.mark.parametrize("case", FLEET_CASES, ids=lambda c: "s{}-b{}-x{}-d{}-r{}".format(*c))
def test_views_match_per_placement_snapshots(monkeypatch, case, router, health_aware):
    engines = {}
    _record_engines(monkeypatch, engines)
    checking = CheckingRouter(get_router(router), engines, health_aware)
    report = _play("fcfs", *case, router=checking, health_aware=health_aware)
    assert checking.checked == len(report.assignments) + report.retries


def test_cases_crash_recover_and_evict_prefixes():
    """The oracle cases are only worth their runtime if the views are
    read after a crash, a recovery and a prefix eviction."""
    for health_aware in (True, False):
        report = _play("fcfs", *FLEET_CASES[0], health_aware=health_aware)
        assert report.crashes > 0 and report.retries > 0
        assert report.prefix_evictions > 0 and report.preemptions > 0


def test_views_are_built_once_per_replica_per_run(monkeypatch):
    """A crashing 4-replica prefix-affinity fleet builds four views; the
    per-arrival snapshots built four per placement: 1,408 here (160
    arrivals plus 192 crash retries).  Shared views stay read-only, as
    the frozen snapshots were."""
    views = []
    original = ClusterSimulator._snapshot

    def counted(self, index, engine):
        views.append(original(self, index, engine))
        return views[-1]

    monkeypatch.setattr(ClusterSimulator, "_snapshot", counted)
    seed, blocks, batch, deadline_factor, _ = FLEET_CASES[0]
    report = _play("fcfs", seed, blocks, batch, deadline_factor, 4)
    assert report.crashes > 0 and report.retries > 0
    assert len(report.assignments) + report.retries > 100  # many placements
    assert len(views) == 4, f"{len(views)} snapshots for one run of 4 replicas"
    for name in ("replica_id", "waiting"):
        with pytest.raises(AttributeError):
            setattr(views[0], name, 7)
    with pytest.raises(TypeError):
        views[0].resident_prefixes["intruder"] = 16


@pytest.mark.parametrize("health_aware", [True, False], ids=["aware", "blind"])
@pytest.mark.parametrize("case", FLEET_CASES, ids=lambda c: "s{}-b{}-x{}-d{}-r{}".format(*c))
def test_advance_stops_behind_its_horizon_only_down_or_drained(monkeypatch, case, health_aware):
    """The cluster calls ``advance`` on every replica at every event until
    its clock reaches the event; a replica that cannot move returns
    ``False`` at once.  That is exact only if such a call changes nothing,
    which holds when nothing but a down or drained replica stops."""
    stops = 0
    original = ReplicaEngine.advance

    def checked(self, external_next_arrival_ms=None, external_pending=False):
        nonlocal stops
        before = self.now
        down, drained = not self.healthy, self.idle
        moved = original(self, external_next_arrival_ms, external_pending)
        behind = external_next_arrival_ms is not None and before < external_next_arrival_ms
        if behind and not moved:
            assert down or drained, f"replica {self.replica_id} stopped at t={before}"
            assert self.now == before
            stops += 1
        return moved

    monkeypatch.setattr(ReplicaEngine, "advance", checked)
    report = _play("fcfs", *case, health_aware=health_aware)
    assert report.crashes > 0
    assert stops > 0
