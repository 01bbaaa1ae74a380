"""Fault injection and failure recovery (repro.serving.faults).

The contracts under test:

* **Schedules are pure functions of (seed, fleet).**
  ``FaultSchedule.generate`` is deterministic, seed-sensitive, and pairs
  every crash with a recovery; hand-built schedules validate event order
  and crash/recover alternation.
* **The no-op gate.**  An *empty* fault schedule (and traffic without
  hard deadlines) changes nothing: with every replica healthy,
  health-aware routing digests identically to health-blind routing, per
  scheduler and per router.
* **Crashes conserve requests.**  Without deadlines, every request lost
  to a crash re-enters global routing (counted as a retry) and still
  finishes; with deadlines, finished + shed partitions the workload.
* **Health-aware routing beats health-blind.**  Across seeds, filtering
  crashed replicas out of the router's view strictly increases completed
  requests (and goodput) under the same crash schedule.
* **Pool wipes conserve accounting.**  ``PrefixStore.clear()`` and
  ``KvBlockManager.reset()`` — the crash wipe path — leave the pool's
  books balanced and re-admission starts from a cold cache.
"""

import dataclasses
import random

import pytest

from repro.e2e import ModelConfig
from repro.serving import (
    ClusterSimulator,
    FaultSchedule,
    KvBlockManager,
    PrefixStore,
    ReplicaCrash,
    ReplicaRecover,
    ReplicaSlowdown,
    ROUTERS,
    SCHEDULERS,
    ServingSimulator,
    deadline_workload,
    get_router,
    steady_workload,
)
from repro.serving.memory import blocks_for_tokens

TINY_DENSE = ModelConfig(
    name="tiny-dense",
    num_layers=2,
    hidden_size=256,
    num_heads=4,
    kv_len=256,
    head_dim=64,
    dense_ffn_layers=2,
    ffn_intermediate=512,
    weight_dtype="fp16",
    tensor_parallel=1,
)


def _tight_budget(requests, slack=8):
    footprint = max(
        blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in requests
    )
    return max(150, footprint + slack)


# --------------------------------------------------------------------------- #
# FaultSchedule: generation, validation, ordering
# --------------------------------------------------------------------------- #
def test_generate_is_deterministic_and_seed_sensitive():
    first = FaultSchedule.generate(4, horizon_ms=30_000.0, seed=7)
    second = FaultSchedule.generate(4, horizon_ms=30_000.0, seed=7)
    other = FaultSchedule.generate(4, horizon_ms=30_000.0, seed=8)
    assert first == second
    assert first != other
    assert len(first) > 0


def test_generate_pairs_every_crash_with_a_recovery():
    schedule = FaultSchedule.generate(6, horizon_ms=120_000.0, seed=3)
    down = set()
    for event in schedule:
        if isinstance(event, ReplicaCrash):
            assert event.replica_id not in down
            down.add(event.replica_id)
        elif isinstance(event, ReplicaRecover):
            assert event.replica_id in down
            down.discard(event.replica_id)
    assert not down  # every crash recovered, even past the horizon


def test_generate_can_disable_slowdowns():
    schedule = FaultSchedule.generate(
        3, horizon_ms=60_000.0, seed=0, mean_time_between_slowdowns_ms=0.0
    )
    assert not any(isinstance(e, ReplicaSlowdown) for e in schedule)


def test_generate_validates_knobs():
    nan, inf = float("nan"), float("inf")
    cases = [
        (dict(num_replicas=0), "num_replicas"),
        # Replicas are a count: a bool is not one, and 2.5 is not truncated.
        (dict(num_replicas=True), "num_replicas"),
        (dict(num_replicas=2.5), "num_replicas"),
        (dict(horizon_ms=0.0), "horizon_ms"),
        # Non-finite knobs: NaN fails every sign check, infinity passes it.
        (dict(horizon_ms=nan), "horizon_ms"),
        (dict(horizon_ms=inf), "horizon_ms"),
        (dict(mean_uptime_ms=-1.0), "mean_uptime_ms"),
        (dict(mean_downtime_ms=inf), "mean_downtime_ms"),
        (dict(mean_slowdown_ms=nan), "mean_slowdown_ms"),
        (dict(mean_time_between_slowdowns_ms=-1.0), "mean_time_between_slowdowns_ms"),
        (dict(mean_time_between_slowdowns_ms=nan), "mean_time_between_slowdowns_ms"),
        (dict(mean_time_between_slowdowns_ms=inf), "mean_time_between_slowdowns_ms"),
        # An infinite factor used to pass and fail at the first drawn event.
        (dict(slowdown_factor_range=(1.5, inf)), "slowdown_factor_range"),
        (dict(slowdown_factor_range=(2.0, 1.5)), "slowdown_factor_range"),
        # A factor below 1 would speed the replica up.
        (dict(slowdown_factor_range=(0.5, 0.9)), "slowdown_factor_range"),
        (dict(slowdown_factor_range=(0.5, 2.0)), "slowdown_factor_range"),
        (dict(slowdown_factor_range=(nan, 2.0)), "slowdown_factor_range"),
    ]
    for knobs, name in cases:
        knobs = {"num_replicas": 2, **knobs}
        with pytest.raises(ValueError, match=rf"^{name} must "):
            FaultSchedule.generate(**knobs)
    # An interval of 0 still turns slowdowns off.
    calm = FaultSchedule.generate(2, horizon_ms=60_000.0, mean_time_between_slowdowns_ms=0)
    assert calm and not any(isinstance(e, ReplicaSlowdown) for e in calm)
    # A factor of exactly 1 stays legal: a no-op slowdown.
    noop = FaultSchedule.generate(2, horizon_ms=60_000.0, slowdown_factor_range=(1.0, 1.0))
    slowdowns = [e for e in noop if isinstance(e, ReplicaSlowdown)]
    assert slowdowns and all(e.factor == 1.0 for e in slowdowns)


def test_event_validation():
    nan, inf = float("nan"), float("inf")
    cases = [
        (lambda: ReplicaCrash(-1.0, 0), "at_ms"),
        (lambda: ReplicaRecover(0.0, -1), "replica_id"),
        (lambda: ReplicaSlowdown(0.0, 0, factor=0.0, duration_ms=10.0), "factor"),
        # A factor below 1 would speed the replica up.
        (lambda: ReplicaSlowdown(0.0, 0, factor=0.5, duration_ms=10.0), "factor"),
        (lambda: ReplicaSlowdown(0.0, 0, factor=0.999, duration_ms=10.0), "factor"),
        (lambda: ReplicaSlowdown(0.0, 0, factor=-2.0, duration_ms=10.0), "factor"),
        (lambda: ReplicaSlowdown(0.0, 0, factor=2.0, duration_ms=0.0), "duration_ms"),
        # Non-finite values: NaN fails every sign check, infinity passes it.
        (lambda: ReplicaSlowdown(0.0, 0, factor=nan, duration_ms=10.0), "factor"),
        (lambda: ReplicaSlowdown(0.0, 0, factor=inf, duration_ms=10.0), "factor"),
        (lambda: ReplicaSlowdown(0.0, 0, factor=2.0, duration_ms=nan), "duration_ms"),
        (lambda: ReplicaCrash(nan, 0), "at_ms"),
        # Replica ids index the fleet: integers only, and bool is not one.
        (lambda: ReplicaCrash(1.0, 1.5), "replica_id"),
        (lambda: ReplicaRecover(1.0, True), "replica_id"),
    ]
    for build, field in cases:
        with pytest.raises(ValueError, match=rf"^Replica\w+\.{field} "):
            build()
    assert ReplicaSlowdown(0.0, 0, factor=1.0, duration_ms=10.0).factor == 1.0


def test_schedule_sorts_events_and_orders_ties():
    # At one timestamp: recover before slowdown before crash, so a
    # replica can bounce (recover then re-crash) without tripping the
    # alternation check.
    schedule = FaultSchedule(
        [
            ReplicaCrash(5.0, 0),
            ReplicaSlowdown(5.0, 1, factor=2.0, duration_ms=10.0),
            ReplicaCrash(1.0, 1),
            ReplicaRecover(5.0, 1),
        ]
    )
    assert [type(e) for e in schedule] == [
        ReplicaCrash,  # t=1 replica 1
        ReplicaRecover,  # t=5 replica 1 (recover first at the tie)
        ReplicaSlowdown,  # t=5 replica 1
        ReplicaCrash,  # t=5 replica 0
    ]
    assert schedule.max_replica_id() == 1


def test_schedule_rejects_bad_alternation():
    with pytest.raises(ValueError):  # crash while already down
        FaultSchedule([ReplicaCrash(1.0, 0), ReplicaCrash(2.0, 0)])
    with pytest.raises(ValueError):  # recover without a crash
        FaultSchedule([ReplicaRecover(1.0, 0)])


def test_cluster_rejects_schedule_beyond_fleet():
    workload = steady_workload(num_requests=4, seed=0)
    cluster = ClusterSimulator(TINY_DENSE, replicas=2)
    schedule = FaultSchedule([ReplicaCrash(1.0, 2), ReplicaRecover(2.0, 2)])
    with pytest.raises(ValueError, match="targets replica 2"):
        cluster.simulate(workload, faults=schedule)


# --------------------------------------------------------------------------- #
# The no-op gate: an empty schedule changes nothing, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_empty_schedule_is_digest_identical_per_scheduler(scheduler):
    workload = steady_workload(
        num_requests=48, rate_rps=2000.0, mean_output_tokens=32, seed=1
    )
    budget = _tight_budget(workload)

    def run(health_aware):
        cluster = ClusterSimulator(
            TINY_DENSE,
            replicas=2,
            scheduler=scheduler,
            max_batch_size=8,
            kv_budget_blocks=budget,
            health_aware=health_aware,
        )
        return cluster.simulate(workload, faults=FaultSchedule())

    baseline = run(health_aware=False)
    report = run(health_aware=True)
    assert report.digest() == baseline.digest()
    assert report.crashes == 0 and report.retries == 0 and report.shed == 0
    assert report.availability == 1.0
    assert report.goodput_tok_s == report.throughput_tok_s


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_empty_schedule_is_digest_identical_per_router(router):
    workload = steady_workload(
        num_requests=48, rate_rps=2000.0, mean_output_tokens=32, seed=2
    )
    budget = _tight_budget(workload)

    def run(health_aware):
        cluster = ClusterSimulator(
            TINY_DENSE,
            replicas=3,
            router=router,
            max_batch_size=8,
            kv_budget_blocks=budget,
            health_aware=health_aware,
        )
        return cluster.simulate(workload, faults=FaultSchedule())

    assert run(health_aware=True).digest() == run(health_aware=False).digest()


def test_generous_deadlines_digest_identical_to_no_deadlines():
    """Deadlines that never lapse must not perturb the trace: the digest
    excludes ``deadline_ms`` and the shedding sweep drops nothing."""
    stamped = deadline_workload(
        num_requests=32, rate_rps=2000.0, deadline_factor=1000.0, seed=4
    )
    bare = [dataclasses.replace(r, deadline_ms=None) for r in stamped]

    def run(requests):
        sim = ServingSimulator(TINY_DENSE, max_batch_size=8)
        return sim.simulate(requests, workload="deadline")

    with_deadlines = run(stamped)
    assert with_deadlines.digest() == run(bare).digest()
    assert with_deadlines.shed == 0


# --------------------------------------------------------------------------- #
# Crashes: conservation, retries, failover, downtime
# --------------------------------------------------------------------------- #
def _crash_cluster(**kwargs):
    return ClusterSimulator(
        TINY_DENSE,
        replicas=2,
        router="round-robin",
        max_batch_size=8,
        **kwargs,
    )


def test_crash_conserves_requests_and_counts_retries():
    workload = steady_workload(
        num_requests=48, rate_rps=2000.0, mean_output_tokens=64, seed=5
    )
    budget = _tight_budget(workload)
    base = _crash_cluster(kv_budget_blocks=budget).simulate(workload)
    schedule = FaultSchedule(
        [
            ReplicaCrash(base.duration_ms * 0.3, 0),
            ReplicaRecover(base.duration_ms * 0.8, 0),
        ]
    )

    def run():
        return _crash_cluster(kv_budget_blocks=budget).simulate(
            workload, faults=schedule
        )

    report = run()
    # Conservation: no deadlines, so every request — including every one
    # lost mid-flight to the crash — eventually completes, exactly once.
    assert report.num_requests == len(workload)
    assert sorted(m.request_id for m in report.requests) == [
        r.request_id for r in workload
    ]
    assert report.crashes == 1
    assert report.retries > 0
    # Health-aware re-routing lands the lost requests on the survivor.
    assert report.failovers == report.retries
    assert report.downtime_ms > 0.0
    assert report.availability < 1.0
    assert report.shed == 0
    # A retried request keeps its original arrival, so its latency spans
    # the lost attempt too.
    retried_span = max(m.latency_ms for m in report.requests)
    assert retried_span > max(m.latency_ms for m in base.requests)
    # Faulted runs are still deterministic, digest and all.
    assert run().digest() == report.digest()


def test_crash_wipes_the_replica_pool():
    workload = steady_workload(
        num_requests=24, rate_rps=2000.0, mean_output_tokens=64, seed=6
    )
    budget = _tight_budget(workload)
    base = _crash_cluster(kv_budget_blocks=budget).simulate(workload)
    schedule = FaultSchedule([ReplicaCrash(base.duration_ms * 0.5, 0)])
    # No recovery and nothing pending afterwards: the stranded replica's
    # report shows the crash, zero residual pool pressure is implied by
    # the survivor finishing the whole workload.
    report = _crash_cluster(kv_budget_blocks=budget).simulate(
        workload, faults=schedule
    )
    assert report.num_requests == len(workload)
    crashed = report.replicas[0]
    assert crashed.crashes == 1
    assert crashed.downtime_ms > 0.0
    assert crashed.availability < 1.0


def test_slowdown_stretches_the_makespan():
    workload = steady_workload(
        num_requests=48, rate_rps=2000.0, mean_output_tokens=64, seed=5
    )
    budget = _tight_budget(workload)
    base = _crash_cluster(kv_budget_blocks=budget).simulate(workload)
    slow = FaultSchedule(
        [
            ReplicaSlowdown(0.0, rid, factor=4.0, duration_ms=base.duration_ms * 10)
            for rid in range(2)
        ]
    )
    slowed = _crash_cluster(kv_budget_blocks=budget).simulate(workload, faults=slow)
    assert slowed.num_requests == len(workload)
    assert slowed.duration_ms > base.duration_ms * 1.5
    assert slowed.crashes == 0  # a straggler is degraded, not down
    assert slowed.availability == 1.0


# --------------------------------------------------------------------------- #
# Deadlines: shedding semantics and goodput
# --------------------------------------------------------------------------- #
def test_deadline_shedding_partitions_the_workload():
    # One outage spanning most of the arrival window, deadlines far
    # shorter than the outage: whatever waits out the crash is dead on
    # recovery and must be shed, not served.
    workload = deadline_workload(
        num_requests=40, rate_rps=20.0, mean_output_tokens=32,
        slo_ms=250.0, deadline_factor=2.0, seed=0,
    )
    schedule = FaultSchedule([ReplicaCrash(100.0, 0), ReplicaRecover(4000.0, 0)])
    report = ClusterSimulator(
        TINY_DENSE, replicas=2, router="round-robin", max_batch_size=8,
        health_aware=False,
    ).simulate(workload, faults=schedule)
    assert report.shed > 0
    # finished + shed partitions the workload: nothing lost, nothing
    # served twice.
    assert report.num_requests + report.shed == len(workload)
    finished = {m.request_id for m in report.requests}
    assert len(finished) == report.num_requests
    # Shed requests produce nothing, so goodput stays below throughput
    # only if a *completed* request missed its deadline; either way the
    # useful-work figure can never exceed the raw one.
    assert report.goodput_tok_s <= report.throughput_tok_s


def test_shedding_without_faults_is_pure_deadline_pressure():
    """Deadline-driven shedding is engine-level: an overloaded replica
    sheds lapsed requests with no fault schedule in sight."""
    slow = deadline_workload(
        num_requests=32, rate_rps=4000.0, mean_output_tokens=128,
        slo_ms=1.0, deadline_factor=1.0, seed=1,
    )
    report = ServingSimulator(TINY_DENSE, max_batch_size=1).simulate(
        slow, workload="deadline"
    )
    assert report.shed > 0
    assert report.num_requests + report.shed == len(slow)
    assert report.crashes == 0


# --------------------------------------------------------------------------- #
# Whole-fleet outages
# --------------------------------------------------------------------------- #
def test_all_down_fleet_queues_arrivals_until_recovery():
    workload = steady_workload(num_requests=10, rate_rps=50.0, seed=1)
    schedule = FaultSchedule([ReplicaCrash(10.0, 0), ReplicaRecover(800.0, 0)])
    report = ClusterSimulator(TINY_DENSE, replicas=1).simulate(
        workload, faults=schedule
    )
    assert report.num_requests == len(workload)
    # Arrivals during the outage waited for recovery, so their latency
    # includes the downtime.
    waited = [m for m in report.requests if m.arrival_ms > 10.0]
    assert waited and all(m.finish_ms >= 800.0 for m in waited)


def test_permanently_dead_fleet_raises():
    workload = steady_workload(num_requests=10, rate_rps=50.0, seed=1)
    schedule = FaultSchedule([ReplicaCrash(10.0, 0)])
    with pytest.raises(ValueError, match="no further recovery"):
        ClusterSimulator(TINY_DENSE, replicas=1).simulate(
            workload, faults=schedule
        )


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_routers_reject_an_empty_candidate_list(router):
    instance = get_router(router)
    instance.reset(2)
    request = steady_workload(num_requests=1, seed=0)[0]
    with pytest.raises(ValueError, match="at least one replica"):
        instance.route(request, [])


# --------------------------------------------------------------------------- #
# Health-aware routing strictly beats health-blind
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(8))
def test_health_aware_beats_health_blind(seed):
    """Under a mid-run outage with hard deadlines, routing around the
    dead replica completes strictly more requests (and more goodput)
    than routing into it — on every seed."""
    workload = deadline_workload(
        num_requests=40, rate_rps=20.0, mean_output_tokens=32,
        slo_ms=250.0, deadline_factor=2.0, seed=seed,
    )
    schedule = FaultSchedule([ReplicaCrash(100.0, 0), ReplicaRecover(4000.0, 0)])

    def run(health_aware):
        cluster = ClusterSimulator(
            TINY_DENSE, replicas=2, router="round-robin", max_batch_size=8,
            seed=seed, health_aware=health_aware,
        )
        return cluster.simulate(workload, faults=schedule)

    aware, blind = run(True), run(False)
    assert aware.num_requests > blind.num_requests
    assert aware.shed < blind.shed
    assert aware.goodput_tok_s > blind.goodput_tok_s


# --------------------------------------------------------------------------- #
# The crash wipe: PrefixStore.clear() and KvBlockManager.reset()
# --------------------------------------------------------------------------- #
def test_manager_reset_empties_the_pool_but_keeps_the_peak():
    manager = KvBlockManager(total_blocks=32, block_tokens=16)
    manager.allocate(1, 64)
    manager.allocate(2, 128)
    assert manager.used_blocks == 12
    peak = manager.peak_used_blocks
    manager.reset()
    assert manager.used_blocks == 0
    assert manager.free_blocks == manager.total_blocks
    assert manager.peak_used_blocks == peak  # history survives the wipe
    manager.allocate(3, 16)  # the pool is immediately usable again
    assert manager.used_blocks == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_store_clear_conserves_pool_accounting(seed):
    """Randomized wipe-and-readmit: whatever mix of shared prefixes and
    private holdings is live, ``clear()`` returns exactly the shared
    blocks to the pool (``used == private``) and re-admission rebuilds
    ``used == private + unique shared`` from a cold cache."""
    rng = random.Random(seed)
    manager = KvBlockManager(total_blocks=96, block_tokens=16)
    store = PrefixStore(manager)
    prefix_tokens = {f"p{k}": 16 * (k + 1) for k in range(5)}
    refcounts = {key: 0 for key in prefix_tokens}
    private_blocks = {}
    next_private = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.45:
            key = rng.choice(sorted(prefix_tokens))
            try:
                store.acquire(key, prefix_tokens[key])
            except RuntimeError:
                continue
            refcounts[key] += 1
        elif roll < 0.65:
            held = [k for k, count in refcounts.items() if count > 0]
            if held:
                key = rng.choice(held)
                store.release(key)
                refcounts[key] -= 1
        elif roll < 0.85:
            tokens = 16 * rng.randrange(1, 4)
            blocks = blocks_for_tokens(tokens, 16)
            store.ensure_free(blocks)
            if manager.free_blocks < blocks:
                continue
            manager.allocate(next_private, tokens)
            private_blocks[next_private] = blocks
            next_private += 1
        elif private_blocks:
            key = rng.choice(sorted(private_blocks))
            manager.release(key)
            del private_blocks[key]
        # The standing invariant: pool usage is exactly private holdings
        # plus each resident shared prefix counted once.
        assert manager.used_blocks == sum(private_blocks.values()) + store.resident_blocks
    # The wipe: every shared block comes back, private holdings survive
    # (the engine's crash path wipes those separately via reset()).
    store.clear()
    assert store.entry_count == 0
    assert store.resident_blocks == 0
    assert manager.used_blocks == sum(private_blocks.values())
    # Re-admission starts cold: first acquire per key is a miss again,
    # and the invariant re-establishes.
    misses_before = store.misses
    for key in sorted(prefix_tokens):
        store.acquire(key, prefix_tokens[key])
    assert store.misses == misses_before + len(prefix_tokens)
    assert manager.used_blocks == sum(private_blocks.values()) + store.resident_blocks
