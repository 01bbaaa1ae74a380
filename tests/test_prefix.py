"""Tests for the prefix-cache subsystem (repro.serving.prefix).

Four layers of coverage:

1. **Store unit tests** — refcounted acquire/release, hit/miss/eviction
   accounting, LRU-by-release eviction order, copy-on-write whole-block
   rounding, misuse errors (length drift, over-release).
2. **Accounting invariants** — a randomized exerciser drives a
   ``PrefixStore`` plus private allocations through thousands of mixed
   operations and asserts pool-level conservation after every step:
   ``used == sum(private holdings) + sum(unique resident prefix blocks)``.
3. **Engine integration** — a trace whose prefixes nobody shares is
   digest-identical to the same trace with its prefix ids removed, per
   scheduler x router (the prefix gate); sharing runs hit the cache and
   re-attach after preemption.
4. **The fleet gate** — under a high-sharing multi-tenant workload,
   ``prefix-affinity`` routing plus copy-on-write sharing must beat
   ``kv-aware`` on the prefix-stripped traffic on *both* fleet
   preemptions and throughput, across every seed.
"""

import dataclasses
import random

import pytest

from repro.e2e import ModelConfig
from repro.serving import (
    ClusterSimulator,
    KvBlockManager,
    PrefixAffinityRouter,
    PrefixStore,
    ROUTERS,
    ReplicaSnapshot,
    Request,
    SCHEDULERS,
    ServingSimulator,
    prefix_shared_workload,
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


def _strip_prefixes(requests):
    """The identical traffic with every cache identity removed."""
    return [
        dataclasses.replace(r, prefix_id=None, prefix_tokens=0) for r in requests
    ]


def _unshared_prefixes(requests):
    """The identical traffic with each request's prefix made its own."""
    return [
        dataclasses.replace(r, prefix_id=f"{r.prefix_id}/{r.request_id}") for r in requests
    ]


def _pressure_workload(seed):
    """A high-sharing rush hour that preempts at the tight budget."""
    return prefix_shared_workload(
        num_requests=96,
        rate_rps=4000.0,
        num_tenants=4,
        system_prompt_tokens=192,
        tenant_template_tokens=64,
        mean_unique_tokens=32,
        mean_output_tokens=128,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# PrefixStore unit tests
# --------------------------------------------------------------------------- #
def test_store_miss_then_hits_share_blocks():
    manager = KvBlockManager(total_blocks=32, block_tokens=16)
    store = PrefixStore(manager)
    assert store.acquire("p", 64) == 64  # miss: 4 whole blocks allocated
    assert (store.misses, store.hits) == (1, 0)
    assert manager.used_blocks == 4 and store.referenced_blocks == 4
    assert store.acquire("p", 64) == 64  # hit: no new blocks
    assert store.acquire("p", 64) == 64
    assert (store.misses, store.hits) == (1, 2)
    assert manager.used_blocks == 4  # still stored once
    assert store.refcount("p") == 3
    assert store.blocks_saved == 8  # two hits x 4 blocks each
    assert store.hit_rate == pytest.approx(2 / 3)


def test_store_partial_tail_block_is_private():
    manager = KvBlockManager(total_blocks=32, block_tokens=16)
    store = PrefixStore(manager)
    # 70 tokens = 4 whole blocks + a 6-token tail: only the whole blocks
    # are shared (the tail is the request's copy-on-write copy).
    assert store.shared_block_tokens(70) == 64
    assert store.acquire("p", 70) == 64
    assert manager.used_blocks == 4
    # A prefix shorter than one block shares nothing and stores nothing.
    assert store.acquire("tiny", 15) == 0
    assert store.entry_count == 1 and manager.used_blocks == 4


def test_store_release_caches_then_reacquire_hits():
    manager = KvBlockManager(total_blocks=32, block_tokens=16)
    store = PrefixStore(manager)
    store.acquire("p", 64)
    store.release("p")
    # Zero refcount: still resident (cached), blocks now reclaimable.
    assert store.entry_count == 1
    assert store.refcount("p") == 0
    assert store.referenced_blocks == 0 and store.reclaimable_blocks == 4
    assert manager.used_blocks == 4
    # Re-attach is a hit, not a second allocation.
    assert store.acquire("p", 64) == 64
    assert store.hits == 1 and store.misses == 1
    assert store.referenced_blocks == 4 and store.reclaimable_blocks == 0


def test_store_eviction_is_lru_by_release_order():
    manager = KvBlockManager(total_blocks=12, block_tokens=16)
    store = PrefixStore(manager)
    for key in ("a", "b", "c"):
        store.acquire(key, 64)
    # Release in the order b, a, c: eviction must reclaim b first.
    for key in ("b", "a", "c"):
        store.release(key)
    assert manager.free_blocks == 0 and store.reclaimable_blocks == 12
    store.ensure_free(4)
    assert store.refcount("b") == 0 and "b" not in store.resident_tokens()
    assert set(store.resident_tokens()) == {"a", "c"}
    assert store.evictions == 1 and manager.free_blocks == 4
    store.ensure_free(8)
    assert set(store.resident_tokens()) == {"c"}
    assert store.evictions == 2


def test_store_never_evicts_referenced_entries():
    manager = KvBlockManager(total_blocks=8, block_tokens=16)
    store = PrefixStore(manager)
    store.acquire("pinned", 64)
    store.ensure_free(8)  # nothing reclaimable: a no-op, not an eviction
    assert store.entry_count == 1 and store.evictions == 0
    assert manager.free_blocks == 4


def test_store_misuse_raises():
    manager = KvBlockManager(total_blocks=32, block_tokens=16)
    store = PrefixStore(manager)
    store.acquire("p", 64)
    # A prefix id hashes the content, so its length cannot drift.
    with pytest.raises(ValueError, match="shared tokens"):
        store.acquire("p", 96)
    store.release("p")
    # Releasing a cached (refcount-0) or unknown prefix is a caller bug.
    with pytest.raises(ValueError, match="refcount would go negative"):
        store.release("p")
    with pytest.raises(ValueError, match="matching acquire"):
        store.release("never-acquired")


def test_store_resident_vs_referenced_token_views():
    manager = KvBlockManager(total_blocks=32, block_tokens=16)
    store = PrefixStore(manager)
    store.acquire("live", 64)
    store.acquire("cached", 32)
    store.release("cached")
    # The router's affinity view sees everything resident; the admission
    # accounting view sees only pinned (referenced) entries.
    assert store.resident_tokens() == {"live": 64, "cached": 32}
    assert store.referenced_tokens() == {"live": 64}


# --------------------------------------------------------------------------- #
# Satellite regressions: manager shrink bug, view fields
# --------------------------------------------------------------------------- #
def test_allocate_refuses_to_shrink_a_holding():
    manager = KvBlockManager(total_blocks=16, block_tokens=16)
    manager.allocate(0, 64)  # 4 blocks
    with pytest.raises(ValueError, match="shrink"):
        manager.allocate(0, 16)
    # The failed call must not have corrupted the accounting.
    assert manager.held(0) == 4 and manager.used_blocks == 4
    # Re-allocating the unchanged target and growing both still work.
    assert manager.allocate(0, 64) == 0
    assert manager.allocate(0, 65) == 1


def test_memory_view_exposes_used_and_peak():
    manager = KvBlockManager(total_blocks=16, block_tokens=16)
    store = PrefixStore(manager)
    manager.allocate(0, 96)  # 6 blocks
    manager.allocate(1, 32)  # 2 blocks
    manager.release(0)
    view = store.view()
    assert view.used_blocks == 2
    assert view.peak_used_blocks == 8
    assert view.free_blocks == 14
    assert view.resident_prefixes == {}
    # A cached prefix counts as free; only a pinned one is resident.
    store.acquire("cached", 32)
    store.release("cached")
    store.acquire("pinned", 64)
    view = store.view()
    assert view.used_blocks == 8 and view.free_blocks == 8 + 2
    assert view.resident_prefixes == {"pinned": 64}


def test_admission_blocks_discounts_resident_prefixes():
    from repro.serving.memory import KvMemoryView

    request = Request(
        request_id=0,
        arrival_ms=0.0,
        prompt_tokens=100,
        output_tokens=8,
        slo_ms=1e6,
        prefix_id="p",
        prefix_tokens=70,
    )
    base = dict(block_tokens=16, total_blocks=64, free_blocks=64)
    # Prefix resident (4 whole blocks = 64 tokens): charge only the
    # private suffix (100 + 1 - 64 = 37 tokens -> 3 blocks).
    resident = KvMemoryView(**base, resident_prefixes={"p": 64})
    assert resident.admission_blocks(request) == 3
    # Not resident: shared + private = blocks_for(prompt + 1), exactly the
    # no-prefix arithmetic.
    absent = KvMemoryView(**base)
    assert absent.admission_blocks(request) == 4 + 3
    assert absent.admission_blocks(request) == absent.blocks_for(101)
    # No prefix: unchanged arithmetic.
    plain = dataclasses.replace(request, prefix_id=None, prefix_tokens=0)
    assert absent.admission_blocks(plain) == absent.blocks_for(101)


def test_request_prefix_validation():
    common = dict(request_id=0, arrival_ms=0.0, prompt_tokens=32, output_tokens=4, slo_ms=1e4)
    with pytest.raises(ValueError):
        Request(**common, prefix_id="p", prefix_tokens=0)  # id without span
    with pytest.raises(ValueError):
        Request(**common, prefix_id="p", prefix_tokens=33)  # span > prompt
    with pytest.raises(ValueError):
        Request(**common, prefix_tokens=8)  # span without id
    ok = Request(**common, prefix_id="p", prefix_tokens=32)
    assert ok.prefix_tokens == 32


# --------------------------------------------------------------------------- #
# Randomized accounting invariants
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(4))
def test_randomized_store_invariants(seed):
    """Conservation under a random op mix: the pool's used blocks always
    equal the private holdings plus each resident prefix counted once.

    The residency maps are live read-only proxies the store updates at
    every entry change; after every operation they must equal the maps
    recomputed from the entries, and refuse writes."""
    rng = random.Random(seed)
    block_tokens = 16
    manager = KvBlockManager(total_blocks=64, block_tokens=block_tokens)
    store = PrefixStore(manager)
    keys = [f"prefix-{i}" for i in range(6)]
    key_tokens = {key: block_tokens * rng.randint(1, 3) for key in keys}
    attached = {key: 0 for key in keys}  # our model of the refcounts
    private = {}  # request id -> tokens held privately
    next_rid = 0

    def check():
        private_blocks = sum(
            blocks_for_tokens(tokens, block_tokens) for tokens in private.values()
        )
        shared_blocks = sum(
            store.resident_tokens()[key] // block_tokens
            for key in store.resident_tokens()
        )
        assert manager.used_blocks == private_blocks + shared_blocks
        assert store.resident_blocks == shared_blocks
        assert manager.free_blocks == manager.total_blocks - manager.used_blocks
        for key in keys:
            assert store.refcount(key) == attached[key] >= 0
            if attached[key]:
                assert key in store.referenced_tokens()
        entries = store._entries
        assert store.resident_tokens() == {
            key: entry.blocks * block_tokens for key, entry in entries.items()
        }
        assert store.referenced_tokens() == {
            key: entry.blocks * block_tokens
            for key, entry in entries.items()
            if entry.refcount > 0
        }
        for live in (store.resident_tokens(), store.referenced_tokens()):
            with pytest.raises(TypeError):
                live["intruder"] = block_tokens

    for _ in range(2000):
        op = rng.random()
        if op < 0.35:  # attach a request to a random prefix
            key = rng.choice(keys)
            try:
                store.acquire(key, key_tokens[key])
            except RuntimeError:
                pass  # pool genuinely full even after eviction
            else:
                attached[key] += 1
        elif op < 0.6 and any(attached.values()):  # detach
            key = rng.choice([k for k in keys if attached[k]])
            store.release(key)
            attached[key] -= 1
        elif op < 0.8:  # a private allocation (a running request's blocks)
            tokens = rng.randint(1, 64)
            store.ensure_free(blocks_for_tokens(tokens, block_tokens))
            try:
                manager.allocate(next_rid, tokens)
            except RuntimeError:
                pass
            else:
                private[next_rid] = tokens
                next_rid += 1
        elif op < 0.9 and private:  # finish a private request
            rid = rng.choice(list(private))
            manager.release(rid)
            del private[rid]
        elif op < 0.98:  # pressure: force evictions of cached entries
            store.ensure_free(rng.randint(1, manager.total_blocks))
        else:  # a crash wipes every entry, referenced ones included
            store.clear()
            attached = dict.fromkeys(keys, 0)
        check()
    # Releases stay balanced: every key we believe is detached refuses
    # another release (idempotence guard), every attached one accepts it.
    for key in keys:
        if attached[key] == 0 and store.refcount(key) == 0:
            with pytest.raises(ValueError):
                store.release(key)


# --------------------------------------------------------------------------- #
# Workload generator
# --------------------------------------------------------------------------- #
def test_prefix_workload_is_deterministic_and_structured():
    first = prefix_shared_workload(num_requests=40, num_tenants=3, seed=7)
    second = prefix_shared_workload(num_requests=40, num_tenants=3, seed=7)
    assert first == second
    assert prefix_shared_workload(num_requests=40, num_tenants=3, seed=8) != first
    # Full sharing: every request declares the same per-tenant prefix.
    assert all(r.prefix_id is not None for r in first)
    ids = {r.prefix_id for r in first}
    assert 1 <= len(ids) <= 3  # one id per tenant, stable across requests
    prefix_tokens = {r.prefix_tokens for r in first}
    assert prefix_tokens == {256 + 128}  # system + template defaults
    assert all(r.prompt_tokens > r.prefix_tokens for r in first)


def test_prefix_workload_shared_fraction_only_flips_identity():
    shared = prefix_shared_workload(num_requests=50, shared_fraction=1.0, seed=3)
    unshared = prefix_shared_workload(num_requests=50, shared_fraction=0.0, seed=3)
    assert all(r.prefix_id is None and r.prefix_tokens == 0 for r in unshared)
    # Identical traffic otherwise: same arrivals, prompts, outputs, SLOs.
    assert _strip_prefixes(shared) == unshared


# --------------------------------------------------------------------------- #
# Engine integration: the prefix gate and cache behavior
# --------------------------------------------------------------------------- #
def _tight_budget(requests, slack=8):
    footprint = max(
        blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in requests
    )
    return max(150, footprint + slack)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_zero_sharing_is_digest_identical_per_scheduler(scheduler):
    """The prefix gate, replica level: prefixes nobody shares are stored,
    cached, re-attached after preemption and evicted, yet the trace is
    the one the prefix-stripped traffic produces."""
    shared = _pressure_workload(seed=0)
    budget = _tight_budget(shared)

    def run(requests):
        sim = ServingSimulator(
            TINY_DENSE, scheduler=scheduler, max_batch_size=8, kv_budget_blocks=budget
        )
        return sim.simulate(requests, workload="prefix-shared")

    unshared = run(_unshared_prefixes(shared))
    stripped = run(_strip_prefixes(shared))
    assert unshared.digest() == stripped.digest()
    assert unshared.preemptions == stripped.preemptions > 0
    assert unshared.prefix_misses >= len(shared) and unshared.prefix_evictions > 0
    assert stripped.prefix_hits == 0 and stripped.prefix_misses == 0


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_zero_sharing_cluster_is_digest_identical_per_router(router):
    shared = _pressure_workload(seed=1)
    budget = _tight_budget(shared)

    def run(requests):
        cluster = ClusterSimulator(
            TINY_DENSE, replicas=2, router=router, max_batch_size=8, kv_budget_blocks=budget
        )
        return cluster.simulate(requests, workload="prefix-shared")

    unshared = run(_unshared_prefixes(shared))
    assert unshared.digest() == run(_strip_prefixes(shared)).digest()
    assert unshared.preemptions > 0


def test_sharing_run_hits_the_cache_and_digests_stably():
    workload = prefix_shared_workload(num_requests=64, rate_rps=2000.0, seed=4)

    def run():
        sim = ServingSimulator(
            TINY_DENSE,
            max_batch_size=8,
            kv_budget_blocks=_tight_budget(workload),
        )
        return sim.simulate(workload, workload="prefix-shared")

    first, second = run(), run()
    assert first.digest() == second.digest()
    assert first.prefix_misses >= 1  # each tenant's prefix stored once
    assert first.prefix_hits > first.prefix_misses
    assert first.prefix_hit_rate > 0.5
    assert first.prefix_blocks_saved > 0
    assert first.prefix_resident_peak >= 1


def test_preempted_request_reattaches_to_resident_prefix():
    """Under pressure the engine preempts; victims detach from their
    prefix and readmission re-attaches — visible as hits in excess of
    what admissions alone could produce."""
    workload = _pressure_workload(seed=0)
    sim = ServingSimulator(
        TINY_DENSE,
        max_batch_size=8,
        kv_budget_blocks=_tight_budget(workload),
    )
    report = sim.simulate(workload, workload="prefix-shared")
    assert report.preemptions > 0
    # Every request declared a prefix, so lookups = admissions; with
    # preemption readmits, admissions (and thus lookups) exceed the
    # request count while misses stay at the tenant-prefix count.
    lookups = report.prefix_hits + report.prefix_misses
    assert lookups > len(workload)
    assert report.prefix_misses <= 4 + report.prefix_evictions


# --------------------------------------------------------------------------- #
# Router
# --------------------------------------------------------------------------- #
def _snapshot(replica_id, resident=None, unreserved=100, load=0, preemptions=0):
    return ReplicaSnapshot(
        replica_id=replica_id,
        now_ms=0.0,
        waiting=load,
        running=0,
        max_batch_size=8,
        kv_total_blocks=200,
        kv_free_blocks=200,
        kv_reserved_blocks=200 - unreserved,
        preemptions=preemptions,
        finished=0,
        resident_prefixes=resident or {},
    )


def test_prefix_affinity_routes_to_the_holder():
    router = PrefixAffinityRouter()
    router.reset(3)
    request = Request(
        request_id=0, arrival_ms=0.0, prompt_tokens=64, output_tokens=4,
        slo_ms=1e4, prefix_id="p", prefix_tokens=48,
    )
    snapshots = [
        _snapshot(0, unreserved=150),  # roomiest, but not a holder
        _snapshot(1, resident={"p": 32}, load=5),
        _snapshot(2, resident={"p": 48}, load=9),  # longest resident span
    ]
    assert router.route(request, snapshots) == 2
    # Among equal spans, kv-aware's ranking breaks the tie.
    snapshots[1] = _snapshot(1, resident={"p": 48}, unreserved=120, load=5)
    assert router.route(request, snapshots) == 1


def test_prefix_affinity_falls_back_to_kv_aware():
    from repro.serving import KvAwareRouter

    affinity, kv = PrefixAffinityRouter(), KvAwareRouter()
    affinity.reset(3)
    kv.reset(3)
    snapshots = [
        _snapshot(0, unreserved=80),
        _snapshot(1, unreserved=120),
        _snapshot(2, unreserved=90),
    ]
    # No prefix declared -> identical to kv-aware.
    plain = Request(request_id=0, arrival_ms=0.0, prompt_tokens=64, output_tokens=4, slo_ms=1e4)
    assert affinity.route(plain, snapshots) == kv.route(plain, snapshots)
    # Prefix declared but resident nowhere -> identical to kv-aware.
    cold = dataclasses.replace(plain, prefix_id="p", prefix_tokens=48)
    assert affinity.route(cold, snapshots) == kv.route(cold, snapshots)


# --------------------------------------------------------------------------- #
# The fleet gate
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(8))
def test_prefix_affinity_with_sharing_beats_kv_aware_without(seed):
    """The acceptance gate: on a high-sharing multi-tenant day, prefix
    sharing + affinity routing must strictly win on both fleet
    preemptions and throughput over kv-aware on the same traffic with
    its prefix ids removed — the same budget, every seed."""
    workload = _pressure_workload(seed)
    budget = _tight_budget(workload)

    def run(router, requests):
        cluster = ClusterSimulator(
            TINY_DENSE,
            replicas=2,
            router=router,
            scheduler="fcfs",
            max_batch_size=8,
            kv_budget_blocks=budget,
        )
        return cluster.simulate(requests, workload="prefix-shared")

    shared = run("prefix-affinity", workload)
    baseline = run("kv-aware", _strip_prefixes(workload))
    assert shared.preemptions < baseline.preemptions, (
        f"seed {seed}: sharing preempted {shared.preemptions}x vs "
        f"baseline {baseline.preemptions}x"
    )
    assert shared.throughput_tok_s > baseline.throughput_tok_s, (
        f"seed {seed}: sharing {shared.throughput_tok_s:.0f} tok/s vs "
        f"baseline {baseline.throughput_tok_s:.0f} tok/s"
    )
    assert shared.prefix_hit_rate > 0.5
    assert baseline.prefix_hits == 0 and baseline.prefix_misses == 0
