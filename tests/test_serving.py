"""Tests for the continuous-batching serving subsystem (repro.serving)."""

import dataclasses

import pytest

from repro.e2e import ModelConfig
from repro.pipeline import CompileCache, default_cache
from repro.serving import (
    ClusterSimulator,
    FcfsScheduler,
    KvAwareRouter,
    KvBlockManager,
    KvMemoryView,
    LeastLoadedRouter,
    MaxBatchScheduler,
    MemoryAwareScheduler,
    PowerOfTwoRouter,
    PrefixStore,
    ROUTERS,
    ReplicaSnapshot,
    Request,
    RequestQueue,
    RoundRobinRouter,
    RunningInfo,
    SCHEDULERS,
    ServingSimulator,
    SloScheduler,
    StepLatencyModel,
    bursty_workload,
    get_router,
    get_scheduler,
    heavy_tail_workload,
    kv_budget_blocks,
    kv_bytes_per_token,
    make_workload,
    percentile,
    shared_step_model,
    steady_workload,
    weight_bytes,
)
from repro.serving.memory import blocks_for_tokens
from repro.serving.report import RequestMetrics, ServeReport
from repro.serving.scheduler import Scheduler
from repro.serving.step_model import operator_plan, operator_us
from repro.sim.arch import get_arch

# Small model configs so the compiles under test stay cheap.
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
TINY_MAMBA = ModelConfig(
    name="tiny-mamba",
    num_layers=2,
    hidden_size=256,
    num_heads=4,
    kv_len=256,
    head_dim=64,
    mamba_layers=1,
    mamba_d_inner=128,
    weight_dtype="fp16",
    tensor_parallel=1,
)
TINY_MOE = ModelConfig(
    name="tiny-moe",
    num_layers=2,
    hidden_size=256,
    num_heads=4,
    kv_len=256,
    head_dim=64,
    moe_layers=2,
    moe_experts=8,
    moe_top_k=2,
    moe_intermediate=256,
    weight_dtype="awq-int4",
    tensor_parallel=1,
)
TINY_FP8 = dataclasses.replace(TINY_DENSE, name="tiny-fp8", weight_dtype="fp8")


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def test_workloads_are_seed_deterministic():
    for name in ("steady", "bursty", "heavy-tail"):
        first = make_workload(name, num_requests=20, seed=5)
        second = make_workload(name, num_requests=20, seed=5)
        assert first == second
        assert make_workload(name, num_requests=20, seed=6) != first
        assert len(first) == 20
        assert all(r.prompt_tokens >= 1 and r.output_tokens >= 1 for r in first)


def test_workload_shapes():
    bursty = bursty_workload(num_requests=24, burst_size=8, intra_burst_ms=20.0, seed=1)
    gaps = [b.arrival_ms - a.arrival_ms for a, b in zip(bursty, bursty[1:])]
    # Bursts: most gaps are tiny, a few (between bursts) are large.
    assert max(gaps) > 100.0 and sorted(gaps)[len(gaps) // 2] < 20.0

    tail = heavy_tail_workload(num_requests=200, min_output_tokens=8, seed=2)
    outputs = sorted(r.output_tokens for r in tail)
    assert outputs[0] >= 8
    # A heavy tail: the max output dwarfs the median.
    assert outputs[-1] > 10 * outputs[len(outputs) // 2]

    with pytest.raises(KeyError):
        make_workload("nope")


def test_request_queue_pops_in_arrival_order():
    requests = [
        Request(request_id=2, arrival_ms=50.0, prompt_tokens=8, output_tokens=4, slo_ms=1e4),
        Request(request_id=0, arrival_ms=10.0, prompt_tokens=8, output_tokens=4, slo_ms=1e4),
        Request(request_id=1, arrival_ms=10.0, prompt_tokens=8, output_tokens=4, slo_ms=1e4),
    ]
    queue = RequestQueue(requests)
    assert queue.next_arrival_ms == 10.0
    assert [r.request_id for r in queue.pop_arrived(10.0)] == [0, 1]
    assert queue.next_arrival_ms == 50.0 and len(queue) == 1
    assert queue.pop_arrived(49.9) == []
    assert [r.request_id for r in queue.pop_arrived(1e9)] == [2]


def test_request_errors_name_the_bad_values():
    with pytest.raises(ValueError, match=r"request 0: .* got 0/4$"):
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=0, output_tokens=4, slo_ms=1e4)
    with pytest.raises(ValueError, match=r"request 3: .* got 8/0$"):
        Request(request_id=3, arrival_ms=0.0, prompt_tokens=8, output_tokens=0, slo_ms=1e4)
    with pytest.raises(ValueError, match=r"request 4: .*got arrival_ms=-1.5, slo_ms=10000.0$"):
        Request(request_id=4, arrival_ms=-1.5, prompt_tokens=8, output_tokens=4, slo_ms=1e4)
    with pytest.raises(ValueError, match=r"request 5: .*got arrival_ms=0.0, slo_ms=0.0$"):
        Request(request_id=5, arrival_ms=0.0, prompt_tokens=8, output_tokens=4, slo_ms=0.0)
    # A fractional or boolean token count and a non-finite time used to
    # construct and be served (a NaN arrival even "finished").
    with pytest.raises(ValueError, match=r"request 6: prompt_tokens must be an integer, got 20.5$"):
        Request(request_id=6, arrival_ms=0.0, prompt_tokens=20.5, output_tokens=4, slo_ms=1e4)
    with pytest.raises(ValueError, match=r"request 7: output_tokens must be an integer, got 40.5$"):
        Request(request_id=7, arrival_ms=0.0, prompt_tokens=8, output_tokens=40.5, slo_ms=1e4)
    with pytest.raises(ValueError, match=r"request 8: output_tokens must be an integer, got True$"):
        Request(request_id=8, arrival_ms=0.0, prompt_tokens=8, output_tokens=True, slo_ms=1e4)
    with pytest.raises(ValueError, match=r"request 9: .*got arrival_ms=nan, slo_ms=10000.0$"):
        Request(
            request_id=9, arrival_ms=float("nan"), prompt_tokens=8, output_tokens=4, slo_ms=1e4
        )
    with pytest.raises(ValueError, match=r"request 10: .*got arrival_ms=0.0, slo_ms=inf$"):
        Request(
            request_id=10, arrival_ms=0.0, prompt_tokens=8, output_tokens=4, slo_ms=float("inf")
        )
    with pytest.raises(ValueError, match=r"request 11: deadline_ms \(inf\) must be finite"):
        Request(
            request_id=11, arrival_ms=0.0, prompt_tokens=8, output_tokens=4, slo_ms=1e4,
            deadline_ms=float("inf"),
        )


# --------------------------------------------------------------------------- #
# Schedulers
# --------------------------------------------------------------------------- #
def _request(rid, arrival, slo=10_000.0):
    return Request(
        request_id=rid, arrival_ms=arrival, prompt_tokens=16, output_tokens=8, slo_ms=slo
    )


def test_fcfs_admits_in_arrival_order():
    waiting = [_request(0, 0.0), _request(1, 1.0), _request(2, 2.0)]
    picked = FcfsScheduler().select(
        waiting, free_slots=2, now_ms=5.0, more_arrivals=True, memory=_view(1000)
    )
    assert [r.request_id for r in picked] == [0, 1]


def test_slo_scheduler_prefers_tight_deadlines():
    # Request 1 arrived later but its deadline is much earlier.  ``select``
    # receives ``waiting`` sorted by the policy's own key, as the engine
    # keeps it.
    scheduler = SloScheduler()
    waiting = sorted(
        [_request(0, 0.0, slo=50_000.0), _request(1, 1.0, slo=1_000.0)],
        key=scheduler.queue_key,
    )
    picked = scheduler.select(
        waiting, free_slots=1, now_ms=5.0, more_arrivals=True, memory=_view(1000)
    )
    assert [r.request_id for r in picked] == [1]


def test_slo_engine_schedules_tight_deadline_first():
    """The engine keeps ``waiting`` in deadline order: with one slot held
    by r0, the tight-SLO r2 that arrives last is scheduled before r1."""
    requests = [
        dataclasses.replace(_request(0, 0.0), output_tokens=400),  # decodes for ~8 ms
        _request(1, 1.0, slo=50_000.0),
        _request(2, 2.0, slo=1_000.0),
    ]
    sim = ServingSimulator(TINY_DENSE, scheduler="slo", arch="a100", max_batch_size=1)
    report = sim.simulate(requests)
    scheduled = {m.request_id: m.scheduled_ms for m in report.requests}
    assert scheduled[0] == 0.0 and scheduled[1] > 2.0
    assert scheduled[2] < scheduled[1]


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_no_free_slot_admits_nothing(name):
    # A negative count is no slice end: ``waiting[:-2]`` is nearly the whole queue.
    waiting = [_request(i, float(i)) for i in range(5)]
    scheduler = get_scheduler(name)
    for free_slots in (0, -2):
        for more_arrivals in (True, False):
            assert scheduler.select(waiting, free_slots, 1e6, more_arrivals, _view(1000)) == []


def test_max_batch_defers_until_full_or_final():
    scheduler = MaxBatchScheduler(max_wait_ms=500.0)
    waiting = [_request(0, 0.0), _request(1, 1.0)]
    pool = _view(1000)
    # Batch cannot be filled and more traffic is coming: hold.
    assert scheduler.select(waiting, 4, now_ms=5.0, more_arrivals=True, memory=pool) == []
    # No more arrivals ever: flush.
    assert len(scheduler.select(waiting, 4, now_ms=5.0, more_arrivals=False, memory=pool)) == 2
    # Enough waiting to fill: admit.
    waiting4 = waiting + [_request(2, 2.0), _request(3, 3.0)]
    assert len(scheduler.select(waiting4, 4, now_ms=5.0, more_arrivals=True, memory=pool)) == 4
    # A straggler ages past max_wait_ms: forced admission round.
    assert len(scheduler.select(waiting, 4, now_ms=600.0, more_arrivals=True, memory=pool)) == 2


def test_get_scheduler_resolves_names_and_instances():
    assert isinstance(get_scheduler("fcfs"), FcfsScheduler)
    custom = MaxBatchScheduler(max_wait_ms=10.0)
    assert get_scheduler(custom) is custom
    with pytest.raises(KeyError):
        get_scheduler("round-robin")


# --------------------------------------------------------------------------- #
# Step-latency model
# --------------------------------------------------------------------------- #
def test_bucket_for_rounds_up_and_rejects_oversized_batches():
    model = StepLatencyModel(arch="a100", buckets=(1, 2, 4, 8))
    assert model.bucket_for(1) == 1
    assert model.bucket_for(3) == 4
    assert model.bucket_for(8) == 8
    # A batch above the largest bucket used to be silently clamped to it
    # (timed as batch 8) — now it is an error.
    with pytest.raises(ValueError):
        model.bucket_for(100)
    with pytest.raises(ValueError):
        model.bucket_for(0)
    with pytest.raises(ValueError):
        StepLatencyModel(arch="a100", buckets=())


def test_ensure_bucket_extends_to_the_next_power_of_two():
    model = StepLatencyModel(arch="a100", buckets=(1, 2, 4, 8))
    assert model.ensure_bucket(8) == 8  # already covered: no change
    assert model.buckets == (1, 2, 4, 8)
    assert model.ensure_bucket(100) == 128
    assert model.buckets == (1, 2, 4, 8, 128)
    assert model.bucket_for(100) == 128


def test_simulator_extends_buckets_for_large_max_batch():
    """ServingSimulator(max_batch_size=N) must never be timed at a smaller
    bucket: the constructor extends the step model's bucket set."""
    model = StepLatencyModel(arch="a100", buckets=(1, 2))
    ServingSimulator(TINY_DENSE, arch="a100", max_batch_size=6, step_model=model)
    assert model.buckets == (1, 2, 8)
    # A batch of 6 is evaluated at its own bucket (8) — a fresh memo entry —
    # not silently folded into bucket 2.
    model.step_latency_ms(TINY_DENSE, "hexcute", batch=2)
    misses_before = model.memo_misses
    model.step_latency_ms(TINY_DENSE, "hexcute", batch=6)
    assert model.bucket_for(6) == 8
    assert model.memo_misses == misses_before + 1


def test_operator_plan_resolves_baselines():
    plan = dict((name, backend) for name, _, backend in operator_plan(TINY_MAMBA, "baseline"))
    assert plan["attention"] == "baseline"
    assert plan["mamba_scan"] == "mamba-lib"
    hexcute = dict((name, b) for name, _, b in operator_plan(TINY_MAMBA, "hexcute"))
    assert set(hexcute.values()) == {"hexcute"}


def test_step_model_memoizes_buckets():
    model = StepLatencyModel(arch="a100", buckets=(1, 2, 4, 8))
    first = model.operator_latencies_us(TINY_DENSE, "hexcute", batch=3)
    assert model.memo_misses == 1 and model.memo_hits == 0
    # Same bucket (4): memo hit, identical values.
    again = model.operator_latencies_us(TINY_DENSE, "hexcute", batch=4)
    assert model.memo_hits == 1
    assert again == first
    # Different bucket: a new miss.
    model.operator_latencies_us(TINY_DENSE, "hexcute", batch=8)
    assert model.memo_misses == 2


def test_compiles_start_no_worker_threads(monkeypatch):
    """Batch compiles, bucket precompiles, memo misses, autotune sweeps and
    decode_latency all run on the calling thread."""
    import threading

    from repro.e2e import decode_latency
    from repro.frontend.autotune import autotune_compile
    from repro.kernels.gemm import GemmConfig, build_fp16_gemm
    from repro.pipeline import compile_many

    def refuse(thread):
        raise AssertionError(f"a compile started thread {thread.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    gemm = lambda bk: build_fp16_gemm(64, 64, 128, GemmConfig(bm=64, bn=64, bk=bk))

    first, second = compile_many(
        [gemm(32), gemm(64)], arch="a100", max_candidates=4, cache=CompileCache()
    )
    assert first.fingerprint != second.fingerprint

    stats = StepLatencyModel(arch="a100", buckets=(1, 2), cache=CompileCache()).precompile(
        TINY_DENSE
    )
    assert stats.compiled > 0 and stats.errors == 0

    model = StepLatencyModel(arch="a100", cache=CompileCache())
    assert set(model.operator_latencies_us(TINY_DENSE, "hexcute", batch=2)) == {
        "attention", "ffn"
    }
    assert model.memo_misses == 1

    tuned = autotune_compile(
        lambda params: gemm(params["bk"]), [{"bk": 32}, {"bk": 64}],
        arch="a100", max_candidates=4, cache=CompileCache(),
    )
    assert tuned.num_feasible == 2

    config = dataclasses.replace(TINY_DENSE, name="tiny-dense-no-threads")
    assert decode_latency(config, batch_size=3, output_tokens=2, arch="a100").step_latency_ms > 0


@pytest.mark.parametrize(
    "operator,arch,config",
    [
        ("ffn", "a100", TINY_DENSE),
        ("mamba_scan", "a100", TINY_MAMBA),
        ("moe", "h100", TINY_MOE),
        ("ffn", "h100", TINY_FP8),
    ],
    ids=["dense", "mamba", "moe", "fp8"],
)
def test_precompile_warms_cache_and_evaluation_hits_it(operator, arch, config):
    # precompile_requests rebuilds each operator class's tile programs; a
    # lookup after precompile() must find every one of them in the cache.
    # One bucket keeps the fp8 compile cheap.
    assert operator in {name for name, _, _ in operator_plan(config, "hexcute")}
    cache = CompileCache(max_entries=256)
    model = StepLatencyModel(arch=arch, buckets=(2,), cache=cache)
    cold = model.precompile(config)
    assert cold.requests > 0 and cold.compiled > 0 and cold.errors == 0
    assert cold.already_cached == 0
    assert cold.cache_delta["puts"] == cold.compiled

    # A second model over the same cache starts warm: nothing to compile.
    warm = StepLatencyModel(arch=arch, buckets=(2,), cache=cache).precompile(config)
    assert warm.compiled == 0 and warm.already_cached == warm.requests

    # Evaluation afterwards only *hits* the precompiled cache (no new puts).
    puts_before = cache.stats.puts
    latency = model.step_latency_ms(config, "hexcute", batch=2)
    assert latency > 0
    assert cache.stats.puts == puts_before


def test_head_dim_is_parameterized():
    gpu = get_arch("a100")
    narrow = operator_us(
        "attention", gpu, dataclasses.replace(TINY_DENSE, head_dim=64), 4, "baseline"
    )
    wide = operator_us(
        "attention", gpu, dataclasses.replace(TINY_DENSE, head_dim=128), 4, "baseline"
    )
    assert narrow < wide  # half the head dim moves half the KV bytes


def test_triton_scan_compiles_into_the_step_models_cache():
    # On the triton backend the tiny Mamba step compiles one kernel, the
    # Triton scan baseline; it must land in the model's cache, not in the
    # process default.
    cache = CompileCache()
    default_puts = default_cache().stats.puts
    model = StepLatencyModel(arch="a100", buckets=(2,), cache=cache)
    assert model.step_latency_ms(TINY_MAMBA, "triton", batch=2) > 0
    assert cache.stats.puts == 1
    assert default_cache().stats.puts == default_puts


# --------------------------------------------------------------------------- #
# Simulator
# --------------------------------------------------------------------------- #
def _simulate_tiny(scheduler="fcfs", seed=3, **kwargs):
    workload = steady_workload(
        num_requests=12, rate_rps=50.0, mean_prompt_tokens=64, mean_output_tokens=12, seed=seed
    )
    sim = ServingSimulator(
        TINY_DENSE,
        backend="hexcute",
        scheduler=scheduler,
        arch="a100",
        max_batch_size=4,
        **kwargs,
    )
    return sim.simulate(workload, workload="steady")


def test_simulator_completes_every_request_deterministically():
    first = _simulate_tiny()
    second = _simulate_tiny()
    assert first.digest() == second.digest()
    assert first.num_requests == 12
    assert first.steps > 0 and first.duration_ms > 0
    assert first.throughput_tok_s > 0
    assert 0.0 <= first.slo_attainment <= 1.0
    assert 1.0 <= first.mean_batch_size <= 4.0
    for metrics in first.requests:
        assert metrics.scheduled_ms >= metrics.arrival_ms
        assert metrics.first_token_ms > metrics.scheduled_ms
        assert metrics.finish_ms >= metrics.first_token_ms
        assert metrics.latency_ms > 0 and metrics.ttft_ms > 0


def test_simulator_schedulers_produce_valid_but_distinct_traces():
    fcfs = _simulate_tiny("fcfs")
    maxb = _simulate_tiny("max-batch")
    assert fcfs.num_requests == maxb.num_requests == 12
    # max-batch trades queueing delay for occupancy.
    assert maxb.mean_batch_size >= fcfs.mean_batch_size
    assert fcfs.digest() != maxb.digest()


def test_max_batch_straggler_admitted_within_max_wait():
    """An idle engine must not sleep past max-batch's max_wait_ms deferral.

    Two requests arrive 10 s apart: the first can never fill the batch, so
    the scheduler defers — but its forced-admission round must fire at
    max_wait_ms, not at the second arrival."""
    requests = [
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=8, output_tokens=2, slo_ms=1e6),
        Request(request_id=1, arrival_ms=10_000.0, prompt_tokens=8, output_tokens=2, slo_ms=1e6),
    ]
    sim = ServingSimulator(
        TINY_DENSE, scheduler=MaxBatchScheduler(max_wait_ms=500.0), arch="a100",
        max_batch_size=4,
    )
    report = sim.simulate(requests)
    first = next(m for m in report.requests if m.request_id == 0)
    assert first.scheduled_ms == 500.0  # the forced flush, not the 10 s arrival


def _twin_ids_workload():
    # Ids 1, 2, 2, 1: 2 is the first id seen twice.  Every request arrives
    # at t=0 with a 40-token prompt.
    return [
        Request(request_id=rid, arrival_ms=0.0, prompt_tokens=40, output_tokens=4, slo_ms=1e6)
        for rid in (1, 2, 2, 1)
    ]


def test_simulator_rejects_duplicate_request_ids():
    sim = ServingSimulator(TINY_DENSE, backend="baseline", arch="a100", kv_budget_blocks=100)
    with pytest.raises(ValueError, match="duplicate request_id 2 "):
        sim.simulate(_twin_ids_workload())


def test_cluster_rejects_duplicate_request_ids():
    cluster = ClusterSimulator(
        TINY_DENSE, replicas=2, backend="baseline", arch="a100", kv_budget_blocks=100
    )
    with pytest.raises(ValueError, match="duplicate request_id 2 "):
        cluster.simulate(_twin_ids_workload())


def test_simulator_rejects_overadmitting_scheduler():
    class Greedy(Scheduler):
        name = "greedy"

        def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
            return list(waiting)  # ignores free_slots

    workload = steady_workload(num_requests=8, rate_rps=1000.0, seed=0)
    sim = ServingSimulator(
        TINY_DENSE, scheduler=Greedy(), arch="a100", max_batch_size=2,
        step_model=shared_step_model("a100"),
    )
    with pytest.raises(RuntimeError):
        sim.simulate(workload)


def test_simulator_rejects_scheduler_admitting_a_request_not_waiting():
    class Phantom(FcfsScheduler):
        name = "phantom"

        def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
            # Leave a slot for the phantom, so only membership can catch it.
            head = waiting[0]
            phantom = dataclasses.replace(head, request_id=10_000 + head.request_id)
            chosen = super().select(waiting, free_slots - 1, now_ms, more_arrivals, memory)
            return chosen + [phantom]

    workload = steady_workload(num_requests=20, rate_rps=1000.0, seed=0)
    sim = ServingSimulator(
        TINY_DENSE, scheduler=Phantom(), arch="a100", max_batch_size=4,
        step_model=shared_step_model("a100"),
    )
    message = "scheduler 'phantom' admitted request 10000, which is not waiting"
    with pytest.raises(RuntimeError, match=message):
        sim.simulate(workload)


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile([], 99) == 0.0
    with pytest.raises(ValueError, match="got 101"):
        percentile(values, 101)
    # The range check runs before the empty-input shortcut.
    with pytest.raises(ValueError, match="got 150"):
        percentile([], 150)
    with pytest.raises(ValueError, match="got -1"):
        percentile([], -1)


def _metrics(rid=0, finish=100.0):
    return RequestMetrics(
        request_id=rid,
        arrival_ms=0.0,
        scheduled_ms=1.0,
        first_token_ms=2.0,
        finish_ms=finish,
        prompt_tokens=16,
        output_tokens=8,
        slo_ms=50.0,
    )


# --------------------------------------------------------------------------- #
# KV-cache memory model
# --------------------------------------------------------------------------- #
def test_kv_footprints_scale_with_model_shape():
    per_token = kv_bytes_per_token(TINY_DENSE)
    # 2 (K and V) x layers x heads x head_dim x fp16.
    assert per_token == 2.0 * 2 * 4 * 64 * 2.0
    sharded = kv_bytes_per_token(dataclasses.replace(TINY_DENSE, tensor_parallel=4))
    assert sharded == per_token / 4

    weights = weight_bytes(TINY_DENSE)
    assert weights > 0
    assert weight_bytes(dataclasses.replace(TINY_DENSE, tensor_parallel=2)) == weights / 2
    with pytest.raises(KeyError):
        weight_bytes(dataclasses.replace(TINY_DENSE, weight_dtype="fp13"))


def test_kv_budget_blocks_derivation_and_errors():
    budget = kv_budget_blocks(TINY_DENSE, "a100")
    usable = 80.0 * 1e9 * 0.9 - weight_bytes(TINY_DENSE)
    assert budget == int(usable // (kv_bytes_per_token(TINY_DENSE) * 16))
    # Halving the utilization headroom shrinks the budget.
    assert kv_budget_blocks(TINY_DENSE, "a100", hbm_utilization=0.45) < budget
    with pytest.raises(ValueError):
        kv_budget_blocks(TINY_DENSE, "a100", block_tokens=0)
    with pytest.raises(ValueError):
        kv_budget_blocks(TINY_DENSE, "a100", hbm_utilization=1.5)
    # A model whose weights alone exceed usable HBM is unservable.
    giant = dataclasses.replace(
        TINY_DENSE, hidden_size=65536, num_layers=200, tensor_parallel=1
    )
    with pytest.raises(ValueError):
        kv_budget_blocks(giant, "a100")


def test_kv_block_manager_accounting():
    manager = KvBlockManager(total_blocks=10, block_tokens=16)
    assert manager.blocks_for(1) == 1
    assert manager.blocks_for(16) == 1
    assert manager.blocks_for(17) == 2

    assert manager.allocate(7, 33) == 3  # three blocks taken
    assert manager.used_blocks == 3 and manager.free_blocks == 7
    assert manager.allocate(7, 34) == 0  # same block count: no growth
    assert manager.allocate(7, 49) == 1  # crosses a block boundary
    assert manager.held(7) == 4
    assert manager.fits(8, 96) and not manager.fits(8, 97)
    with pytest.raises(RuntimeError):
        manager.allocate(8, 112)  # 7 blocks needed, 6 free
    assert manager.peak_used_blocks == 4
    assert manager.release(7) == 4
    assert manager.free_blocks == 10 and manager.release(7) == 0

    view = PrefixStore(manager).view()
    assert view.free_blocks == 10 and view.total_blocks == 10
    assert view.blocks_for(17) == 2
    with pytest.raises(ValueError):
        KvBlockManager(total_blocks=0)


def _pressure_workload(seed=3):
    return make_workload(
        "memory-pressure",
        num_requests=12,
        rate_rps=2000.0,
        mean_prompt_tokens=16,
        mean_output_tokens=96,
        max_prompt_tokens=64,
        max_output_tokens=192,
        seed=seed,
    )


def _pressure_budget(workload, slack=2.0):
    per_request = max(
        blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in workload
    )
    return int(per_request * slack)


def test_memory_pressure_workload_is_seeded_and_capped():
    first = _pressure_workload()
    assert first == _pressure_workload()
    assert first != _pressure_workload(seed=4)
    assert all(r.prompt_tokens <= 64 and r.output_tokens <= 192 for r in first)


@pytest.mark.parametrize("scheduler", ["fcfs", "slo", "max-batch", "memory-aware"])
def test_preemption_under_memory_pressure(scheduler):
    """A tight KV budget must force preemptions, stay within the pool, be
    deterministic, and still complete every request."""
    workload = _pressure_workload()
    sim = ServingSimulator(
        TINY_DENSE,
        scheduler=scheduler,
        arch="a100",
        max_batch_size=8,
        kv_budget_blocks=_pressure_budget(workload),
    )
    report = sim.simulate(workload, workload="memory-pressure")
    assert report.preemptions > 0
    assert 0.0 < report.kv_peak_utilization <= 1.0
    assert 0.0 < report.mean_kv_utilization <= 1.0
    assert report.num_requests == len(workload)
    assert report.digest() == sim.simulate(workload, workload="memory-pressure").digest()
    for metrics in report.requests:
        assert metrics.finish_ms > metrics.first_token_ms > metrics.arrival_ms


def test_unreached_kv_budget_changes_nothing():
    """A budget the traffic never reaches leaves the trace alone: the
    smallest pool that holds every request at full context at once, the
    derived HBM budget and an effectively infinite one digest identically
    for every scheduler on the existing workload suite."""
    generators = {
        "steady": lambda: steady_workload(
            num_requests=10, rate_rps=50.0, mean_prompt_tokens=64,
            mean_output_tokens=12, seed=5,
        ),
        "bursty": lambda: bursty_workload(
            num_requests=10, burst_size=4, mean_prompt_tokens=64,
            mean_output_tokens=12, seed=5,
        ),
        "heavy-tail": lambda: heavy_tail_workload(
            num_requests=10, rate_rps=50.0, mean_prompt_tokens=64,
            min_output_tokens=4, max_output_tokens=64, seed=5,
        ),
    }
    for name, generator in generators.items():
        workload = generator()
        ample = sum(blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in workload)
        for scheduler in sorted(SCHEDULERS):
            reports = [
                ServingSimulator(
                    TINY_DENSE, scheduler=scheduler, arch="a100",
                    max_batch_size=4, kv_budget_blocks=budget,
                ).simulate(workload, workload=name)
                for budget in (ample, None, 10**9)
            ]
            assert len({r.digest() for r in reports}) == 1, (name, scheduler)
            assert all(r.preemptions == 0 for r in reports)


def test_request_larger_than_budget_is_rejected():
    requests = [
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=512, output_tokens=128, slo_ms=1e6)
    ]
    sim = ServingSimulator(TINY_DENSE, arch="a100", kv_budget_blocks=16)
    with pytest.raises(ValueError):
        sim.simulate(requests)


def test_admission_is_blocked_until_blocks_free():
    """Two requests that cannot coexist: the second must wait for the first
    to finish and release its blocks, not share the pool."""
    requests = [
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=64, output_tokens=32, slo_ms=1e6),
        Request(request_id=1, arrival_ms=1.0, prompt_tokens=64, output_tokens=32, slo_ms=1e6),
    ]
    # Each request peaks at ceil(96/16) = 6 blocks; a 7-block pool holds one.
    sim = ServingSimulator(TINY_DENSE, arch="a100", max_batch_size=4, kv_budget_blocks=7)
    report = sim.simulate(requests)
    assert report.num_requests == 2
    first = next(m for m in report.requests if m.request_id == 0)
    second = next(m for m in report.requests if m.request_id == 1)
    # Strictly serial: the second is scheduled only after the first finished.
    assert second.scheduled_ms >= first.finish_ms
    assert report.mean_batch_size == 1.0
    assert report.preemptions == 0  # admission control, not preemption


# --------------------------------------------------------------------------- #
# Memory-aware scheduling hooks
# --------------------------------------------------------------------------- #
def _view(free, total=1000, block_tokens=16):
    return KvMemoryView(block_tokens=block_tokens, total_blocks=total, free_blocks=free)


def _running(rid, admitted, blocks, slo=10_000.0):
    return RunningInfo(
        request=_request(rid, arrival=0.0, slo=slo), admitted_ms=admitted, blocks_held=blocks
    )


@pytest.mark.parametrize("name", ["fcfs", "slo", "max-batch"])
def test_head_slice_policies_keep_the_fitting_prefix(name):
    scheduler = get_scheduler(name)
    # Arrival order is deadline order here, so every policy's queue_key
    # agrees with the list order.
    waiting = [
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=31, output_tokens=8, slo_ms=1e4),
        Request(request_id=1, arrival_ms=1.0, prompt_tokens=160, output_tokens=8, slo_ms=1e4),
        Request(request_id=2, arrival_ms=2.0, prompt_tokens=15, output_tokens=8, slo_ms=1e4),
    ]
    assert sorted(waiting, key=scheduler.queue_key) == waiting
    # 2 + 11 + 1 admission blocks; 8 free: the 11-block request does not fit
    # and, as a *prefix* policy, nothing behind it may jump the queue.
    picked = scheduler.select(
        waiting, free_slots=3, now_ms=5.0, more_arrivals=False, memory=_view(free=8),
    )
    assert [r.request_id for r in picked] == [0]
    # With room for all three, the prefix is the whole head slice.
    picked = scheduler.select(waiting, 3, 5.0, False, memory=_view(free=14))
    assert [r.request_id for r in picked] == [0, 1, 2]


def test_memory_aware_scheduler_packs_smallest_first():
    waiting = [
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=160, output_tokens=8, slo_ms=1e4),
        Request(request_id=1, arrival_ms=1.0, prompt_tokens=15, output_tokens=8, slo_ms=1e4),
        Request(request_id=2, arrival_ms=2.0, prompt_tokens=31, output_tokens=8, slo_ms=1e4),
    ]
    picked = MemoryAwareScheduler().select(
        waiting, free_slots=3, now_ms=5.0, more_arrivals=False, memory=_view(free=8),
    )
    # Unlike FCFS, the big head-of-line request is skipped and the two small
    # ones are packed (1 + 2 admission blocks <= 8 free).
    assert [r.request_id for r in picked] == [1, 2]


def test_memory_aware_scheduler_ages_starving_requests():
    scheduler = MemoryAwareScheduler(max_wait_ms=100.0)
    waiting = [
        Request(request_id=0, arrival_ms=0.0, prompt_tokens=160, output_tokens=8, slo_ms=1e4),
        Request(request_id=1, arrival_ms=1.0, prompt_tokens=15, output_tokens=8, slo_ms=1e4),
    ]
    # Aged past max_wait_ms, the big request becomes head-of-line: it does
    # not fit 8 free blocks and nothing may jump past it any more.
    assert scheduler.select(
        waiting, 2, now_ms=200.0, more_arrivals=False, memory=_view(free=8)
    ) == []
    # With enough free blocks it is admitted first, in arrival order.
    picked = scheduler.select(
        waiting, 2, now_ms=200.0, more_arrivals=False, memory=_view(free=16)
    )
    assert [r.request_id for r in picked] == [0, 1]


def test_preempt_order_policies():
    infos = [
        _running(0, admitted=10.0, blocks=4, slo=50_000.0),
        _running(1, admitted=20.0, blocks=9, slo=30_000.0),
        _running(2, admitted=30.0, blocks=2, slo=1_000.0),
    ]
    # Default (FCFS/max-batch): newest admission first — vLLM's LIFO.
    assert [s.request.request_id for s in FcfsScheduler().preempt_order(infos, 40.0)] \
        == [2, 1, 0]
    # SLO: slackest deadline first, tight deadlines protected.
    assert [s.request.request_id for s in SloScheduler().preempt_order(infos, 40.0)] \
        == [0, 1, 2]
    # Memory-aware: largest holder first, but the longest resident (request
    # 0) is always the last resort so one request always makes progress.
    assert [s.request.request_id for s in MemoryAwareScheduler().preempt_order(infos, 40.0)] \
        == [1, 2, 0]


# --------------------------------------------------------------------------- #
# Routers
# --------------------------------------------------------------------------- #
def _snapshot(rid, waiting=0, running=0, free=100, total=100, reserved=0, preempt=0):
    return ReplicaSnapshot(
        replica_id=rid,
        now_ms=0.0,
        waiting=waiting,
        running=running,
        max_batch_size=8,
        kv_total_blocks=total,
        kv_free_blocks=free,
        kv_reserved_blocks=reserved,
        preemptions=preempt,
        finished=0,
    )


def test_round_robin_cycles_and_resets():
    router = RoundRobinRouter()
    router.reset(3)
    snaps = [_snapshot(0), _snapshot(1), _snapshot(2)]
    request = _request(0, 0.0)
    assert [router.route(request, snaps) for _ in range(5)] == [0, 1, 2, 0, 1]
    router.reset(3)
    assert router.route(request, snaps) == 0  # cursor rewound


def test_least_loaded_picks_min_outstanding():
    router = LeastLoadedRouter()
    snaps = [_snapshot(0, waiting=3, running=2), _snapshot(1, waiting=1, running=2),
             _snapshot(2, waiting=2, running=2)]
    assert router.route(_request(0, 0.0), snaps) == 1
    # Ties break on replica id.
    tied = [_snapshot(0, waiting=1), _snapshot(1, waiting=1)]
    assert router.route(_request(0, 0.0), tied) == 0


def test_kv_aware_ranks_by_unreserved_blocks():
    router = KvAwareRouter()
    # Replica 1 looks free *now* but its backlog has reserved nearly the
    # whole pool; replica 0 is the safer target.
    snaps = [
        _snapshot(0, free=40, total=100, reserved=50),
        _snapshot(1, free=90, total=100, reserved=95),
    ]
    assert router.route(_request(0, 0.0), snaps) == 0
    # Unreserved ties fall back to fewest preemptions.
    tied = [
        _snapshot(0, free=50, total=100, reserved=60, preempt=4),
        _snapshot(1, free=50, total=100, reserved=60, preempt=1),
    ]
    assert router.route(_request(0, 0.0), tied) == 1


def test_power_of_two_is_seeded_and_deterministic():
    request = _request(0, 0.0)
    snaps = [_snapshot(i, waiting=i) for i in range(8)]

    def trace(seed):
        router = PowerOfTwoRouter()
        router.reset(8, seed=seed)
        return [router.route(request, snaps) for _ in range(20)]

    assert trace(0) == trace(0)  # reset reproduces the stream
    assert trace(0) != trace(1)  # and the seed matters
    # Each pick is the less loaded of two sampled replicas, so the heaviest
    # replica (id 7) can only be picked against... nothing heavier: never.
    assert 7 not in trace(0) and 7 not in trace(1)
    # One replica: no sampling, always 0.
    solo = PowerOfTwoRouter()
    solo.reset(1, seed=3)
    assert solo.route(request, [_snapshot(0)]) == 0


def test_get_router_resolves_names_and_instances():
    assert isinstance(get_router("round-robin"), RoundRobinRouter)
    assert set(ROUTERS) == {
        "round-robin", "least-loaded", "kv-aware", "power-of-two-choices",
        "prefix-affinity",
    }
    custom = LeastLoadedRouter()
    assert get_router(custom) is custom
    with pytest.raises(KeyError):
        get_router("random")


def test_request_queue_push_keeps_arrival_order():
    queue = RequestQueue([_request(0, 10.0), _request(2, 30.0)])
    queue.push(_request(3, 40.0))       # in-order append
    queue.push(_request(1, 20.0))       # out-of-order insert
    assert [r.request_id for r in queue] == [0, 1, 2, 3]
    assert [r.request_id for r in queue.pop_arrived(25.0)] == [0, 1]


# --------------------------------------------------------------------------- #
# Cluster simulator
# --------------------------------------------------------------------------- #
def _cluster_workloads():
    return {
        "steady": steady_workload(
            num_requests=12, rate_rps=50.0, mean_prompt_tokens=64,
            mean_output_tokens=12, seed=5,
        ),
        "bursty": bursty_workload(
            num_requests=12, burst_size=4, mean_prompt_tokens=64,
            mean_output_tokens=12, seed=5,
        ),
    }


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_single_replica_cluster_is_bit_identical_to_bare_simulator(router):
    """The equivalence gate: a 1-replica cluster's digest equals the bare
    ServingSimulator's, for every routing policy (same shape as the
    infinite-KV-budget check)."""
    for name, workload in _cluster_workloads().items():
        for scheduler in ("fcfs", "max-batch"):
            bare = ServingSimulator(
                TINY_DENSE, scheduler=scheduler, arch="a100", max_batch_size=4
            ).simulate(workload, workload=name)
            cluster = ClusterSimulator(
                TINY_DENSE, replicas=1, router=router, scheduler=scheduler,
                arch="a100", max_batch_size=4,
            ).simulate(workload, workload=name)
            assert cluster.digest() == bare.digest(), (name, scheduler)
            assert cluster.num_requests == bare.num_requests
            assert set(cluster.assignments.values()) == {0}


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_cluster_double_run_is_digest_stable(router):
    """N=4 fleet, bursty traffic: two runs of one ClusterSimulator (and a
    freshly built twin) are bit-identical."""
    workload = bursty_workload(
        num_requests=32, burst_size=8, mean_prompt_tokens=64,
        mean_output_tokens=24, seed=9,
    )

    def build():
        return ClusterSimulator(
            TINY_DENSE, replicas=4, router=router, scheduler="fcfs",
            arch="a100", max_batch_size=4, seed=7,
        )

    cluster = build()
    first = cluster.simulate(workload, workload="bursty")
    second = cluster.simulate(workload, workload="bursty")
    third = build().simulate(workload, workload="bursty")
    assert first.digest() == second.digest() == third.digest()
    assert first.num_requests == len(workload)
    assert first.num_replicas == 4 and len(first.replicas) == 4
    assert sorted(first.assignments) == [r.request_id for r in workload]
    assert sum(r.num_requests for r in first.replicas) == len(workload)
    assert 0.0 <= first.slo_attainment <= 1.0
    assert first.load_imbalance >= 0.0
    # The fleet rollups agree with the merged per-request records.
    merged = first.requests
    assert [m.request_id for m in merged] == sorted(m.request_id for m in merged)
    assert first.total_output_tokens == sum(m.output_tokens for m in merged)


def test_kv_aware_routing_preempts_less_than_round_robin():
    """Under KV pressure, routing by reserved blocks must beat footprint-
    blind round-robin on fleet preemptions, strictly."""
    workload = make_workload(
        "memory-pressure", num_requests=48, rate_rps=800.0,
        mean_prompt_tokens=64, mean_output_tokens=160,
        max_prompt_tokens=256, max_output_tokens=320, seed=2,
    )
    budget = int(
        1.3 * max(blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in workload)
    )

    def run(router):
        cluster = ClusterSimulator(
            TINY_DENSE, replicas=2, router=router, scheduler="fcfs",
            arch="a100", max_batch_size=8, kv_budget_blocks=budget,
        )
        return cluster.simulate(workload, workload="memory-pressure")

    aware = run("kv-aware")
    blind = run("round-robin")
    assert aware.num_requests == blind.num_requests == len(workload)
    assert blind.preemptions > 0
    assert aware.preemptions < blind.preemptions
    for report in (aware, blind):
        assert 0.0 <= report.kv_utilization_spread <= 1.0


def test_cluster_per_replica_budgets_and_validation():
    with pytest.raises(ValueError):
        ClusterSimulator(TINY_DENSE, replicas=0, arch="a100")
    with pytest.raises(ValueError):
        ClusterSimulator(
            TINY_DENSE, replicas=2, arch="a100", kv_budget_blocks=[16, 16, 16]
        )
    with pytest.raises(KeyError):
        ClusterSimulator(TINY_DENSE, replicas=2, router="random", arch="a100")
    # A heterogeneous fleet: each replica gets its own pool.
    cluster = ClusterSimulator(
        TINY_DENSE, replicas=2, arch="a100", max_batch_size=4,
        kv_budget_blocks=[64, 128],
    )
    assert [sim.kv_budget_blocks for sim in cluster.replicas] == [64, 128]


def test_report_digest_is_content_sensitive():
    def report(finish):
        return ServeReport(
            model="m", backend="hexcute", scheduler="fcfs", workload="steady",
            arch="A100-PCIe-80GB", num_requests=1, total_output_tokens=8,
            duration_ms=finish, steps=8, mean_batch_size=1.0,
            mean_queue_depth=0.0, max_queue_depth=0, requests=[_metrics(finish=finish)],
        )

    assert report(100.0).digest() == report(100.0).digest()
    assert report(100.0).digest() != report(101.0).digest()
    assert report(100.0).requests[0].slo_met is False  # 100 ms > 50 ms SLO
    assert report(100.0).slo_attainment == 0.0
