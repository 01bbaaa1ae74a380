"""Scale-equivalence suite: the optimized hot loop vs recorded golden digests.

The PR that scaled the discrete-event core to millions of requests
(incremental waiting-order maintenance, the cursor-backed ``RequestQueue``,
O(1) KV pool accounting, per-engine step caches) is gated by
**bit-identical digests**: every optimization must reproduce the exact
per-request trace of the unoptimized loop.  The golden digests in
``tests/data/golden_sim_digests.json`` were recorded from the
pre-optimization engine (the commit before the scale PR); these tests
assert the current engine still matches them, cell by cell:

* ``ServingSimulator`` — every scheduler x steady/bursty/diurnal workload
  at N=5000, plus a preemption-heavy memory-pressure cell at a tight KV
  budget (exercising the bisect readmission path the old per-step sort
  used to cover);
* ``ClusterSimulator`` — every router over a 3-replica diurnal fleet,
  stepped by the id-order replica scan these cells were recorded from.

Two more fleet cells (``FLEET_SHAPES``) cover the shapes that scan
touches beyond those: a 16-replica least-loaded fleet, most of it
drained between arrivals, and a 4-replica health-blind round-robin fleet
under generated crashes, which routes requests into down replicas.  They
were recorded from the engine that stepped fleets with a ``(clock, id)``
event heap instead, so they pin that the scan plays them identically.

Five more cells pin the prefix-cache paths: every scheduler over a
multi-tenant prefix-shared workload at a tight budget (preemption,
prefix detach/re-attach and eviction in every step), and a 3-replica
``prefix-affinity`` fleet playing the same traffic through seeded crashes
(crash wipes of live prefix stores, retries).  They were recorded from
the engine that still ran separate prefix-aware grow/admission paths, so
they pin that behaviour across any later restructuring of the engine.

Regenerate the goldens (ONLY when a deliberate behavioural change is being
made, never to paper over an optimization bug) with::

    PYTHONPATH=src python tests/test_sim_scale.py --record

No wall clock is read here.  The hot loop's work bounds are pinned by
counting calls (``tests/test_slo_order.py``, ``tests/test_decode_calendar.py``),
and the 100k-request wall-clock ceiling is a gate of
``benchmarks/bench_sim_scale.py --smoke``, next to the perf trajectory in
``BENCH_sim_scale.json``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.e2e import ModelConfig
from repro.serving import (
    ClusterSimulator,
    FaultSchedule,
    ROUTERS,
    SCHEDULERS,
    ServingSimulator,
    bursty_workload,
    diurnal_workload,
    make_workload,
    prefix_shared_workload,
    steady_workload,
)
from repro.serving.memory import blocks_for_tokens

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_sim_digests.json"

# 32 identical layers over the tiny kernel shapes the serving tests already
# compile: the step latency is realistic (~0.35 ms at batch 16, ~1.1k req/s
# service capacity) while the compile cache stays warm across the suite.
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

MAX_BATCH = 16
ARCH = "a100"

# One seeded workload per traffic shape, sized against SIM_MODEL's ~1.1k
# req/s capacity: steady ~80% load, bursty ~70% in 64-request slams,
# diurnal swinging from 45% to 135% (plus 3x flash crowds) so deep queues
# build and drain — the regime the hot-loop optimizations target.
def _workloads(num_requests: int = 5000):
    return {
        "steady": steady_workload(
            num_requests=num_requests, rate_rps=900.0, mean_prompt_tokens=64,
            mean_output_tokens=32, seed=11,
        ),
        "bursty": bursty_workload(
            num_requests=num_requests, burst_size=64, burst_interval_ms=80.0,
            intra_burst_ms=10.0, mean_prompt_tokens=64, mean_output_tokens=32,
            seed=11,
        ),
        "diurnal": diurnal_workload(
            num_requests=num_requests, base_rate_rps=500.0, peak_rate_rps=1500.0,
            period_s=2.0, num_spikes=3, spike_multiplier=3.0,
            spike_duration_s=0.25, mean_prompt_tokens=64, mean_output_tokens=32,
            seed=11,
        ),
    }


def _pressure_workload(num_requests: int = 2000):
    return make_workload(
        "memory-pressure",
        num_requests=num_requests, rate_rps=1200.0, mean_prompt_tokens=64,
        mean_output_tokens=96, max_prompt_tokens=256, max_output_tokens=192,
        seed=11,
    )


def _pressure_budget(workload) -> int:
    # ~3x the largest single-request footprint: every request is feasible,
    # concurrent growth is not — sustained preemption/readmission churn.
    return 3 * max(
        blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in workload
    )


def _prefix_workload(num_requests: int = 2000):
    # 8 tenants whose 64-token prefix spans four whole blocks, long outputs:
    # at the pressure budget every scheduler preempts and evicts.
    return prefix_shared_workload(
        num_requests=num_requests, rate_rps=1200.0, num_tenants=8,
        system_prompt_tokens=48, tenant_template_tokens=16,
        mean_unique_tokens=16, mean_output_tokens=96, seed=11,
    )


def _run_sim(scheduler: str, workload_name: str, workload, **kwargs):
    sim = ServingSimulator(
        SIM_MODEL, backend="hexcute", scheduler=scheduler, arch=ARCH,
        max_batch_size=MAX_BATCH, **kwargs,
    )
    return sim.simulate(workload, workload=workload_name)


def _run_cluster(router: str, workload, replicas=3, faults=None, health_aware=True):
    cluster = ClusterSimulator(
        SIM_MODEL, replicas=replicas, router=router, backend="hexcute",
        scheduler="fcfs", arch=ARCH, max_batch_size=MAX_BATCH, seed=11,
        health_aware=health_aware,
    )
    return cluster.simulate(workload, workload="diurnal", faults=faults)


def _run_wide_fleet(workload):
    # 16 replicas for traffic sized for 3: most of the fleet sits drained
    # between arrivals.
    return _run_cluster("least-loaded", workload, replicas=16)


def _run_blind_faults(workload):
    # Health-blind round-robin keeps injecting into crashed replicas, whose
    # queues wait out the outage.
    span = max(r.arrival_ms for r in workload)
    faults = FaultSchedule.generate(
        4, horizon_ms=span, seed=11, mean_uptime_ms=span / 3.0,
        mean_downtime_ms=span / 10.0,
    )
    return _run_cluster(
        "round-robin", workload, replicas=4, faults=faults, health_aware=False
    )


# Fleet cells beyond the 3-replica health-aware ones: key -> player.
FLEET_SHAPES = {
    "cluster/least-loaded/diurnal-16x": _run_wide_fleet,
    "cluster/round-robin/blind-faults": _run_blind_faults,
}


def _run_prefix_faults(workload):
    span = max(r.arrival_ms for r in workload)
    faults = FaultSchedule.generate(
        3, horizon_ms=span, seed=11, mean_uptime_ms=span / 3.0,
        mean_downtime_ms=span / 10.0,
    )
    cluster = ClusterSimulator(
        SIM_MODEL, replicas=3, router="prefix-affinity", backend="hexcute",
        scheduler="fcfs", arch=ARCH, max_batch_size=MAX_BATCH, seed=11,
        kv_budget_blocks=_pressure_budget(workload),
    )
    return cluster.simulate(workload, workload="prefix-shared", faults=faults)


def _cluster_workload(num_requests: int = 2000):
    return diurnal_workload(
        num_requests=num_requests, base_rate_rps=1500.0, peak_rate_rps=4500.0,
        period_s=2.0, num_spikes=2, spike_multiplier=3.0, spike_duration_s=0.25,
        mean_prompt_tokens=64, mean_output_tokens=32, seed=13,
    )


def compute_digests():
    """Every golden cell's digest, keyed ``kind/policy/workload``."""
    digests = {}
    workloads = _workloads()
    for scheduler in sorted(SCHEDULERS):
        for name, workload in workloads.items():
            digests[f"sim/{scheduler}/{name}"] = _run_sim(
                scheduler, name, workload
            ).digest()
    pressure = _pressure_workload()
    budget = _pressure_budget(pressure)
    for scheduler in sorted(SCHEDULERS):
        digests[f"sim/{scheduler}/pressure"] = _run_sim(
            scheduler, "memory-pressure", pressure, kv_budget_blocks=budget
        ).digest()
    shared = _prefix_workload()
    shared_budget = _pressure_budget(shared)
    for scheduler in sorted(SCHEDULERS):
        digests[f"sim/{scheduler}/prefix-pressure"] = _run_sim(
            scheduler, "prefix-shared", shared, kv_budget_blocks=shared_budget
        ).digest()
    fleet = _cluster_workload()
    for router in sorted(ROUTERS):
        digests[f"cluster/{router}/diurnal"] = _run_cluster(router, fleet).digest()
    digests["cluster/prefix-affinity/prefix-faults"] = _run_prefix_faults(shared).digest()
    for key, play in FLEET_SHAPES.items():
        digests[key] = play(fleet).digest()
    return digests


def _golden():
    if not GOLDEN_PATH.is_file():
        pytest.fail(
            f"golden digest file missing: {GOLDEN_PATH}; record it with "
            f"PYTHONPATH=src python tests/test_sim_scale.py --record"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


# --------------------------------------------------------------------------- #
# The digest gate
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden():
    return _golden()


@pytest.fixture(scope="module")
def workloads():
    return _workloads()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("shape", ["steady", "bursty", "diurnal"])
def test_sim_digest_matches_golden(golden, workloads, scheduler, shape):
    report = _run_sim(scheduler, shape, workloads[shape])
    assert report.num_requests == len(workloads[shape])
    assert report.digest() == golden[f"sim/{scheduler}/{shape}"], (
        f"optimized engine diverged from the pre-optimization trace "
        f"({scheduler} x {shape})"
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_sim_digest_matches_golden_under_preemption(golden, scheduler):
    """The bisect readmission path must reproduce the old post-preemption
    re-sort, bit for bit."""
    workload = _pressure_workload()
    report = _run_sim(
        scheduler, "memory-pressure", workload,
        kv_budget_blocks=_pressure_budget(workload),
    )
    assert report.preemptions > 0  # the cell must actually exercise readmits
    assert report.digest() == golden[f"sim/{scheduler}/pressure"], (
        f"optimized engine diverged under preemption ({scheduler})"
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_sim_digest_matches_golden_under_prefix_pressure(golden, scheduler):
    """Preemption with live prefix attachments: victims detach, survivors
    evict cached prefixes, readmissions re-attach."""
    workload = _prefix_workload()
    report = _run_sim(
        scheduler, "prefix-shared", workload,
        kv_budget_blocks=_pressure_budget(workload),
    )
    assert report.preemptions > 0 and report.prefix_evictions > 0
    assert report.digest() == golden[f"sim/{scheduler}/prefix-pressure"], (
        f"engine diverged under prefix pressure ({scheduler})"
    )


def test_cluster_digest_matches_golden_under_prefix_faults(golden):
    report = _run_prefix_faults(_prefix_workload())
    assert report.num_requests == 2000
    assert report.crashes > 0 and report.retries > 0 and report.preemptions > 0
    assert report.digest() == golden["cluster/prefix-affinity/prefix-faults"], (
        "prefix-affinity fleet diverged under crashes"
    )


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_cluster_digest_matches_golden(golden, router):
    report = _run_cluster(router, _cluster_workload())
    assert report.num_requests == 2000
    assert report.digest() == golden[f"cluster/{router}/diurnal"], (
        f"cluster stepping diverged from the replica-scan loop ({router})"
    )


@pytest.mark.parametrize("key", sorted(FLEET_SHAPES))
def test_cluster_digest_matches_golden_on_other_fleet_shapes(golden, key):
    report = FLEET_SHAPES[key](_cluster_workload())
    assert report.num_requests == 2000
    if "faults" in key:
        assert report.crashes > 0 and report.retries > 0
    assert report.digest() == golden[key], f"fleet diverged ({key})"


def test_golden_matrix_is_complete(golden):
    """Adding a scheduler/router without recording its golden cells fails."""
    expected = {
        f"sim/{s}/{w}"
        for s in SCHEDULERS
        for w in ["steady", "bursty", "diurnal", "pressure", "prefix-pressure"]
    } | {f"cluster/{r}/diurnal" for r in ROUTERS} | {
        "cluster/prefix-affinity/prefix-faults"
    } | set(FLEET_SHAPES)
    assert set(golden) == expected


# --------------------------------------------------------------------------- #
# Hot-loop micro-guarantees
# --------------------------------------------------------------------------- #
def test_blocks_for_tokens_is_memoized():
    """``blocks_for_tokens`` is pure integer arithmetic that admission
    asks for over and over; it must answer from the lru_cache."""
    blocks_for_tokens.cache_clear()
    assert blocks_for_tokens(1) == 1
    assert blocks_for_tokens(16) == 1
    assert blocks_for_tokens(17) == 2
    assert blocks_for_tokens(129, 64) == 3
    before = blocks_for_tokens.cache_info()
    assert blocks_for_tokens(17) == 2
    after = blocks_for_tokens.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_streaming_digest_matches_monolithic_json():
    """``ServeReport.digest()`` streams record-by-record; it must hash the
    exact bytes the original monolithic ``json.dumps`` form produced."""
    import hashlib

    from repro.serving.report import RequestMetrics, ServeReport

    def monolithic(report):
        payload = {
            "model": report.model,
            "backend": report.backend,
            "scheduler": report.scheduler,
            "workload": report.workload,
            "arch": report.arch,
            "steps": report.steps,
            "duration_ms": float(report.duration_ms).hex(),
            "requests": [r.record() for r in report.requests],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def make_report(requests):
        return ServeReport(
            model="m", backend="hexcute", scheduler="fcfs", workload="steady",
            arch="a100", num_requests=len(requests),
            total_output_tokens=sum(r.output_tokens for r in requests),
            duration_ms=123.4375, steps=7, mean_batch_size=1.5,
            mean_queue_depth=0.25, max_queue_depth=2, requests=requests,
        )

    metrics = [
        RequestMetrics(
            request_id=i, arrival_ms=0.5 * i, scheduled_ms=0.5 * i + 0.25,
            first_token_ms=0.5 * i + 1.0, finish_ms=0.5 * i + 3.0,
            prompt_tokens=8, output_tokens=4, slo_ms=250.0,
        )
        for i in range(3)
    ]
    populated = make_report(metrics)
    assert populated.digest() == monolithic(populated)
    empty = make_report([])
    assert empty.digest() == monolithic(empty)
    assert populated.digest() != empty.digest()


# --------------------------------------------------------------------------- #
# Golden recording
# --------------------------------------------------------------------------- #
def _record():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    digests = compute_digests()
    payload = {
        "comment": (
            "Golden ServeReport/ClusterReport digests; tests/test_sim_scale.py "
            "says which engine each group of cells was recorded from"
        ),
        "model": SIM_MODEL.name,
        "arch": ARCH,
        "max_batch_size": MAX_BATCH,
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} golden digests -> {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
        print("usage: PYTHONPATH=src python tests/test_sim_scale.py --record")
