"""Simulator-scale benchmark: the discrete-event core at 10k / 100k / 1M requests.

This is the perf trajectory for the serving simulator *itself* — not the
modeled GPU throughput, but how many requests the discrete-event loop can
simulate per wall-clock second.  Every future serving feature (prefix
caching, disaggregated prefill/decode, autoscaling) is evaluated on this
loop, so its speed compounds across the roadmap.

The sweep plays seeded diurnal/flash-crowd traffic (the non-stationary
regime where deep queues build and drain, which is exactly what the
hot-loop optimizations target) through a 32-layer dense config whose step
latencies come from the shared compiled step model:

* 10k tier — every scheduler, single replica;
* 100k tier — fcfs + slo single replica, plus 2- and 4-replica clusters,
  a prefix-shared cell (the prefix-cache store in the hot loop) and a
  crash-recovery cell (a seeded ``FaultSchedule`` killing and reviving
  replicas mid-run, so crash wipes, retry re-routing and downtime
  accounting all sit inside the timed region);
* 1M tier — fcfs, single replica (the million-request headline run).

Results land in ``BENCH_sim_scale.json`` (schema documented in
``docs/benchmarks.md``): one entry per cell with the cell config, wall
seconds, simulated-requests-per-second and the report digest, plus the
recorded pre-optimization baseline so the speedup is tracked in-repo.

The CI guards (``--smoke``): one cell of each kind at the 10k tier; every
cell is run twice and must produce bit-equal digests; the fcfs cell must
clear a minimum requests-per-second floor (a catastrophic-regression
tripwire, far below the measured rate); the crash-recovery cell must see
at least one crash, report availability < 1 with positive goodput and
complete every request (conservation under crashes at benchmark scale);
a 100k-request fcfs diurnal run must complete every request under a
generous wall-clock ceiling (an O(waiting) or O(n^2) term in the hot loop
blows through it); and the results are validated against the schema.
Smoke mode writes the JSON only when ``--output`` is given, so it never
overwrites the committed trajectory.  Any violation exits nonzero.

Run with:  PYTHONPATH=src python benchmarks/bench_sim_scale.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.e2e import ModelConfig
from repro.serving import (
    ClusterSimulator,
    FaultSchedule,
    ServingSimulator,
    diurnal_workload,
    prefix_shared_workload,
)

# The same 32-layer tiny-shape dense config the scale tests use: realistic
# step latency (~0.35 ms at batch 16, ~1.1k simulated req/s of service
# capacity) over kernel shapes the compile cache already knows.
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
MAX_BATCH = 16
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim_scale.json"
SCHEMA_VERSION = 1

# Pre-optimization loop, measured at this commit on the CI container class
# before the hot-loop rework (per-step waiting sort, O(n) KV accounting,
# replica-scan cluster stepping).  Kept in the emitted JSON so the speedup
# at the 100k tier is tracked in-repo; see docs/benchmarks.md.
# ``measured_at`` labels the figures recorded later than that loop: the
# 100k slo cell at the commit before the policy-ordered waiting list, when
# ``SloScheduler.select`` still scanned the whole backlog every step
# (median of 3 runs on a 2-vCPU VM).
BASELINE = {
    "loop": "pre-optimization (PR 5)",
    "rps": {
        "10k/fcfs": 603.6,
        "100k/fcfs": 152.2,
        "100k/slo": 593.9,
    },
    "measured_at": {"100k/slo": "commit 490cfe0 (full-scan EDF select)"},
}
# The single-replica diurnal cells a sweep must run >= 10x faster than
# their BASELINE figure.
GATED_CELLS = ("100k/fcfs", "100k/slo")

# Catastrophic-regression floor for the smoke fcfs cell, ~5x below the
# measured optimized rate — a failed floor means an O(waiting) term is back
# in the hot loop, not ordinary machine jitter.
MIN_SMOKE_RPS = 2000.0

# The smoke wall-clock ceiling: a fixed 100k-request diurnal run (seed 17)
# through one fcfs replica takes a few seconds; the pre-optimization loop
# took minutes.  The ceiling only catches catastrophic regressions.
CEILING_REQUESTS = 100_000
CEILING_SECONDS = 60.0

TIER_REQUESTS = {"10k": 10_000, "100k": 100_000, "1m": 1_000_000}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: 10k tier only, digest double-run, rps floor, 100k "
        "wall-clock ceiling, schema check",
    )
    parser.add_argument(
        "--tiers", default=None,
        help="comma list of tiers to run (10k, 100k, 1m); default all (full mode)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON trajectory (default: BENCH_sim_scale.json "
        "in full mode; smoke mode writes only when this is given)",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def tier_workload(num_requests: int, seed: int) -> List:
    """Diurnal traffic scaled so every tier sees the same load *shape*:
    the cycle period grows with the request count (constant cycles per
    run), swinging 45%..135% of service capacity with 3x flash crowds."""
    period_s = num_requests / 2500.0
    return diurnal_workload(
        num_requests=num_requests,
        base_rate_rps=500.0,
        peak_rate_rps=1500.0,
        period_s=period_s,
        num_spikes=3,
        spike_multiplier=3.0,
        spike_duration_s=period_s / 16.0,
        mean_prompt_tokens=64,
        mean_output_tokens=32,
        seed=seed,
    )


def cluster_workload(num_requests: int, seed: int) -> List:
    """Fleet-rate diurnal traffic: same shape, ~3x the single-replica rate
    so a 4-replica cluster runs at the same per-replica load."""
    period_s = num_requests / 7500.0
    return diurnal_workload(
        num_requests=num_requests,
        base_rate_rps=1500.0,
        peak_rate_rps=4500.0,
        period_s=period_s,
        num_spikes=3,
        spike_multiplier=3.0,
        spike_duration_s=period_s / 16.0,
        mean_prompt_tokens=64,
        mean_output_tokens=32,
        seed=seed,
    )


def prefix_tier_workload(num_requests: int, seed: int) -> List:
    """Prefix-structured traffic at the tier rate: every prompt opens with
    a shared system prompt + one of 8 tenant templates, so the hot loop
    runs with a live prefix store (hits, refcounts, private-suffix
    admission) at the same load the diurnal tiers measure without one."""
    return prefix_shared_workload(
        num_requests=num_requests,
        rate_rps=1000.0,
        num_tenants=8,
        system_prompt_tokens=48,
        tenant_template_tokens=16,
        mean_unique_tokens=16,
        mean_output_tokens=32,
        seed=seed,
    )


def ceiling_failures() -> List[str]:
    """Play the fixed 100k diurnal run once; it must finish every request
    within ``CEILING_SECONDS`` of wall-clock time."""
    workload = diurnal_workload(
        num_requests=CEILING_REQUESTS, base_rate_rps=500.0, peak_rate_rps=1500.0,
        period_s=40.0, num_spikes=3, spike_multiplier=3.0, spike_duration_s=4.0,
        mean_prompt_tokens=64, mean_output_tokens=32, seed=17,
    )
    sim = ServingSimulator(
        SIM_MODEL, backend="hexcute", scheduler="fcfs", arch=ARCH, max_batch_size=MAX_BATCH
    )
    start = time.perf_counter()
    report = sim.simulate(workload, workload="diurnal")
    elapsed = time.perf_counter() - start
    print(
        f"[ceiling] {CEILING_REQUESTS} diurnal requests x fcfs: {elapsed:.1f} s wall "
        f"(ceiling {CEILING_SECONDS:.0f} s)"
    )
    failures = []
    if report.num_requests != CEILING_REQUESTS:
        failures.append(
            f"ceiling run completed {report.num_requests} of {CEILING_REQUESTS} requests"
        )
    if elapsed >= CEILING_SECONDS:
        failures.append(
            f"{CEILING_REQUESTS}-request run took {elapsed:.1f} s — the hot loop has regressed"
        )
    return failures


@dataclass(frozen=True)
class Cell:
    """One benchmark cell: a simulator shape over one traffic generator.

    ``traffic`` picks the generator (a :data:`TRAFFIC` key); ``faults``
    plays a seeded crash-recovery schedule (uptime ~1/3 of the span,
    downtime ~1/10), so crash wipes, retry re-routing and downtime
    accounting are all inside the timed region.
    """

    scheduler: str = "fcfs"
    replicas: int = 1
    router: Optional[str] = None
    traffic: str = "diurnal"
    faults: bool = False


# Traffic generator per cell kind, with the workload label it reports.
TRAFFIC = {
    "diurnal": ("diurnal", tier_workload),
    "fleet-diurnal": ("diurnal", cluster_workload),
    "prefix-shared": ("prefix-shared", prefix_tier_workload),
}

FLEET_CELL = Cell(replicas=2, router="round-robin", traffic="fleet-diurnal")
PREFIX_CELL = Cell(traffic="prefix-shared")
FAULT_CELL = Cell(replicas=2, router="least-loaded", traffic="fleet-diurnal", faults=True)

TIER_CELLS = {
    "10k": [Cell("fcfs"), Cell("slo"), Cell("max-batch"), Cell("memory-aware")],
    "100k": [
        Cell("fcfs"), Cell("slo"), FLEET_CELL,
        Cell(replicas=4, router="round-robin", traffic="fleet-diurnal"), PREFIX_CELL, FAULT_CELL,
    ],
    "1m": [Cell("fcfs")],
}
# CI runs one cell of each kind, fast enough at the 10k tier.
SMOKE_CELLS = [Cell("fcfs"), Cell("slo"), FLEET_CELL, PREFIX_CELL, FAULT_CELL]


def run_cell(tier: str, cell: Cell, workload, seed: int) -> Dict:
    label = TRAFFIC[cell.traffic][0]
    common = dict(
        backend="hexcute", scheduler=cell.scheduler, arch=ARCH, max_batch_size=MAX_BATCH
    )
    config = {
        "tier": tier,
        "num_requests": len(workload),
        "scheduler": cell.scheduler,
        "replicas": cell.replicas,
        "router": cell.router,
        "workload": label,
        "model": SIM_MODEL.name,
        "arch": ARCH,
        "max_batch_size": MAX_BATCH,
        "seed": seed,
    }
    faults = None
    if cell.faults:
        span_ms = max(r.arrival_ms for r in workload)
        faults = FaultSchedule.generate(
            num_replicas=cell.replicas,
            horizon_ms=span_ms,
            seed=seed,
            mean_uptime_ms=span_ms / 3.0,
            mean_downtime_ms=span_ms / 10.0,
            mean_time_between_slowdowns_ms=0.0,
        )
        config["fault_events"] = len(faults)
    if cell.replicas == 1:
        sim, extra = ServingSimulator(SIM_MODEL, **common), {}
    else:
        sim = ClusterSimulator(
            SIM_MODEL, replicas=cell.replicas, router=cell.router, seed=seed, **common
        )
        extra = {"faults": faults}
    start = time.perf_counter()
    report = sim.simulate(workload, workload=label, **extra)
    wall = time.perf_counter() - start
    entry = {
        "config": config,
        "wall_seconds": wall,
        "rps": len(workload) / wall,
        "digest": report.digest(),
        "steps": sum(r.steps for r in getattr(report, "replicas", [report])),
        "preemptions": report.preemptions,
    }
    if cell.traffic == "prefix-shared":
        entry["prefix_hit_rate"] = report.prefix_hit_rate
    if cell.faults:
        entry.update(
            completed=report.num_requests,
            crashes=report.crashes,
            retries=report.retries,
            failovers=report.failovers,
            availability=report.availability,
            goodput_tok_s=report.goodput_tok_s,
        )
    return entry


def cell_failures(entry: Dict) -> List[str]:
    """The per-cell gates: a prefix cell must hit the cache, and a
    crash-recovery cell must crash, show the outage, do useful work and
    finish every request."""
    cfg = entry["config"]
    where = cell_label(entry).strip()
    failures = []
    if "prefix_hit_rate" in entry and entry["prefix_hit_rate"] <= 0.0:
        failures.append(f"{where} never hit the prefix cache")
    if "crashes" in entry:
        if entry["crashes"] < 1:
            failures.append(
                f"{where} saw no crash — the generated schedule no longer "
                "covers the workload span"
            )
        elif not entry["availability"] < 1.0:
            failures.append(
                f"{where} reports full availability despite {entry['crashes']} crashes"
            )
        if entry["goodput_tok_s"] <= 0.0:
            failures.append(f"{where} has zero goodput")
        if entry["completed"] != cfg["num_requests"]:
            failures.append(
                f"{where} lost requests: {entry['completed']} completed of "
                f"{cfg['num_requests']} (conservation under crashes broken)"
            )
    return failures


def cell_label(entry: Dict) -> str:
    cfg = entry["config"]
    where = f"{cfg['replicas']}x replicas ({cfg['router']})" if cfg["replicas"] > 1 else "1 replica"
    label = f"{cfg['tier']:>4} x {cfg['scheduler']:<12} {where}"
    if cfg["workload"] != "diurnal":
        label += f" [{cfg['workload']}]"
    if cfg.get("fault_events"):
        label += f" [crash-recovery, {cfg['fault_events']} fault events]"
    return label


def validate_schema(payload: Dict, failures: List[str]) -> None:
    """Structural check of the emitted trajectory — the contract
    docs/benchmarks.md documents and CI enforces."""
    for key in ("schema_version", "model", "arch", "max_batch_size", "baseline", "entries"):
        if key not in payload:
            failures.append(f"BENCH_sim_scale.json missing top-level key {key!r}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        failures.append(f"unexpected schema_version: {payload.get('schema_version')}")
    for i, entry in enumerate(payload.get("entries", [])):
        for key in ("config", "wall_seconds", "rps", "digest"):
            if key not in entry:
                failures.append(f"entry {i} missing key {key!r}")
        config = entry.get("config", {})
        for key in (
            "tier", "num_requests", "scheduler", "replicas", "workload",
            "model", "arch", "max_batch_size", "seed",
        ):
            if key not in config:
                failures.append(f"entry {i} config missing key {key!r}")
        if not (isinstance(entry.get("rps"), float) and entry["rps"] > 0):
            failures.append(f"entry {i} rps not a positive float")
        digest = entry.get("digest")
        if not (isinstance(digest, str) and len(digest) == 64):
            failures.append(f"entry {i} digest not a sha256 hex string")


def main(argv=None) -> int:
    args = parse_args(argv)
    output = args.output or (None if args.smoke else str(OUTPUT_PATH))
    failures: List[str] = []
    entries: List[Dict] = []

    if args.tiers is not None:
        tiers = [t.strip() for t in args.tiers.split(",") if t.strip()]
    else:
        tiers = ["10k"] if args.smoke else ["10k", "100k", "1m"]
    unknown = [t for t in tiers if t not in TIER_REQUESTS]
    if unknown:
        print(f"unknown tiers: {unknown} (choose from {sorted(TIER_REQUESTS)})")
        return 2

    # Warm up the compiled step buckets outside every timed region: the
    # first latency query per bucket compiles kernels (seconds), which
    # would otherwise be billed to whichever cell runs first.
    warm = ServingSimulator(SIM_MODEL, arch=ARCH, max_batch_size=MAX_BATCH)
    warm_start = time.perf_counter()
    for batch in range(1, MAX_BATCH + 1):
        warm.step_model.step_latency_ms(SIM_MODEL, "hexcute", batch)
    print(f"warmed step buckets in {time.perf_counter() - warm_start:.1f} s")

    for tier in tiers:
        num_requests = TIER_REQUESTS[tier]
        workloads = {}
        for cell in SMOKE_CELLS if args.smoke else TIER_CELLS[tier]:
            if cell.traffic not in workloads:
                gen_start = time.perf_counter()
                workloads[cell.traffic] = TRAFFIC[cell.traffic][1](num_requests, args.seed)
                print(
                    f"[{tier}] generated {num_requests} {cell.traffic} requests in "
                    f"{time.perf_counter() - gen_start:.1f} s"
                )
            workload = workloads[cell.traffic]
            entry = run_cell(tier, cell, workload, args.seed)
            entries.append(entry)
            details = [
                f"{entry['wall_seconds']:.2f} s wall",
                f"{entry['steps']} steps",
                f"{entry['preemptions']} preemptions",
            ]
            if "prefix_hit_rate" in entry:
                details.append(f"prefix hit rate {entry['prefix_hit_rate']:.2f}")
            if "crashes" in entry:
                details.append(
                    f"{entry['crashes']} crashes, {entry['retries']} retries, "
                    f"availability {entry['availability'] * 100.0:.1f}%, "
                    f"goodput {entry['goodput_tok_s']:,.0f} tok/s"
                )
            print(
                f"[{tier}] {cell_label(entry)}: {entry['rps']:,.0f} req/s "
                f"({', '.join(details)})"
            )
            failures.extend(cell_failures(entry))
            if args.smoke:
                rerun = run_cell(tier, cell, workload, args.seed)
                if rerun["digest"] != entry["digest"]:
                    failures.append(
                        f"digest instability at {cell_label(entry)}: "
                        f"{entry['digest'][:12]} vs {rerun['digest'][:12]}"
                    )

    # ------------------------------------------------------------------ #
    # Floors and trajectory
    # ------------------------------------------------------------------ #
    if args.smoke:
        fcfs = next(
            e for e in entries
            if e["config"]["scheduler"] == "fcfs" and e["config"]["replicas"] == 1
        )
        if fcfs["rps"] < MIN_SMOKE_RPS:
            failures.append(
                f"10k fcfs tier below the rps floor: {fcfs['rps']:,.0f} < "
                f"{MIN_SMOKE_RPS:,.0f} — an O(waiting) term is back in the hot loop"
            )
        failures.extend(ceiling_failures())

    for key in GATED_CELLS:
        tier, scheduler = key.split("/")
        current = next(
            (
                e for e in entries
                if e["config"]["tier"] == tier
                and e["config"]["scheduler"] == scheduler
                and e["config"]["replicas"] == 1
                and e["config"]["workload"] == "diurnal"
            ),
            None,
        )
        if current is None:
            continue
        baseline_rps = BASELINE["rps"][key]
        loop = BASELINE["measured_at"].get(key, BASELINE["loop"])
        speedup = current["rps"] / baseline_rps
        print(
            f"\n{key} vs {loop}: {current['rps']:,.0f} req/s "
            f"vs {baseline_rps:,.0f} req/s -> {speedup:.1f}x"
        )
        if speedup < 10.0:
            failures.append(
                f"{key} speedup below 10x over the recorded baseline ({speedup:.1f}x)"
            )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": SIM_MODEL.name,
        "arch": ARCH,
        "max_batch_size": MAX_BATCH,
        "baseline": BASELINE,
        "entries": entries,
    }
    validate_schema(payload, failures)
    if output is not None:
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {len(entries)} cells -> {output}")

    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("all scale checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
