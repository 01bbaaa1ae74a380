#!/usr/bin/env python3
"""The repository benchmark: compile time, generated kernels and simulator speed.

Run from the repository root:

    python3 perfbench/run.py --workload compile-buckets --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md`` in this directory):
``compile-buckets``, ``serve-backlog``, ``fleet-prefix-crash``.

``--trace 0`` prints the end-to-end metrics, every one on every workload;
``--trace 1`` re-runs the phases with spans around every layer boundary
(``tracing.py``) and prints the per-layer metrics, the tracing overhead and
the path of a Chrome trace written under ``perfbench/out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are reference seconds (``meter.py``): every timed step is scaled by
the speed of a fixed calibration pass measured next to it, so that a
neighbour loading a shared CPU does not read as a regression.

``--record`` rewrites ``reference.json`` (compile outcomes and serve
digests for seeds ``0..RECORD_SEEDS-1``); only do that after checking
that a behaviour change is intended.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
ROUNDS = 3
SETUP_ROUND_S = 0.3  # wall seconds of set-ups per round, at least one set-up
RECORD_SEEDS = 64  # serve digests in reference.json cover seeds 0..63
PASSES = ("tv-synthesis", "instruction-selection", "smem-swizzle", "codegen", "timing")
SEARCH_COUNTERS = ("leaves_evaluated", "leaves_pruned", "smem_solves", "subproblems_memoized")
SMEM_COUNTERS = ("swizzles_scored", "swizzles_pruned")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def distinct_kernels(results) -> dict:
    return {r.fingerprint: r for r in results if not isinstance(r, BaseException)}


# --------------------------------------------------------------------------- #
# Untraced run: the end-to-end metrics
# --------------------------------------------------------------------------- #
def timed_run(workload, seed: int, seconds: float):
    from checks import Checks, check_compiles, check_executor, check_serve, load_reference
    from meter import Meter, REFERENCE_PASS_S
    from workloads import (
        COMPILE_CACHE,
        SETUP_CACHE,
        scratch_dir,
        build_requests,
        run_compile,
        serve_once,
        setup,
    )

    reference = load_reference()
    expected_compiles = reference["compile"]
    expected_digest = reference["serve"][workload.name].get(str(seed))
    checks = Checks()
    spec = workload.compile
    meter = Meter()

    def replay_phase(store: str):
        phase = run_compile(spec, build_requests(spec, order_seed=seed), store, False, meter)
        check_compiles(checks, expected_compiles, phase.labels, phase.results, "replay")
        checks.check(
            phase.cache.stats.puts == 0,
            f"replay compiled {phase.cache.stats.puts} programs from scratch",
        )
        replays.append(phase.seconds)

    def cold_phase(batch, store: str):
        phase = run_compile(spec, batch, store, True, meter)
        check_compiles(checks, expected_compiles, phase.labels, phase.results, "cold")
        colds.append(phase.seconds)
        return phase

    def play(state):
        rep = serve_once(workload, state, meter)
        first = plays[0].digest if plays else rep.digest
        check_serve(checks, expected_digest, rep, len(state.requests), first)
        rep.report = None  # keep peak memory to one play's report
        plays.append(rep)

    # Rounds of set-up, compile and plays, so that the samples of each metric
    # spread over the whole run.  Each round sets up until its set-ups have
    # taken SETUP_ROUND_S (one set-up on the serving workloads, several of
    # compile-buckets' short ones), and plays at least once and for its share
    # of the serve budget.
    budget = seconds if workload.serve_seconds is None else workload.serve_seconds
    setups, colds, replays, plays = [], [], [], []
    with scratch_dir(OUT_DIR) as scratch:
        for round_index in range(ROUNDS):
            round_start = time.perf_counter()
            while time.perf_counter() - round_start < SETUP_ROUND_S:
                state = setup(workload, seed, scratch, meter)
                setups.append(state.seconds)
            store = os.path.join(scratch, COMPILE_CACHE)
            if state.cold is not None:
                # Serving: the set-up's warm-up compile is one cold sample.
                # Its few small kernels compile in about a second, so each
                # round adds a second cold and replay pair.
                cold = state.cold
                check_compiles(checks, expected_compiles, cold.labels, cold.results, "cold")
                colds.append(cold.seconds)
                replay_phase(os.path.join(scratch, SETUP_CACHE))
                cold_phase(build_requests(spec, order_seed=seed), store)
                replay_phase(store)
            elif round_index == 0:
                cold = cold_phase(state.compile_requests, store)
            elif round_index == 1:
                replay_phase(store)
            played = 0.0
            while not played or played + plays[-1].seconds <= budget / ROUNDS:
                play(state)
                played += plays[-1].seconds

    if workload.executor_check:
        check_executor(checks, seed)

    kernels = distinct_kernels(cold.results)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "compile_cold_s": metric(statistics.median(colds), "s"),
        "compile_replay_s": metric(statistics.median(replays), "s"),
        "kernel_latency_us": metric(
            geomean(k.latency_us for k in kernels.values()), "model_us"
        ),
        "kernel_source_bytes": metric(
            sum(len(k.source.encode("utf-8")) for k in kernels.values()), "bytes"
        ),
        "sim_rps": metric(
            statistics.median(len(state.requests) / p.seconds for p in plays), "req/s"
        ),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "success_rate": metric((checks.attempted - checks.failed) / checks.attempted, "ratio"),
    }
    samples = {
        "setup_s": setups,
        "compile_cold_s": colds,
        "compile_replay_s": replays,
        "play_s": [p.seconds for p in plays],
    }
    notes = [f"samples {name}: {[round(v, 4) for v in values]}" for name, values in samples.items()]
    notes += [
        f"{len(cold.results)} compile requests, {len(kernels)} distinct kernels",
        f"{len(plays)} plays of {len(state.requests)} requests, "
        f"digest {plays[0].digest[:16]}"
        + ("" if expected_digest is not None else " (seed not in reference: repeatability only)"),
        f"timed steps: {meter.wall_s:.2f} wall s = {meter.seconds:.2f} reference s; "
        f"calibration pass median {statistics.median(meter.passes) * 1e3:.1f} ms "
        f"(reference {REFERENCE_PASS_S * 1e3:.0f} ms) over {len(meter.passes)} passes",
    ]
    return checks, metrics, notes


# --------------------------------------------------------------------------- #
# Traced run: the per-layer metrics
# --------------------------------------------------------------------------- #
def _diff(after: dict, before: dict, kind: str, name: str) -> float:
    return after[kind].get(name, 0) - before[kind].get(name, 0)


def compile_layers(prefix: str, phase, tracer, before: dict) -> dict:
    after = tracer.snapshot()
    kernels = [r for r in phase.results if not isinstance(r, BaseException)]

    def stat(key: str) -> float:
        return float(sum(k.pass_stats.get(key, 0.0) for k in kernels))

    layers = {f"pipeline.{p}_s": (stat(p), "s") for p in PASSES}
    stats = phase.cache.stats
    layers.update(
        {
            "pipeline.cache.hits": (stats.hits, "count"),
            "pipeline.cache.replays": (stats.replays, "count"),
            "pipeline.cache.misses": (stats.misses, "count"),
            "pipeline.cache.puts": (stats.puts, "count"),
            "pipeline.cache.load_s": (_diff(after, before, "total_s", "pipeline.cache.load"), "s"),
            "pipeline.cache.key_s": (_diff(after, before, "total_s", "pipeline.cache.key"), "s"),
            "pipeline.tv_share": (stat("tv-synthesis") / phase.wall_s, "ratio"),
            "synthesis.tv_solver.solve_calls": (
                _diff(after, before, "calls", "synthesis.tv_solver.solve"), "count"),
            "synthesis.tv_solver.solve_s": (
                _diff(after, before, "total_s", "synthesis.tv_solver.solve"), "s"),
            "layout.tv.equivalent_calls": (
                _diff(after, before, "calls", "layout.tv.equivalent"), "count"),
            "layout.tv.equivalent_s": (
                _diff(after, before, "total_s", "layout.tv.equivalent"), "s"),
            "synthesis.search.best_s": (
                _diff(after, before, "total_s", "synthesis.search.best"), "s"),
            "codegen.emit_s": (_diff(after, before, "total_s", "codegen.emit"), "s"),
            "sim.timing.estimate_s": (_diff(after, before, "total_s", "sim.timing.estimate"), "s"),
            "utils.memo.hit_ratio": (
                phase.memo_hits / max(1, phase.memo_hits + phase.memo_misses), "ratio"),
        }
    )
    for counter in SEARCH_COUNTERS:
        layers[f"synthesis.search.{counter}"] = (
            stat(f"instruction-selection.{counter}"), "count")
    for counter in SMEM_COUNTERS:
        layers[f"synthesis.smem_solver.{counter}"] = (
            stat(f"instruction-selection.{counter}"), "count")
    return {f"{prefix}.{name}": value for name, value in layers.items()}


def serve_layers(rep, tracer, before: dict, step_model, memo_before) -> dict:
    after = tracer.snapshot()
    report = rep.report

    def calls(name):
        return _diff(after, before, "calls", name)

    def total(name):
        return _diff(after, before, "total_s", name)

    def counter(name):
        return _diff(after, before, "counters", name)

    scanned = counter("scheduler.waiting_scanned")
    routes_with_prefix = counter("router.prefixed_routes")
    hits = step_model.memo_hits - memo_before[0]
    misses = step_model.memo_misses - memo_before[1]
    replicas = getattr(report, "replicas", [report])
    return {
        "serving.scheduler.select_calls": (calls("serving.scheduler.select"), "count"),
        "serving.scheduler.select_s": (total("serving.scheduler.select"), "s"),
        "serving.scheduler.waiting_scanned": (scanned, "count"),
        "serving.scheduler.admit_ratio": (
            counter("scheduler.admitted") / scanned if scanned else 0.0, "ratio"),
        "serving.engine.advance_calls": (calls("serving.engine.advance"), "count"),
        "serving.engine.advance_self_s": (
            _diff(after, before, "self_s", "serving.engine.advance"), "s"),
        "serving.step_model.lookups": (calls("serving.step_model.lookup"), "count"),
        "serving.step_model.memo_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serving.router.route_calls": (calls("serving.router.route"), "count"),
        "serving.router.route_s": (total("serving.router.route"), "s"),
        "serving.router.snapshots": (calls("serving.router.snapshot"), "count"),
        "serving.router.affinity_ratio": (
            counter("router.affinity_hits") / routes_with_prefix if routes_with_prefix else 0.0,
            "ratio"),
        "serving.cluster.snapshot_s": (total("serving.cluster.snapshot_read"), "s"),
        "serving.memory.allocate_calls": (calls("serving.memory.allocate"), "count"),
        "serving.memory.allocate_s": (total("serving.memory.allocate"), "s"),
        "serving.memory.preemptions": (report.preemptions, "count"),
        "serving.prefix.acquire_calls": (calls("serving.prefix.acquire"), "count"),
        "serving.prefix.hit_rate": (report.prefix_hit_rate, "ratio"),
        "serving.prefix.evictions": (sum(r.prefix_evictions for r in replicas), "count"),
        "serving.faults.crashes": (report.crashes, "count"),
        "serving.faults.retries": (getattr(report, "retries", 0), "count"),
        "serving.report.digest_s": (rep.digest_s, "s"),
    }


def traced_run(workload, seed: int, seconds: float):
    from checks import Checks, check_compiles, check_serve, load_reference
    from meter import Meter
    from tracing import Tracer, instrument
    from workloads import COMPILE_CACHE, scratch_dir, build_requests, run_compile, serve_once, setup

    from repro.serving.step_model import StepLatencyModel

    reference = load_reference()
    checks = Checks()
    spec = workload.compile
    tracer = Tracer()
    meter = Meter()
    layers = {}
    with scratch_dir(OUT_DIR) as scratch:
        state = setup(workload, seed, scratch, meter)
        store = os.path.join(scratch, COMPILE_CACHE)
        handle = instrument(tracer)
        try:
            before = tracer.snapshot()
            cold = run_compile(spec, build_requests(spec, order_seed=seed), store, True, meter)
            layers.update(compile_layers("cold", cold, tracer, before))
            check_compiles(checks, reference["compile"], cold.labels, cold.results, "cold")

            # Tracing overhead on the compiler: the same replay, off then on.
            handle.close()
            untraced = run_compile(spec, build_requests(spec, order_seed=seed), store, False, meter)
            handle = instrument(tracer)
            before = tracer.snapshot()
            replay = run_compile(spec, build_requests(spec, order_seed=seed), store, False, meter)
            layers.update(compile_layers("replay", replay, tracer, before))
            check_compiles(checks, reference["compile"], replay.labels, replay.results, "replay")

            # Direct hits: a warm StepLatencyModel.precompile skips every
            # fingerprint the cache already holds.
            direct = StepLatencyModel(arch=spec.arch, buckets=spec.buckets, cache=replay.cache)
            stats = direct.precompile(list(spec.models), max_workers=1)
            checks.check(stats.compiled == 0, f"direct-hit precompile compiled {stats.compiled}")
            layers["pipeline.cache.direct_hit_s"] = (stats.seconds, "s")

            # Tracing overhead on the simulator: one play off, one on.
            handle.close()
            plain = serve_once(workload, state, meter)
            handle = instrument(tracer)
            before = tracer.snapshot()
            memo_before = (state.step_model.memo_hits, state.step_model.memo_misses)
            rep = serve_once(workload, state, meter, span=tracer.span)
            layers.update(serve_layers(rep, tracer, before, state.step_model, memo_before))
        finally:
            handle.close()
        expected_digest = reference["serve"][workload.name].get(str(seed))
        for play in (plain, rep):
            check_serve(checks, expected_digest, play, len(state.requests), plain.digest)

    layers["serving.workload.generate_s"] = (state.generate_s, "s")
    layers["trace.overhead.compile"] = (replay.seconds / untraced.seconds - 1.0, "ratio")
    layers["trace.overhead.serve"] = (rep.seconds / plain.seconds - 1.0, "ratio")
    path = tracer.write_chrome_trace(
        os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json"),
        metadata={"workload": workload.name, "seed": seed},
    )
    self_times = sorted(tracer.self_s.items(), key=lambda item: -item[1])[:8]
    notes = [f"chrome trace: {os.path.relpath(path, ROOT)} ({len(tracer.events)} spans)"]
    notes += [
        f"self {name}: {seconds_:.3f} s over {tracer.calls[name]} calls"
        for name, seconds_ in self_times
    ]
    metrics = {name: metric(value, unit) for name, (value, unit) in sorted(layers.items())}
    return checks, metrics, notes


# --------------------------------------------------------------------------- #
# Reference recording
# --------------------------------------------------------------------------- #
def record() -> int:
    from checks import REFERENCE_PATH, compile_outcome
    from meter import Meter
    from workloads import WORKLOADS, scratch_dir, build_requests, make_simulator, run_compile, serve_once, setup

    payload = {"compile": {}, "serve": {}}
    meter = Meter()
    with scratch_dir(OUT_DIR) as scratch:
        for workload in WORKLOADS.values():
            batch = build_requests(workload.compile)
            phase = run_compile(
                workload.compile, batch, os.path.join(scratch, "record.json"), True, meter
            )
            for label, result in zip(phase.labels, phase.results):
                payload["compile"][label] = compile_outcome(result)
            state = setup(workload, 0, scratch, meter)
            digests = {}
            for seed in range(RECORD_SEEDS):
                state.requests, state.faults = workload.serve.trace(seed)
                state.simulator = make_simulator(workload, state.step_model, seed)
                digests[str(seed)] = serve_once(workload, state, meter).digest
                print(f"{workload.name} seed {seed}: {digests[str(seed)][:16]}", flush=True)
            payload["serve"][workload.name] = digests
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from src/: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.record:
        return record()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} ({sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    start = time.perf_counter()
    run = traced_run if args.trace else timed_run
    checks, metrics, notes = run(workload, args.seed, args.seconds)
    for name, entry in metrics.items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    for note in notes:
        print(f"{workload.name}: {note}")
    for problem in checks.problems:
        print(f"{workload.name} FAILED: {problem}")
    print(f"{workload.name}: wall {time.perf_counter() - start:.1f} s")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
