"""Section VII-C: compilation time — candidate enumeration stays in the same
ballpark as Triton's autotuning (the paper: 48.4 s for 102 candidates vs
57.1 s; here we check candidates are enumerated and timed, per compile),
plus two smoke checks:

* the compile-cache check: a recompile of the same program object must be
  a direct hit that runs no pass (``cache_hit`` and empty ``pass_stats``),
  and a compile of an *equivalent* program (re-built from scratch, so a
  different object) must replay the cached assignment instead of
  searching (one candidate, one leaf evaluated, none pruned), both
  producing a bit-identical kernel; the cold/warm time ratios are
  printed, not gated;
* the branch-and-bound regression guard (``--smoke``, run in CI): the cold
  compile of the fig22 GEMM config must finish with strictly fewer full
  leaf evaluations than ``candidates_explored`` under the old (flat
  enumeration) scheme, while choosing a bit-identical candidate;
* the per-backend compile-time report (``--smoke``): the same GEMM compiled
  cold then warm through every registered codegen backend (on an arch that
  declares it) via one shared cache — every backend's warm recompile must
  be a cache replay (a hit that explores one candidate and evaluates its
  one cached leaf, pruning none; the cold/warm time ratio is printed, not
  gated), the emitted sources must differ across backends, and the arch
  registry must cover every backend in ``repro.codegen.BACKENDS``;
* the swizzle prune gate (``--smoke``): the fig22 GEMM plus the other four
  kernel families, each searched from a cold structural cache under both
  backends' banking geometries (32x4 B and 64x4 B); every distinct
  shared-memory subproblem the search solved is then solved again with
  analytic swizzle pruning off and on (``solve_subproblem(prune=...)``) —
  each pair must return the same ``winner`` (layout, swizzle, conflict
  factor, failure), and pruning must score strictly fewer swizzle
  candidates in total.

Run as a script for the standalone modes::

    PYTHONPATH=src python benchmarks/bench_compile_time.py --smoke
"""

import argparse
import sys
import time

from repro.compiler import compile_kernel
from repro.instructions.registry import instruction_set
from repro.kernels.attention import AttentionConfig, build_mha_forward
from repro.kernels.fp8_gemm import Fp8GemmConfig, build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.mamba import ScanConfig, build_selective_scan
from repro.kernels.moe import MoeConfig, build_moe_gemm
from repro.pipeline import CompileCache
from repro.sim.arch import get_arch
from repro.synthesis.search import InstructionSelector
from repro.synthesis.smem_solver import (
    SmemBankParams,
    clear_smem_cache,
    copy_access_for,
    solve_subproblem,
    subproblem_key,
)
from repro.synthesis.tv_solver import ThreadValueSolver
from repro.utils.memo import clear_caches

CONFIG = GemmConfig(bm=128, bn=128, bk=32)
PROBLEM = (256, 256, 512)
MAX_CANDIDATES = 102  # the paper's Section VII-C candidate count

# The fig22 A100 GEMM configuration gated by the CI --smoke mode.
FIG22_ARCH = "a100"
FIG22_CONFIG = GemmConfig(bm=128, bn=128, bk=32)
FIG22_PROBLEM = (4096, 4096, 4096)


def search_cold(arch, problem, config, exhaustive):
    """One cold search (tv synthesis + instruction selection) on a fresh
    program, timed, via branch-and-bound or the flat-enumeration reference.
    The search time covers what the instruction-selection pass runs: the
    selector's construction (menus, cost table) and the search."""
    gpu = get_arch(arch)
    iset = instruction_set(gpu.sm_arch)
    program = build_fp16_gemm(*problem, config)
    start = time.perf_counter()
    tv = ThreadValueSolver(program, iset).solve()
    tv_s = time.perf_counter() - start
    start = time.perf_counter()
    selector = InstructionSelector(program, tv, iset, max_candidates=MAX_CANDIDATES)
    best = selector.best_exhaustive() if exhaustive else selector.best()
    search_s = time.perf_counter() - start
    return selector, best, tv_s, search_s


def compile_cold_and_warm():
    cache = CompileCache()
    m, n, k = PROBLEM

    program = build_fp16_gemm(m, n, k, CONFIG)
    start = time.perf_counter()
    cold = compile_kernel(program, arch="h100", max_candidates=MAX_CANDIDATES, cache=cache)
    cold_s = time.perf_counter() - start

    # Warm path 1: recompiling the very same program object is a direct
    # cache hit.
    start = time.perf_counter()
    warm = compile_kernel(program, arch="h100", max_candidates=MAX_CANDIDATES, cache=cache)
    warm_s = time.perf_counter() - start

    # Warm path 2: an equivalent program built from scratch replays the
    # cached instruction assignment (single-candidate evaluation, no search).
    rebuilt = build_fp16_gemm(m, n, k, CONFIG)
    start = time.perf_counter()
    replay = compile_kernel(rebuilt, arch="h100", max_candidates=MAX_CANDIDATES, cache=cache)
    replay_s = time.perf_counter() - start

    # The pre-branch-and-bound reference on the same config: flat enumeration
    # of the same candidate window.  The process-wide memo layers (layout
    # algebra, structural smem subproblems) are dropped first so the
    # reference pays the same cold-start costs the old scheme did.
    clear_smem_cache()
    clear_caches()
    ref_sel, ref_best, ref_tv_s, ref_search_s = search_cold(
        "h100", PROBLEM, CONFIG, exhaustive=True
    )

    return cold, warm, replay, cold_s, warm_s, replay_s, ref_sel, ref_best, ref_search_s


def report_search_stats(kernel):
    stats = kernel.pass_stats
    print(
        f"  search: {stats.get('instruction-selection.leaves_evaluated', 0):.0f} leaves evaluated, "
        f"{stats.get('instruction-selection.leaves_pruned', 0):.0f} pruned, "
        f"{stats.get('instruction-selection.subproblems_memoized', 0):.0f} smem subproblems memoized, "
        f"{stats.get('instruction-selection.smem_solves', 0):.0f} smem solves"
    )


def test_compile_time(once):
    (
        cold,
        warm,
        replay,
        cold_s,
        warm_s,
        replay_s,
        ref_sel,
        ref_best,
        ref_search_s,
    ) = once(compile_cold_and_warm)
    print()
    print(f"cold: explored {cold.candidates_explored} candidate leaves in {cold_s:.2f} s "
          f"({cold_s / max(cold.candidates_explored, 1) * 1000:.1f} ms per candidate)")
    report_search_stats(cold)
    for name, seconds in cold.pass_times().items():
        print(f"  {name}: {seconds * 1000:.1f} ms")
    sel_s = cold.pass_stats.get("instruction-selection", 0.0)
    print(f"old scheme (flat enumeration over the same memo layers): "
          f"{ref_sel.stats.leaves_evaluated} leaves evaluated, "
          f"search pass {ref_search_s * 1000:.1f} ms "
          f"(branch-and-bound delta: {(ref_search_s - sel_s) * 1000:+.1f} ms, "
          f"{ref_sel.stats.leaves_evaluated - int(cold.pass_stats['instruction-selection.leaves_evaluated'])} fewer leaves)")
    print(f"warm (same program, cache hit): {warm_s * 1000:.2f} ms "
          f"({cold_s / max(warm_s, 1e-9):.0f}x faster)")
    print(f"warm (equivalent program, replay): {replay_s * 1000:.1f} ms "
          f"({cold_s / max(replay_s, 1e-9):.1f}x faster, "
          f"{replay.candidates_explored} candidate evaluated)")

    assert cold.candidates_explored >= 10
    assert cold_s < 120
    # The branch-and-bound regression guard: strictly fewer full leaf
    # evaluations than the flat enumeration's candidates_explored, same
    # winning candidate.
    assert (
        cold.pass_stats["instruction-selection.leaves_evaluated"]
        < ref_sel.candidates_explored
    )
    assert cold.pass_stats["instruction-selection.leaves_pruned"] > 0
    assert cold.candidate.named_assignment(cold.program) == ref_best.named_assignment(
        ref_sel.program
    )
    assert cold.cost.total_cycles == ref_best.total_cycles
    # The compile-cache smoke check, on counters rather than the wall
    # clock: the same program object is a direct hit that runs no pass.
    assert warm.cache_hit and warm.pass_stats == {}
    # The replay still runs all passes (layouts must be installed on the new
    # program), but evaluates the one cached leaf instead of searching ~100.
    assert replay.cache_hit
    assert replay.candidates_explored == 1
    assert replay.pass_stats["instruction-selection.leaves_evaluated"] == 1
    assert replay.pass_stats["instruction-selection.leaves_pruned"] == 0
    # Bit-identical results on all warm paths.
    for cached in (warm, replay):
        assert cached.latency_us == cold.latency_us
        assert cached.source == cold.source


def run_smoke() -> int:
    """CI gate: cold-compile the fig22 GEMM config with branch-and-bound and
    with the flat-enumeration reference; require strictly fewer full leaf
    evaluations and a bit-identical winner.  Returns a process exit code.

    Both runs start from cold process-wide memo layers so the printed
    timings are comparable."""
    clear_smem_cache()
    clear_caches()
    bnb_sel, bnb_best, bnb_tv_s, bnb_search_s = search_cold(
        FIG22_ARCH, FIG22_PROBLEM, FIG22_CONFIG, exhaustive=False
    )
    clear_smem_cache()
    clear_caches()
    ref_sel, ref_best, ref_tv_s, ref_search_s = search_cold(
        FIG22_ARCH, FIG22_PROBLEM, FIG22_CONFIG, exhaustive=True
    )
    print(f"fig22 GEMM config ({FIG22_ARCH}, bm={FIG22_CONFIG.bm} bn={FIG22_CONFIG.bn} "
          f"bk={FIG22_CONFIG.bk}, {MAX_CANDIDATES} candidates):")
    # The unit a faster leaf evaluation moves: instruction-selection time
    # per fully evaluated leaf (shared-memory plans plus one cost estimate).
    per_leaf_us = bnb_search_s / max(bnb_sel.stats.leaves_evaluated, 1) * 1e6
    print(f"  branch-and-bound: {bnb_sel.stats.leaves_evaluated} leaves evaluated, "
          f"{bnb_sel.stats.leaves_pruned} pruned, "
          f"{bnb_sel.stats.smem_solves} smem solves, "
          f"{bnb_sel.stats.subproblems_memoized} memoized, "
          f"search {bnb_search_s * 1000:.1f} ms (+ tv {bnb_tv_s * 1000:.1f} ms), "
          f"{per_leaf_us:.0f} us per evaluated leaf")
    print(f"  flat enumeration: {ref_sel.candidates_explored} candidates explored "
          f"({ref_sel.stats.leaves_evaluated} evaluated), "
          f"search {ref_search_s * 1000:.1f} ms")

    failures = []
    if not bnb_sel.stats.leaves_evaluated < ref_sel.candidates_explored:
        failures.append(
            f"pruner regression: {bnb_sel.stats.leaves_evaluated} leaf evaluations "
            f"is not strictly fewer than the old scheme's "
            f"{ref_sel.candidates_explored} candidates"
        )
    if bnb_best.named_assignment(bnb_sel.program) != ref_best.named_assignment(
        ref_sel.program
    ):
        failures.append("winning assignment differs from the exhaustive reference")
    if bnb_best.total_cycles != ref_best.total_cycles:
        failures.append(
            f"winning cost differs: {bnb_best.total_cycles} vs {ref_best.total_cycles}"
        )
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK: strictly fewer leaf evaluations, bit-identical winner")
    return 1 if failures else 0


def run_backend_compile_times() -> int:
    """Per-backend cold/warm compile times through one shared cache.

    The same GEMM program is compiled once per registered backend, on an
    architecture that declares that backend (a100 -> cuda, mi300 -> rocm,
    cpu-sim -> cpu-sim), then recompiled from an equivalent rebuilt
    program.  The warm path must replay out of the cache instead of
    searching ~100 candidates: a cache hit with ``candidates_explored ==
    1`` whose instruction selection evaluated exactly one leaf (the cached
    assignment) and pruned none.  Those counters say exactly whether the
    search was skipped; the cold/warm wall-clock ratio is printed but not
    gated, since a replay still re-runs TV synthesis and the later passes
    and a noisy machine moves the ratio.  The per-backend cache entries
    must not collide (distinct emitted sources prove distinct entries),
    and the arch registry must cover every backend — a new backend
    without a compiling arch fails here before it fails anywhere
    subtler.
    """
    from repro.codegen import BACKENDS

    archs = ("a100", "mi300", "cpu-sim")
    covered = {get_arch(a).backend for a in archs}
    failures = []
    if covered != set(BACKENDS):
        failures.append(
            f"arch sweep covers backends {sorted(covered)}, registry has "
            f"{sorted(BACKENDS)}"
        )
    m, n, k = PROBLEM
    cache = CompileCache()
    sources = {}
    print("per-backend compile times (shared cache, "
          f"{m}x{n}x{k} GEMM, bm={CONFIG.bm} bn={CONFIG.bn} bk={CONFIG.bk}):")
    for arch in archs:
        backend = get_arch(arch).backend
        program = build_fp16_gemm(m, n, k, CONFIG)
        start = time.perf_counter()
        cold = compile_kernel(program, arch=arch, max_candidates=MAX_CANDIDATES, cache=cache)
        cold_s = time.perf_counter() - start
        rebuilt = build_fp16_gemm(m, n, k, CONFIG)
        start = time.perf_counter()
        warm = compile_kernel(rebuilt, arch=arch, max_candidates=MAX_CANDIDATES, cache=cache)
        warm_s = time.perf_counter() - start
        sources[backend] = cold.source
        print(f"  {backend:8s} ({arch:7s}): cold {cold_s * 1000:7.1f} ms, "
              f"warm {warm_s * 1000:6.1f} ms ({cold_s / max(warm_s, 1e-9):5.1f}x), "
              f"{cold.candidates_explored} candidates explored")
        if not warm.cache_hit:
            failures.append(f"{backend} warm recompile missed the cache")
        if warm.source != cold.source:
            failures.append(f"{backend} warm recompile is not bit-identical")
        leaves = warm.pass_stats.get("instruction-selection.leaves_evaluated")
        pruned = warm.pass_stats.get("instruction-selection.leaves_pruned")
        if (warm.candidates_explored, leaves, pruned) != (1, 1, 0):
            failures.append(
                f"{backend} warm recompile searched instead of replaying "
                f"({warm.candidates_explored} candidates explored, {leaves} "
                f"leaves evaluated, {pruned} pruned; a replay reads 1, 1, 0)"
            )
    if len(set(sources.values())) != len(sources):
        failures.append(
            "two backends emitted identical source from one cache — "
            "backend-keyed cache entries are colliding"
        )
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK: every backend replays warm out of its own cache entries")
    return 1 if failures else 0


# The prune-gate sweep: the fig22 GEMM plus one representative program per
# remaining kernel family, each searched on its native arch.  The attention
# family uses the forward kernel (the decode kernel stages nothing through
# shared memory, so it exercises no swizzle selection at all).
PRUNE_GATE_FAMILIES = (
    ("gemm", FIG22_ARCH, lambda: build_fp16_gemm(*FIG22_PROBLEM, FIG22_CONFIG)),
    ("fp8_gemm", "h100",
     lambda: build_fp8_blockwise_gemm(1024, 1024, 512,
                                      Fp8GemmConfig(bm=64, bn=64, bk=128))),
    ("attention", "a100",
     lambda: build_mha_forward(8, 16, 2048, 128, AttentionConfig(head_dim=128))),
    ("mamba", "a100", lambda: build_selective_scan(2048, 1024, 2, ScanConfig())),
    ("moe", "a100", lambda: build_moe_gemm(64, 4096, 4096, MoeConfig())),
)

# Both backends' banking geometries (cuda 32x4 B, rocm/CDNA 64x4 B).
PRUNE_GATE_BANKINGS = (
    ("cuda 32x4B", SmemBankParams(32, 4)),
    ("rocm 64x4B", SmemBankParams(64, 4)),
)


def _prune_gate_cell(build, arch: str, bank_params: SmemBankParams):
    """One cold search of a family program, then every distinct subproblem
    it solved, solved again with pruning off and with pruning on.

    The subproblems come from the selector's ``(tensor, instructions)``
    memo, their accesses rebuilt with ``copy_access_for`` and deduplicated
    by structural key, as the process-wide cache deduplicates them: after
    a cleared cache they are exactly the subproblems the search solved.
    """
    gpu = get_arch(arch)
    iset = instruction_set(gpu.sm_arch)
    program = build()
    tv = ThreadValueSolver(program, iset).solve()
    selector = InstructionSelector(
        program, tv, iset, max_candidates=MAX_CANDIDATES, bank_params=bank_params
    )
    clear_smem_cache()
    selector.best()
    tensors = {tensor.tensor_id: tensor for tensor in program.shared_tensors()}
    subproblems = {}
    for tensor_id, instructions in selector._smem_cache:
        tensor = tensors[tensor_id]
        accesses = [
            copy_access_for(copy, instr, tensor, selector._reg_tv[copy.op_id])
            for copy, instr in zip(selector._touching[tensor_id], instructions)
        ]
        key = subproblem_key(tensor, accesses, bank_params)
        subproblems.setdefault(key, (tensor, accesses))
    solved = subproblems.values()
    off = [solve_subproblem(t, a, bank_params, prune=False) for t, a in solved]
    on = [solve_subproblem(t, a, bank_params, prune=True) for t, a in solved]
    return selector, off, on


def run_prune_gate() -> int:
    """CI gate: analytic swizzle pruning scores strictly fewer candidates
    and returns a bit-identical winner on every subproblem the search
    solves, for every kernel family under both backends' banking
    geometries.  Returns a process exit code.

    Pruning uses the integer-set relation view of the warp accesses
    (``repro.layout.relation``): the conflict floor (1.0) ends the scan as
    soon as the incumbent is conflict-free, and candidates whose
    restriction to the touched address window ties an already-scored one
    are skipped (``swizzle_window_key``).  Both prunes can only skip
    candidates that tie or lose, so no winner may move; the search reads
    pruning only through those winners.
    """
    failures = []
    print("swizzle prune gate (fig22 sweep, both banking geometries):")
    for family, arch, build in PRUNE_GATE_FAMILIES:
        for bank_label, bank_params in PRUNE_GATE_BANKINGS:
            selector, off, on = _prune_gate_cell(build, arch, bank_params)
            cell = f"{family} ({arch}, {bank_label})"
            scored_off = sum(solution.swizzles_scored for solution in off)
            scored_on = sum(solution.swizzles_scored for solution in on)
            pruned_off = sum(solution.swizzles_pruned for solution in off)
            pruned_on = sum(solution.swizzles_pruned for solution in on)
            print(f"  {cell:32s}: scored {scored_off:3d} -> {scored_on:3d} "
                  f"({pruned_on} pruned, {selector.stats.smem_solves} solves)")
            if (len(on), scored_on, pruned_on) != (
                selector.stats.smem_solves,
                selector.stats.swizzles_scored,
                selector.stats.swizzles_pruned,
            ):
                failures.append(
                    f"{cell}: the re-solved subproblems are not the ones the "
                    f"search solved"
                )
            if not scored_on < scored_off:
                failures.append(
                    f"{cell}: pruning scored {scored_on} candidates, "
                    f"not strictly fewer than {scored_off}"
                )
            if pruned_on <= 0:
                failures.append(f"{cell}: prune counters never engaged")
            if pruned_off != 0:
                failures.append(
                    f"{cell}: unpruned reference reports {pruned_off} pruned candidates"
                )
            moved = sum(a.winner != b.winner for a, b in zip(off, on))
            if moved:
                failures.append(
                    f"{cell}: {moved} smem layout/swizzle/conflict-factor "
                    f"winners moved under pruning"
                )
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK: strictly fewer swizzles scored, bit-identical winners")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the branch-and-bound CI gate on the fig22 GEMM config",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        code = run_smoke()
        print()
        code = max(code, run_backend_compile_times())
        print()
        return max(code, run_prune_gate())
    parser.error("choose a mode (--smoke); the timing harness runs under pytest")


if __name__ == "__main__":
    sys.exit(main())
