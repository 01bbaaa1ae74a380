"""Branch-and-bound instruction selection: equivalence with the flat
enumeration, smem subproblem memoization soundness, and search stats.

The branch-and-bound search (`InstructionSelector.best`) must return a
candidate bit-identical to the pre-change exhaustive reference
(`best_exhaustive`) for every kernel family and every search budget, while
doing strictly less work.  The memoized shared-memory subproblems must
never change a synthesized plan.
"""

import pytest

from repro.compiler import compile_kernel
from repro.instructions.registry import instruction_set
from repro.ir.ops import Copy
from repro.kernels.attention import build_mha_decoding
from repro.kernels.fp8_gemm import build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.mamba import build_selective_scan
from repro.kernels.moe import build_moe_gemm
from repro.layout.relation import LayoutRelation
from repro.layout.tv import TVLayout
from repro.pipeline import CompileCache, compile_program
from repro.sim.arch import DEFAULT_ARCH, get_arch
from repro.synthesis import cost_model, smem_solver
from repro.synthesis.search import InstructionSelector
from repro.synthesis.smem_solver import (
    SmemBankParams,
    clear_smem_cache,
    smem_solution_for,
    solve_subproblem,
)
from repro.synthesis.tv_solver import ThreadValueSolver
from repro.utils.memo import clear_caches

KERNEL_FAMILIES = [
    ("gemm", lambda: build_fp16_gemm(256, 256, 512, GemmConfig(bm=128, bn=128, bk=32)), "a100"),
    ("fp8_gemm", lambda: build_fp8_blockwise_gemm(128, 128, 128), "h100"),
    ("attention", lambda: build_mha_decoding(128, 64, 2, 1), "a100"),
    ("mamba", lambda: build_selective_scan(128, 128, 1), "h100"),
    ("moe", lambda: build_moe_gemm(16, 128, 128), "h100"),
]
FAMILY_IDS = [f[0] for f in KERNEL_FAMILIES]
# CDNA's LDS banking: more swizzle candidates than the default 32x4 B.
ROCM_BANKS = SmemBankParams(64, 4)


def make_selector(build, arch, max_candidates):
    gpu = get_arch(arch)
    iset = instruction_set(gpu.sm_arch)
    program = build()
    tv = ThreadValueSolver(program, iset).solve()
    return InstructionSelector(program, tv, iset, max_candidates=max_candidates)


# --------------------------------------------------------------------------- #
# Equivalence: branch-and-bound == flat enumeration
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,build,arch", KERNEL_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("max_candidates", [4, 8, 64, 256])
def test_bnb_matches_exhaustive(name, build, arch, max_candidates):
    """Same winning assignment and same total cycles at every search budget,
    including budgets that truncate the tree mid-subtree."""
    exhaustive_sel = make_selector(build, arch, max_candidates)
    exhaustive = exhaustive_sel.best_exhaustive()
    bnb_sel = make_selector(build, arch, max_candidates)
    bnb = bnb_sel.best()

    assert bnb.named_assignment(bnb_sel.program) == exhaustive.named_assignment(
        exhaustive_sel.program
    )
    assert bnb.total_cycles == exhaustive.total_cycles
    # Both searches account for the same window of leaf equivalents.
    assert bnb_sel.candidates_explored == exhaustive_sel.candidates_explored


@pytest.mark.parametrize("name,build,arch", KERNEL_FAMILIES, ids=FAMILY_IDS)
def test_bnb_never_does_more_full_evaluations(name, build, arch):
    """The pruner is a pure win: full leaf evaluations (smem + cost model)
    never exceed the flat enumeration's, and the smem memo always fires."""
    exhaustive_sel = make_selector(build, arch, 64)
    exhaustive_sel.best_exhaustive()
    bnb_sel = make_selector(build, arch, 64)
    bnb_sel.best()
    assert bnb_sel.stats.leaves_evaluated <= exhaustive_sel.stats.leaves_evaluated
    assert bnb_sel.stats.smem_solves <= exhaustive_sel.stats.smem_solves
    if bnb_sel.program.shared_tensors():
        assert (
            bnb_sel.stats.subproblems_memoized + bnb_sel.stats.smem_solves > 0
        )


# --------------------------------------------------------------------------- #
# Property: memoized smem subproblems never change SmemPlan results
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,build,arch", KERNEL_FAMILIES, ids=FAMILY_IDS)
def test_memoized_smem_subproblems_match_fresh_solves(name, build, arch):
    """For every enumerated assignment and every shared buffer, the plan
    served through the (selector + process-wide) memo layers equals a fresh
    uncached constraint solve, and that solve's winner equals the unpruned
    swizzle search's."""
    selector = make_selector(build, arch, 16)
    checked = 0
    for assignment in selector.enumerate_assignments():
        for tensor in selector.program.shared_tensors():
            touching = selector._touching[tensor.tensor_id]
            accesses = [
                selector._access_for(copy, assignment[copy.op_id], tensor)
                for copy in touching
            ]
            fresh = solve_subproblem(tensor, accesses, selector.bank_params)
            # The swizzle prune keeps every winner, on both backends' banks.
            assert fresh.winner == solve_subproblem(
                tensor, accesses, selector.bank_params, prune=False
            ).winner
            assert solve_subproblem(tensor, accesses, ROCM_BANKS).winner == (
                solve_subproblem(tensor, accesses, ROCM_BANKS, prune=False).winner
            )
            plan = selector._plan_for(tensor, assignment)
            if fresh.failure is not None:
                assert plan is None
            else:
                assert plan is not None
                assert plan.base_layout == fresh.base_layout
                assert plan.swizzle == fresh.swizzle
                assert plan.conflict_factor == fresh.conflict_factor
                assert [a.copy.op_id for a in plan.accesses] == [
                    a.copy.op_id for a in accesses
                ]
            checked += 1
    if selector.program.shared_tensors():
        assert checked > 0


def test_structural_smem_cache_round_trip():
    """The process-wide structural cache replays plans (and failures)
    identically for equivalent subproblems on distinct tensor objects."""
    selector = make_selector(*KERNEL_FAMILIES[0][1:], 4)
    program = selector.program
    assignment = next(selector.enumerate_assignments())
    tensor = program.shared_tensors()[0]
    accesses = [
        selector._access_for(copy, assignment[copy.op_id], tensor)
        for copy in selector._touching[tensor.tensor_id]
    ]
    clear_smem_cache()
    solution, hit = smem_solution_for(tensor, accesses)
    assert not hit and len(smem_solver._SOLUTION_CACHE) == 1
    replayed, hit = smem_solution_for(tensor, accesses)
    assert hit and replayed is solution
    first = solution.as_plan(tensor, accesses)
    second = replayed.as_plan(tensor, accesses)
    assert second.base_layout == first.base_layout
    assert second.swizzle == first.swizzle
    assert second.conflict_factor == first.conflict_factor
    # The replayed plan is a fresh object bound to the given tensor, so
    # applying it installs layouts on the right program.
    assert second is not first and second.tensor is tensor


# --------------------------------------------------------------------------- #
# Stats plumbing
# --------------------------------------------------------------------------- #
def test_search_stats_exposed_through_pipeline():
    program = build_fp16_gemm(256, 256, 512, GemmConfig(bm=128, bn=128, bk=32))
    kernel = compile_kernel(
        program, arch="a100", max_candidates=64, cache=CompileCache()
    )
    stats = kernel.pass_stats
    assert stats["instruction-selection.leaves_evaluated"] >= 1
    assert stats["instruction-selection.leaves_pruned"] > 0
    assert stats["instruction-selection.subproblems_memoized"] > 0
    # Window accounting: evaluated + memo-replayed + pruned leaf equivalents
    # is what candidates_explored has always reported.
    assert kernel.candidates_explored >= stats["instruction-selection.leaves_pruned"]


def test_replay_evaluates_single_leaf_without_pruning():
    cache = CompileCache()
    build = lambda: build_fp16_gemm(256, 256, 512, GemmConfig(bm=128, bn=128, bk=32))
    compile_kernel(build(), arch="a100", max_candidates=64, cache=cache)
    replay = compile_kernel(build(), arch="a100", max_candidates=64, cache=cache)
    assert replay.cache_hit
    assert replay.candidates_explored == 1
    assert replay.pass_stats["instruction-selection.leaves_pruned"] == 0


def test_tv_solver_defaults_to_canonical_arch():
    program = build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32))
    solver = ThreadValueSolver(program)
    assert solver.instructions.arch == get_arch(DEFAULT_ARCH).sm_arch


# --------------------------------------------------------------------------- #
# Per-compile facts are computed once (clock-free work bounds)
# --------------------------------------------------------------------------- #
def test_compiles_compute_per_compile_facts_once(monkeypatch):
    """A cold compile and a replay of every kernel family read each warp's
    coordinates from its TV layout (no ``TVLayout.coords`` call), score
    swizzles without building a ``LayoutRelation``, and cost each non-copy
    operation at most once per compile (one cost table per search)."""
    coords_calls = []
    relations = []
    costed = {}
    original_coords = TVLayout.coords
    original_relation_init = LayoutRelation.__init__
    original_cost = cost_model.operation_cost

    def counted_coords(self, tid, vid):
        coords_calls.append((tid, vid))
        return original_coords(self, tid, vid)

    def counted_relation_init(self, pairs):
        relations.append(pairs)
        original_relation_init(self, pairs)

    def counted_cost(program, op):
        assert not isinstance(op, Copy)
        costed[id(op)] = costed.get(id(op), 0) + 1
        return original_cost(program, op)

    monkeypatch.setattr(TVLayout, "coords", counted_coords)
    monkeypatch.setattr(LayoutRelation, "__init__", counted_relation_init)
    monkeypatch.setattr(cost_model, "operation_cost", counted_cost)
    clear_caches()
    clear_smem_cache()
    cache = CompileCache()
    programs = []
    for _, build, arch in KERNEL_FAMILIES:
        cold = compile_program(build(), arch=arch, cache=cache, max_candidates=64)
        replay = compile_program(build(), arch=arch, cache=cache, max_candidates=64)
        assert not cold.cache_hit and replay.cache_hit
        assert cold.pass_stats["instruction-selection.leaves_evaluated"] > 1
        programs += [cold.program, replay.program]
    assert coords_calls == []
    assert relations == []
    # Every non-copy operation of every compiled program, costed once.
    assert set(costed) == {
        id(op) for program in programs for op in program.operations
        if not isinstance(op, Copy)
    }
    assert set(costed.values()) == {1}
    # The patched names are the ones the compile path would reach.
    tv = next(copy.register_operand() for copy in programs[0].copies()
              if copy.register_operand() is not None).tv_layout
    tv.coords(0, 0)
    LayoutRelation.from_access(tv.layout, [(0, 0)])
    assert len(coords_calls) == 1 and len(relations) == 1
