"""Tests for shared-memory layout synthesis (Section V)."""

import pytest

from repro.frontend import KernelBuilder
from repro.instructions import instruction_set
from repro.ir import types
from repro.layout import Layout
from repro.synthesis import (
    SmemBankParams,
    SmemSynthesisError,
    ThreadValueSolver,
    bank_conflict_factor,
    clear_smem_cache,
    copy_access_for,
    smem_solution_for,
    solve_subproblem,
)


def _staged_copy_program(in_layout, out_layout, shape=(64, 64)):
    """global -> shared -> register -> global with given global layouts."""
    hx = KernelBuilder("staged", num_threads=128)
    src = hx.global_view("src", types.float16, shape, layout=in_layout)
    dst = hx.global_view("dst", types.float16, shape, layout=out_layout)
    smem = hx.shared_tensor(types.float16, shape)
    reg = hx.register_tensor(types.float16, shape)
    hx.copy(src, smem)
    hx.copy(smem, reg)
    hx.copy(reg, dst)
    program = hx.build()
    ThreadValueSolver(program, instruction_set(80)).solve()
    return program, smem


def _accesses(program, smem, vector_bytes=16):
    iset = instruction_set(80)
    accesses = []
    for copy in program.copies_touching(smem):
        menu = [i for i in iset.copies(copy.src.scope, copy.dst.scope, include_collective=False)
                if i.vector_bytes <= vector_bytes]
        instr = menu[0] if menu else iset.scalar_copy(copy.src.scope, copy.dst.scope)
        reg = copy.register_operand()
        accesses.append(copy_access_for(copy, instr, smem, reg.tv_layout if reg else None))
    return accesses


def _plan(smem, accesses):
    """The search's (cached) solve of one buffer, as a plan."""
    solution, _hit = smem_solution_for(smem, accesses)
    return solution.as_plan(smem, accesses)


def test_compatible_accesses_unify_to_wide_layout():
    layout = Layout((64, 64), (64, 1))  # row-major source and destination
    program, smem = _staged_copy_program(layout, layout)
    plan = _plan(smem, _accesses(program, smem))
    assert plan.base_layout.is_injective()
    assert plan.base_layout.cosize() == 64 * 64
    # The unified layout keeps 8 fp16 contiguous along the vectorized dim.
    assert plan.base_layout((0, 1)) - plan.base_layout((0, 0)) == 1


def test_conflicting_accesses_fail_until_degraded():
    row = Layout((64, 64), (64, 1))
    col = Layout((64, 64), (1, 64))
    program, smem = _staged_copy_program(row, col)
    with pytest.raises(SmemSynthesisError):
        _plan(smem, _accesses(program, smem, vector_bytes=16))
    # Scalar accesses impose no alignment constraint and always unify.
    plan = _plan(smem, _accesses(program, smem, vector_bytes=2))
    assert plan.base_layout.is_injective()


def test_bank_conflict_factor_bounds():
    layout = Layout((64, 64), (64, 1))
    same_column = [(t, 0) for t in range(32)]
    spread = [(0, 8 * t) for t in range(8)]
    worst = bank_conflict_factor(layout, same_column, 2.0, 16)
    best = bank_conflict_factor(layout, spread, 2.0, 16)
    assert worst > best >= 1.0


def test_strided_warp_coords_reject_non_integer_extents():
    from repro.synthesis.smem_solver import _strided_warp_coords

    assert _strided_warp_coords((4, 8), 1, 2)[:3] == ((0, 0), (1, 0), (2, 0))
    with pytest.raises(TypeError, match="4.5"):
        _strided_warp_coords((4.5, 8), 1, 2)


def test_swizzle_selected_when_it_helps():
    row = Layout((64, 64), (64, 1))
    program, smem = _staged_copy_program(row, row)
    plan = _plan(smem, _accesses(program, smem))
    assert plan.conflict_factor <= 8.0


def test_unused_buffer_gets_default_layout():
    from repro.ir.tensor import Scope, TileTensor

    tensor = TileTensor("s", types.float16, Scope.SHARED, (32, 32))
    plan = _plan(tensor, [])
    assert plan.base_layout.is_compact()
    assert plan.swizzle.is_identity()


def test_plan_apply_installs_layout():
    layout = Layout((64, 64), (64, 1))
    program, smem = _staged_copy_program(layout, layout)
    plan = _plan(smem, _accesses(program, smem))
    plan.apply()
    assert smem.layout is plan.base_layout
    assert smem.swizzled_layout is not None


# --------------------------------------------------------------------------- #
# Analytic swizzle pruning (relation-based): equivalence and instrumentation
# --------------------------------------------------------------------------- #
def _solve_both_ways(smem, accesses, bank_params):
    """The same subproblem with pruning off and on, bypassing the cache."""
    off = solve_subproblem(smem, accesses, bank_params, prune=False)
    on = solve_subproblem(smem, accesses, bank_params, prune=True)
    return off, on


@pytest.mark.parametrize("shape", [(64, 64), (32, 32), (128, 32)])
@pytest.mark.parametrize(
    "bank_params", [SmemBankParams(32, 4), SmemBankParams(64, 4)])
def test_pruned_search_returns_bit_identical_winner(shape, bank_params):
    row = Layout(shape, (shape[1], 1))
    program, smem = _staged_copy_program(row, row, shape=shape)
    off, on = _solve_both_ways(smem, _accesses(program, smem), bank_params)
    # Same base layout, swizzle, conflict factor and failure state...
    assert on.winner == off.winner
    # ...while scoring strictly fewer candidates (the identity candidate
    # alone is always window-deduped against the baseline evaluation).
    assert 0 < on.swizzles_scored < off.swizzles_scored
    assert on.swizzles_pruned > 0
    assert off.swizzles_pruned == 0


def test_conflict_free_search_skips_every_candidate():
    # An unbanked scratchpad (banks=1) can never conflict, so the baseline
    # already sits on the analytic floor and the pruner scores nothing.
    row = Layout((64, 64), (64, 1))
    program, smem = _staged_copy_program(row, row)
    off, on = _solve_both_ways(
        smem, _accesses(program, smem), SmemBankParams(1, 128))
    assert on.winner == off.winner
    assert on.conflict_factor == 1.0
    assert on.swizzles_scored == 0
    assert on.swizzles_pruned > 0
    assert on.swizzle.is_identity()


def test_prune_counters_reach_selection_stats_and_pass_stats():
    from repro.compiler import compile_kernel
    from repro.kernels.gemm import GemmConfig, build_fp16_gemm
    from repro.pipeline import CompileCache

    program = build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32))
    clear_smem_cache()
    kernel = compile_kernel(program, arch="a100", max_candidates=8,
                            cache=CompileCache())
    stats = kernel.pass_stats
    scored = stats["instruction-selection.swizzles_scored"]
    pruned = stats["instruction-selection.swizzles_pruned"]
    assert scored > 0
    assert pruned > 0
