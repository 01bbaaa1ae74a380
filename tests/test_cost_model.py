"""Tests for the analytical cost model (Section VI).

The model is one table per program (``AnalyticalCostModel``), built once
per search and evaluated for every leaf.  The per-operation walk it
replaced survives below as ``reference_estimate``, the oracle every leaf's
estimate must equal field for field, bit for bit.
"""

import math
import random
from typing import Dict

import pytest

from repro.compiler import compile_kernel
from repro.instructions.registry import instruction_set
from repro.ir.ops import Cast, Copy, Elementwise, Fill, Gemm, Rearrange, Reduce
from repro.kernels.attention import build_mha_decoding
from repro.kernels.fp8_gemm import build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.mamba import build_selective_scan
from repro.kernels.moe import build_moe_gemm
from repro.sim.arch import get_arch
from repro.synthesis import AnalyticalCostModel, CostBreakdown, copy_issue_cycles
from repro.synthesis.search import InstructionSelector
from repro.synthesis.tv_solver import ThreadValueSolver


def capped(program, max_vector_bytes):
    for copy in program.copies():
        copy.max_vector_bytes = max_vector_bytes
    return program


def _compiled(num_stages=2):
    program = build_fp16_gemm(64, 64, 128, GemmConfig(bm=64, bn=64, bk=32, num_stages=num_stages))
    return compile_kernel(program, arch="a100", max_candidates=8)


def test_cost_breakdown_components_are_consistent():
    kernel = _compiled()
    cost = kernel.cost
    assert cost.total_cycles > 0
    assert cost.memory_issue_cycles > 0
    assert cost.compute_issue_cycles > 0
    assert cost.total_cycles >= max(cost.memory_issue_cycles, cost.compute_issue_cycles)


def test_trip_counts_scale_issue_cycles():
    short = compile_kernel(
        build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32, num_stages=2)),
        arch="a100", max_candidates=4,
    )
    long = compile_kernel(
        build_fp16_gemm(64, 64, 256, GemmConfig(bm=64, bn=64, bk=32, num_stages=2)),
        arch="a100", max_candidates=4,
    )
    assert long.cost.compute_issue_cycles > short.cost.compute_issue_cycles * 2


def test_pipelining_reduces_estimated_cycles():
    pipelined = _compiled(num_stages=3)
    sequential = _compiled(num_stages=1)
    assert pipelined.cost.total_cycles <= sequential.cost.total_cycles


def test_wider_instructions_cost_less():
    """The Table III/IV mechanism: narrower copies -> more invocations -> more cycles."""
    program = build_moe_gemm(16, 128, 256, dataflow="hexcute")
    wide = compile_kernel(program, arch="h100", max_candidates=4)
    program_narrow = capped(build_moe_gemm(16, 128, 256, dataflow="hexcute"), 2)
    narrow = compile_kernel(program_narrow, arch="h100", max_candidates=4)
    assert narrow.cost.memory_issue_cycles > wide.cost.memory_issue_cycles


def test_scalar_fallback_cost_model_runs():
    program = capped(build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32)), 1)
    kernel = compile_kernel(program, arch="a100", max_candidates=2)
    model = AnalyticalCostModel(kernel.program)
    estimate = model.estimate(kernel.candidate.assignment, kernel.candidate.conflict_factors)
    assert estimate.total_cycles >= kernel.cost.total_cycles * 0.5


# --------------------------------------------------------------------------- #
# The oracle: the per-operation walk the table replaced
# --------------------------------------------------------------------------- #
def _register_issue(op, cycles_per_element):
    reg = next((t for t in op.register_tensors() if t.tv_layout is not None), None)
    per_thread = reg.tv_layout.values_per_thread if reg is not None else 1
    return per_thread * cycles_per_element


def reference_cost_of(program, op, assignment, conflict_factors):
    """``(issue per trip, completion)`` of one operation, recomputed from
    the operation itself on every call."""
    if isinstance(op, Copy):
        instruction = assignment[op.op_id]
        issue = copy_issue_cycles(
            program, op.moves_bytes(), instruction, conflict_factors.get(op.op_id, 1.0)
        )
        return issue, instruction.completion_cycles
    if isinstance(op, Gemm):
        mma = op.selected_instruction
        m, n, k = op.mnk
        total_atoms = (m * n * k) / (mma.m * mma.n * mma.k)
        per_warp = total_atoms / max(1, program.num_warps)
        return per_warp * mma.issue_cycles, mma.completion_cycles
    if isinstance(op, Cast):
        return _register_issue(op, 0.5), 4.0
    if isinstance(op, Elementwise):
        return _register_issue(op, 1.0), 4.0
    if isinstance(op, Reduce):
        return _register_issue(op, 1.0) + 5 * math.log2(32), 4.0
    if isinstance(op, Fill):
        return _register_issue(op, 0.25), 4.0
    if isinstance(op, Rearrange):
        per_thread = op.src.tv_layout.values_per_thread if op.src.tv_layout is not None else 8
        return per_thread * 2 * 2.0 + 30.0, 30.0
    return None


def reference_estimate(program, assignment, conflict_factors) -> CostBreakdown:
    """The model's estimate walked operation by operation, with producers
    and hiding decided from the operations on every call."""
    overlap_mem_compute = program.num_stages > 1 or program.warp_specialized
    current = 0.0
    stall_total = 0.0
    memory_issue = 0.0
    compute_issue = 0.0
    completion_of: Dict[int, float] = {}
    producer_of: Dict[int, object] = {}
    for op in program.operations:
        cost = reference_cost_of(program, op, assignment, conflict_factors)
        if cost is None:
            continue
        issue, completion = cost
        ready = current
        for tensor in op.inputs:
            producer = producer_of.get(tensor.tensor_id)
            if producer is None:
                continue
            available = completion_of.get(producer.op_id, 0.0)
            hidden = False
            if isinstance(producer, Copy):
                instr = assignment[producer.op_id]
                if instr.asynchronous and overlap_mem_compute:
                    hidden = True
                if producer.src.is_global and overlap_mem_compute:
                    hidden = True
            if not hidden:
                ready = max(ready, available)
        stall = max(0.0, ready - current)
        stall_total += stall * op.trips
        current = ready
        issue_total = issue * op.trips
        current += issue_total
        for tensor in op.outputs:
            producer_of[tensor.tensor_id] = op
        completion_of[op.op_id] = current + completion
        if isinstance(op, (Copy, Rearrange)):
            memory_issue += issue_total
        else:
            compute_issue += issue_total
    drain = max(completion_of.values(), default=0.0)
    total = max(current, drain)
    if overlap_mem_compute:
        other = max(0.0, total - memory_issue - compute_issue - stall_total)
        total = max(memory_issue, compute_issue) + other + stall_total
    return CostBreakdown(
        total_cycles=total,
        stall_cycles=stall_total,
        memory_issue_cycles=memory_issue,
        compute_issue_cycles=compute_issue,
    )


# Five kernel families at small shapes, each on every architecture that
# has its tensor-core instructions (FP8 needs sm_90).  The single-stage
# GEMM neither pipelines nor warp-specializes: memory issue does not
# overlap compute.
ALL_ARCHS = ("a100", "h100", "mi300")
ORACLE_FAMILIES = [
    ("gemm", lambda: build_fp16_gemm(128, 128, 128, GemmConfig(bm=64, bn=64, bk=32)), ALL_ARCHS),
    ("gemm-1stage",
     lambda: build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32, num_stages=1)),
     ALL_ARCHS),
    ("fp8_gemm", lambda: build_fp8_blockwise_gemm(128, 128, 128), ("h100",)),
    ("attention", lambda: build_mha_decoding(128, 64, 2, 1), ALL_ARCHS),
    ("mamba", lambda: build_selective_scan(128, 128, 1), ALL_ARCHS),
    ("moe", lambda: build_moe_gemm(16, 128, 128), ALL_ARCHS),
]
ORACLE_CASES = [
    pytest.param(build, arch, id=f"{name}-{arch}")
    for name, build, archs in ORACLE_FAMILIES
    for arch in archs
]


def _selector(build, arch):
    iset = instruction_set(get_arch(arch).sm_arch)
    program = build()
    tv = ThreadValueSolver(program, iset).solve()
    return InstructionSelector(program, tv, iset, max_candidates=64)


@pytest.mark.parametrize("build,arch", ORACLE_CASES)
def test_table_estimate_equals_the_per_operation_walk(build, arch):
    """Every valid leaf's estimate equals the oracle's on all four fields
    (``==`` on floats: the table runs the same float operations in the
    same order).  The synthesized conflict factors and cycle tables are
    mostly dyadic, so float sums of them are exact in any order; each leaf
    is therefore also estimated under seeded random conflict factors in
    ``[1, 2)``, whose sums round, so a reordered addition shows."""
    selector = _selector(build, arch)
    leaves = selector.all_valid_candidates()
    assert leaves
    rng = random.Random(27)
    for leaf in leaves:
        expected = reference_estimate(selector.program, leaf.assignment, leaf.conflict_factors)
        assert leaf.cost == expected, (arch, leaf.assignment)
        factors = {copy.op_id: 1.0 + rng.random() for copy in selector.copies}
        expected = reference_estimate(selector.program, leaf.assignment, factors)
        assert selector.cost_model.estimate(leaf.assignment, factors) == expected, (
            arch, leaf.assignment, factors)


def test_oracle_cases_stall_and_cover_both_overlap_modes():
    """The oracle cases exercise every part of the model: leaves whose
    loads stall a consumer, and programs with and without memory/compute
    overlap."""
    stalls = 0
    overlapped = set()
    for _, build, archs in ORACLE_FAMILIES:
        selector = _selector(build, archs[0])
        stalls += sum(leaf.cost.stall_cycles > 0 for leaf in selector.all_valid_candidates())
        overlapped.add(selector.cost_model.overlapped)
    assert stalls > 0 and overlapped == {True, False}


def test_invariant_costs_and_bounds_read_the_table():
    """The bound's terms equal the oracle's per-operation sums."""
    selector = _selector(ORACLE_FAMILIES[0][1], "a100")
    program = selector.program
    invariants = selector.cost_model.invariant_costs()
    memory = compute = 0.0
    for op in program.operations:
        if isinstance(op, Copy):
            continue
        cost = reference_cost_of(program, op, {}, {})
        if cost is None:
            continue
        if isinstance(op, Rearrange):
            memory += cost[0] * op.trips
        else:
            compute += cost[0] * op.trips
    assert (invariants.memory_issue_base, invariants.compute_issue_total) == (memory, compute)
    assert invariants.overlapped == (program.num_stages > 1 or program.warp_specialized)
    for copy in selector.copies:
        for instr in selector._menus[copy.op_id]:
            expected = copy_issue_cycles(program, copy.moves_bytes(), instr, 1.0) * copy.trips
            assert selector.cost_model.copy_issue_bound(copy, instr) == expected
