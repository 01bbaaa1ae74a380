"""Tests for the analytical cost model (Section VI)."""

from repro.compiler import compile_kernel
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.moe import build_moe_gemm
from repro.synthesis import AnalyticalCostModel


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
    model = AnalyticalCostModel(kernel.program, kernel.candidate.assignment,
                                kernel.candidate.conflict_factors)
    estimate = model.estimate()
    assert estimate.total_cycles >= kernel.cost.total_cycles * 0.5
