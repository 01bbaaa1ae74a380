"""Tests for the kernel library builders and host-level operators."""

import pytest

from repro.baselines import mamba_library_scan
from repro.frontend.autotune import autotune_compile, gemm_tile_candidates
from repro.kernels import (
    AttentionOperator,
    Fp8GemmOperator,
    GemmOperator,
    MixedTypeMoeOperator,
    SelectiveScanOperator,
    build_fp16_gemm,
    build_fp8_blockwise_gemm,
    build_mha_decoding,
    build_mha_forward,
    build_moe_gemm,
    build_selective_scan,
    build_warp_specialized_gemm,
)
from repro.kernels.gemm import GemmConfig
from repro.pipeline import CompileCache


def test_all_builders_produce_valid_programs():
    programs = [
        build_fp16_gemm(128, 128, 128, GemmConfig(bm=128, bn=128, bk=32)),
        build_warp_specialized_gemm(128, 128, 128),
        build_fp8_blockwise_gemm(128, 128, 128),
        build_mha_forward(128, 64, 2, 1),
        build_mha_decoding(256, 128, 2, 1),
        build_moe_gemm(16, 128, 128),
        build_selective_scan(128, 128, 1),
    ]
    for program in programs:
        program.validate()
        assert program.copies(), program.name
        assert program.unique_global_bytes and program.unique_global_bytes > 0


def test_warp_specialized_program_is_tagged():
    program = build_warp_specialized_gemm(128, 128, 128)
    assert program.warp_specialized
    stages = {op.stage for op in program.operations}
    assert "producer" in stages and "consumer" in stages


def test_gemm_operator_reports_metrics():
    result = GemmOperator(arch="a100", max_tile_trials=2, max_candidates=4).run(256, 256, 256)
    assert result.latency_us > 0
    assert result.tflops > 0
    assert result.lines_of_code > 0
    assert "bm" in result.extra


def test_gemm_operator_non_power_of_two_option():
    candidates = gemm_tile_candidates(4096, 4096, 4096, allow_non_power_of_two=True)
    assert any(c["bm"] not in (64, 128, 256) for c in candidates)
    pow2_only = gemm_tile_candidates(4096, 4096, 4096, allow_non_power_of_two=False)
    assert all(c["bm"] in (64, 128, 256) for c in pow2_only)


def test_autotune_rejects_infeasible_and_picks_best():
    def build(params):
        if params["bm"] == 96:
            raise ValueError("bm=96 does not divide M")
        return build_fp16_gemm(128, 128, 128, GemmConfig(**params))

    candidates = [
        {"bm": 128, "bn": 128, "bk": 32},
        {"bm": 96, "bn": 64, "bk": 32},
        {"bm": 64, "bn": 64, "bk": 32},
    ]
    result = autotune_compile(
        build, candidates, arch="a100", max_candidates=4, cache=CompileCache()
    )
    assert result.num_trials == 3 and result.num_feasible == 2
    assert [t.params for t in result.failures()] == [candidates[1]]
    assert result.best_latency_us == min(t.latency_us for t in result.trials if t.ok)
    assert result.best_params == candidates[2]


def test_moe_dataflows_differ_in_copies():
    hexcute = build_moe_gemm(16, 128, 128, dataflow="hexcute")
    triton = build_moe_gemm(16, 128, 128, dataflow="triton")
    # Fig. 4: the Triton dataflow stages the weights through extra copies.
    assert len(triton.copies()) > len(hexcute.copies())
    with pytest.raises(ValueError):
        build_moe_gemm(16, 128, 128, dataflow="unknown")


def test_moe_operator_latency_grows_with_tokens():
    op = MixedTypeMoeOperator(arch="h100", n=256, k=512, num_experts=8, top_k=2,
                              max_candidates=2)
    small = op.run(4)
    large = op.run(4096)
    assert large.latency_us > small.latency_us


def test_attention_operator_modes():
    fwd = AttentionOperator(arch="a100", mode="forward", max_candidates=2).run(1, 2, 128, 64)
    dec = AttentionOperator(arch="a100", mode="decoding", max_candidates=2).run(1, 2, 256, 128)
    assert fwd.latency_us > 0 and dec.latency_us > 0
    with pytest.raises(ValueError):
        AttentionOperator(mode="backward")


def test_scan_operator_instruction_cap_slows_it_down():
    fast = SelectiveScanOperator(arch="h100", max_candidates=2).run(1, 512, 256)
    slow = SelectiveScanOperator(arch="h100", instruction_cap_bytes=2,
                                 use_shared_stage=False, num_stages=1,
                                 max_candidates=2).run(1, 512, 256)
    assert slow.latency_us > fast.latency_us


def test_scan_flops_count_the_compiled_state_size():
    # The work the scan reports is the work of the kernel it compiled: the
    # state size comes from the kernel's A tile, not from the caller.
    result = SelectiveScanOperator(arch="h100", max_candidates=2).run(1, 256, 128)
    (a_mat,) = [
        t for t in result.kernels["scan"].program.tensors() if t.buffer_name == "a_mat"
    ]
    d_state = a_mat.shape[1]
    assert result.flops == 8.0 * 1 * 256 * 128 * d_state
    assert mamba_library_scan("h100", 1, 256, 128).flops == result.flops
    with pytest.raises(TypeError):
        SelectiveScanOperator(arch="h100", max_candidates=2).run(1, 256, 128, d_state=64)


def test_capped_shared_stage_scan_keeps_the_cp_async_floor():
    """A 2 B cap on every copy leaves a global->shared copy no cp.async
    that narrow, so it falls back to the 4 B one, its direction's narrowest:
    the shared-stage scan compiles with every other copy at most 2 B, and
    runs slower than the uncapped scan."""
    fast = SelectiveScanOperator(arch="h100").run(1, 512, 256)
    slow = SelectiveScanOperator(arch="h100", instruction_cap_bytes=2).run(1, 512, 256)
    kernel = slow.kernels["scan"]
    widths = {
        (op.direction, kernel.candidate.assignment[op.op_id].vector_bytes)
        for op in kernel.program.copies()
    }
    assert {width for direction, width in widths if direction == "G2S"} == {4}
    assert all(width <= 2 for direction, width in widths if direction != "G2S")
    assert slow.latency_us > fast.latency_us


def test_fp8_operator_runs():
    result = Fp8GemmOperator(arch="h100", max_tile_trials=1, max_candidates=2).run(256, 256, 256)
    assert result.latency_us > 0


def test_operator_result_helpers():
    result = GemmOperator(arch="a100", max_tile_trials=1, max_candidates=2).run(128, 128, 128)
    assert result.latency_ms == pytest.approx(result.latency_us / 1000)
    assert result.bytes_per_instruction()
    assert result.speedup_over(result) == pytest.approx(1.0)
