"""Tests for the baseline models and the end-to-end engine composition."""

import pytest

from repro.baselines import (
    TritonMoeOperator,
    TritonScanOperator,
    cublas_gemm,
    cutlass_fp8_gemm,
    flash_attention_decoding,
    flash_attention_forward,
    mamba_library_scan,
    marlin_new_moe,
    marlin_old_moe,
    triton_attention_forward,
    triton_gemm,
    triton_instruction_set,
)
from repro.e2e import DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B, decode_latency
from repro.kernels import GemmOperator, MixedTypeMoeOperator, SelectiveScanOperator
from repro.pipeline import CompileCache


def test_library_rooflines_scale_with_work():
    small = cublas_gemm("a100", 1024, 1024, 1024)
    large = cublas_gemm("a100", 4096, 4096, 4096)
    assert large.latency_us > small.latency_us
    assert cutlass_fp8_gemm("h100", 2048, 2048, 2048).latency_us > 0
    assert flash_attention_forward("h100", 4, 16, 1024, 128).latency_us > 0
    assert flash_attention_decoding("a100", 8, 16, 4096, 128).latency_us > 0


def test_triton_instruction_set_excludes_tma():
    iset = triton_instruction_set("h100")
    names = {i.name for i in iset.memory}
    assert "cp.async.bulk.tensor" not in names
    assert "stmatrix.x4" not in names


def test_hexcute_beats_triton_on_gemm():
    hexcute = GemmOperator(arch="a100", max_tile_trials=2, max_candidates=4).run(1024, 1024, 1024)
    triton = triton_gemm("a100", 1024, 1024, 1024)
    assert triton.latency_us > hexcute.latency_us


def test_marlin_old_pays_per_expert_launch_overhead():
    old = marlin_old_moe("h100", 16)
    new = marlin_new_moe("h100", 16)
    assert old.latency_us > new.latency_us * 3


def test_moe_ordering_matches_paper():
    """Fig. 11 ordering at small token counts: Marlin-old >> Triton > Hexcute ~ Marlin-new."""
    tokens = 32
    hexcute = MixedTypeMoeOperator(arch="h100", max_candidates=2).run(tokens)
    triton = TritonMoeOperator(arch="h100", max_candidates=2).run(tokens)
    old = marlin_old_moe("h100", tokens)
    assert triton.latency_us > hexcute.latency_us
    assert old.latency_us > hexcute.latency_us


def test_triton_moe_compiles_through_its_cache():
    cache = CompileCache()
    op = TritonMoeOperator(arch="h100", cache=cache)
    first, second = op.run(16), op.run(16)
    assert cache.stats.puts == 1 and cache.stats.replays == 1
    assert second.kernels["moe"].cache_hit
    assert first.latency_us == second.latency_us


def test_triton_moe_names_the_dataflow_it_compiles():
    op = TritonMoeOperator(arch="h100", num_experts=8, top_k=2, n=256, k=512, max_candidates=2)
    result = op.run(4)
    assert result.kernels["moe"].program.name == "moe_w4a16_triton"
    assert result.name == "moe_w4a16_triton_4tok"
    # The baseline's dataflow is fixed: asking for another one is an error,
    # not a result named after a kernel that never ran.
    with pytest.raises(TypeError):
        TritonMoeOperator(arch="h100", dataflow="hexcute")


def test_triton_moe_rejects_a_width_cap_it_would_ignore():
    # The baseline caps its INT4 copies itself and never narrows its
    # instruction set, so a whole-set cap would be stored and ignored.
    with pytest.raises(TypeError):
        TritonMoeOperator("h100", max_weight_vector_bytes=1)


def test_scan_beats_library_baseline():
    hexcute = SelectiveScanOperator(arch="h100", max_candidates=2).run(2, 1024, 512)
    library = mamba_library_scan("h100", 2, 1024, 512)
    assert library.latency_us > hexcute.latency_us
    assert TritonScanOperator("h100").run(2, 1024, 512).latency_us > 0


def test_triton_attention_baseline_runs():
    result = triton_attention_forward("a100", 1, 2, 128, 64)
    assert result.latency_us > 0


@pytest.mark.slow
def test_end_to_end_speedups_have_paper_shape():
    """Fig. 13: Hexcute-integrated vLLM is faster on all three models."""
    for config, min_speedup in ((QWEN3_32B, 1.0), (JAMBA_MINI, 1.0)):
        hexcute = decode_latency(config, backend="hexcute", batch_size=16, output_tokens=10)
        baseline = decode_latency(config, backend="baseline", batch_size=16, output_tokens=10)
        assert baseline.step_latency_ms >= hexcute.step_latency_ms * min_speedup * 0.8


def test_model_configs_are_consistent():
    assert DEEPSEEK_R1_AWQ.moe_layers > 0 and DEEPSEEK_R1_AWQ.weight_dtype == "awq-int4"
    assert JAMBA_MINI.mamba_layers > 0
    assert QWEN3_32B.weight_dtype == "fp8"
    # The attention head dim is a real ModelConfig knob (default unchanged).
    assert DEEPSEEK_R1_AWQ.head_dim == JAMBA_MINI.head_dim == QWEN3_32B.head_dim == 128
