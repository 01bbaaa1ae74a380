"""Baselines the paper compares against: expert-tuned library roofline models
(cuBLAS, CUTLASS, FlashAttention, FlashInfer, Marlin, the Mamba library) and
a Triton-style compiler baseline built on the same tile IR."""

from repro.baselines.library_models import (
    RooflineLibrary,
    cublas_gemm,
    cutlass_fp8_gemm,
    flash_attention_forward,
    flash_attention_decoding,
    marlin_old_moe,
    marlin_new_moe,
    mamba_library_scan,
)
from repro.baselines.triton_sim import (
    triton_instruction_set,
    triton_gemm,
    triton_fp8_gemm,
    triton_attention_forward,
    triton_attention_decoding,
    TritonMoeOperator,
    TritonScanOperator,
)

__all__ = [
    "RooflineLibrary",
    "cublas_gemm",
    "cutlass_fp8_gemm",
    "flash_attention_forward",
    "flash_attention_decoding",
    "marlin_old_moe",
    "marlin_new_moe",
    "mamba_library_scan",
    "triton_instruction_set",
    "triton_gemm",
    "triton_fp8_gemm",
    "triton_attention_forward",
    "triton_attention_decoding",
    "TritonMoeOperator",
    "TritonScanOperator",
]
