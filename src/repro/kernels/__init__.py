"""The paper's kernels written in the Hexcute DSL, plus host-level operators
that pick tile sizes and report simulated latency."""

from repro.kernels.common import OperatorResult, TileSweepOperator
from repro.kernels.gemm import (
    GemmConfig,
    GemmOperator,
    build_fp16_gemm,
    build_warp_specialized_gemm,
)
from repro.kernels.fp8_gemm import Fp8GemmConfig, Fp8GemmOperator, build_fp8_blockwise_gemm
from repro.kernels.attention import (
    AttentionConfig,
    AttentionOperator,
    build_mha_forward,
    build_mha_decoding,
)
from repro.kernels.moe import MoeConfig, MixedTypeMoeOperator, build_moe_gemm
from repro.kernels.mamba import ScanConfig, SelectiveScanOperator, build_selective_scan

__all__ = [
    "OperatorResult",
    "TileSweepOperator",
    "GemmConfig",
    "GemmOperator",
    "build_fp16_gemm",
    "build_warp_specialized_gemm",
    "Fp8GemmConfig",
    "Fp8GemmOperator",
    "build_fp8_blockwise_gemm",
    "AttentionConfig",
    "AttentionOperator",
    "build_mha_forward",
    "build_mha_decoding",
    "MoeConfig",
    "MixedTypeMoeOperator",
    "build_moe_gemm",
    "ScanConfig",
    "SelectiveScanOperator",
    "build_selective_scan",
]
