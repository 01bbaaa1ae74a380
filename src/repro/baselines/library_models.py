"""Performance models of the expert-tuned libraries the paper compares against.

cuBLAS, CUTLASS, FlashAttention-2/3, FlashInfer and Marlin are hand-tuned to
run very close to the hardware rooflines on their respective operators, so
they are modelled here as roofline kernels with an operator- and
architecture-specific efficiency factor (the fraction of the relevant peak a
well-tuned kernel achieves for realistically-sized problems).  Table II of
the paper normalizes Hexcute against exactly these libraries, with Hexcute
landing between 1.00x and 1.27x of them.

The Marlin MoE baselines are modelled structurally:

* *Marlin-old* (vLLM 0.8.2) launches one GEMM kernel per expert, so its
  latency is dominated by 256 kernel-launch overheads at low token counts —
  the mechanism behind the paper's 28.42x gap (Fig. 11);
* *Marlin-new* (vLLM 0.9.2) is a fused kernel running near the weight-read
  memory roofline; Hexcute reaches about 96% of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.common import OperatorResult
from repro.kernels.mamba import ScanConfig
from repro.sim.arch import GpuArch, get_arch
from repro.utils.inttuple import ceil_div

__all__ = [
    "RooflineLibrary",
    "cublas_gemm",
    "cutlass_fp8_gemm",
    "flash_attention_forward",
    "flash_attention_decoding",
    "marlin_old_moe",
    "marlin_new_moe",
    "mamba_library_scan",
]


@dataclass(frozen=True)
class RooflineLibrary:
    """A hand-tuned library modelled as an efficiency-scaled roofline."""

    name: str
    compute_efficiency: float
    memory_efficiency: float
    launch_us: float = 4.0

    def latency(
        self,
        arch: GpuArch,
        flops: float,
        bytes_moved: float,
        dtype_bits: int = 16,
        num_waves_penalty: float = 1.0,
    ) -> float:
        """Latency in microseconds of one launch moving ``bytes_moved``."""
        peak = arch.peak_tensor_tflops(dtype_bits) * 1e12
        compute_us = flops / (peak * self.compute_efficiency) * 1e6
        memory_us = bytes_moved / (arch.dram_bandwidth_gbps * 1e9 * self.memory_efficiency) * 1e6
        return self.launch_us + max(compute_us, memory_us) * num_waves_penalty


# Efficiency factors for well-tuned kernels on large shapes.
_CUBLAS = RooflineLibrary("cublas", compute_efficiency=0.90, memory_efficiency=0.85)
_CUTLASS_FP8 = RooflineLibrary("cutlass_fp8", compute_efficiency=0.80, memory_efficiency=0.85)
_FA2 = RooflineLibrary("flash_attention2", compute_efficiency=0.62, memory_efficiency=0.80)
_FA3 = RooflineLibrary("flash_attention3", compute_efficiency=0.72, memory_efficiency=0.85)
_FLASHINFER = RooflineLibrary("flashinfer", compute_efficiency=0.55, memory_efficiency=0.82)
_MARLIN = RooflineLibrary("marlin", compute_efficiency=0.75, memory_efficiency=0.85)
_MAMBA_LIB = RooflineLibrary("mamba_library", compute_efficiency=0.50, memory_efficiency=0.22)


def _utilization_penalty(arch: GpuArch, blocks: float) -> float:
    """Small problems cannot fill the GPU; scale the roofline accordingly."""
    if blocks <= 0:
        return 1.0
    fill = min(1.0, blocks / arch.num_sms)
    return 1.0 / max(fill, 0.05)


def cublas_gemm(arch, m: int, n: int, k: int) -> OperatorResult:
    """cuBLAS FP16 GEMM (the Table II performance baseline)."""
    gpu = get_arch(arch)
    flops = 2.0 * m * n * k
    bytes_moved = 2.0 * (m * k + n * k + m * n)
    blocks = ceil_div(m, 128) * ceil_div(n, 128)
    penalty = _utilization_penalty(gpu, blocks)
    return OperatorResult(
        name=f"cublas_gemm_{m}x{n}x{k}",
        arch=gpu,
        latency_us=_CUBLAS.latency(gpu, flops, bytes_moved, 16, penalty),
        flops=flops,
        lines_of_code=703,  # CUTLASS reference implementation LoC (Table II)
    )


def cutlass_fp8_gemm(arch, m: int, n: int, k: int) -> OperatorResult:
    """CUTLASS blockwise-scaled FP8 GEMM baseline (H100)."""
    gpu = get_arch(arch)
    flops = 2.0 * m * n * k
    bytes_moved = 1.0 * (m * k + n * k) + 2.0 * m * n
    blocks = ceil_div(m, 128) * ceil_div(n, 128)
    penalty = _utilization_penalty(gpu, blocks)
    return OperatorResult(
        name=f"cutlass_fp8_gemm_{m}x{n}x{k}",
        arch=gpu,
        latency_us=_CUTLASS_FP8.latency(gpu, flops, bytes_moved, 8, penalty),
        flops=flops,
        lines_of_code=900,
    )


def flash_attention_forward(arch, batch: int, heads: int, seq: int, dim: int) -> OperatorResult:
    """FlashAttention-2 (A100) / FlashAttention-3 (H100) forward baseline."""
    gpu = get_arch(arch)
    library = _FA3 if gpu.sm_arch >= 90 else _FA2
    flops = 4.0 * batch * heads * seq * seq * dim
    bytes_moved = 4.0 * batch * heads * seq * dim * 2
    blocks = batch * heads * ceil_div(seq, 64)
    penalty = _utilization_penalty(gpu, blocks)
    loc = 1684 if gpu.sm_arch >= 90 else 577
    return OperatorResult(
        name=f"{library.name}_{batch}x{heads}x{seq}x{dim}",
        arch=gpu,
        latency_us=library.latency(gpu, flops, bytes_moved, 16, penalty),
        flops=flops,
        lines_of_code=loc,
    )


def flash_attention_decoding(arch, batch: int, heads: int, kv_len: int, dim: int) -> OperatorResult:
    """FlashInfer decoding-attention baseline."""
    gpu = get_arch(arch)
    flops = 4.0 * batch * heads * kv_len * dim
    bytes_moved = 2.0 * batch * heads * kv_len * dim * 2
    blocks = batch * heads
    penalty = _utilization_penalty(gpu, blocks)
    return OperatorResult(
        name=f"flashinfer_decode_{batch}x{heads}x{kv_len}x{dim}",
        arch=gpu,
        latency_us=_FLASHINFER.latency(gpu, flops, bytes_moved, 16, penalty),
        flops=flops,
        lines_of_code=322,
    )


def _moe_work(num_tokens: int, num_experts: int, top_k: int, n: int, k: int):
    routed = num_tokens * top_k
    experts_active = min(num_experts, routed)
    flops = 2.0 * routed * n * k
    weight_bytes = experts_active * n * k * 0.5
    act_bytes = routed * k * 2.0 + routed * n * 2.0
    return routed, experts_active, flops, weight_bytes + act_bytes


def marlin_old_moe(
    arch, num_tokens: int, num_experts: int = 256, top_k: int = 8, n: int = 2048, k: int = 7168
) -> OperatorResult:
    """Marlin-old (vLLM 0.8.2): one kernel launch per active expert."""
    gpu = get_arch(arch)
    routed, experts_active, flops, _ = _moe_work(num_tokens, num_experts, top_k, n, k)
    per_expert_tokens = max(1, routed // max(experts_active, 1))
    per_expert_flops = 2.0 * per_expert_tokens * n * k
    per_expert_bytes = n * k * 0.5 + per_expert_tokens * (k + n) * 2.0
    per_expert_us = _MARLIN.latency(gpu, per_expert_flops, per_expert_bytes, 16, 1.0)
    # Sequential launches: each expert pays kernel-launch overhead and runs a
    # GEMM too small to fill the GPU.
    fill_penalty = _utilization_penalty(gpu, ceil_div(n, 128))
    latency = experts_active * (
        gpu.kernel_launch_us + (per_expert_us - _MARLIN.launch_us) * fill_penalty
    )
    return OperatorResult(
        name=f"marlin_old_moe_{num_tokens}tok",
        arch=gpu,
        latency_us=latency,
        flops=flops,
        lines_of_code=1411,
    )


def marlin_new_moe(
    arch, num_tokens: int, num_experts: int = 256, top_k: int = 8, n: int = 2048, k: int = 7168
) -> OperatorResult:
    """Marlin-new (vLLM 0.9.2): a fused, near-roofline mixed-type MoE kernel."""
    gpu = get_arch(arch)
    routed, experts_active, flops, bytes_moved = _moe_work(num_tokens, num_experts, top_k, n, k)
    return OperatorResult(
        name=f"marlin_new_moe_{num_tokens}tok",
        arch=gpu,
        latency_us=_MARLIN.latency(gpu, flops, bytes_moved, 16, 1.0),
        flops=flops,
        lines_of_code=1889,
    )


def mamba_library_scan(arch, batch: int, seq_len: int, d_inner: int) -> OperatorResult:
    """The hand-written Mamba library selective scan (scalar ``cub::BlockLoad``
    accesses: it sustains only a fraction of DRAM bandwidth, Table IV)."""
    gpu = get_arch(arch)
    bytes_moved = 6.0 * batch * seq_len * d_inner * 2.0
    flops = 8.0 * batch * seq_len * d_inner * ScanConfig.d_state
    blocks = batch * ceil_div(d_inner, 64)
    penalty = _utilization_penalty(gpu, blocks)
    return OperatorResult(
        name=f"mamba_lib_scan_{batch}x{seq_len}x{d_inner}",
        arch=gpu,
        latency_us=_MAMBA_LIB.latency(gpu, flops, bytes_moved, 16, penalty),
        flops=flops,
        lines_of_code=650,
    )
