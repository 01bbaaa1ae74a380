"""End-to-end decode-latency composition (the Fig. 13 experiment).

The paper integrates its kernels into vLLM and measures the latency of
generating 100 output tokens for DeepSeek-R1-AWQ (mixed-type MoE dominated),
Jamba-mini-1.7 (Mamba selective scan dominated) and Qwen-3-32B (dense FP8
GEMM dominated).  This module reproduces the *composition*: a decode step is
a sequence of per-layer operator invocations, each timed by the simulated
operator (Hexcute kernels) or by the corresponding baseline implementation,
and the end-to-end latency is the per-step latency times the number of
generated tokens (decode steps are sequentially dependent).

The per-operator latency dispatch (``operator_us``) lives in
:mod:`repro.serving.step_model`; ``decode_latency`` evaluates it through
the process-wide memoized :class:`~repro.serving.step_model.StepLatencyModel`,
so repeated calls at the same (config, batch, backend, arch) are near-free
and the serving simulator and the Fig. 13 harness share one latency source.
Kernel compilation inside those operators targets the codegen backend the
architecture declares (:attr:`repro.sim.arch.GpuArch.backend`), so the same
composition evaluated on e.g. ``mi300`` compiles through the rocm emitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.arch import DEFAULT_EVAL_ARCH, get_arch

__all__ = ["ModelConfig", "DecodeResult", "DEEPSEEK_R1_AWQ", "JAMBA_MINI", "QWEN3_32B", "decode_latency"]


@dataclass(frozen=True)
class ModelConfig:
    """A coarse architectural description of one evaluated model."""

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    kv_len: int
    head_dim: int = 128
    moe_layers: int = 0
    moe_experts: int = 256
    moe_top_k: int = 8
    moe_intermediate: int = 2048
    mamba_layers: int = 0
    mamba_d_inner: int = 8192
    dense_ffn_layers: int = 0
    ffn_intermediate: int = 25600
    weight_dtype: str = "fp16"  # "awq-int4", "fp8", or "fp16"
    tensor_parallel: int = 8


DEEPSEEK_R1_AWQ = ModelConfig(
    name="DeepSeek-R1-AWQ",
    num_layers=61,
    hidden_size=7168,
    num_heads=128,
    kv_len=4096,
    moe_layers=58,
    moe_experts=256,
    moe_top_k=8,
    moe_intermediate=2048,
    weight_dtype="awq-int4",
    tensor_parallel=8,
)

JAMBA_MINI = ModelConfig(
    name="Jamba-mini-1.7",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    kv_len=4096,
    mamba_layers=28,
    mamba_d_inner=8192,
    dense_ffn_layers=32,
    ffn_intermediate=14336,
    weight_dtype="fp16",
    tensor_parallel=2,
)

QWEN3_32B = ModelConfig(
    name="Qwen-3-32B",
    num_layers=64,
    hidden_size=5120,
    num_heads=64,
    kv_len=4096,
    dense_ffn_layers=64,
    ffn_intermediate=25600,
    weight_dtype="fp8",
    tensor_parallel=4,
)


@dataclass
class DecodeResult:
    """End-to-end latency of generating ``output_tokens`` tokens."""

    model: str
    backend: str
    batch_size: int
    output_tokens: int
    step_latency_ms: float
    breakdown_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def total_latency_s(self) -> float:
        return self.step_latency_ms * self.output_tokens / 1000.0


def decode_latency(
    config: ModelConfig,
    backend: str = "hexcute",
    batch_size: int = 32,
    output_tokens: int = 100,
    arch=DEFAULT_EVAL_ARCH,
) -> DecodeResult:
    """Latency of a full decode of ``output_tokens`` tokens.

    ``backend`` is ``"hexcute"`` for the Hexcute-integrated engine or
    ``"baseline"`` for the original vLLM implementation (Triton MoE, the
    Mamba library scan, CUTLASS FP8 GEMM, FlashInfer attention).

    Evaluation goes through :func:`repro.serving.step_model
    .shared_step_model` at the *exact* batch size (no bucketing): the first
    call compiles the per-operator kernels in order on the calling thread,
    each operator's tile sweep going through ``repro.pipeline.compile_many``,
    and repeated calls at the same (config, batch, backend, arch) hit the
    memo.
    """
    # Imported lazily: repro.serving builds on repro.e2e's model configs.
    from repro.serving.step_model import shared_step_model

    model = shared_step_model(get_arch(arch))
    step_ms, breakdown = model.step_breakdown_ms(config, backend, batch_size, bucketed=False)
    return DecodeResult(
        model=config.name,
        backend=backend,
        batch_size=batch_size,
        output_tokens=output_tokens,
        step_latency_ms=step_ms,
        breakdown_ms=breakdown,
    )
