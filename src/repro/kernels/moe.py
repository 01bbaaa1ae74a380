"""Mixed-type (FP16 x INT4) mixture-of-experts GEMM (Figs. 11, 14; Table III).

The MoE layer of weight-only-quantized models (e.g. DeepSeek-R1-AWQ) runs,
for every expert, a GEMM whose activations are FP16 and whose weights are
INT4 with per-group FP16 scales and INT4 zero points.  The efficient
dataflow (Marlin, Fig. 4 b of the paper) keeps the weight tensor on the
``global -> shared -> register -> cast -> TensorCore`` path: the INT4 weights
are loaded from shared memory with wide instructions and converted to FP16
in registers without any inter-thread exchange.  Triton's heuristics instead
stage the weights through extra shared-memory round trips and fall back to
narrow instructions (Fig. 4 a) — both effects are reproducible here by
building the alternative dataflow and restricting the instruction widths.

`build_moe_gemm` exposes the dataflow and layout choices as parameters so
the ablation study of Fig. 14 can be regenerated:

* ``dataflow="hexcute"`` — the efficient register-direct dataflow;
* ``dataflow="triton"`` — the extra-copy dataflow of Fig. 4 (a);
* ``max_weight_vector_bytes`` (on :class:`MixedTypeMoeOperator`) — despite
  its name, a cap on *every* copy, not only the weight path: the operator
  sets it as ``Copy.max_vector_bytes`` on each copy of the program it
  builds, as the Triton baselines cap their copies.  Instruction selection
  then offers a copy only the instructions at most that wide, plus its
  direction's narrowest plain instruction as the fallback (``cp.async``
  starts at 4 B); ``ldmatrix``/``stmatrix`` and TMA are 16 B wide.  With
  ``2`` on h100 the activation load ``sa -> ra`` falls from
  ``ldmatrix.x4`` to ``ld.shared.b16`` and the output store from
  ``st.global.v4.b32`` to ``st.global.b16``.  Fig. 14 uses it to emulate
  the narrow accesses Triton's enforced shared-memory layout leaves (the
  kernel's own INT4 weight load ``sb -> rb_q`` is already 1 byte wide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.compiler import CompiledKernel
from repro.pipeline import CompileRequest, compile_many
from repro.frontend.script import KernelBuilder
from repro.instructions.registry import instruction_set
from repro.ir import types
from repro.kernels.common import OperatorResult
from repro.layout.layout import Layout
from repro.sim.arch import get_arch
from repro.utils.inttuple import ceil_div

__all__ = ["MoeConfig", "build_moe_gemm", "MixedTypeMoeOperator"]


@dataclass(frozen=True)
class MoeConfig:
    """Tile configuration of the mixed-type expert GEMM."""

    bm: int = 16  # token tile (decode batches are small)
    bn: int = 128
    bk: int = 128
    group_size: int = 128  # quantization group size along K
    num_threads: int = 128
    num_stages: int = 3


def build_moe_gemm(
    tokens: int,
    n: int,
    k: int,
    config: Optional[MoeConfig] = None,
    dataflow: str = "hexcute",
):
    """Build the per-expert mixed-type GEMM tile program."""
    if dataflow not in ("hexcute", "triton"):
        raise ValueError(f"unknown dataflow {dataflow!r}")
    config = config or MoeConfig()
    bm = min(config.bm, max(16, tokens))
    bn, bk = config.bn, config.bk
    trips = max(1, ceil_div(k, bk))
    grid = ceil_div(max(tokens, 1), bm) * ceil_div(n, bn)
    hx = KernelBuilder(
        f"moe_w4a16_{dataflow}",
        num_threads=config.num_threads,
        grid_blocks=grid,
        num_stages=config.num_stages,
    )
    f16, f32, i4 = types.float16, types.float32, types.uint4

    ga = hx.global_view("a", f16, (bm, bk, trips), layout=Layout((bm, bk, trips), (k, 1, bk)))
    gb = hx.global_view("b", i4, (bn, bk, trips), layout=Layout((bn, bk, trips), (k, 1, bk)))
    gscale = hx.global_view(
        "scale", f16, (bn, bk, trips), layout=Layout((bn, bk, trips), (k, 1, bk))
    )
    gzero = hx.global_view(
        "zero", i4, (bn, bk, trips), layout=Layout((bn, bk, trips), (k, 1, bk))
    )
    gc = hx.global_view("c", f16, (bm, bn), layout=Layout((bm, bn), (n, 1)))

    # Activations always take the shared-memory path.
    sa = hx.shared_tensor(f16, (bm, bk), name="sa")
    ra = hx.register_tensor(f16, (bm, bk), name="ra")
    rc = hx.register_tensor(f32, (bm, bn), name="rc")
    hx.fill(rc, 0.0)

    with hx.for_range(trips):
        hx.copy(ga, sa)
        hx.copy(sa, ra)

        if dataflow == "hexcute":
            # Efficient dataflow (Fig. 4 b): weights go global -> shared ->
            # registers -> cast, with no extra round trips.
            sb = hx.shared_tensor(i4, (bn, bk), name="sb")
            hx.copy(gb, sb)
            rb_q = hx.register_tensor(i4, (bn, bk), name="rb_q")
            hx.copy(sb, rb_q)
        else:
            # Triton's dataflow (Fig. 4 a): the quantized weights are first
            # loaded to registers, spilled to shared memory, re-loaded, and
            # only then converted — two extra copies across the hierarchy.
            rb_g = hx.register_tensor(i4, (bn, bk), name="rb_g")
            hx.copy(gb, rb_g)
            sb = hx.shared_tensor(i4, (bn, bk), name="sb")
            hx.copy(rb_g, sb)
            rb_q = hx.register_tensor(i4, (bn, bk), name="rb_q")
            hx.copy(sb, rb_q)

        # Scales / zero points follow the same path as the weights.
        s_scale = hx.shared_tensor(f16, (bn, bk), name="s_scale")
        hx.copy(gscale, s_scale)
        r_scale = hx.register_tensor(f16, (bn, bk), name="r_scale")
        hx.copy(s_scale, r_scale)
        s_zero = hx.shared_tensor(i4, (bn, bk), name="s_zero")
        hx.copy(gzero, s_zero)
        r_zero = hx.register_tensor(i4, (bn, bk), name="r_zero")
        hx.copy(s_zero, r_zero)

        # Dequantize in registers: w = (q - z) * s, then feed the Tensor Core.
        rb_f = hx.elementwise(
            lambda q, z, s: (q - z) * s,
            rb_q,
            r_zero,
            r_scale,
            fn_name="dequantize",
            out_dtype=f16,
            name="rb_f",
        )
        if dataflow == "triton":
            # Fig. 4 (a): after the cast Triton stages the FP16 weights through
            # shared memory once more before the Tensor Core consumes them.
            sb_f = hx.shared_tensor(f16, (bn, bk), name="sb_f")
            hx.copy(rb_f, sb_f)
            rb = hx.register_tensor(f16, (bn, bk), name="rb")
            hx.copy(sb_f, rb)
        else:
            rb = rb_f
        hx.gemm(rc, ra, rb)

    r_out = hx.cast(rc, f16, name="r_out")
    sc = hx.shared_tensor(f16, (bm, bn), name="sc")
    hx.copy(r_out, sc)
    r_store = hx.register_tensor(f16, (bm, bn), name="r_store")
    hx.copy(sc, r_store)
    hx.copy(r_store, gc)
    program = hx.build()
    # Per-expert unique footprint: INT4 weights + scales/zeros + activations.
    program.unique_global_bytes = float(n * k * 0.5 + n * k * 0.5 + tokens * (k + n) * 2.0)
    return program


class MixedTypeMoeOperator:
    """Host-level mixed-type MoE layer: fused expert GEMMs.

    ``num_experts`` experts each multiply their share of the tokens by an
    INT4 weight matrix of shape (n, k).  The operator reports the layer
    latency for a given total token count.
    """

    def __init__(
        self,
        arch="h100",
        num_experts: int = 256,
        top_k: int = 8,
        n: int = 2048,
        k: int = 7168,
        dataflow: str = "hexcute",
        max_weight_vector_bytes: Optional[int] = None,
        max_candidates: int = 8,
        cache=None,
    ):
        self.arch = get_arch(arch)
        self.num_experts = num_experts
        self.top_k = top_k
        self.n = n
        self.k = k
        self.dataflow = dataflow
        # Caps every copy of the kernel, not only the weight path (see the
        # module docstring).
        self.max_weight_vector_bytes = max_weight_vector_bytes
        self.max_candidates = max_candidates
        # Optional repro.pipeline.CompileCache; None uses the process default.
        self.cache = cache

    def _tokens_per_expert(self, num_tokens: int) -> int:
        # Each token activates `top_k` experts; work is spread over experts.
        return max(1, ceil_div(num_tokens * self.top_k, self.num_experts))

    def expert_request(self, tokens_per_expert: int) -> CompileRequest:
        """The compile request of the per-expert GEMM kernel."""
        program = build_moe_gemm(tokens_per_expert, self.n, self.k, dataflow=self.dataflow)
        if self.max_weight_vector_bytes is not None:
            for copy in program.copies():
                copy.max_vector_bytes = self.max_weight_vector_bytes
        instructions = instruction_set(self.arch.sm_arch)
        return CompileRequest(program, self.arch, instructions, self.max_candidates)

    def requests(self, num_tokens: int) -> List[CompileRequest]:
        """The compile request ``run(num_tokens)`` issues."""
        return [self.expert_request(self._tokens_per_expert(num_tokens))]

    def compile_expert_kernel(self, tokens_per_expert: int) -> CompiledKernel:
        (kernel,) = compile_many([self.expert_request(tokens_per_expert)], cache=self.cache)
        return kernel

    def run(self, num_tokens: int) -> OperatorResult:
        """Latency of the whole MoE layer for ``num_tokens`` routed tokens."""
        routed = num_tokens * self.top_k
        tokens_per_expert = self._tokens_per_expert(num_tokens)
        kernel = self.compile_expert_kernel(tokens_per_expert)
        # The fused kernel covers all experts in one launch: scale the grid.
        experts_active = min(self.num_experts, routed)
        per_expert_blocks = kernel.program.grid_blocks
        total_blocks = per_expert_blocks * experts_active
        waves = max(1, ceil_div(total_blocks, self.arch.num_sms * 2))
        busy_us = (kernel.latency_us - self.arch.kernel_launch_us) * waves
        latency_us = self.arch.kernel_launch_us + max(busy_us, 0.0)
        flops = 2.0 * routed * self.n * self.k
        weight_bytes = experts_active * self.n * self.k * 0.5
        bytes_moved = weight_bytes + routed * self.k * 2 + routed * self.n * 2
        # Memory roofline over the whole layer (weights dominate at low batch).
        dram_us = bytes_moved / (self.arch.dram_bandwidth_gbps * 1e9) * 1e6
        latency_us = max(latency_us, dram_us + self.arch.kernel_launch_us)
        return OperatorResult(
            name=f"moe_w4a16_{self.dataflow}_{num_tokens}tok",
            arch=self.arch,
            latency_us=latency_us,
            flops=flops,
            lines_of_code=kernel.lines_of_code(),
            kernels={"moe": kernel},
            extra={
                "tokens_per_expert": tokens_per_expert,
                "experts_active": experts_active,
            },
        )
