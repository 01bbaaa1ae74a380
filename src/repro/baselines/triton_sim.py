"""A Triton-style compiler baseline over the same tile IR.

The paper attributes Triton's gap to Hexcute on complex operators to three
mechanisms (Section II-C, Fig. 4, Table III):

1. *implicit dataflow* — Triton's heuristics place mixed-type weights in
   suboptimal memory spaces, adding register/shared round trips;
2. *case-by-case layouts* — its layout system cannot synthesize the INT4
   register layouts that allow wide loads before the in-register cast, so
   the weight path degrades to narrow (1-2 byte) accesses;
3. *hard-coded scheduling* — no warp specialization, shallower software
   pipelining, no TMA on Hopper, and a fixed power-of-two tile menu.

This module reproduces those mechanisms with the *same* compiler
infrastructure: it builds the alternative dataflow, caps the access width
(``Copy.max_vector_bytes``) of the copies Triton handles poorly, disables
warp specialization /
deep pipelining, and skips tile autotuning.  Standard FP16 operators
therefore come out mildly slower than Hexcute (as in Table II), while the
mixed-type MoE collapses to scalar weight loads (as in Fig. 11).
"""

from __future__ import annotations

from repro.compiler import compile_kernel
from repro.instructions.registry import InstructionSet, instruction_set
from repro.kernels.attention import build_mha_decoding, build_mha_forward
from repro.kernels.common import OperatorResult
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.fp8_gemm import Fp8GemmConfig, build_fp8_blockwise_gemm
from repro.kernels.mamba import SelectiveScanOperator
from repro.kernels.moe import MixedTypeMoeOperator, build_moe_gemm
from repro.pipeline import CompileRequest
from repro.sim.arch import get_arch

__all__ = [
    "triton_instruction_set",
    "triton_gemm",
    "triton_fp8_gemm",
    "triton_attention_forward",
    "triton_attention_decoding",
    "TritonMoeOperator",
    "TritonScanOperator",
]


def triton_instruction_set(arch) -> InstructionSet:
    """Triton does not emit TMA bulk copies or stmatrix in these versions."""
    gpu = get_arch(arch)
    base = instruction_set(gpu.sm_arch)
    return InstructionSet(
        arch=base.arch,
        memory=[i for i in base.memory if not i.single_thread and not i.name.startswith("stmatrix")],
        mma=list(base.mma),
    )


def _triton_tile(m: int, n: int) -> tuple[int, int]:
    """Triton's heuristic power-of-two tile choice (no autotuned exotic tiles)."""
    bm = 128 if m >= 128 else 64
    bn = 128 if n >= 128 else 64
    return bm, bn


def _triton_result(
    name: str, arch, program, kernel_key: str, overhead: float, flops: float, lines_of_code: int
) -> OperatorResult:
    """Compile ``program`` with Triton's instruction menu and a shallow
    search, and report its latency scaled by ``overhead``, the scheduling
    cost of generic codegen."""
    gpu = get_arch(arch)
    kernel = compile_kernel(
        program, arch=gpu, instructions=triton_instruction_set(gpu), max_candidates=4
    )
    return OperatorResult(
        name=name,
        arch=gpu,
        latency_us=kernel.latency_us * overhead,
        flops=flops,
        lines_of_code=lines_of_code,
        kernels={kernel_key: kernel},
    )


def triton_gemm(arch, m: int, n: int, k: int) -> OperatorResult:
    """Triton FP16 GEMM: same dataflow, shallower pipeline, fixed tiles."""
    bm, bn = _triton_tile(m, n)
    program = build_fp16_gemm(m, n, k, GemmConfig(bm=bm, bn=bn, bk=32, num_stages=2))
    return _triton_result(
        f"triton_gemm_{m}x{n}x{k}", arch, program, "gemm",
        overhead=1.05, flops=2.0 * m * n * k, lines_of_code=71,
    )


def triton_fp8_gemm(arch, m: int, n: int, k: int) -> OperatorResult:
    """Triton blockwise-scaled FP8 GEMM: no TMA, shallow pipelining, and the
    scale handling stays on a narrow path."""
    bm, bn = _triton_tile(m, n)
    program = build_fp8_blockwise_gemm(m, n, k, Fp8GemmConfig(bm=bm, bn=bn, num_stages=2))
    for copy in program.copies():
        if "scale" in copy.src.name or "scale" in copy.dst.name:
            copy.max_vector_bytes = 4
    return _triton_result(
        f"triton_fp8_gemm_{m}x{n}x{k}", arch, program, "fp8_gemm",
        overhead=1.10, flops=2.0 * m * n * k, lines_of_code=87,
    )


def triton_attention_forward(arch, batch: int, heads: int, seq: int, dim: int) -> OperatorResult:
    program = build_mha_forward(seq, dim, heads, batch)
    program.num_stages = 1
    program.warp_specialized = False
    return _triton_result(
        f"triton_mha_fwd_{batch}x{heads}x{seq}x{dim}", arch, program, "attention",
        overhead=1.10, flops=4.0 * batch * heads * seq * seq * dim, lines_of_code=114,
    )


def triton_attention_decoding(arch, batch: int, heads: int, kv_len: int, dim: int) -> OperatorResult:
    program = build_mha_decoding(kv_len, dim, heads, batch)
    program.num_stages = 1
    # Triton's decode kernels split the reduction across elements and end up
    # with 4-byte accesses on the KV cache.
    for copy in program.copies():
        if copy.src.is_global:
            copy.max_vector_bytes = 4
    return _triton_result(
        f"triton_mha_decode_{batch}x{heads}x{kv_len}x{dim}", arch, program, "attention",
        overhead=1.10, flops=4.0 * batch * heads * kv_len * dim, lines_of_code=224,
    )


class TritonMoeOperator(MixedTypeMoeOperator):
    """The Triton mixed-type MoE baseline (Fig. 11, Table III).

    Uses the staged dataflow of Fig. 4 (a) and caps the quantized-weight and
    zero-point paths at scalar widths, reflecting Triton's inability to
    synthesize the INT4 register layouts needed for wide accesses.  Both
    are fixed, so the constructor takes no ``dataflow`` or
    ``max_weight_vector_bytes``.
    """

    def __init__(
        self,
        arch="h100",
        num_experts: int = 256,
        top_k: int = 8,
        n: int = 2048,
        k: int = 7168,
        max_candidates: int = 8,
        cache=None,
    ):
        super().__init__(
            arch=arch,
            num_experts=num_experts,
            top_k=top_k,
            n=n,
            k=k,
            dataflow="triton",
            max_candidates=max_candidates,
            cache=cache,
        )

    def expert_request(self, tokens_per_expert: int) -> CompileRequest:
        program = build_moe_gemm(tokens_per_expert, self.n, self.k, dataflow=self.dataflow)
        program.num_stages = 2
        for copy in program.copies():
            names = (copy.src.name + " " + copy.dst.name).lower()
            # INT4 weights / zero points: case-by-case layouts degrade to
            # (near-)scalar accesses (Table III: 1-2 bytes).
            int4 = copy.src.dtype.bits == 4 or copy.dst.dtype.bits == 4
            if int4 or ("scale" in names and copy.dst.is_register):
                copy.max_vector_bytes = 2
        return CompileRequest(
            program, self.arch, triton_instruction_set(self.arch), self.max_candidates
        )


class TritonScanOperator(SelectiveScanOperator):
    """The Triton selective scan: no shared-memory staging, shallow
    pipelining, 4-byte accesses."""

    def __init__(self, arch, cache=None):
        super().__init__(
            arch, use_shared_stage=False, num_stages=1, instruction_cap_bytes=4, cache=cache
        )

    def run(self, batch: int, seq_len: int, d_inner: int) -> OperatorResult:
        result = super().run(batch, seq_len, d_inner)
        result.name = f"triton_scan_{batch}x{seq_len}x{d_inner}"
        result.lines_of_code = 160
        return result
