"""Mamba selective-scan kernel (Table IV, Fig. 21).

The selective scan of selective state-space models updates, for every
channel, a recurrent state over the sequence dimension:

    h_t = exp(Δ_t * A) * h_{t-1} + Δ_t * B_t * u_t
    y_t = C_t · h_t + D * u_t   (gated by z_t)

The kernel streams chunks of the six operand tensors (u, Δ, A, B, C, Z)
through shared memory into registers, performs the element-wise state
update and the reduction over the state dimension, and writes the output
chunk back.  The operator is strongly memory-bound, so its performance is
determined almost entirely by how wide the generated load/store
instructions are — the bytes-per-instruction comparison of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.compiler import CompiledKernel
from repro.pipeline import CompileRequest, compile_many
from repro.frontend.script import KernelBuilder
from repro.instructions.registry import instruction_set
from repro.ir import types
from repro.kernels.common import OperatorResult, numpy_module
from repro.layout.layout import Layout
from repro.sim.arch import get_arch
from repro.utils.inttuple import ceil_div

__all__ = ["ScanConfig", "build_selective_scan", "SelectiveScanOperator"]


@dataclass(frozen=True)
class ScanConfig:
    """Tile configuration of the selective-scan kernel."""

    block_l: int = 64  # sequence chunk per loop iteration
    d_state: int = 16
    channels_per_block: int = 64
    num_threads: int = 128
    num_stages: int = 2
    use_shared_stage: bool = True


def build_selective_scan(
    seq_len: int,
    d_inner: int,
    batch: int,
    config: Optional[ScanConfig] = None,
):
    """Build the selective-scan tile program (one thread block per channel group)."""
    config = config or ScanConfig()
    bl = config.block_l
    ch = config.channels_per_block
    trips = max(1, ceil_div(seq_len, bl))
    grid = batch * ceil_div(d_inner, ch)
    hx = KernelBuilder(
        "selective_scan",
        num_threads=config.num_threads,
        grid_blocks=grid,
        num_stages=config.num_stages,
    )
    f16, f32 = types.float16, types.float32

    def seq_view(name: str) -> "object":
        return hx.global_view(
            name, f16, (ch, bl, trips), layout=Layout((ch, bl, trips), (seq_len, 1, bl))
        )

    gu = seq_view("u")
    gdelta = seq_view("delta")
    gb = seq_view("b_mat")
    gc = seq_view("c_mat")
    gz = seq_view("z")
    ga = hx.global_view("a_mat", f32, (ch, config.d_state), layout=Layout((ch, config.d_state), (config.d_state, 1)))
    gy = hx.global_view(
        "y", f16, (ch, bl, trips), layout=Layout((ch, bl, trips), (seq_len, 1, bl))
    )

    # A is loaded once (it does not vary along the sequence).
    r_a = hx.register_tensor(f32, (ch, config.d_state), name="r_a")
    hx.copy(ga, r_a)
    r_a_row = hx.reduce(r_a, dim=1, kind="sum", name="r_a_row")
    r_state = hx.register_tensor(f32, (ch, 1), name="r_state")
    hx.fill(r_state, 0.0)

    regs = {}
    smems = {}
    with hx.for_range(trips):
        for name, gview in (("u", gu), ("delta", gdelta), ("b", gb), ("c", gc), ("z", gz)):
            if config.use_shared_stage:
                smem = hx.shared_tensor(f16, (ch, bl), name=f"s_{name}")
                hx.copy(gview, smem)
                reg = hx.register_tensor(f16, (ch, bl), name=f"r_{name}")
                hx.copy(smem, reg)
                smems[name] = smem
            else:
                reg = hx.register_tensor(f16, (ch, bl), name=f"r_{name}")
                hx.copy(gview, reg)
            regs[name] = reg

        # Discretize and update the recurrent state, then gate the output.
        r_decay = hx.elementwise(
            lambda delta, a_row: numpy_module().exp(delta * a_row),
            regs["delta"],
            r_a_row,
            fn_name="discretize",
            out_dtype=f32,
            name="r_decay",
        )
        r_input = hx.elementwise(
            lambda u, delta, b: u * delta * b,
            regs["u"],
            regs["delta"],
            regs["b"],
            fn_name="state_input",
            out_dtype=f32,
            name="r_input",
        )
        r_scan = hx.elementwise(
            lambda decay, inp, state: decay * state + inp,
            r_decay,
            r_input,
            r_state,
            fn_name="scan_update",
            out_dtype=f32,
            name="r_scan",
        )
        r_chunk_state = hx.reduce(r_scan, dim=1, kind="max", name="r_chunk_state")
        hx.elementwise(
            lambda state, chunk: chunk, r_state, r_chunk_state, fn_name="carry_state", out=r_state
        )
        r_y = hx.elementwise(
            lambda scan, c, z, u: scan * c * (z / (1.0 + numpy_module().abs(z))) + u,
            r_scan,
            regs["c"],
            regs["z"],
            regs["u"],
            fn_name="gated_output",
            out_dtype=f32,
            name="r_y",
        )
        r_y16 = hx.cast(r_y, f16, name="r_y16")
        hx.copy(r_y16, gy)
    program = hx.build()
    program.unique_global_bytes = 6.0 * batch * seq_len * d_inner * 2.0
    return program


class SelectiveScanOperator:
    """Host-level Mamba selective scan.

    ``instruction_cap_bytes`` caps the access width of every copy
    (``Copy.max_vector_bytes``), which is how the hand-written Mamba library
    baseline (scalar ``cub::BlockLoad`` accesses, Table IV) and the Triton
    scan are modelled; the Hexcute build leaves it unset so the compiler is
    free to pick 16-byte copies.
    """

    def __init__(
        self,
        arch="h100",
        use_shared_stage: bool = True,
        num_stages: int = 2,
        instruction_cap_bytes: Optional[int] = None,
        max_candidates: int = 8,
        cache=None,
    ):
        self.arch = get_arch(arch)
        self.use_shared_stage = use_shared_stage
        self.num_stages = num_stages
        self.instruction_cap_bytes = instruction_cap_bytes
        self.max_candidates = max_candidates
        # Optional repro.pipeline.CompileCache; None uses the process default.
        self.cache = cache

    def requests(self, batch: int, seq_len: int, d_inner: int) -> List[CompileRequest]:
        """The compile request ``run(batch, seq_len, d_inner)`` issues."""
        config = ScanConfig(use_shared_stage=self.use_shared_stage, num_stages=self.num_stages)
        program = build_selective_scan(seq_len, d_inner, batch, config)
        if self.instruction_cap_bytes is not None:
            for copy in program.copies():
                copy.max_vector_bytes = self.instruction_cap_bytes
        instructions = instruction_set(self.arch.sm_arch)
        return [CompileRequest(program, self.arch, instructions, self.max_candidates)]

    def compile_kernel(self, seq_len: int, d_inner: int, batch: int) -> CompiledKernel:
        (kernel,) = compile_many(self.requests(batch, seq_len, d_inner), cache=self.cache)
        return kernel

    def run(self, batch: int, seq_len: int, d_inner: int) -> OperatorResult:
        kernel = self.compile_kernel(seq_len, d_inner, batch)
        flops = 8.0 * batch * seq_len * d_inner * ScanConfig.d_state
        return OperatorResult(
            name=f"selective_scan_{batch}x{seq_len}x{d_inner}",
            arch=self.arch,
            latency_us=kernel.latency_us,
            flops=flops,
            lines_of_code=kernel.lines_of_code(),
            kernels={"scan": kernel},
        )
