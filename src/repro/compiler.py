"""The Hexcute compilation pipeline (Fig. 6 c of the paper).

``compile_kernel`` (the same function as
:func:`repro.pipeline.compile_program`) takes a tile-level
:class:`KernelProgram` written with the DSL and runs, in order:

1. thread-value layout synthesis (Algorithm 1);
2. instruction selection over the DFS search tree, with shared-memory layout
   synthesis and the analytical cost model ranking every valid candidate;
3. swizzle selection and installation of the winning layouts;
4. lowering / CUDA-like source emission;
5. the architecture timing model, producing the simulated kernel latency
   used by the benchmark harness.

These stages are the passes of :mod:`repro.pipeline` (``tv-synthesis``,
``instruction-selection``, ``smem-swizzle``, ``codegen``, ``timing``), each
independently invokable and timed, run behind the content-addressed
compile cache.

The result is a :class:`CompiledKernel` bundling the synthesized layouts,
the chosen instructions, the emitted source, the latency estimate, and the
per-pass wall-time statistics of the compile that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ir.graph import KernelProgram
from repro.ir.tensor import TileTensor
from repro.pipeline.driver import compile_program as compile_kernel
from repro.sim.arch import GpuArch
from repro.sim.timing import KernelTiming
from repro.synthesis.cost_model import CostBreakdown
from repro.synthesis.search import Candidate
from repro.synthesis.tv_solver import TVSolution

__all__ = ["CompiledKernel", "compile_kernel"]


@dataclass
class CompiledKernel:
    """Everything the compiler produced for one kernel."""

    program: KernelProgram
    arch: GpuArch
    tv_solution: TVSolution
    candidate: Candidate
    cost: CostBreakdown
    timing: KernelTiming
    source: str
    candidates_explored: int = 0
    # Per-pass wall time of the compile that produced this kernel, keyed by
    # pass name (empty when the kernel came straight from the cache).  Keys
    # of the form "<pass>.<stat>" carry search counters (leaves evaluated /
    # pruned, memoized subproblems) instead of seconds.
    pass_stats: Dict[str, float] = field(default_factory=dict)
    # Branch-and-bound search instrumentation of the producing compile.
    leaves_pruned: int = 0
    subproblems_memoized: int = 0
    cache_hit: bool = False
    fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    @property
    def latency_us(self) -> float:
        return self.timing.latency_us

    @property
    def latency_ms(self) -> float:
        return self.timing.latency_ms

    def bytes_per_instruction(self) -> Dict[str, int]:
        """Per-copy vector width (bytes/thread/instruction), keyed by the
        copied tensor's name and direction — the Table III / IV metric.

        The key uses the *memory-side* tensor of the copy: the source when
        it lives in global/shared memory, otherwise the destination — so a
        reg->smem store is keyed by the shared buffer it fills, not by the
        register fragment."""
        result: Dict[str, int] = {}
        for op in self.program.copies():
            instr = self.candidate.assignment.get(op.op_id)
            if instr is None:
                continue
            moved = op.src if op.src.in_memory else op.dst
            key = f"{moved.name}:{op.direction}"
            result[key] = instr.vector_bytes
        return result

    def smem_layout_of(self, tensor: TileTensor):
        plan = self.candidate.smem_plans.get(tensor)
        return plan.layout if plan is not None else None

    def lines_of_code(self) -> int:
        return self.program.loc_estimate()

    def pass_times(self) -> Dict[str, float]:
        """The timing subset of ``pass_stats`` (dotted keys are counters)."""
        return {k: v for k, v in self.pass_stats.items() if "." not in k}

    def compile_seconds(self) -> float:
        """Total wall time spent in compiler passes for this kernel."""
        return sum(self.pass_times().values())

    def summary(self) -> str:
        lines = [
            f"kernel {self.program.name} on {self.arch.name}:",
            f"  estimated latency: {self.timing.latency_us:.2f} us "
            f"({self.timing.bound()}-bound, {self.timing.waves} waves)",
            f"  per-CTA cycles: {self.cost.total_cycles:.0f} "
            f"(mem {self.cost.memory_issue_cycles:.0f}, "
            f"compute {self.cost.compute_issue_cycles:.0f}, "
            f"stall {self.cost.stall_cycles:.0f})",
            f"  candidates explored: {self.candidates_explored} "
            f"(pruned {self.leaves_pruned}, "
            f"memoized subproblems {self.subproblems_memoized})",
        ]
        if self.pass_stats:
            timed = ", ".join(
                f"{name} {seconds * 1000:.1f} ms"
                for name, seconds in self.pass_times().items()
            )
            lines.append(f"  pass times: {timed}")
        for op in self.program.copies():
            instr = self.candidate.assignment.get(op.op_id)
            if instr is not None:
                lines.append(
                    f"  copy {op.src.name}->{op.dst.name} [{op.direction}]: "
                    f"{instr.name} ({instr.vector_bytes} B/thread)"
                )
        for tensor, plan in self.candidate.smem_plans.items():
            lines.append(
                f"  smem {tensor.name}: {plan.base_layout} swizzle={plan.swizzle} "
                f"(bank conflict x{plan.conflict_factor:.1f})"
            )
        return "\n".join(lines)

