"""The compile request and the compile record of the pass pipeline.

A :class:`CompiledKernel` is the one record of a compile.  It holds the
inputs (program, architecture, instruction set, candidate budget, codegen
backend, an optional cached assignment to replay), and each pass of
:func:`~repro.pipeline.passes.run_passes` writes its artifacts into it: the
thread-value solution, the selected candidate (carrying its shared-memory
plans) and its cost, the emitted source, the timing estimate and per-pass
statistics.  Each pass reads the fields its predecessors filled, so any
prefix of the pipeline can be run (and inspected) on a directly constructed
record.  :func:`~repro.pipeline.compile_program` returns the record its
passes filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.instructions.registry import InstructionSet
from repro.ir.graph import KernelProgram
from repro.sim.arch import GpuArch
from repro.sim.timing import KernelTiming
from repro.synthesis.cost_model import CostBreakdown
from repro.synthesis.search import Candidate
from repro.synthesis.tv_solver import TVSolution

__all__ = ["CompileRequest", "CompiledKernel"]


@dataclass
class CompileRequest:
    """One unit of work for :func:`repro.pipeline.compile_many`.

    ``arch``/``instructions``/``max_candidates``/``backend`` default to the
    batch-level values passed to ``compile_many`` when left unset.
    """

    program: KernelProgram
    arch: Optional[object] = None  # anything accepted by sim.arch.get_arch
    instructions: Optional[InstructionSet] = None
    max_candidates: Optional[int] = None
    # Codegen backend override (a repro.codegen.BACKENDS name or Backend
    # instance); None follows the resolved architecture's declared backend.
    backend: Optional[object] = None


@dataclass
class CompiledKernel:
    """One compile: its inputs, then everything the passes produced."""

    program: KernelProgram
    arch: GpuArch
    instructions: InstructionSet
    # Leaf budget of the instruction-selection search.
    max_candidates: int = 256
    # The codegen target.  The driver stores the resolved
    # repro.codegen.Backend here; passes fall back to the architecture's
    # declared backend when a record is constructed directly with None.
    backend: Optional[object] = None
    # A cached instruction assignment, one (name, direction, vector_bytes)
    # triple per copy in program order.  When set, instruction selection
    # evaluates exactly this leaf instead of searching.
    seed_assignment: Optional[Sequence[Tuple[str, str, int]]] = None

    # --- artifacts, in pass order ------------------------------------- #
    tv_solution: Optional[TVSolution] = None
    candidate: Optional[Candidate] = None
    cost: Optional[CostBreakdown] = None
    candidates_explored: int = 0
    source: Optional[str] = None
    timing: Optional[KernelTiming] = None

    # --- cache state and instrumentation ------------------------------- #
    # The compile_key of this compile, set by the driver.
    fingerprint: Optional[str] = None
    # Set when instruction selection replays the seed assignment.
    cache_hit: bool = False
    # Per-pass wall time of the compile that produced this kernel, keyed by
    # pass name.  Keys of the form "<pass>.<stat>" carry search counters
    # (leaves evaluated / pruned, memoized subproblems) instead of seconds.
    pass_stats: Dict[str, float] = field(default_factory=dict)

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

    def lines_of_code(self) -> int:
        return self.program.loc_estimate()

    def pass_times(self) -> Dict[str, float]:
        """The timing subset of ``pass_stats`` (dotted keys are counters)."""
        return {k: v for k, v in self.pass_stats.items() if "." not in k}

    def compile_seconds(self) -> float:
        """Total wall time spent in compiler passes for this kernel."""
        return sum(self.pass_times().values())

    def summary(self) -> str:
        def search(stat: str) -> int:
            return int(self.pass_stats.get(f"instruction-selection.{stat}", 0))

        lines = [
            f"kernel {self.program.name} on {self.arch.name}:",
            f"  estimated latency: {self.timing.latency_us:.2f} us "
            f"({self.timing.bound()}-bound, {self.timing.waves} waves)",
            f"  per-CTA cycles: {self.cost.total_cycles:.0f} "
            f"(mem {self.cost.memory_issue_cycles:.0f}, "
            f"compute {self.cost.compute_issue_cycles:.0f}, "
            f"stall {self.cost.stall_cycles:.0f})",
            f"  candidates explored: {self.candidates_explored} "
            f"(pruned {search('leaves_pruned')}, "
            f"memoized subproblems {search('subproblems_memoized')})",
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
