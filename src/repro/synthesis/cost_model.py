"""The analytical cost model (Section VI of the paper).

A candidate program is modelled as the sequence of its tile-level
operations.  The model tracks, per operation, the cycles needed to *issue*
all of its instruction invocations and the additional *completion* latency
before dependent operations may start (read-after-write stalls).  Modern
GPUs keep memory operations in flight, so an operation only stalls when it
actually consumes the result of an in-flight producer; asynchronous copies
in a software-pipelined loop (and producer warps in a warp-specialized
kernel) have their completion latency hidden altogether.

The per-instruction issue/completion cycles come from the microbenchmark
tables in :mod:`repro.instructions.registry`; the invocation counts come
from the synthesized layouts (operand sizes divided by the instruction's
per-invocation footprint), so wider instructions directly translate into
fewer cycles — this is the mechanism behind the paper's Table III/IV
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.instructions.instruction import MemoryInstruction, MmaInstruction
from repro.ir.graph import KernelProgram
from repro.ir.ops import (
    Cast,
    Copy,
    Elementwise,
    Fill,
    Gemm,
    Operation,
    Rearrange,
    Reduce,
)

__all__ = [
    "CostBreakdown",
    "AnalyticalCostModel",
    "InvariantCosts",
    "copy_issue_cycles",
]


def copy_issue_cycles(
    program: KernelProgram,
    op: Copy,
    instruction: MemoryInstruction,
    conflict: float = 1.0,
) -> float:
    """Per-trip issue cycles of one copy under one instruction choice.

    This is the only part of the cost model that depends on the
    instruction-selection assignment.  With ``conflict=1.0`` it is an
    *admissible lower bound* on the copy's true issue cost (bank-conflict
    factors only ever multiply the cost by >= 1), which is what the
    branch-and-bound search uses to bound unassigned copies.
    """
    total_bytes = op.moves_bytes()  # per-trip tile bytes (iterator views excluded)
    if instruction.single_thread:
        # TMA: one bulk copy per trip; the copy engine streams the tile.
        return instruction.issue_cycles + total_bytes / 128.0
    participating = 32 if instruction.collective else program.num_threads
    per_invocation_bytes = instruction.vector_bytes * participating
    invocations = math.ceil(total_bytes / per_invocation_bytes)
    # Warp schedulers issue per warp; normalise to the block.
    warps = max(1, participating // 32)
    return invocations * instruction.issue_cycles * conflict / max(
        1, program.num_warps // warps
    )


@dataclass(frozen=True)
class InvariantCosts:
    """The assignment-invariant part of a program's cost (per compile).

    Gemm, cast, elementwise, reduce, fill and rearrange costs depend only on
    the thread-value solution, never on which memory instruction each copy
    uses, so they are computed once per program and reused across every
    candidate leaf of the instruction-selection search.

    ``memory_issue_base`` collects the rearrange issue totals (rearranges
    count as memory traffic in :meth:`AnalyticalCostModel.estimate`);
    ``compute_issue_total`` collects everything else.  ``overlapped`` records
    whether the program hides memory issue behind compute issue (pipelined or
    warp-specialized), which decides how the two combine in the lower bound.
    """

    memory_issue_base: float
    compute_issue_total: float
    overlapped: bool

    def lower_bound(self, memory_issue: float) -> float:
        """An admissible lower bound on ``estimate().total_cycles`` given a
        lower bound on the copy+rearrange issue total.

        Follows directly from :meth:`AnalyticalCostModel.estimate`: stalls,
        completion drain and the non-overlapped residue are all >= 0, so the
        total is at least ``max(memory, compute)`` when the program overlaps
        the two and at least their sum otherwise.
        """
        mem = self.memory_issue_base + memory_issue
        if self.overlapped:
            return max(mem, self.compute_issue_total)
        return mem + self.compute_issue_total


@dataclass
class CostBreakdown:
    """The cost model's estimate for a whole candidate program."""

    total_cycles: float
    stall_cycles: float
    memory_issue_cycles: float
    compute_issue_cycles: float


class AnalyticalCostModel:
    """Estimates the per-thread-block execution cycles of a candidate program."""

    def __init__(
        self,
        program: KernelProgram,
        instruction_choice: Optional[Dict[int, MemoryInstruction]] = None,
        conflict_factors: Optional[Dict[int, float]] = None,
    ):
        self.program = program
        self.instruction_choice = instruction_choice or {}
        self.conflict_factors = conflict_factors or {}

    # ------------------------------------------------------------------ #
    # Per-operation costs
    # ------------------------------------------------------------------ #
    def _register_issue(self, op: Operation, cycles_per_element: float) -> float:
        reg = next((t for t in op.register_tensors() if t.tv_layout is not None), None)
        per_thread = reg.tv_layout.values_per_thread if reg is not None else 1
        return per_thread * cycles_per_element

    def cost_of(self, op: Operation) -> Optional[Tuple[float, float]]:
        """``(issue cycles per trip, completion cycles)`` of one operation,
        or ``None`` for an operation the model does not time."""
        if isinstance(op, Copy):
            instruction = self.instruction_choice.get(op.op_id) or op.selected_instruction
            if instruction is None:
                raise ValueError(f"copy {op.describe()} has no selected instruction")
            issue = copy_issue_cycles(
                self.program, op, instruction, self.conflict_factors.get(op.op_id, 1.0)
            )
            return issue, instruction.completion_cycles
        if isinstance(op, Gemm):
            mma: Optional[MmaInstruction] = op.selected_instruction
            if mma is None:
                raise ValueError(f"gemm {op.describe()} has no selected instruction")
            m, n, k = op.mnk
            total_atoms = (m * n * k) / (mma.m * mma.n * mma.k)
            per_warp = total_atoms / max(1, self.program.num_warps)
            return per_warp * mma.issue_cycles, mma.completion_cycles
        if isinstance(op, Cast):
            return self._register_issue(op, 0.5), 4.0
        if isinstance(op, Elementwise):
            return self._register_issue(op, 1.0), 4.0
        if isinstance(op, Reduce):
            # Per-element work plus the warp shuffle tree.
            return self._register_issue(op, 1.0) + 5 * math.log2(32), 4.0
        if isinstance(op, Fill):
            return self._register_issue(op, 0.25), 4.0
        if isinstance(op, Rearrange):
            # Redistribution = store to shared + syncthreads + load from shared.
            per_thread = (
                op.src.tv_layout.values_per_thread if op.src.tv_layout is not None else 8
            )
            return per_thread * 2 * 2.0 + 30.0, 30.0
        return None

    def invariant_costs(self) -> InvariantCosts:
        """Precompute the assignment-invariant issue totals (see
        :class:`InvariantCosts`).  Requires gemm instructions and thread-value
        layouts to be in place (i.e. tv-synthesis must have run)."""
        memory = 0.0
        compute = 0.0
        for op in self.program.operations:
            if isinstance(op, Copy):
                continue
            cost = self.cost_of(op)
            if cost is None:
                continue
            total = cost[0] * op.trips
            if isinstance(op, Rearrange):
                memory += total
            else:
                compute += total
        return InvariantCosts(
            memory_issue_base=memory,
            compute_issue_total=compute,
            overlapped=self.program.num_stages > 1 or self.program.warp_specialized,
        )

    # ------------------------------------------------------------------ #
    # Program-level pipeline model
    # ------------------------------------------------------------------ #
    def estimate(self) -> CostBreakdown:
        """Walk the operation sequence tracking issue and completion cycles."""
        pipelined = self.program.num_stages > 1
        overlap_mem_compute = pipelined or self.program.warp_specialized

        current = 0.0
        stall_total = 0.0
        memory_issue = 0.0
        compute_issue = 0.0
        completion_of: Dict[int, float] = {}
        producer_of: Dict[int, Operation] = {}

        for op in self.program.operations:
            cost = self.cost_of(op)
            if cost is None:
                continue
            issue, completion = cost
            # RAW stall: wait for in-flight producers of our inputs, unless
            # their latency is hidden by prefetching (async copy + pipelining)
            # or by a producer warp group.
            ready = current
            for tensor in op.inputs:
                producer = producer_of.get(tensor.tensor_id)
                if producer is None:
                    continue
                available = completion_of.get(producer.op_id, 0.0)
                hidden = False
                if isinstance(producer, Copy):
                    instr = (
                        self.instruction_choice.get(producer.op_id)
                        or producer.selected_instruction
                    )
                    if instr is not None and instr.asynchronous and overlap_mem_compute:
                        hidden = True
                    if producer.src.is_global and overlap_mem_compute:
                        hidden = True
                if not hidden:
                    ready = max(ready, available)
            stall = max(0.0, ready - current)
            stall_total += stall * op.trips
            current = ready

            issue_total = issue * op.trips
            current += issue_total
            for tensor in op.outputs:
                producer_of[tensor.tensor_id] = op
            completion_of[op.op_id] = current + completion

            if isinstance(op, (Copy, Rearrange)):
                memory_issue += issue_total
            else:
                compute_issue += issue_total

        drain = max(completion_of.values(), default=0.0)
        total = max(current, drain)
        if overlap_mem_compute:
            # Memory issue overlaps with compute issue in the steady state of
            # a pipelined / warp-specialized main loop; the critical path is
            # the larger of the two plus whatever does not overlap (stalls
            # and the non-loop prologue/epilogue work).
            other = max(0.0, total - memory_issue - compute_issue - stall_total)
            total = max(memory_issue, compute_issue) + other + stall_total
        return CostBreakdown(
            total_cycles=total,
            stall_cycles=stall_total,
            memory_issue_cycles=memory_issue,
            compute_issue_cycles=compute_issue,
        )
