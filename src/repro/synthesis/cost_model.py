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
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    "OperationCost",
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
class OperationCost:
    """Cycle accounting for one operation across all of its trips."""

    op: Operation
    instruction_name: str
    invocations_per_trip: float
    issue_cycles: float
    completion_cycles: float
    stall_cycles: float = 0.0
    start_cycle: float = 0.0
    end_issue_cycle: float = 0.0
    complete_cycle: float = 0.0


@dataclass
class CostBreakdown:
    """The cost model's estimate for a whole candidate program."""

    total_cycles: float
    issue_cycles: float
    stall_cycles: float
    memory_issue_cycles: float
    compute_issue_cycles: float
    per_op: List[OperationCost] = field(default_factory=list)


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
    def _copy_cost(self, op: Copy) -> OperationCost:
        instruction = self.instruction_choice.get(op.op_id) or op.selected_instruction
        if instruction is None:
            raise ValueError(f"copy {op.describe()} has no selected instruction")
        total_bytes = op.moves_bytes()  # per-trip tile bytes (iterator views excluded)
        if instruction.single_thread:
            # TMA: one bulk copy per trip; the copy engine streams the tile.
            invocations = 1.0
        else:
            participating = (
                32 if instruction.collective else self.program.num_threads
            )
            invocations = math.ceil(
                total_bytes / (instruction.vector_bytes * participating)
            )
        issue = copy_issue_cycles(
            self.program, op, instruction, self.conflict_factors.get(op.op_id, 1.0)
        )
        return OperationCost(
            op=op,
            instruction_name=instruction.name,
            invocations_per_trip=invocations,
            issue_cycles=issue,
            completion_cycles=instruction.completion_cycles,
        )

    def _gemm_cost(self, op: Gemm) -> OperationCost:
        instruction: Optional[MmaInstruction] = op.selected_instruction
        if instruction is None:
            raise ValueError(f"gemm {op.describe()} has no selected instruction")
        m, n, k = op.mnk
        atom_work = instruction.m * instruction.n * instruction.k
        total_atoms = (m * n * k) / atom_work
        per_warp = total_atoms / max(1, self.program.num_warps)
        issue = per_warp * instruction.issue_cycles
        return OperationCost(
            op=op,
            instruction_name=instruction.name,
            invocations_per_trip=per_warp,
            issue_cycles=issue,
            completion_cycles=instruction.completion_cycles,
        )

    def _register_op_cost(self, op: Operation, name: str, cycles_per_element: float) -> OperationCost:
        reg = next((t for t in op.register_tensors() if t.tv_layout is not None), None)
        per_thread = reg.tv_layout.values_per_thread if reg is not None else 1
        issue = per_thread * cycles_per_element
        return OperationCost(
            op=op,
            instruction_name=name,
            invocations_per_trip=per_thread,
            issue_cycles=issue,
            completion_cycles=4.0,
        )

    def _rearrange_cost(self, op: Rearrange) -> OperationCost:
        # Redistribution = store to shared + syncthreads + load from shared.
        per_thread = (
            op.src.tv_layout.values_per_thread if op.src.tv_layout is not None else 8
        )
        issue = per_thread * 2 * 2.0 + 30.0
        return OperationCost(
            op=op,
            instruction_name="rearrange.smem",
            invocations_per_trip=per_thread * 2,
            issue_cycles=issue,
            completion_cycles=30.0,
        )

    def cost_of(self, op: Operation) -> Optional[OperationCost]:
        if isinstance(op, Copy):
            return self._copy_cost(op)
        if isinstance(op, Gemm):
            return self._gemm_cost(op)
        if isinstance(op, Cast):
            return self._register_op_cost(op, "cvt", 0.5)
        if isinstance(op, Elementwise):
            return self._register_op_cost(op, f"ew.{op.fn_name}", 1.0)
        if isinstance(op, Reduce):
            cost = self._register_op_cost(op, f"red.{op.kind}", 1.0)
            cost.issue_cycles += 5 * math.log2(32)  # warp shuffle tree
            return cost
        if isinstance(op, Fill):
            return self._register_op_cost(op, "mov", 0.25)
        if isinstance(op, Rearrange):
            return self._rearrange_cost(op)
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
            total = cost.issue_cycles * op.trips
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
        costs: List[OperationCost] = []

        for op in self.program.operations:
            cost = self.cost_of(op)
            if cost is None:
                continue
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

            issue_total = cost.issue_cycles * op.trips
            cost.stall_cycles = stall * op.trips
            cost.start_cycle = current
            current += issue_total
            cost.end_issue_cycle = current
            cost.complete_cycle = current + cost.completion_cycles
            for tensor in op.outputs:
                producer_of[tensor.tensor_id] = op
            completion_of[op.op_id] = cost.complete_cycle
            costs.append(cost)

            if isinstance(op, (Copy, Rearrange)):
                memory_issue += issue_total
            else:
                compute_issue += issue_total

        drain = max(
            (c.complete_cycle for c in costs), default=0.0
        )
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
            issue_cycles=memory_issue + compute_issue,
            stall_cycles=stall_total,
            memory_issue_cycles=memory_issue,
            compute_issue_cycles=compute_issue,
            per_op=costs,
        )
