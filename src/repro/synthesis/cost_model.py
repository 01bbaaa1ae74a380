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
from typing import Dict, List, NamedTuple, Optional, Tuple

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
    "operation_cost",
]


def copy_issue_cycles(
    program: KernelProgram,
    copy_bytes: float,
    instruction: MemoryInstruction,
    conflict: float = 1.0,
) -> float:
    """Per-trip issue cycles of one copy under one instruction choice.

    ``copy_bytes`` is the copy's per-trip tile bytes (``Copy.moves_bytes()``;
    iterator views excluded).  This is the only part of the cost model that
    depends on the instruction-selection assignment.  With ``conflict=1.0``
    it is an *admissible lower bound* on the copy's true issue cost
    (bank-conflict factors only ever multiply the cost by >= 1), which is
    what the branch-and-bound search uses to bound unassigned copies.
    """
    if instruction.single_thread:
        # TMA: one bulk copy per trip; the copy engine streams the tile.
        return instruction.issue_cycles + copy_bytes / 128.0
    participating = 32 if instruction.collective else program.num_threads
    per_invocation_bytes = instruction.vector_bytes * participating
    invocations = math.ceil(copy_bytes / per_invocation_bytes)
    # Warp schedulers issue per warp; normalise to the block.
    warps = max(1, participating // 32)
    return invocations * instruction.issue_cycles * conflict / max(
        1, program.num_warps // warps
    )


def _register_issue(op: Operation, cycles_per_element: float) -> float:
    reg = next((t for t in op.register_tensors() if t.tv_layout is not None), None)
    per_thread = reg.tv_layout.values_per_thread if reg is not None else 1
    return per_thread * cycles_per_element


def operation_cost(program: KernelProgram, op: Operation) -> Optional[Tuple[float, float]]:
    """``(issue cycles per trip, completion cycles)`` of one non-copy
    operation, or ``None`` for an operation the model does not time.

    Copies are not costed here: their issue depends on the assignment
    (:func:`copy_issue_cycles`).  Requires gemm instructions and
    thread-value layouts to be in place (tv-synthesis must have run).
    """
    if isinstance(op, Gemm):
        mma: Optional[MmaInstruction] = op.selected_instruction
        if mma is None:
            raise ValueError(f"gemm {op.describe()} has no selected instruction")
        m, n, k = op.mnk
        total_atoms = (m * n * k) / (mma.m * mma.n * mma.k)
        per_warp = total_atoms / max(1, program.num_warps)
        return per_warp * mma.issue_cycles, mma.completion_cycles
    if isinstance(op, Cast):
        return _register_issue(op, 0.5), 4.0
    if isinstance(op, Elementwise):
        return _register_issue(op, 1.0), 4.0
    if isinstance(op, Reduce):
        # Per-element work plus the warp shuffle tree.
        return _register_issue(op, 1.0) + 5 * math.log2(32), 4.0
    if isinstance(op, Fill):
        return _register_issue(op, 0.25), 4.0
    if isinstance(op, Rearrange):
        # Redistribution = store to shared + syncthreads + load from shared.
        per_thread = (
            op.src.tv_layout.values_per_thread if op.src.tv_layout is not None else 8
        )
        return per_thread * 2 * 2.0 + 30.0, 30.0
    return None


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


class _Row(NamedTuple):
    """One timed operation of the program, in program order."""

    copy_id: Optional[int]  # a copy's op id (its issue follows the assignment)
    copy_bytes: float  # a copy's per-trip bytes
    issue: float  # a non-copy operation's issue cycles per trip
    completion: float  # a non-copy operation's completion cycles
    trips: int
    # Rows whose results this operation reads (in input order), leaving
    # out the producers whose latency is hidden whatever the assignment.
    producers: Tuple[int, ...]
    memory: bool  # counts as memory issue (copies, rearranges)
    # A copy whose latency is hidden behind an asynchronous instruction
    # (the program overlaps memory with compute and the copy reads no
    # global memory, whose latency is hidden anyway).
    hidden_if_async: bool


class AnalyticalCostModel:
    """Estimates the per-thread-block execution cycles of candidate
    programs: one model per program, built once the thread-value solution
    is installed, and evaluated for every leaf of the instruction search.

    Only a copy's issue cycles depend on the leaf, so the model keeps one
    row per timed operation, in program order, holding everything else:
    a non-copy operation's fixed ``(issue, completion)``, a copy's per-trip
    bytes, the trips, the rows producing its inputs, whether it counts as
    memory or compute issue and whether its latency can be hidden.
    """

    def __init__(self, program: KernelProgram):
        self.program = program
        # Pipelined and warp-specialized programs overlap memory issue with
        # compute issue and hide the latency of global and asynchronous
        # copies.
        self.overlapped = program.num_stages > 1 or program.warp_specialized
        rows: List[_Row] = []
        always_hidden: List[bool] = []  # per row: latency hidden whatever the leaf
        producer_of: Dict[int, int] = {}  # tensor id -> row index
        for op in program.operations:
            producers = tuple(
                producer_of[t.tensor_id]
                for t in op.inputs
                if t.tensor_id in producer_of and not always_hidden[producer_of[t.tensor_id]]
            )
            if isinstance(op, Copy):
                reads_global = op.src.is_global
                rows.append(_Row(op.op_id, op.moves_bytes(), 0.0, 0.0, op.trips, producers,
                                 True, self.overlapped and not reads_global))
                always_hidden.append(self.overlapped and reads_global)
            else:
                cost = operation_cost(program, op)
                if cost is None:
                    continue
                rows.append(_Row(None, 0.0, cost[0], cost[1], op.trips, producers,
                                 isinstance(op, Rearrange), False))
                always_hidden.append(False)
            for tensor in op.outputs:
                producer_of[tensor.tensor_id] = len(rows) - 1
        self._rows = rows
        self._copy_rows = {row.copy_id: row for row in rows if row.copy_id is not None}

    # ------------------------------------------------------------------ #
    # Assignment-invariant terms
    # ------------------------------------------------------------------ #
    def invariant_costs(self) -> InvariantCosts:
        """The assignment-invariant issue totals (see :class:`InvariantCosts`)."""
        memory = 0.0
        compute = 0.0
        for row in self._rows:
            if row.copy_id is not None:
                continue
            total = row.issue * row.trips
            if row.memory:
                memory += total
            else:
                compute += total
        return InvariantCosts(
            memory_issue_base=memory,
            compute_issue_total=compute,
            overlapped=self.overlapped,
        )

    def copy_issue_bound(self, copy: Copy, instruction: MemoryInstruction) -> float:
        """A copy's issue cycles over all its trips at conflict factor 1.0:
        the admissible lower bound on its part of any leaf's issue total."""
        row = self._copy_rows[copy.op_id]
        return copy_issue_cycles(self.program, row.copy_bytes, instruction, 1.0) * row.trips

    # ------------------------------------------------------------------ #
    # Program-level pipeline model
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        assignment: Dict[int, MemoryInstruction],
        conflict_factors: Dict[int, float],
    ) -> CostBreakdown:
        """Walk the operation rows tracking issue and completion cycles.

        ``assignment`` maps every copy's op id to its instruction;
        ``conflict_factors`` maps a copy's op id to its bank-conflict
        multiplier (1.0 when absent).
        """
        program = self.program
        rows = self._rows
        current = 0.0
        stall_total = 0.0
        memory_issue = 0.0
        compute_issue = 0.0
        completion_of: List[float] = []

        for row in rows:
            if row.copy_id is None:
                issue, completion = row.issue, row.completion
            else:
                instruction = assignment[row.copy_id]
                issue = copy_issue_cycles(
                    program, row.copy_bytes, instruction,
                    conflict_factors.get(row.copy_id, 1.0),
                )
                completion = instruction.completion_cycles
            # RAW stall: wait for in-flight producers of our inputs, unless
            # their latency is hidden by prefetching (async copy +
            # pipelining) or by a producer warp group.
            ready = current
            for index in row.producers:
                producer = rows[index]
                if producer.hidden_if_async and assignment[producer.copy_id].asynchronous:
                    continue
                ready = max(ready, completion_of[index])
            stall = max(0.0, ready - current)
            stall_total += stall * row.trips
            current = ready

            issue_total = issue * row.trips
            current += issue_total
            completion_of.append(current + completion)

            if row.memory:
                memory_issue += issue_total
            else:
                compute_issue += issue_total

        drain = max(completion_of, default=0.0)
        total = max(current, drain)
        if self.overlapped:
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
