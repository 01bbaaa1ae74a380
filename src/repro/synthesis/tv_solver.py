"""Thread-value layout synthesis — Algorithm 1 of the paper.

The solver partitions the operation DAG into components connected through
register tensors, picks *anchor* operations in each component (gemms when
present, otherwise the copy moving the most data), instantiates the anchors'
layouts from instruction atoms / coalesced accesses, and then propagates
layouts through the remaining constraints with a worklist until everything
is solved.  Conflicts between independently-propagated layouts are resolved
either by user annotations (the consistent-thread-arrangement annotation for
multi-gemm kernels) or by inserting ``rearrange`` operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.instructions.registry import InstructionSet, instruction_set
from repro.ir.graph import KernelProgram
from repro.sim.arch import DEFAULT_ARCH, get_arch
from repro.ir.ops import Cast, Copy, Elementwise, Gemm, Operation, Rearrange, Reduce
from repro.ir.tensor import Scope, TileTensor
from repro.layout.layout import row_major
from repro.layout.tv import TVLayout
from repro.synthesis.tiling import coalesced_copy_tv, make_tiled_mma, reduce_tv_layout

__all__ = ["TVSynthesisError", "TVSolution", "ThreadValueSolver"]

# The widest access (bytes per thread) a coalesced-copy anchor assumes.
MAX_VECTOR_BYTES = 16


class TVSynthesisError(Exception):
    """Raised when thread-value layouts cannot be synthesized."""


@dataclass
class TVSolution:
    """The result of thread-value layout synthesis."""

    layouts: Dict[TileTensor, TVLayout] = field(default_factory=dict)
    anchors: List[Operation] = field(default_factory=list)
    inserted_rearranges: List[Rearrange] = field(default_factory=list)
    mma_operands: Dict[TileTensor, str] = field(default_factory=dict)


def _rewire(op: Operation, old: TileTensor, new: TileTensor) -> None:
    """Make ``op`` read ``new`` wherever it read ``old``."""
    for i, operand in enumerate(op.inputs):
        if operand is old:
            op.inputs[i] = new
    for attr in ("src", "a", "b", "c", "output"):
        if getattr(op, attr, None) is old:
            setattr(op, attr, new)


class ThreadValueSolver:
    """Runs Algorithm 1 over a :class:`KernelProgram`."""

    def __init__(
        self,
        program: KernelProgram,
        instructions: Optional[InstructionSet] = None,
    ):
        self.program = program
        # Default to the canonical architecture shared by every compile entry
        # point (repro.sim.arch.DEFAULT_ARCH) rather than a magic SM number.
        self.instructions = instructions or instruction_set(
            get_arch(DEFAULT_ARCH).sm_arch
        )
        self.solution = TVSolution()

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def solve(self) -> TVSolution:
        self._remove_inserted_rearranges()
        components = self.program.validate()
        self._apply_annotations()
        for component in components:
            self._solve_component(component)
        self._check_all_solved()
        self._store_on_tensors()
        return self.solution

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _known(self, tensor: TileTensor) -> Optional[TVLayout]:
        return self.solution.layouts.get(tensor)

    def _assign(self, tensor: TileTensor, layout: TVLayout, source: Operation) -> None:
        """Record a layout; on conflict keep the recorded one and insert a rearrange."""
        existing = self._known(tensor)
        if existing is None:
            self.solution.layouts[tensor] = layout
            return
        if existing.equivalent(layout):
            return
        # The recorded layout stays, whether a tv annotation decided it or an
        # earlier requirement did; the conflicting requirement is resolved
        # by a rearrange before `source`.
        self._insert_rearrange(tensor, layout, source)

    def _insert_rearrange(
        self, tensor: TileTensor, wanted: TVLayout, consumer: Operation
    ) -> None:
        """Resolve a layout conflict by redistributing `tensor` for `consumer`."""
        converted = TileTensor(
            name=f"{tensor.name}_rearranged",
            dtype=tensor.dtype,
            scope=Scope.REGISTER,
            shape=tensor.shape,
        )
        rearrange = Rearrange(tensor, converted, trips=consumer.trips, stage=consumer.stage)
        rearrange.inserted = True
        # Rewire the consumer to read the converted tensor.
        _rewire(consumer, tensor, converted)
        index = self.program.operations.index(consumer)
        self.program.operations.insert(index, rearrange)
        self.solution.layouts[converted] = wanted
        self.solution.inserted_rearranges.append(rearrange)

    def _remove_inserted_rearranges(self) -> None:
        """Undo the rearranges an earlier synthesis inserted, so that
        synthesizing an already compiled program starts from the program as
        written (instead of failing validation on the converted tensors)."""
        operations = self.program.operations
        for rearrange in [op for op in operations if isinstance(op, Rearrange) and op.inserted]:
            operations.remove(rearrange)
            for op in operations:
                _rewire(op, rearrange.dst, rearrange.src)

    def _apply_annotations(self) -> None:
        for tensor in self.program.register_tensors():
            if tensor.tv_annotation is not None:
                self.solution.layouts[tensor] = tensor.tv_annotation

    # ------------------------------------------------------------------ #
    # Per-component solving
    # ------------------------------------------------------------------ #
    def _solve_component(self, component: List[Operation]) -> None:
        gemms = [op for op in component if isinstance(op, Gemm)]
        if gemms:
            for gemm in gemms:
                self._anchor_gemm(gemm)
                self.solution.anchors.append(gemm)
        else:
            anchor = self._pick_copy_anchor(component)
            if anchor is not None:
                self._anchor_copy(anchor)
                self.solution.anchors.append(anchor)
        self._propagate(component)

        # Any register tensors still unknown get coalesced-copy layouts from
        # the copies that touch them (secondary anchors), then we propagate
        # again until the component is fully solved.
        progress = True
        while progress and self._unsolved_in(component):
            progress = False
            for op in component:
                if isinstance(op, Copy):
                    reg = op.register_operand()
                    if reg is not None and self._known(reg) is None:
                        self._anchor_copy(op)
                        self.solution.anchors.append(op)
                        progress = True
                        break
            self._propagate(component)

    def _unsolved_in(self, component: List[Operation]) -> List[TileTensor]:
        # Ordered-set pattern (dict preserves insertion order): the old list
        # membership scan made this O(n^2) in the component's tensor count.
        unsolved: Dict[int, TileTensor] = {}
        for op in component:
            for tensor in op.register_tensors():
                if tensor.tensor_id not in unsolved and self._known(tensor) is None:
                    unsolved[tensor.tensor_id] = tensor
        return list(unsolved.values())

    # ------------------------------------------------------------------ #
    # Anchors
    # ------------------------------------------------------------------ #
    def _anchor_gemm(self, gemm: Gemm) -> None:
        """Algorithm 1 lines 6-12: tile the fastest Tensor Core instruction."""
        m, n, k = gemm.mnk
        try:
            instruction = self.instructions.fastest_mma(
                gemm.a.dtype, gemm.b.dtype, gemm.c.dtype
            )
        except KeyError as exc:
            raise TVSynthesisError(str(exc)) from exc
        try:
            tiled = make_tiled_mma(instruction, (m, n, k), self.program.num_warps)
        except ValueError as exc:
            raise TVSynthesisError(
                f"gemm {gemm.describe()}: {exc}"
            ) from exc
        gemm.selected_instruction = instruction
        self._assign(gemm.c, tiled.c_tv, gemm)
        self._assign(gemm.a, tiled.a_tv, gemm)
        self._assign(gemm.b, tiled.b_tv, gemm)
        self.solution.mma_operands[gemm.a] = "A"
        self.solution.mma_operands[gemm.b] = "B"
        self.solution.mma_operands[gemm.c] = "C"

    def _pick_copy_anchor(self, component: List[Operation]) -> Optional[Copy]:
        """Algorithm 1 line 14: the copy transferring the most data.

        Copies whose memory operand has a known layout (global views) are
        preferred because the coalescing initialization needs the memory
        order; shared-memory copies fall back to a row-major assumption.
        """
        copies = [
            op for op in component if isinstance(op, Copy) and op.register_operand() is not None
        ]
        if not copies:
            return None
        return max(
            copies,
            key=lambda op: (op.moves_bytes() * op.trips, op.memory_operand().is_global),
        )

    def _anchor_copy(self, copy: Copy) -> None:
        """Algorithm 1 lines 14-16: coalesce memory accesses."""
        reg = copy.register_operand()
        if reg is None or self._known(reg) is not None:
            return
        memory = copy.memory_operand()
        mem_layout = memory.layout if memory.layout is not None else row_major(memory.shape)
        # Iterator views (global tensors with a trailing loop dimension) only
        # contribute their tile-level modes to the coalescing decision.
        if mem_layout.rank() > len(reg.shape):
            mem_layout = mem_layout[0 : len(reg.shape)]
        max_elems = max(1, int(MAX_VECTOR_BYTES * 8 // reg.dtype.bits))
        layout = coalesced_copy_tv(
            reg.shape, mem_layout, self.program.num_threads, max_elems
        )
        self._assign(reg, layout, copy)

    # ------------------------------------------------------------------ #
    # Constraint propagation (Algorithm 1 lines 18-27)
    # ------------------------------------------------------------------ #
    def _propagate(self, component: List[Operation]) -> None:
        changed = True
        while changed:
            changed = False
            for op in component:
                if self._propagate_op(op):
                    changed = True

    def _propagate_op(self, op: Operation) -> bool:
        if isinstance(op, (Cast, Elementwise)):
            return self._propagate_equal(op)
        if isinstance(op, Reduce):
            return self._propagate_reduce(op)
        # Copy / Gemm / Rearrange / Fill impose no further register-register
        # equalities: copies relate registers to memory (handled by the
        # anchor and the shared-memory solver), rearranges are explicit
        # redistribution points and a fill has no register input.
        return False

    def _propagate_equal(self, op: Operation) -> bool:
        tensors = op.register_tensors()
        known = None
        # Prefer the output's layout when it is already fixed (e.g. by a gemm
        # anchor downstream) so that conflicting inputs get rearranged toward
        # what the consumer requires.
        for tensor in [t for t in op.outputs if t.is_register] + [
            t for t in op.inputs if t.is_register
        ]:
            layout = self._known(tensor)
            if layout is not None and tuple(layout.tile_shape) == tuple(tensor.shape):
                known = layout
                break
        if known is None:
            return False
        changed = False
        for tensor in tensors:
            # Broadcast operands (extent-1 dimensions) keep their own layouts;
            # the elementwise equality only binds same-shape operands.
            if tuple(tensor.shape) != tuple(known.tile_shape):
                continue
            existing = self._known(tensor)
            if existing is None:
                self._assign(tensor, known, op)
                changed = True
            elif tensor in op.inputs and not existing.equivalent(known):
                # Two anchors disagree across this op (e.g. the C operand of
                # one gemm feeding the A operand of the next): redistribute
                # the input to the layout the consumer requires (Fig. 9).
                self._insert_rearrange(tensor, known, op)
                changed = True
        return changed

    def _propagate_reduce(self, op: Reduce) -> bool:
        src_layout = self._known(op.src)
        if src_layout is None or self._known(op.dst) is not None:
            return False
        self._assign(op.dst, reduce_tv_layout(src_layout, op.dim), op)
        return True

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def _check_all_solved(self) -> None:
        unsolved = [
            t.short_desc()
            for t in self.program.register_tensors()
            if t not in self.solution.layouts
        ]
        if unsolved:
            raise TVSynthesisError(
                "thread-value layout synthesis left tensors unsolved: "
                + ", ".join(unsolved)
            )
        for tensor, layout in self.solution.layouts.items():
            if tuple(layout.tile_shape) != tuple(tensor.shape):
                raise TVSynthesisError(
                    f"tensor {tensor.short_desc()} got a layout over tile "
                    f"{layout.tile_shape}"
                )

    def _store_on_tensors(self) -> None:
        for tensor, layout in self.solution.layouts.items():
            tensor.tv_layout = layout
