"""The compilation context threaded through the pass pipeline.

A :class:`CompilationContext` carries the inputs of one compile (program,
architecture, instruction set, candidate budget) plus every artifact the passes
accumulate: the thread-value solution, the selected candidate, the shared
memory plans embedded in it, the cost breakdown, the emitted source, the
timing estimate and per-pass wall-time statistics.  Each pass reads the
fields produced by its predecessors and fills in its own, so any prefix of
the pipeline can be run (and inspected) independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.instructions.registry import InstructionSet
from repro.ir.graph import KernelProgram
from repro.sim.arch import GpuArch

__all__ = ["CompileRequest", "CompilationContext"]


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
class CompilationContext:
    """Inputs plus accumulated artifacts of one compilation."""

    program: KernelProgram
    arch: GpuArch
    instructions: InstructionSet
    # Leaf budget of the instruction-selection search.
    max_candidates: int = 256
    # The codegen target.  The driver stores the resolved
    # repro.codegen.Backend here; passes fall back to the architecture's
    # declared backend when a context is constructed directly with None.
    backend: Optional[object] = None

    # --- artifacts, in pass order ------------------------------------- #
    tv_solution: Optional[object] = None  # synthesis.tv_solver.TVSolution
    selector: Optional[object] = None  # synthesis.search.InstructionSelector
    candidate: Optional[object] = None  # synthesis.search.Candidate
    cost: Optional[object] = None  # synthesis.cost_model.CostBreakdown
    source: Optional[str] = None
    timing: Optional[object] = None  # sim.timing.KernelTiming
    candidates_explored: int = 0
    # Branch-and-bound search instrumentation (synthesis.search.SelectionStats):
    # leaf equivalents cut by pruning, and shared-memory subproblem memo hits.
    leaves_pruned: int = 0
    subproblems_memoized: int = 0

    # --- cache / replay state ------------------------------------------ #
    # A cached instruction assignment, one (name, direction, vector_bytes)
    # triple per copy in program order.  When set, instruction selection
    # evaluates exactly this leaf instead of searching.
    seed_assignment: Optional[Sequence[Tuple[str, str, int]]] = None
    cache_key: Optional[str] = None
    cache_hit: bool = False
    replayed: bool = False

    # --- instrumentation ------------------------------------------------ #
    pass_stats: Dict[str, float] = field(default_factory=dict)
