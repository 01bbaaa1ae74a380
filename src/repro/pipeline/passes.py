"""The named passes of the Hexcute compilation pipeline (Fig. 6 c).

The compiler is decomposed into five passes, each reading/writing fields
of one :class:`CompiledKernel` record:

==================== ==================================================== =
pass                 produces
==================== ==================================================== =
``tv-synthesis``     ``kernel.tv_solution`` (Algorithm 1)
``instruction-       ``kernel.candidate``, ``kernel.cost``,
selection``          ``kernel.candidates_explored``, search counters
                     in ``kernel.pass_stats``; ``kernel.cache_hit``
                     when a seed assignment replays
``smem-swizzle``     installs the winning instructions, shared-memory
                     layouts and swizzles on the program tensors
``codegen``          ``kernel.source``
``timing``           ``kernel.timing``
==================== ==================================================== =

:func:`run_passes` runs every pass of :data:`PASS_REGISTRY` in order,
recording per-pass wall time in ``kernel.pass_stats``; individual passes can
be invoked directly for partial runs.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.pipeline.context import CompiledKernel
from repro.sim.timing import estimate_kernel_latency
from repro.synthesis.search import InstructionSelector
from repro.synthesis.tv_solver import ThreadValueSolver

__all__ = [
    "CompilerPass",
    "TVSynthesisPass",
    "InstructionSelectionPass",
    "SmemSwizzlePass",
    "CodegenPass",
    "TimingPass",
    "PASS_REGISTRY",
    "run_passes",
]


class CompilerPass:
    """Base class: a named, independently invokable pipeline stage."""

    name = "pass"

    def run(self, kernel: CompiledKernel) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


def _resolve_backend(kernel: CompiledKernel):
    """The record's codegen backend: the driver-resolved instance, or the
    architecture's declared backend for directly constructed records."""
    from repro.codegen.backend import get_backend

    return get_backend(kernel.backend if kernel.backend is not None else kernel.arch.backend)


class TVSynthesisPass(CompilerPass):
    """Thread-value layout synthesis (Algorithm 1, Section IV)."""

    name = "tv-synthesis"

    def run(self, kernel: CompiledKernel) -> None:
        kernel.tv_solution = ThreadValueSolver(kernel.program, kernel.instructions).solve()


class InstructionSelectionPass(CompilerPass):
    """DFS over the instruction search tree, ranked by the cost model.

    When ``kernel.seed_assignment`` holds a cached winning assignment, the pass
    evaluates exactly that leaf (shared-memory synthesis + cost model for a
    single candidate) instead of enumerating the tree — the cache replay
    fast path.  If the seed cannot be resolved against the current
    instruction set or turns out invalid, the full search runs as usual.
    """

    name = "instruction-selection"

    def run(self, kernel: CompiledKernel) -> None:
        if kernel.tv_solution is None:
            raise RuntimeError("instruction-selection requires tv-synthesis to have run")
        backend = _resolve_backend(kernel)
        selector = InstructionSelector(
            kernel.program,
            kernel.tv_solution,
            kernel.instructions,
            max_candidates=kernel.max_candidates,
            bank_params=backend.smem_bank_params(kernel.arch),
        )

        best = None
        if kernel.seed_assignment is not None:
            assignment = selector.resolve_named_assignment(kernel.seed_assignment)
            if assignment is not None:
                best = selector.evaluate(assignment)
                kernel.cache_hit = best is not None
        if best is None:
            best = selector.best()
        kernel.candidate = best
        kernel.cost = best.cost
        kernel.candidates_explored = selector.candidates_explored
        # Searches expose their branch-and-bound counters alongside the pass
        # timings ("<pass>.<stat>" keys carry counts, not seconds, and are
        # excluded from CompiledKernel.compile_seconds()).
        for stat in ("leaves_evaluated", "leaves_pruned", "subproblems_memoized",
                     "smem_solves", "swizzles_scored", "swizzles_pruned"):
            kernel.pass_stats[f"{self.name}.{stat}"] = float(getattr(selector.stats, stat))


class SmemSwizzlePass(CompilerPass):
    """Install the winning instructions and shared-memory (swizzled) layouts."""

    name = "smem-swizzle"

    def run(self, kernel: CompiledKernel) -> None:
        if kernel.candidate is None:
            raise RuntimeError("smem-swizzle requires instruction-selection to have run")
        kernel.candidate.apply(kernel.program)


class CodegenPass(CompilerPass):
    """Lowering / source emission, dispatched on the codegen backend."""

    name = "codegen"

    def run(self, kernel: CompiledKernel) -> None:
        if kernel.candidate is None:
            raise RuntimeError("codegen requires a selected candidate")
        kernel.source = _resolve_backend(kernel).emit(kernel.program, kernel.candidate, kernel.arch)


class TimingPass(CompilerPass):
    """The architecture timing model producing the simulated kernel latency."""

    name = "timing"

    def run(self, kernel: CompiledKernel) -> None:
        if kernel.cost is None:
            raise RuntimeError("timing requires a selected candidate's cost")
        kernel.timing = estimate_kernel_latency(kernel.program, kernel.cost, kernel.arch)


PASS_REGISTRY: Dict[str, type] = {
    cls.name: cls
    for cls in (
        TVSynthesisPass,
        InstructionSelectionPass,
        SmemSwizzlePass,
        CodegenPass,
        TimingPass,
    )
}


def run_passes(kernel: CompiledKernel) -> None:
    """Run every registered pass over ``kernel`` in order, timing each one.

    Each pass class's ``run`` is looked up per call, so a wrapper installed
    on the class (tracing does this) takes effect immediately.
    """
    for name, pass_cls in PASS_REGISTRY.items():
        start = time.perf_counter()
        pass_cls().run(kernel)
        kernel.pass_stats[name] = time.perf_counter() - start
