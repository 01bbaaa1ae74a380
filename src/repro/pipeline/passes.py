"""The named passes of the Hexcute compilation pipeline (Fig. 6 c).

The compiler is decomposed into five passes, each reading/writing fields
of a :class:`CompilationContext`:

==================== ==================================================== =
pass                 produces
==================== ==================================================== =
``tv-synthesis``     ``ctx.tv_solution`` (Algorithm 1)
``instruction-       ``ctx.selector``, ``ctx.candidate``, ``ctx.cost``,
selection``          ``ctx.candidates_explored``
``smem-swizzle``     installs the winning instructions, shared-memory
                     layouts and swizzles on the program tensors
``codegen``          ``ctx.source``
``timing``           ``ctx.timing``
==================== ==================================================== =

:func:`run_passes` runs every pass of :data:`PASS_REGISTRY` in order,
recording per-pass wall time in ``ctx.pass_stats``; individual passes can
be invoked directly for partial runs.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.pipeline.context import CompilationContext
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

    def run(self, ctx: CompilationContext) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


def _resolve_backend(ctx: CompilationContext):
    """The context's codegen backend: the driver-resolved instance, or the
    architecture's declared backend for directly constructed contexts."""
    from repro.codegen.backend import get_backend

    return get_backend(ctx.backend if ctx.backend is not None else ctx.arch.backend)


class TVSynthesisPass(CompilerPass):
    """Thread-value layout synthesis (Algorithm 1, Section IV)."""

    name = "tv-synthesis"

    def run(self, ctx: CompilationContext) -> None:
        ctx.tv_solution = ThreadValueSolver(ctx.program, ctx.instructions).solve()


class InstructionSelectionPass(CompilerPass):
    """DFS over the instruction search tree, ranked by the cost model.

    When ``ctx.seed_assignment`` holds a cached winning assignment, the pass
    evaluates exactly that leaf (shared-memory synthesis + cost model for a
    single candidate) instead of enumerating the tree — the cache replay
    fast path.  If the seed cannot be resolved against the current
    instruction set or turns out invalid, the full search runs as usual.
    """

    name = "instruction-selection"

    def run(self, ctx: CompilationContext) -> None:
        if ctx.tv_solution is None:
            raise RuntimeError("instruction-selection requires tv-synthesis to have run")
        backend = _resolve_backend(ctx)
        selector = InstructionSelector(
            ctx.program,
            ctx.tv_solution,
            ctx.instructions,
            max_candidates=ctx.max_candidates,
            bank_params=backend.smem_bank_params(ctx.arch),
        )
        ctx.selector = selector

        best = None
        if ctx.seed_assignment is not None:
            assignment = selector.resolve_named_assignment(ctx.seed_assignment)
            if assignment is not None:
                best = selector.evaluate(assignment)
                ctx.replayed = best is not None
        if best is None:
            best = selector.best()
        ctx.candidate = best
        ctx.cost = best.cost
        ctx.candidates_explored = selector.candidates_explored
        ctx.leaves_pruned = selector.stats.leaves_pruned
        ctx.subproblems_memoized = selector.stats.subproblems_memoized
        # Searches expose their branch-and-bound counters alongside the pass
        # timings ("<pass>.<stat>" keys carry counts, not seconds, and are
        # excluded from CompiledKernel.compile_seconds()).
        ctx.pass_stats[f"{self.name}.leaves_evaluated"] = float(
            selector.stats.leaves_evaluated
        )
        ctx.pass_stats[f"{self.name}.leaves_pruned"] = float(
            selector.stats.leaves_pruned
        )
        ctx.pass_stats[f"{self.name}.subproblems_memoized"] = float(
            selector.stats.subproblems_memoized
        )
        ctx.pass_stats[f"{self.name}.smem_solves"] = float(selector.stats.smem_solves)
        ctx.pass_stats[f"{self.name}.swizzles_scored"] = float(
            selector.stats.swizzles_scored
        )
        ctx.pass_stats[f"{self.name}.swizzles_pruned"] = float(
            selector.stats.swizzles_pruned
        )


class SmemSwizzlePass(CompilerPass):
    """Install the winning instructions and shared-memory (swizzled) layouts."""

    name = "smem-swizzle"

    def run(self, ctx: CompilationContext) -> None:
        if ctx.selector is None or ctx.candidate is None:
            raise RuntimeError("smem-swizzle requires instruction-selection to have run")
        ctx.selector.apply(ctx.candidate)


class CodegenPass(CompilerPass):
    """Lowering / source emission, dispatched on the codegen backend."""

    name = "codegen"

    def run(self, ctx: CompilationContext) -> None:
        if ctx.candidate is None:
            raise RuntimeError("codegen requires a selected candidate")
        ctx.source = _resolve_backend(ctx).emit(ctx.program, ctx.candidate, ctx.arch)


class TimingPass(CompilerPass):
    """The architecture timing model producing the simulated kernel latency."""

    name = "timing"

    def run(self, ctx: CompilationContext) -> None:
        if ctx.cost is None:
            raise RuntimeError("timing requires a selected candidate's cost")
        ctx.timing = estimate_kernel_latency(ctx.program, ctx.cost, ctx.arch)


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


def run_passes(ctx: CompilationContext) -> None:
    """Run every registered pass over ``ctx`` in order, timing each one.

    Each pass class's ``run`` is looked up per call, so a wrapper installed
    on the class (tracing does this) takes effect immediately.
    """
    for name, pass_cls in PASS_REGISTRY.items():
        start = time.perf_counter()
        pass_cls().run(ctx)
        ctx.pass_stats[name] = time.perf_counter() - start
