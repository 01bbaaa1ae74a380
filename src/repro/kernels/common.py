"""Shared infrastructure of the kernel library.

Every kernel module exposes an *operator*: a host-level wrapper that, given
problem sizes, picks tile sizes, builds the tile program through the DSL,
compiles it (layout synthesis + instruction selection + cost model), and
reports the simulated latency along with the metrics the paper tabulates
(lines of code, bytes per instruction, TFLOPS / GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.compiler import CompiledKernel
from repro.frontend.autotune import autotune_compile, build_sweep
from repro.pipeline import CompileRequest
from repro.sim.arch import GpuArch, get_arch

__all__ = ["OperatorResult", "TileSweepOperator", "numpy_module"]


def numpy_module():
    """The numpy module, imported on first call.

    Elementwise functions that need numpy's ufuncs (softmax's ``exp``, the
    scan's gate) fetch it through this: only the functional executor calls
    them, so building, compiling and serving a kernel never load numpy.
    """
    import numpy

    return numpy


@dataclass
class OperatorResult:
    """The outcome of building and timing one operator configuration."""

    name: str
    arch: GpuArch
    latency_us: float
    flops: float = 0.0
    lines_of_code: int = 0
    kernels: Dict[str, CompiledKernel] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0

    @property
    def tflops(self) -> float:
        if self.latency_us <= 0:
            return 0.0
        return self.flops / (self.latency_us * 1e-6) / 1e12

    def speedup_over(self, other: "OperatorResult") -> float:
        return other.latency_us / self.latency_us

    def bytes_per_instruction(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for kernel in self.kernels.values():
            merged.update(kernel.bytes_per_instruction())
        return merged


class TileSweepOperator:
    """A host-level ``(m, n, k)`` operator that autotunes one kernel over a
    tile sweep (the FP16 and FP8 GEMMs).

    Subclasses supply ``_build(m, n, k, params)``, which builds the tile
    program of one sweep entry, and ``_tile_candidates(m, n, k)``, the
    sweep itself.  ``kernel_key`` names the kernel in the result.  The
    constructor defaults are the FP8 GEMM's (Hopper, 8 tile trials);
    :class:`~repro.kernels.gemm.GemmOperator` declares its own.
    """

    kernel_key = "gemm"

    def __init__(
        self, arch="h100", max_candidates: int = 12, max_tile_trials: int = 8, cache=None
    ):
        self.arch = get_arch(arch)
        self.max_candidates = max_candidates
        self.max_tile_trials = max_tile_trials
        # Optional repro.pipeline.CompileCache; None uses the process default.
        self.cache = cache

    def requests(self, m: int, n: int, k: int) -> List[CompileRequest]:
        """The compile requests ``run(m, n, k)`` issues, in order: one per
        tile of the sweep whose program builds."""
        _, built = build_sweep(
            lambda params: self._build(m, n, k, params), self._tile_candidates(m, n, k)
        )
        return [
            CompileRequest(program, self.arch, max_candidates=self.max_candidates)
            for _, program in built
        ]

    def run(self, m: int, n: int, k: int) -> OperatorResult:
        """Batch-compile the whole tile sweep (repeats are compile-cache
        hits) and report the fastest configuration."""
        tuned = autotune_compile(
            lambda params: self._build(m, n, k, params),
            self._tile_candidates(m, n, k),
            arch=self.arch,
            cache=self.cache,
            max_candidates=self.max_candidates,
        )
        best = tuned.best_kernel
        return OperatorResult(
            name=f"{best.program.name}_{m}x{n}x{k}",
            arch=self.arch,
            latency_us=tuned.best_latency_us,
            flops=2.0 * m * n * k,
            lines_of_code=best.lines_of_code(),
            kernels={self.kernel_key: best},
            extra={**tuned.best_params, "tile_trials": tuned.num_feasible},
        )
