"""Shared infrastructure of the kernel library.

Every kernel module exposes an *operator*: a host-level wrapper that, given
problem sizes, picks tile sizes, builds the tile program through the DSL,
compiles it (layout synthesis + instruction selection + cost model), and
reports the simulated latency along with the metrics the paper tabulates
(lines of code, bytes per instruction, TFLOPS / GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.compiler import CompiledKernel
from repro.sim.arch import GpuArch

__all__ = ["ceil_div", "OperatorResult"]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


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
