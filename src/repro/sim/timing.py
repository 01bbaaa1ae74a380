"""Kernel-level timing model: from per-CTA cycles to milliseconds.

This is the execution-substrate substitute for running on real A100/H100
hardware.  The latency of a kernel launch is modelled as

    launch overhead
  + wave count x per-CTA cycles / clock            (compute/issue bound)
  bounded below by
    total DRAM traffic / DRAM bandwidth            (memory roofline)
    total FLOPs / Tensor Core peak                 (compute roofline)

where the per-CTA cycles come from the analytical cost model operating on
the synthesized layouts and selected instructions.  Poor instruction
selection (scalar loads, bank conflicts, redundant copies) inflates the
per-CTA cycles and therefore the reported latency — the same causal chain
the paper measures on hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.graph import KernelProgram
from repro.ir.ops import Copy, Gemm
from repro.sim.arch import GpuArch
from repro.synthesis.cost_model import CostBreakdown

__all__ = ["KernelTiming", "estimate_kernel_latency", "dram_traffic_bytes", "total_flops"]


@dataclass
class KernelTiming:
    """The timing estimate for one kernel launch."""

    latency_us: float
    cta_cycles: float
    waves: int
    dram_bound_us: float
    compute_bound_us: float
    launch_overhead_us: float

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0

    def bound(self) -> str:
        if self.dram_bound_us >= self.compute_bound_us:
            return "memory"
        return "compute"


def dram_traffic_bytes(program: KernelProgram) -> float:
    """Bytes moved between global memory and the chip, per thread block."""
    total = 0.0
    for op in program.operations:
        if isinstance(op, Copy) and (op.src.is_global or op.dst.is_global):
            total += op.moves_bytes() * op.trips
    return total


def total_flops(program: KernelProgram) -> float:
    """Floating-point operations per thread block."""
    return float(sum(op.flops() * op.trips for op in program.operations if isinstance(op, Gemm)))


def smem_bytes(program: KernelProgram) -> float:
    return sum(t.nbytes() for t in program.shared_tensors()) * max(1, program.num_stages)


def estimate_kernel_latency(
    program: KernelProgram,
    cost: CostBreakdown,
    arch: GpuArch,
) -> KernelTiming:
    """Combine the per-CTA cost estimate with the architecture model."""
    ctas = max(1, program.grid_blocks)
    ctas_per_sm = arch.max_ctas_per_sm(program.num_threads, smem_bytes(program))
    concurrent = arch.num_sms * ctas_per_sm
    waves = max(1, math.ceil(ctas / concurrent))

    # Issue cycles occupy the SM's schedulers, so they serialize across the
    # CTAs resident on one SM; stall (latency) cycles are hidden by whatever
    # extra occupancy the kernel achieves.
    issue_waves = max(1, math.ceil(ctas / arch.num_sms))
    busy_cycles = (cost.total_cycles - cost.stall_cycles) * issue_waves + (
        cost.stall_cycles * waves
    )
    issue_us = arch.cycles_to_us(busy_cycles)

    traffic = dram_traffic_bytes(program) * ctas
    unique = program.unique_global_bytes
    if unique is not None and traffic > unique:
        # Traffic beyond the unique footprint is inter-CTA reuse of the same
        # tiles (e.g. every output column block re-reading A): it is served
        # by the L2 cache, not DRAM.
        dram_us = (
            unique / (arch.dram_bandwidth_gbps * 1e9)
            + (traffic - unique) / (arch.l2_bandwidth_gbps * 1e9)
        ) * 1e6
    else:
        dram_us = traffic / (arch.dram_bandwidth_gbps * 1e9) * 1e6

    flops = total_flops(program) * ctas
    # Use the Tensor Core peak matching the narrowest gemm input type.
    gemm_bits = min(
        (op.a.dtype.bits for op in program.operations if isinstance(op, Gemm)),
        default=16,
    )
    compute_us = flops / (arch.peak_tensor_tflops(gemm_bits) * 1e12) * 1e6

    busy_us = max(issue_us, dram_us, compute_us)
    latency_us = arch.kernel_launch_us + busy_us
    return KernelTiming(
        latency_us=latency_us,
        cta_cycles=cost.total_cycles,
        waves=waves,
        dram_bound_us=dram_us,
        compute_bound_us=compute_us,
        launch_overhead_us=arch.kernel_launch_us,
    )
