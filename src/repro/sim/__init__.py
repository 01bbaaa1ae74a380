"""The simulated GPU substrate standing in for real A100/H100 hardware:
architecture specs, the kernel timing model and the functional executor.

The executor is the only module of the package that needs numpy, so its
names are resolved on first access (PEP 562): compiling and serving import
``repro.sim`` without loading numpy, and ``from repro.sim import
run_kernel`` loads it.
"""

from repro.sim.arch import GpuArch, A100, H100, DEFAULT_ARCH, fleet_size, get_arch
from repro.sim.timing import (
    KernelTiming,
    estimate_kernel_latency,
    dram_traffic_bytes,
    total_flops,
)

__all__ = [
    "GpuArch",
    "A100",
    "H100",
    "DEFAULT_ARCH",
    "fleet_size",
    "get_arch",
    "KernelTiming",
    "estimate_kernel_latency",
    "dram_traffic_bytes",
    "total_flops",
    "ExecutionError",
    "FunctionalExecutor",
    "run_kernel",
]

_EXECUTOR_NAMES = ("ExecutionError", "FunctionalExecutor", "run_kernel")


def __getattr__(name):
    if name in _EXECUTOR_NAMES:
        from repro.sim import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
