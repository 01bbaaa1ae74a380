"""Lowering and source emission for compiled tile programs.

Emission dispatches through the :class:`~repro.codegen.backend.Backend`
registry (``BACKENDS``/:func:`~repro.codegen.backend.get_backend`): annotated
pseudo-CUDA (``cuda``), its HIP spelling for CDNA (``rocm``) and
vectorized-loop pseudo-C with no shared-memory stage (``cpu-sim``), all
printed by :mod:`repro.codegen.emitter`.  Architectures declare which
backend they compile through (:attr:`repro.sim.arch.GpuArch.backend`).
"""

from repro.codegen.backend import (
    BACKENDS,
    Backend,
    CpuSimBackend,
    CudaBackend,
    RocmBackend,
    get_backend,
)
from repro.codegen.emitter import (
    CPU_SIM_DIALECT,
    CUDA_DIALECT,
    ROCM_DIALECT,
    emit_cpu_source,
    emit_gpu_source,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "CPU_SIM_DIALECT",
    "CUDA_DIALECT",
    "CpuSimBackend",
    "CudaBackend",
    "ROCM_DIALECT",
    "RocmBackend",
    "emit_cpu_source",
    "emit_gpu_source",
    "get_backend",
]
