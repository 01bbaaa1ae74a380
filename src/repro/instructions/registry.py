"""Per-architecture instruction sets and microbenchmark latency tables.

The issue/completion cycle numbers are modelled after published GPU
microbenchmarking studies (Wong et al., ISPASS 2010, and successors for
Ampere/Hopper): global-memory accesses complete in roughly 400-500 cycles,
shared-memory accesses in roughly 25-30 cycles, and Tensor Core MMAs in the
low tens of cycles.  The *absolute* values only set the scale of the
simulated timings; what the reproduction depends on is their *relative*
ordering (global >> shared >> register, wider accesses amortize issue cost),
which is what drives Hexcute's instruction selection and the paper's
reported speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.instructions import atoms
from repro.instructions.instruction import MemoryInstruction, MmaInstruction
from repro.ir.tensor import Scope
from repro.ir.types import (
    DataType,
    bfloat16,
    float8_e4m3,
    float8_e5m2,
    float16,
    float32,
    int8,
)

__all__ = ["InstructionSet", "instruction_set", "GLOBAL_LATENCY", "SHARED_LATENCY"]

GLOBAL_LATENCY = 420.0
SHARED_LATENCY = 28.0
_G = Scope.GLOBAL
_S = Scope.SHARED
_R = Scope.REGISTER


def _memory_instructions() -> List[MemoryInstruction]:
    """The data-movement instruction menu (widest first within a direction)."""
    instrs: List[MemoryInstruction] = []

    def add(name, src, dst, vec, issue, completion, **kwargs):
        instrs.append(
            MemoryInstruction(
                name=name,
                src_scope=src,
                dst_scope=dst,
                vector_bytes=vec,
                issue_cycles=issue,
                completion_cycles=completion,
                **kwargs,
            )
        )

    # Global -> register loads (LDG)
    add("ld.global.v4.b32", _G, _R, 16, 4.0, GLOBAL_LATENCY)
    add("ld.global.v2.b32", _G, _R, 8, 4.0, GLOBAL_LATENCY)
    add("ld.global.b32", _G, _R, 4, 4.0, GLOBAL_LATENCY)
    add("ld.global.b16", _G, _R, 2, 4.0, GLOBAL_LATENCY)
    add("ld.global.b8", _G, _R, 1, 4.0, GLOBAL_LATENCY)
    # Register -> global stores (STG)
    add("st.global.v4.b32", _R, _G, 16, 4.0, GLOBAL_LATENCY)
    add("st.global.v2.b32", _R, _G, 8, 4.0, GLOBAL_LATENCY)
    add("st.global.b32", _R, _G, 4, 4.0, GLOBAL_LATENCY)
    add("st.global.b16", _R, _G, 2, 4.0, GLOBAL_LATENCY)
    add("st.global.b8", _R, _G, 1, 4.0, GLOBAL_LATENCY)
    # Global -> shared asynchronous copies (cp.async, Ampere+)
    add("cp.async.cg.16", _G, _S, 16, 2.0, GLOBAL_LATENCY, asynchronous=True)
    add("cp.async.ca.8", _G, _S, 8, 2.0, GLOBAL_LATENCY, asynchronous=True)
    add("cp.async.ca.4", _G, _S, 4, 2.0, GLOBAL_LATENCY, asynchronous=True)
    # TMA bulk tensor copies (Hopper only, single issuing thread)
    add(
        "cp.async.bulk.tensor",
        _G,
        _S,
        16,
        2.0,
        GLOBAL_LATENCY + 80.0,
        asynchronous=True,
        single_thread=True,
        min_arch=90,
    )
    # Shared -> register loads (LDS / ldmatrix)
    add(
        "ldmatrix.x4",
        _S,
        _R,
        16,
        2.0,
        SHARED_LATENCY,
        collective=True,
        fragment_tv=atoms.LDMATRIX_X4_FRAGMENT,
        fragment_tile=(32, 8),
    )
    add(
        "ldmatrix.x4.trans",
        _S,
        _R,
        16,
        2.0,
        SHARED_LATENCY,
        collective=True,
        transposed=True,
        fragment_tv=atoms.LDMATRIX_X4_FRAGMENT,
        fragment_tile=(32, 8),
    )
    add("ld.shared.v4.b32", _S, _R, 16, 2.0, SHARED_LATENCY)
    add("ld.shared.v2.b32", _S, _R, 8, 2.0, SHARED_LATENCY)
    add("ld.shared.b32", _S, _R, 4, 2.0, SHARED_LATENCY)
    add("ld.shared.b16", _S, _R, 2, 2.0, SHARED_LATENCY)
    add("ld.shared.b8", _S, _R, 1, 2.0, SHARED_LATENCY)
    # Register -> shared stores (STS / stmatrix)
    add(
        "stmatrix.x4",
        _R,
        _S,
        16,
        2.0,
        SHARED_LATENCY,
        collective=True,
        fragment_tv=atoms.STMATRIX_X4_FRAGMENT,
        fragment_tile=(32, 8),
        min_arch=90,
    )
    add("st.shared.v4.b32", _R, _S, 16, 2.0, SHARED_LATENCY)
    add("st.shared.v2.b32", _R, _S, 8, 2.0, SHARED_LATENCY)
    add("st.shared.b32", _R, _S, 4, 2.0, SHARED_LATENCY)
    add("st.shared.b16", _R, _S, 2, 2.0, SHARED_LATENCY)
    add("st.shared.b8", _R, _S, 1, 2.0, SHARED_LATENCY)
    return instrs


def _mma_instructions() -> List[MmaInstruction]:
    instrs: List[MmaInstruction] = []

    def add(name, m, n, k, a_dt, b_dt, c_dt, a_tv, b_tv, c_tv, issue, completion, **kw):
        instrs.append(
            MmaInstruction(
                name=name,
                m=m,
                n=n,
                k=k,
                a_dtype=a_dt,
                b_dtype=b_dt,
                c_dtype=c_dt,
                a_tv=a_tv,
                b_tv=b_tv,
                c_tv=c_tv,
                issue_cycles=issue,
                completion_cycles=completion,
                **kw,
            )
        )

    for in_dtype in (float16, bfloat16):
        add(
            f"mma.m16n8k16.{in_dtype.name}.f32",
            16, 8, 16,
            in_dtype, in_dtype, float32,
            atoms.MMA_M16N8K16_F16_A,
            atoms.MMA_M16N8K16_F16_B,
            atoms.MMA_M16N8K16_C,
            issue=4.0,
            completion=16.0,
        )
        add(
            f"mma.m16n8k8.{in_dtype.name}.f32",
            16, 8, 8,
            in_dtype, in_dtype, float32,
            atoms.MMA_M16N8K8_F16_A,
            atoms.MMA_M16N8K8_F16_B,
            atoms.MMA_M16N8K16_C,
            issue=4.0,
            completion=12.0,
        )
    add(
        "mma.m16n8k16.f16.f16",
        16, 8, 16,
        float16, float16, float16,
        atoms.MMA_M16N8K16_F16_A,
        atoms.MMA_M16N8K16_F16_B,
        atoms.MMA_M16N8K16_C,
        issue=4.0,
        completion=16.0,
    )
    for fp8 in (float8_e4m3, float8_e5m2):
        add(
            f"mma.m16n8k32.{fp8.name}.f32",
            16, 8, 32,
            fp8, fp8, float32,
            atoms.MMA_M16N8K32_8BIT_A,
            atoms.MMA_M16N8K32_8BIT_B,
            atoms.MMA_M16N8K16_C,
            issue=4.0,
            completion=16.0,
            min_arch=89,
        )
    add(
        "mma.m16n8k32.s8.s32",
        16, 8, 32,
        int8, int8, float32,
        atoms.MMA_M16N8K32_8BIT_A,
        atoms.MMA_M16N8K32_8BIT_B,
        atoms.MMA_M16N8K16_C,
        issue=4.0,
        completion=16.0,
    )
    return instrs


@dataclass
class InstructionSet:
    """The instructions available on one SM architecture."""

    arch: int
    memory: List[MemoryInstruction] = field(default_factory=list)
    mma: List[MmaInstruction] = field(default_factory=list)

    def copies(
        self,
        src_scope: Scope,
        dst_scope: Scope,
        max_vector_bytes: Optional[int] = None,
        include_collective: bool = True,
    ) -> List[MemoryInstruction]:
        """Candidate copy instructions for a direction, widest first."""
        result = [
            instr
            for instr in self.memory
            if instr.src_scope is src_scope
            and instr.dst_scope is dst_scope
            and instr.min_arch <= self.arch
            and (include_collective or not instr.collective)
            and (max_vector_bytes is None or instr.vector_bytes <= max_vector_bytes)
        ]
        return sorted(result, key=lambda i: (-i.vector_bytes, i.collective))

    def scalar_copy(self, src_scope: Scope, dst_scope: Scope) -> MemoryInstruction:
        """The narrowest (always-valid fallback) instruction for a direction."""
        candidates = self.copies(src_scope, dst_scope, include_collective=False)
        if not candidates:
            raise KeyError(f"no copy instruction for {src_scope} -> {dst_scope}")
        return candidates[-1]

    def mmas_for(
        self, a_dtype: DataType, b_dtype: DataType, c_dtype: DataType
    ) -> List[MmaInstruction]:
        """Matching Tensor Core instructions, largest K (fastest) first."""
        matches = [
            instr
            for instr in self.mma
            if instr.min_arch <= self.arch and instr.matches(a_dtype, b_dtype, c_dtype)
        ]
        return sorted(matches, key=lambda i: -(i.m * i.n * i.k))

    def fastest_mma(
        self, a_dtype: DataType, b_dtype: DataType, c_dtype: DataType
    ) -> MmaInstruction:
        matches = self.mmas_for(a_dtype, b_dtype, c_dtype)
        if not matches:
            raise KeyError(
                f"no tensor-core instruction for {a_dtype} x {b_dtype} -> {c_dtype} "
                f"on sm_{self.arch}"
            )
        return matches[0]

    def by_name(self, name: str):
        for instr in self.memory + self.mma:
            if instr.name == name:
                return instr
        raise KeyError(f"unknown instruction {name!r}")


_CACHE: Dict[int, InstructionSet] = {}


def instruction_set(arch: int = 80) -> InstructionSet:
    """The instruction set of ``sm_<arch>`` (80 = A100, 90 = H100)."""
    if arch not in _CACHE:
        _CACHE[arch] = InstructionSet(
            arch=arch,
            memory=[i for i in _memory_instructions() if i.min_arch <= arch],
            mma=[i for i in _mma_instructions() if i.min_arch <= arch],
        )
    return _CACHE[arch]
