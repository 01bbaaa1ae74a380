"""Source emission for compiled tile programs, for every backend.

Hexcute lowers tile programs through Hidet IR to CUDA; in this reproduction
the lowering target is interpretable pseudo-source that records every
decision the compiler made — the synthesized thread-value and shared-memory
layouts, the swizzles, the selected instructions and the loop trip counts —
so a reader (or a test) can check the program structure against the
synthesized plan.  :mod:`repro.sim.executor` runs the functional semantics.

Synthesis is target-agnostic and emission only prints its decisions, so
one walk (:func:`_walk`: declarations, then the trip-count loop nest)
serves every backend and a target's own spellings are data.  cuda and rocm
share :func:`emit_gpu_source`, each with a :class:`GpuDialect` record (the
rocm *layouts* differ too: the smem solver scored swizzles against the
wider LDS banking).  cpu-sim (:func:`emit_cpu_source`) has no thread
blocks, no shared-memory stage and no banks: one function whose grid loop
walks the tile blocks, copies and compute lowered to ``#pragma omp simd``
loops at the chosen vector width, shared tensors as stack scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Sequence, Tuple

from repro.ir.graph import KernelProgram
from repro.ir.ops import (
    AllocRegister,
    AllocShared,
    Cast,
    Copy,
    Elementwise,
    Fill,
    Gemm,
    GlobalView,
    Operation,
    Rearrange,
    Reduce,
)
from repro.ir.printer import format_operation
from repro.sim.arch import GpuArch

__all__ = [
    "CPU_SIM_DIALECT",
    "CUDA_DIALECT",
    "Dialect",
    "GpuDialect",
    "ROCM_DIALECT",
    "emit_cpu_source",
    "emit_gpu_source",
]


@dataclass(frozen=True)
class Dialect:
    """What every target spells its own way: header, includes, C types."""

    language: str  # named when a dtype has no mapping
    target_note: str  # appended to the "generated ... for <arch>" line
    includes: Tuple[str, ...]
    ctypes: Mapping[str, str]  # IR dtype name -> C spelling
    restrict: str  # pointer qualifier of the kernel parameters

    def ctype(self, dtype) -> str:
        try:
            return self.ctypes[dtype.name]
        except KeyError:
            raise KeyError(
                f"no {self.language} type mapping for dtype {dtype.name!r} "
                f"(known: {sorted(self.ctypes)})"
            ) from None

    def header(self, program: KernelProgram, arch: GpuArch) -> List[str]:
        return [
            f"// generated by the Hexcute reproduction compiler for {arch.name}"
            f"{self.target_note}",
            f"// kernel: {program.name}",
            *(f"#include <{name}>" for name in self.includes),
            "",
        ]

    def params(self, program: KernelProgram) -> str:
        return ", ".join(
            f"{self.ctype(t.dtype)}* {self.restrict} {t.buffer_name or t.name}"
            for t in program.global_tensors()
        )


@dataclass(frozen=True)
class GpuDialect(Dialect):
    """A GPU target's spelling of the same thread-block program."""

    lane_setup: Tuple[str, ...]  # preamble lines after ``tid``
    group: str  # the SIMT unit: "warp" or "wave"
    shared_layout: str  # label of a shared tensor's layout comment
    scratch: str  # the memory a rearrange stages through
    copy_ns: str  # namespace prefix of copy instructions
    mma_ns: str  # namespace prefix of matrix instructions
    default_mma: str  # printed when a Gemm has no selected instruction


_CUDA_CTYPES = {
    "float64": "double",
    "float32": "float",
    "float16": "__half",
    "bfloat16": "__nv_bfloat16",
    "float8_e4m3": "__nv_fp8_e4m3",
    "float8_e5m2": "__nv_fp8_e5m2",
    "int32": "int",
    "uint32": "unsigned int",
    "int16": "short",
    "int8": "int8_t",
    "uint8": "uint8_t",
    "int4": "int4b_t",
    "uint4": "uint4b_t",
    "int2": "int2b_t",
    "uint2": "uint2b_t",
    "int1": "int1b_t",
    "uint1": "uint1b_t",
}

CUDA_DIALECT = GpuDialect(
    language="CUDA C",
    target_note="",
    includes=("cuda_runtime.h", "mma.h"),
    ctypes=_CUDA_CTYPES,
    restrict="__restrict__",
    lane_setup=("const int warp_id = tid / 32;", "const int lane = tid % 32;"),
    group="warp",
    shared_layout="layout",
    scratch="smem",
    copy_ns="",
    mma_ns="",
    default_mma="mma",
)

ROCM_DIALECT = GpuDialect(
    language="HIP C",
    target_note=" (rocm)",
    includes=("hip/hip_runtime.h", "rocwmma/rocwmma.hpp"),
    ctypes={
        **_CUDA_CTYPES,
        "bfloat16": "hip_bfloat16",
        "float8_e4m3": "__hip_fp8_e4m3",
        "float8_e5m2": "__hip_fp8_e5m2",
    },
    restrict="__restrict__",
    lane_setup=("const int wave = tid / 64;  // 64-lane wavefronts", "const int lane = tid % 64;"),
    group="wave",
    shared_layout="LDS layout",
    scratch="lds",
    copy_ns="amdgcn::",
    mma_ns="rocwmma::",
    default_mma="mfma",
)

CPU_SIM_DIALECT = Dialect(
    language="C",
    target_note=" (cpu-sim)",
    includes=("stdint.h", "math.h"),
    ctypes={
        "float64": "double",
        "float32": "float",
        "float16": "_Float16",
        "bfloat16": "uint16_t /* bf16 */",
        "float8_e4m3": "uint8_t /* fp8e4m3 */",
        "float8_e5m2": "uint8_t /* fp8e5m2 */",
        "int32": "int32_t",
        "uint32": "uint32_t",
        "int16": "int16_t",
        "int8": "int8_t",
        "uint8": "uint8_t",
        "int4": "uint8_t /* int4 packed */",
        "uint4": "uint8_t /* uint4 packed */",
        "int2": "uint8_t /* int2 packed */",
        "uint2": "uint8_t /* uint2 packed */",
        "int1": "uint8_t /* int1 packed */",
        "uint1": "uint8_t /* uint1 packed */",
    },
    restrict="restrict",
)


def _walk(
    program: KernelProgram,
    declare: Callable[[Operation], str],
    lower: Callable[[Operation], List[str]],
    loop_indent: str,
    loop_notes: Sequence[str] = (),
) -> List[str]:
    """The declarations, a blank line, then every other op in program order.

    Global views print alike on every target; ``declare`` renders a shared
    or register allocation and ``lower`` the lines of any other op.  A run
    of ops with ``trips > 1`` goes inside one ``k_iter`` loop whose body is
    indented by ``loop_indent`` and opened by ``loop_notes``.
    """
    lines: List[str] = []
    for op in program.operations:
        if isinstance(op, GlobalView):
            t = op.tensor
            lines.append(
                f"    // global view {t.name}: layout {t.layout} over "
                f"{'x'.join(map(str, t.shape))} {t.dtype}"
            )
        elif isinstance(op, (AllocShared, AllocRegister)):
            lines.append(f"    {declare(op)}")

    lines.append("")
    loop_open = False
    for op in program.operations:
        if isinstance(op, (GlobalView, AllocRegister, AllocShared)):
            continue
        if op.trips > 1 and not loop_open:
            lines.append(f"    for (int k_iter = 0; k_iter < {op.trips}; ++k_iter) {{")
            lines.extend(loop_indent + note for note in loop_notes)
            loop_open = True
        if op.trips == 1 and loop_open:
            lines.append("    }")
            loop_open = False
        indent = loop_indent if loop_open else "    "
        lines.append(f"{indent}// {format_operation(op)}")
        lines.extend(indent + line for line in lower(op))
    if loop_open:
        lines.append("    }")
    return lines


# --------------------------------------------------------------------------- #
# GPU targets (cuda, rocm)
# --------------------------------------------------------------------------- #
def emit_gpu_source(
    program: KernelProgram, candidate, arch: GpuArch, dialect: GpuDialect
) -> str:
    """Emit annotated pseudo-CUDA (or its HIP spelling) for a compiled program."""
    lines = dialect.header(program, arch)
    lines.append(
        f"__global__ void __launch_bounds__({program.num_threads}) "
        f"{program.name}({dialect.params(program)}) {{"
    )
    lines.append("    const int tid = threadIdx.x;")
    lines.extend(f"    {line}" for line in dialect.lane_setup)
    if program.warp_specialized:
        g = dialect.group
        lines.append(f"    // {g}-specialized: producer {g} group feeds consumer {g} group")
    lines.append("")
    notes = []
    if program.num_stages > 1:
        notes.append(f"// software pipelined: {program.num_stages} stages in flight")
    lines += _walk(
        program,
        lambda op: _declare_gpu(op, dialect),
        lambda op: [_lower_gpu(op, candidate, dialect)],
        "        ",
        notes,
    )
    lines.append("}")
    return "\n".join(lines)


def _declare_gpu(op, dialect: GpuDialect) -> str:
    t = op.tensor
    ctype = dialect.ctype(t.dtype)
    if isinstance(op, AllocShared):
        note = ""
        if t.layout is not None:
            note = f"  // {dialect.shared_layout} {t.layout}"
            if t.swizzled_layout is not None:
                note += f", swizzle {t.swizzled_layout.swizzle}"
        return f"__shared__ {ctype} {t.name}[{t.numel()}];{note}"
    if t.tv_layout is None:
        return f"{ctype} {t.name}[{t.numel()}];"
    return (
        f"{ctype} {t.name}[{t.tv_layout.values_per_thread}];"
        f"  // tv layout {t.tv_layout.layout}"
    )


def _lower_gpu(op, candidate, dialect: GpuDialect) -> str:
    if isinstance(op, Copy):
        instr = candidate.assignment.get(op.op_id) if candidate is not None else None
        name = instr.name if instr is not None else "ld/st"
        width = f"{instr.vector_bytes}B" if instr is not None else "?"
        return f"{dialect.copy_ns}{name}<{width}>({op.dst.name}, {op.src.name});"
    if isinstance(op, Gemm):
        instr = op.selected_instruction
        name = instr.name if instr is not None else dialect.default_mma
        return f"{dialect.mma_ns}{name}({op.c.name}, {op.a.name}, {op.b.name}, {op.c.name});"
    if isinstance(op, Cast):
        return f"convert<{dialect.ctype(op.dst.dtype)}>({op.dst.name}, {op.src.name});"
    if isinstance(op, Rearrange):
        return f"rearrange_via_{dialect.scratch}({op.dst.name}, {op.src.name}); __syncthreads();"
    if isinstance(op, Elementwise):
        args = ", ".join(t.name for t in op.inputs)
        return f"elementwise_{op.fn_name}({op.output.name}, {args});"
    if isinstance(op, Reduce):
        return (
            f"{dialect.group}_reduce_{op.kind}({op.dst.name}, {op.src.name}, "
            f"/*dim=*/{op.dim});"
        )
    if isinstance(op, Fill):
        return f"fill({op.dst.name}, {op.value});"
    return "// (no-op)"


# --------------------------------------------------------------------------- #
# cpu-sim
# --------------------------------------------------------------------------- #
def emit_cpu_source(program: KernelProgram, candidate, arch: GpuArch) -> str:
    """Emit vectorized-loop pseudo-C for a compiled tile program."""
    dialect = CPU_SIM_DIALECT
    lines = dialect.header(program, arch)
    lines.append(f"void {program.name}({dialect.params(program)}) {{")
    lines.append(f"  for (int64_t block = 0; block < {program.grid_blocks}; ++block) {{")
    lines += _walk(program, _declare_cpu, lambda op: _lower_cpu(op, candidate), "      ")
    lines += ["  }", "}"]
    return "\n".join(lines)


def _declare_cpu(op) -> str:
    t = op.tensor
    if isinstance(op, AllocShared):
        note = "scratch tile (no shared-memory stage on cpu-sim)"
    else:
        note = "vector tile"
    return f"{CPU_SIM_DIALECT.ctype(t.dtype)} {t.name}[{t.numel()}];  // {note}"


def _lower_cpu(op, candidate) -> List[str]:
    if isinstance(op, Copy):
        instr = candidate.assignment.get(op.op_id) if candidate is not None else None
        lanes = max(1, instr.vector_bytes // max(1, op.dst.dtype.bits // 8)) if instr else 1
        note = f"  // {instr.name}: {instr.vector_bytes}B vectors" if instr else ""
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.dst.numel()}; i += {lanes}) "
            f"vstore_{lanes}({op.dst.name} + i, vload_{lanes}({op.src.name} + i));{note}",
        ]
    if isinstance(op, Gemm):
        return [
            f"for (int m = 0; m < {op.c.shape[0]}; ++m)",
            f"  for (int n = 0; n < {op.c.shape[1]}; ++n)",
            "#pragma omp simd reduction(+:acc)",
            f"    for (int k = 0; k < {op.a.shape[1]}; ++k) "
            f"{op.c.name}[m * {op.c.shape[1]} + n] += "
            f"{op.a.name}[m * {op.a.shape[1]} + k] * {op.b.name}[n * {op.b.shape[1]} + k];",
        ]
    if isinstance(op, Cast):
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.dst.numel()}; ++i) "
            f"{op.dst.name}[i] = ({CPU_SIM_DIALECT.ctype(op.dst.dtype)}){op.src.name}[i];",
        ]
    if isinstance(op, Rearrange):
        return [f"rearrange_scratch({op.dst.name}, {op.src.name});"]
    if isinstance(op, Elementwise):
        args = ", ".join(f"{t.name}[i]" for t in op.inputs)
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.output.numel()}; ++i) "
            f"{op.output.name}[i] = {op.fn_name}({args});",
        ]
    if isinstance(op, Reduce):
        return [
            f"for (int i = 0; i < {op.src.numel()}; ++i) "
            f"reduce_{op.kind}(&{op.dst.name}[0], {op.src.name}[i], /*dim=*/{op.dim});",
        ]
    if isinstance(op, Fill):
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.dst.numel()}; ++i) {op.dst.name}[i] = {op.value};",
        ]
    return ["/* no-op */"]
