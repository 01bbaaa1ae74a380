"""Pretty-printer for tile programs.

Produces a textual, Hexcute-script-like rendering of a :class:`KernelProgram`
— useful in tests, error messages, and the generated-code header emitted by
:mod:`repro.codegen`.
"""

from __future__ import annotations

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

__all__ = ["print_program", "format_operation"]


def format_operation(op: Operation) -> str:
    """One source-like line for a tile operation."""
    if isinstance(op, GlobalView):
        t = op.tensor
        return f"{t.name} = global_view({t.buffer_name or t.name}_ptr, {t.layout})"
    if isinstance(op, AllocRegister):
        t = op.tensor
        return f"{t.name} = register_tensor({t.dtype}, {t.shape})"
    if isinstance(op, AllocShared):
        t = op.tensor
        return f"{t.name} = shared_tensor({t.dtype}, {t.shape})"
    if isinstance(op, Copy):
        return f"copy({op.src.name}, {op.dst.name})  # {op.direction}"
    if isinstance(op, Gemm):
        return f"gemm({op.c.name}, {op.a.name}, {op.b.name})"
    if isinstance(op, Cast):
        return f"{op.dst.name} = cast({op.src.name}, {op.dst.dtype})"
    if isinstance(op, Rearrange):
        return f"{op.dst.name} = rearrange({op.src.name}, auto)"
    if isinstance(op, Elementwise):
        args = ", ".join(t.name for t in op.inputs)
        return f"{op.output.name} = {op.fn_name}({args})"
    if isinstance(op, Reduce):
        return f"{op.dst.name} = reduce_{op.kind}({op.src.name}, dim={op.dim})"
    if isinstance(op, Fill):
        return f"fill({op.dst.name}, {op.value})"
    return op.describe()


def print_program(program: KernelProgram) -> str:
    """Render a whole program, annotated with its synthesized layouts."""
    lines = [f"# kernel {program.name}"]
    lines.append(
        f"# threads={program.num_threads} blocks={program.grid_blocks} "
        f"stages={program.num_stages} warp_specialized={program.warp_specialized}"
    )
    for op in program.operations:
        prefix = "    " if op.trips > 1 else ""
        loop_note = f"  # x{op.trips} trips" if op.trips > 1 else ""
        lines.append(f"{prefix}{format_operation(op)}{loop_note}")
        if op.selected_instruction is not None:
            lines.append(f"{prefix}    # instruction: {op.selected_instruction.name}")
    lines.append("# synthesized layouts:")
    for tensor in program.tensors():
        if tensor.is_register and tensor.tv_layout is not None:
            lines.append(f"#   {tensor.name}: tv = {tensor.tv_layout.layout}")
        elif tensor.is_shared and tensor.layout is not None:
            swizzle = (
                f" swizzle={tensor.swizzled_layout.swizzle}"
                if tensor.swizzled_layout is not None
                else ""
            )
            lines.append(f"#   {tensor.name}: smem = {tensor.layout}{swizzle}")
    return "\n".join(lines)
