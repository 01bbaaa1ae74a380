"""Tile-level operations: the primitives of Table I in the paper.

Each operation node records its input/output tensors.  Operations also carry
a ``trips`` count — how many times the operation executes in the kernel
(e.g. the body of the K-loop of a GEMM) — which the analytical cost model
uses to weight instruction latencies, and a ``stage`` label used by the
software-pipelining / warp-specialization annotations of the frontend.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

from repro.ir.tensor import TileTensor, direction_tag

__all__ = [
    "Operation",
    "GlobalView",
    "AllocRegister",
    "AllocShared",
    "Copy",
    "Gemm",
    "Cast",
    "Rearrange",
    "Elementwise",
    "Reduce",
    "Fill",
]

_op_counter = itertools.count()


class Operation:
    """Base class of all tile-level operations."""

    op_name = "op"

    def __init__(
        self,
        inputs: Sequence[TileTensor],
        outputs: Sequence[TileTensor],
        trips: int = 1,
        stage: str = "main",
    ):
        self.inputs: List[TileTensor] = list(inputs)
        self.outputs: List[TileTensor] = list(outputs)
        if trips < 1:
            raise ValueError(f"operation trip count must be >= 1, got {trips}")
        self.trips = int(trips)
        self.stage = stage
        self.op_id = next(_op_counter)
        # Filled by instruction selection.
        self.selected_instruction = None

    # ------------------------------------------------------------------ #
    def tensors(self) -> List[TileTensor]:
        return self.inputs + self.outputs

    def register_tensors(self) -> List[TileTensor]:
        return [t for t in self.tensors() if t.is_register]

    def moves_bytes(self) -> float:
        """Bytes moved per trip (0 for pure compute ops)."""
        return 0.0

    def describe(self) -> str:
        ins = ", ".join(t.name for t in self.inputs)
        outs = ", ".join(t.name for t in self.outputs)
        suffix = f" x{self.trips}" if self.trips > 1 else ""
        return f"{self.op_name}({ins}) -> ({outs}){suffix}"

    def __repr__(self) -> str:
        return f"<{self.describe()} #{self.op_id}>"


class GlobalView(Operation):
    """``global_view(buffer, layout)`` — view a global buffer as a tile tensor."""

    op_name = "global_view"

    def __init__(self, tensor: TileTensor, **kwargs):
        if not tensor.is_global:
            raise ValueError("global_view produces a global tensor")
        super().__init__([], [tensor], **kwargs)
        self.tensor = tensor


class AllocRegister(Operation):
    """``register_tensor(dtype, shape)`` — allocate a distributed register tile."""

    op_name = "register_tensor"

    def __init__(self, tensor: TileTensor, **kwargs):
        if not tensor.is_register:
            raise ValueError("register_tensor produces a register tensor")
        super().__init__([], [tensor], **kwargs)
        self.tensor = tensor


class AllocShared(Operation):
    """``shared_tensor(dtype, shape)`` — allocate a shared-memory tile."""

    op_name = "shared_tensor"

    def __init__(self, tensor: TileTensor, **kwargs):
        if not tensor.is_shared:
            raise ValueError("shared_tensor produces a shared tensor")
        super().__init__([], [tensor], **kwargs)
        self.tensor = tensor


class Copy(Operation):
    """``copy(src, dst)`` — move a tile between memories / registers."""

    op_name = "copy"

    def __init__(self, src: TileTensor, dst: TileTensor, **kwargs):
        if not self._shapes_compatible(src, dst):
            raise ValueError(
                f"copy shape mismatch: {src.short_desc()} vs {dst.short_desc()}"
            )
        if src.is_register and dst.is_register:
            raise ValueError(
                "register-to-register copies are expressed with rearrange, not copy"
            )
        super().__init__([src], [dst], **kwargs)
        self.src = src
        self.dst = dst
        # Widest access (bytes per thread) instruction selection may pick
        # for this copy; None leaves it unbounded.  Baselines set it to model
        # compilers whose layouts force narrow accesses on specific tensors.
        self.max_vector_bytes: Optional[int] = None

    @staticmethod
    def _shapes_compatible(src: TileTensor, dst: TileTensor) -> bool:
        """Shapes match exactly, or the global side is an *iterator view* —
        one trailing loop dimension beyond the tile (the paper's
        ``global_view`` of shape (BM, BK, k/BK))."""
        if src.shape == dst.shape:
            return True
        if src.is_global and len(src.shape) == len(dst.shape) + 1:
            return src.shape[: len(dst.shape)] == dst.shape
        if dst.is_global and len(dst.shape) == len(src.shape) + 1:
            return dst.shape[: len(src.shape)] == src.shape
        return False

    def tile_shape(self) -> tuple:
        """The per-trip tile shape actually moved by the copy."""
        if len(self.src.shape) <= len(self.dst.shape):
            return self.src.shape
        return self.dst.shape

    def moves_bytes(self) -> float:
        from repro.utils.inttuple import product

        return product(self.tile_shape()) * self.src.dtype.bits / 8

    @property
    def direction(self) -> str:
        """A short tag such as ``G2S`` (global to shared) used in Tables III/IV."""
        return direction_tag(self.src.scope, self.dst.scope)

    def memory_operand(self) -> TileTensor:
        """The side of the copy that lives in addressable memory.

        For a memory-to-memory copy (e.g. global to shared staged through
        registers by ``cp.async``) the shared-memory side is returned, since
        that is the layout the solver must synthesize.
        """
        if self.dst.is_shared:
            return self.dst
        if self.src.is_shared:
            return self.src
        return self.src if self.src.in_memory else self.dst

    def register_operand(self) -> Optional[TileTensor]:
        if self.src.is_register:
            return self.src
        if self.dst.is_register:
            return self.dst
        return None


class Gemm(Operation):
    """``gemm(c, a, b)`` — ``c += a @ b^T`` on tiles.

    ``a`` is (M, K), ``b`` is (N, K), ``c`` is (M, N), matching the
    row-major x column-major convention of the Tensor Core ``mma``
    instructions the paper targets.
    """

    op_name = "gemm"

    def __init__(self, c: TileTensor, a: TileTensor, b: TileTensor, **kwargs):
        if not (a.is_register and b.is_register and c.is_register):
            raise ValueError("gemm operands must be register tensors")
        m, k = a.shape
        n, k2 = b.shape
        if k != k2:
            raise ValueError(f"gemm K mismatch: a has K={k}, b has K={k2}")
        if c.shape != (m, n):
            raise ValueError(f"gemm output shape {c.shape} != ({m}, {n})")
        super().__init__([a, b, c], [c], **kwargs)
        self.a = a
        self.b = b
        self.c = c

    @property
    def mnk(self) -> tuple[int, int, int]:
        return self.a.shape[0], self.b.shape[0], self.a.shape[1]

    def flops(self) -> int:
        m, n, k = self.mnk
        return 2 * m * n * k


class Cast(Operation):
    """``cast(src, dtype)`` — elementwise type conversion in registers."""

    op_name = "cast"

    def __init__(self, src: TileTensor, dst: TileTensor, **kwargs):
        if src.shape != dst.shape:
            raise ValueError("cast cannot change the tile shape")
        if not (src.is_register and dst.is_register):
            raise ValueError("cast operates on register tensors")
        super().__init__([src], [dst], **kwargs)
        self.src = src
        self.dst = dst


class Rearrange(Operation):
    """``rearrange(src, layout)`` — redistribute a register tensor across
    threads (via shared memory), changing its thread-value layout."""

    op_name = "rearrange"

    def __init__(self, src: TileTensor, dst: TileTensor, **kwargs):
        if src.shape != dst.shape:
            raise ValueError("rearrange cannot change the tile shape")
        if not (src.is_register and dst.is_register):
            raise ValueError("rearrange operates on register tensors")
        super().__init__([src], [dst], **kwargs)
        self.src = src
        self.dst = dst
        # Set by TV synthesis on the rearranges it inserts to resolve layout
        # conflicts: the compile cache's fingerprint skips them, and a later
        # synthesis of the same program removes them first.
        self.inserted = False

    def moves_bytes(self) -> float:
        # Round trip through shared memory: write + read.
        return 2 * self.src.nbytes()


def _broadcast_compatible(shape: tuple, out_shape: tuple) -> bool:
    """Numpy-style broadcast compatibility (same rank, extents equal or 1)."""
    if len(shape) != len(out_shape):
        return False
    return all(a == b or a == 1 for a, b in zip(shape, out_shape))


class Elementwise(Operation):
    """``elementwise(a1, ..., an)`` — apply a scalar function element-wise.

    Operands whose extent is 1 along a dimension broadcast along it (used by
    the attention softmax to subtract per-row maxima, for example).
    """

    op_name = "elementwise"

    def __init__(
        self,
        inputs: Sequence[TileTensor],
        output: TileTensor,
        fn: Callable,
        fn_name: str = "fn",
        **kwargs,
    ):
        if not inputs:
            raise ValueError("elementwise needs at least one input")
        for tensor in inputs:
            if not _broadcast_compatible(tensor.shape, output.shape):
                raise ValueError(
                    f"elementwise operand {tensor.short_desc()} is not broadcast-"
                    f"compatible with output shape {output.shape}"
                )
            if not tensor.is_register:
                raise ValueError("elementwise operands must be register tensors")
        super().__init__(list(inputs), [output], **kwargs)
        self.fn = fn
        self.fn_name = fn_name
        self.output = output


class Reduce(Operation):
    """``reduce(a, dim)`` — reduce a register tensor along one dimension."""

    op_name = "reduce"

    def __init__(self, src: TileTensor, dst: TileTensor, dim: int, kind: str = "sum", **kwargs):
        if not (src.is_register and dst.is_register):
            raise ValueError("reduce operates on register tensors")
        if not 0 <= dim < src.rank:
            raise ValueError(f"reduce dim {dim} out of range for rank {src.rank}")
        expected = tuple(1 if i == dim else extent for i, extent in enumerate(src.shape))
        if dst.shape != expected:
            raise ValueError(
                f"reduce output shape {dst.shape} must be {expected} (keepdim semantics)"
            )
        if kind not in ("sum", "max", "min"):
            raise ValueError(f"unsupported reduction kind {kind!r}")
        super().__init__([src], [dst], **kwargs)
        self.src = src
        self.dst = dst
        self.dim = dim
        self.kind = kind


class Fill(Operation):
    """Initialize a register tensor with a constant (e.g. zero accumulators)."""

    op_name = "fill"

    def __init__(self, dst: TileTensor, value: float = 0.0, **kwargs):
        if not dst.is_register:
            raise ValueError("fill operates on register tensors")
        super().__init__([], [dst], **kwargs)
        self.dst = dst
        self.value = value
