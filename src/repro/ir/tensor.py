"""Tile tensors: the values flowing through a Hexcute kernel.

A tile tensor lives in one of three scopes (Fig. 1 of the paper):

* ``GLOBAL`` — a view of a global-memory buffer; its layout is supplied by
  the user via ``global_view`` (Hexcute never synthesizes global layouts,
  they are dictated by the framework calling the kernel).
* ``SHARED`` — a statically-shaped tensor in shared memory; its layout is
  synthesized by the shared-memory layout solver (Section V).
* ``REGISTER`` — a tensor distributed across the threads of the block; its
  thread-value layout is synthesized by Algorithm 1 (Section IV).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.ir.types import DataType
from repro.layout.layout import Layout, as_ints
from repro.layout.swizzle import ComposedLayout
from repro.layout.tv import TVLayout
from repro.utils.inttuple import product

__all__ = ["Scope", "TileTensor", "direction_tag"]

_tensor_counter = itertools.count()


class Scope(enum.Enum):
    """Memory scope of a tile tensor."""

    GLOBAL = "global"
    SHARED = "shared"
    REGISTER = "register"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SCOPE_LETTERS = {Scope.GLOBAL: "G", Scope.SHARED: "S", Scope.REGISTER: "R"}


def direction_tag(src: Scope, dst: Scope) -> str:
    """The short tag of a move from ``src`` to ``dst``, such as ``G2S``
    (global to shared), used in Tables III/IV: the one spelling copies and
    memory instructions share."""
    return f"{_SCOPE_LETTERS[src]}2{_SCOPE_LETTERS[dst]}"


@dataclass
class TileTensor:
    """A statically-shaped tensor operated on by tile-level primitives.

    Layout fields start as ``None`` for shared/register tensors and are
    filled in by the synthesis passes; accessing them before synthesis is a
    programming error surfaced by :meth:`require_layout` /
    :meth:`require_tv_layout`.
    """

    name: str
    dtype: DataType
    scope: Scope
    shape: Tuple[int, ...]
    layout: Optional[Layout] = None
    swizzled_layout: Optional[ComposedLayout] = None
    tv_layout: Optional[TVLayout] = None
    tv_annotation: Optional[TVLayout] = None
    buffer_name: Optional[str] = None
    tensor_id: int = field(default_factory=lambda: next(_tensor_counter))

    def __post_init__(self):
        self.shape = as_ints(self.shape, f"tensor {self.name!r} shape")
        if any(extent <= 0 for extent in self.shape):
            raise ValueError(f"tensor {self.name} has a non-positive extent: {self.shape}")
        if self.scope is Scope.GLOBAL and self.layout is None:
            raise ValueError(f"global tensor {self.name} requires an explicit layout")
        if self.scope is Scope.REGISTER and self.layout is not None:
            raise ValueError(f"register tensor {self.name} takes a TV layout, not a memory layout")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return len(self.shape)

    def numel(self) -> int:
        return product(self.shape)

    def bits(self) -> int:
        return self.numel() * self.dtype.bits

    def nbytes(self) -> float:
        return self.bits() / 8

    @property
    def is_global(self) -> bool:
        return self.scope is Scope.GLOBAL

    @property
    def is_shared(self) -> bool:
        return self.scope is Scope.SHARED

    @property
    def is_register(self) -> bool:
        return self.scope is Scope.REGISTER

    @property
    def in_memory(self) -> bool:
        """Whether the tensor lives in an addressable memory (not registers)."""
        return self.scope is not Scope.REGISTER

    def require_layout(self) -> Layout:
        if self.layout is None:
            raise RuntimeError(
                f"{self.scope.value} tensor {self.name!r} has no memory layout yet "
                f"(run shared-memory layout synthesis first)"
            )
        return self.layout

    def require_tv_layout(self) -> TVLayout:
        if self.tv_layout is None:
            raise RuntimeError(
                f"register tensor {self.name!r} has no thread-value layout yet "
                f"(run thread-value layout synthesis first)"
            )
        return self.tv_layout

    def effective_layout(self):
        """The layout used for address generation: the swizzled layout when a
        swizzle has been selected, else the base layout."""
        if self.swizzled_layout is not None:
            return self.swizzled_layout
        return self.require_layout()

    def annotate_tv(self, tv: TVLayout) -> "TileTensor":
        """User annotation forcing a particular thread-value layout
        (the paper's consistent-thread-arrangement annotation for multi-gemm
        kernels)."""
        if tv.tile_shape != self.shape:
            raise ValueError(
                f"annotation tile {tv.tile_shape} does not match tensor shape {self.shape}"
            )
        self.tv_annotation = tv
        return self

    def short_desc(self) -> str:
        return f"{self.name}<{self.dtype}, {self.scope.value}, {'x'.join(map(str, self.shape))}>"

    def __repr__(self) -> str:
        parts = [self.short_desc()]
        if self.layout is not None:
            parts.append(f"layout={self.layout}")
        if self.tv_layout is not None:
            parts.append(f"tv={self.tv_layout.layout}")
        return "Tensor(" + ", ".join(parts) + ")"

    def __hash__(self) -> int:
        return hash(self.tensor_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TileTensor):
            return NotImplemented
        return self.tensor_id == other.tensor_id
