"""Collective instruction descriptions.

Hexcute models collective instructions — ``ldmatrix``, ``mma``, ``cp.async``,
vectorized ``ld``/``st``, TMA — by the thread-value layouts of their operands
(Section III).  The layout-synthesis passes treat an instruction as a pair
of constraints: the register-side TV layout it produces/consumes and the
alignment/contiguity it demands from the memory side.  The analytical cost
model additionally needs per-instruction issue and completion cycles, which
are supplied by the per-architecture tables in
:mod:`repro.instructions.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.ir.tensor import Scope, direction_tag
from repro.ir.types import DataType
from repro.layout.tv import TVLayout

__all__ = ["MemoryInstruction", "MmaInstruction"]


@dataclass(frozen=True)
class MemoryInstruction:
    """A data-movement instruction.

    Attributes
    ----------
    name:
        PTX-like mnemonic (``ld.global.v4.b32``, ``cp.async.cg.16``,
        ``ldmatrix.x4``, ...).
    src_scope / dst_scope:
        The memory scopes the instruction moves data between.
    vector_bytes:
        Bytes accessed *per thread per invocation* — the "bytes per
        instruction" metric of Tables III and IV.
    issue_cycles / completion_cycles:
        Cycles to issue one invocation from a warp scheduler and cycles
        until its result is usable (RAW latency).
    alignment_bytes:
        Required address alignment of each per-thread access.
    collective:
        True for warp-collective instructions (``ldmatrix``/``stmatrix``)
        whose 32 threads cooperate on a fixed fragment.
    asynchronous:
        True for ``cp.async``/TMA-style copies that bypass registers and can
        be overlapped via software pipelining.
    single_thread:
        True for TMA: one thread issues the whole tile copy, so thread-value
        layout constraints do not apply (Section V).
    transposed:
        True for ``ldmatrix.trans``-style instructions whose shared-memory
        rows run along the *other* tile dimension than the register
        fragment's contiguous values.
    fragment_tv:
        For collective instructions, the register-fragment TV layout over
        ``fragment_tile`` (e.g. the four 8x8 matrices of ``ldmatrix.x4``).
    min_arch:
        Minimum SM architecture (80 = Ampere, 90 = Hopper).
    """

    name: str
    src_scope: Scope
    dst_scope: Scope
    vector_bytes: int
    issue_cycles: float
    completion_cycles: float
    alignment_bytes: int = 0
    collective: bool = False
    asynchronous: bool = False
    single_thread: bool = False
    transposed: bool = False
    fragment_tv: Optional[TVLayout] = None
    fragment_tile: Optional[Tuple[int, int]] = None
    min_arch: int = 80

    def __post_init__(self):
        if self.vector_bytes <= 0:
            raise ValueError(f"{self.name}: vector_bytes must be positive")
        if self.alignment_bytes == 0:
            object.__setattr__(self, "alignment_bytes", self.vector_bytes)
        # Structural hash, computed once: instructions key the search's
        # leaf, subproblem and access memos, which hash tuples of them for
        # every candidate leaf.  The value is the one the dataclass would
        # generate (the hash of the field tuple), matching its __eq__.
        object.__setattr__(
            self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self)))
        )
        # The direction tag (``G2S``, ...), stored once: a cache replay reads
        # it for every menu entry of every copy.  Like the hash it is not a
        # field, so equality, the hash and every cache key stay the same.
        object.__setattr__(self, "direction", direction_tag(self.src_scope, self.dst_scope))

    def __hash__(self) -> int:
        return self._hash

    def elements_per_thread(self, dtype: DataType) -> int:
        """How many elements of ``dtype`` one thread moves per invocation."""
        elems = int(self.vector_bytes * 8 // dtype.bits)
        return max(1, elems)

    def __repr__(self) -> str:
        return f"{self.name}[{self.direction}, {self.vector_bytes}B/thread]"


@dataclass(frozen=True)
class MmaInstruction:
    """A Tensor Core matrix-multiply-accumulate instruction.

    The operand thread-value layouts (``a_tv``, ``b_tv``, ``c_tv``) describe
    how a 32-thread warp holds the (M, K), (N, K) and (M, N) fragments, and
    are the anchors from which Algorithm 1 propagates register layouts.
    """

    name: str
    m: int
    n: int
    k: int
    a_dtype: DataType
    b_dtype: DataType
    c_dtype: DataType
    a_tv: TVLayout
    b_tv: TVLayout
    c_tv: TVLayout
    issue_cycles: float
    completion_cycles: float
    min_arch: int = 80
    throughput_per_sm: float = 1.0

    def __post_init__(self):
        if self.a_tv.tile_shape != (self.m, self.k):
            raise ValueError(f"{self.name}: A fragment tile must be ({self.m},{self.k})")
        if self.b_tv.tile_shape != (self.n, self.k):
            raise ValueError(f"{self.name}: B fragment tile must be ({self.n},{self.k})")
        if self.c_tv.tile_shape != (self.m, self.n):
            raise ValueError(f"{self.name}: C fragment tile must be ({self.m},{self.n})")

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.m, self.n, self.k

    def flops(self) -> int:
        return 2 * self.m * self.n * self.k

    def matches(self, a_dtype: DataType, b_dtype: DataType, c_dtype: DataType) -> bool:
        return (
            self.a_dtype.name == a_dtype.name
            and self.b_dtype.name == b_dtype.name
            and self.c_dtype.name == c_dtype.name
        )

    def __repr__(self) -> str:
        return (
            f"{self.name}[m{self.m}n{self.n}k{self.k}, "
            f"{self.a_dtype}x{self.b_dtype}->{self.c_dtype}]"
        )
