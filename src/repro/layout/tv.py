"""Thread-value (TV) layouts: the distribution of register tensors over threads.

A register tile of logical shape ``(d0, d1, ...)`` is distributed across the
threads of a thread block; each thread holds a small local array.  The
distribution is a function ``f : (tid, vid) -> coordinate`` mapping a thread
index and a local-array index to a position in the tile (Fig. 1 of the
paper).  Hexcute represents ``f`` with a CuTe layout with two top-level
modes — the *thread mode* and the *value mode* — whose codomain is the
colexicographic linearisation of the tile.

The same representation models the semantics of collective instructions
(``ldmatrix``, ``mma``…): each instruction operand has a TV layout over the
instruction's own tile, and layout synthesis relates operation-level and
instruction-level TV layouts (Section IV-A).

A TV layout answers what synthesis asks of it from its coalesced or flat
form, never by visiting every (thread, value) pair: ``equivalent`` (the
unification check), ``vector_run`` and ``warp_coords``.  Whether a layout
covers its tile or is replicated across threads is asked only by the
tests, which decide it per element (``tests/strategies.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

from repro.layout.algebra import coalesce
from repro.layout.layout import Layout, as_ints, make_layout
from repro.utils.inttuple import (
    IntTuple,
    flatten,
    idx2crd,
    is_tuple,
    prefix_product,
    product,
    unflatten_like,
)

__all__ = ["TVLayout", "rebase_strides", "make_tv_layout"]


def rebase_strides(layout: Layout, old_tile: Sequence[int], new_tile: Sequence[int]) -> Layout:
    """Re-express a layout's strides from one tile's colex space to another's.

    Every stride ``d`` is decomposed into per-dimension steps of the
    ``old_tile`` (column-major) and recomposed with the column-major strides
    of ``new_tile``.  The old tile must fit inside the new tile
    dimension-wise.
    """
    old_tile = as_ints(old_tile, "rebase_strides old tile")
    new_tile = as_ints(new_tile, "rebase_strides new tile")
    if len(old_tile) != len(new_tile):
        raise ValueError(
            f"rebase_strides: tiles {old_tile} and {new_tile} have different ranks"
        )
    for old_dim, new_dim in zip(old_tile, new_tile):
        if old_dim > new_dim:
            raise ValueError(
                f"rebase_strides: old tile {old_tile} does not fit in {new_tile}"
            )
    return _restride(layout, old_tile, flatten(prefix_product(new_tile)))


def _restride(layout: Layout, tile: Sequence[int], dim_strides: Sequence[int]) -> Layout:
    """``layout`` with every stride split colexicographically over ``tile``
    into per-dimension steps and recombined with ``dim_strides``, one stride
    per tile dimension (a stride of 0 drops that dimension's steps)."""

    def convert(stride: int) -> int:
        steps = idx2crd(stride, tile)
        if not is_tuple(steps):
            steps = (steps,)
        return sum(int(s) * int(d) for s, d in zip(steps, dim_strides))

    converted = tuple(convert(d) for d in flatten(layout.stride))
    return Layout(layout.shape, unflatten_like(converted, layout.stride))


@dataclass(frozen=True)
class TVLayout:
    """A thread-value layout over a logical tile.

    Attributes
    ----------
    layout:
        A :class:`Layout` with exactly two top-level modes, ``(thread,
        value)``, whose codomain is the colexicographic linearisation of
        ``tile_shape``.
    tile_shape:
        The logical shape of the tile being distributed.
    """

    layout: Layout
    tile_shape: Tuple[int, ...]

    def __post_init__(self):
        if self.layout.rank() != 2:
            raise ValueError(
                f"a TV layout needs (thread, value) modes, got rank {self.layout.rank()}"
            )
        object.__setattr__(self, "tile_shape", as_ints(self.tile_shape, "TV tile shape"))

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    # Computed once per TV layout, like the hash below: the layout is
    # immutable, and synthesis asks for its modes thousands of times.
    # (``cached_property`` stores into the instance dict, which a frozen
    # dataclass allows; equality and hashing read the fields only.)
    @cached_property
    def thread_layout(self) -> Layout:
        return self.layout[0]

    @cached_property
    def value_layout(self) -> Layout:
        return self.layout[1]

    @cached_property
    def num_threads(self) -> int:
        return self.thread_layout.size()

    @cached_property
    def values_per_thread(self) -> int:
        return self.value_layout.size()

    def tile_size(self) -> int:
        return product(self.tile_shape)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def __call__(self, tid: int, vid: int) -> int:
        """Linear (colex) index within the tile held by ``(tid, vid)``."""
        return self.layout((tid, vid))

    def coords(self, tid: int, vid: int) -> Tuple[int, ...]:
        """N-dimensional tile coordinate held by ``(tid, vid)``."""
        crd = idx2crd(self(tid, vid), self.tile_shape)
        if not is_tuple(crd):
            crd = (crd,)
        return tuple(crd)

    @cached_property
    def warp_coords(self) -> Tuple[Tuple[int, ...], ...]:
        """The tile coordinates of value 0 of the first ``min(32, T)``
        threads: one warp's simultaneous accesses, which the shared-memory
        solver scores for every candidate instruction of a copy.

        Equal to ``coords(t, 0)`` for each of those threads: value 0
        contributes nothing, so the index of ``(t, 0)`` is the thread
        mode's flat form at ``t`` (the sum of each leaf's colexicographic
        digit times its stride), and the index is split colexicographically
        over the tile (digit ``i`` is ``index // prefix_i % extent_i``,
        which is what ``idx2crd`` computes).
        """
        thread = self.thread_layout
        leaves = tuple(zip(thread.flat_shape(), thread.flat_stride()))
        tile = tuple(zip(flatten(prefix_product(self.tile_shape)), self.tile_shape))
        coords = []
        for tid in range(min(32, self.num_threads)):
            index = 0
            rest = tid
            for extent, stride in leaves:
                index += rest % extent * stride
                rest //= extent
            coords.append(tuple(index // prefix % extent for prefix, extent in tile))
        return tuple(coords)

    @cached_property
    def vector_run(self) -> Tuple[int, int]:
        """The per-thread contiguous run: ``(dim, run)``, the tile dimension
        along which consecutive values of a thread advance by one element,
        and the length of that run.  ``run == 1`` means the values are not
        contiguous along any dimension (only scalar accesses are possible
        without a collective instruction).

        Read off the first mode ``s0:d0`` of the coalesced value layout:
        thread 0 holds ``v·d0`` for ``v < s0``, which steps one element
        along the tile dimension of extent > 1 whose colex stride is
        ``d0`` until the mode or that dimension runs out.  Exact whenever
        the image lies inside the tile: the next value, at the second
        mode's stride ``d1 != s0·d0``, is then a different tile element
        than a further unit step would reach.
        """
        if self.values_per_thread == 1:
            return 0, 1
        first = coalesce(self.value_layout)
        run, stride = first.flat_shape()[0], first.flat_stride()[0]
        dim_strides = flatten(prefix_product(self.tile_shape))
        for dim, (extent, dim_stride) in enumerate(zip(self.tile_shape, dim_strides)):
            if extent > 1 and dim_stride == stride:
                return dim, min(run, extent)
        return 0, 1

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def equivalent(self, other: "TVLayout") -> bool:
        """Function-level equality over the common (thread, value) domain.

        With equal thread and value counts both layouts are functions of
        the same flat index ``t + T·v``, and their coalesced forms decide
        equality exactly: ``coalesce`` drops extent-1 modes and merges
        ``(s0:d0, s1:d1)`` whenever ``d1 == s0·d0``, so whatever survives is
        fixed by the function alone (``s0`` is the first ``i`` with
        ``f(i) != i·f(1)``, and the same holds mode by mode).
        """
        if self.tile_shape != other.tile_shape:
            return False
        if self.num_threads != other.num_threads:
            return False
        if self.values_per_thread != other.values_per_thread:
            return False
        return coalesce(self.layout) == coalesce(other.layout)

    def with_threads(self, num_threads: int) -> "TVLayout":
        """Broadcast this layout to a larger thread count by appending a
        replicated (stride-0) thread mode."""
        if num_threads % self.num_threads != 0:
            raise ValueError(
                f"{num_threads} threads is not a multiple of {self.num_threads}"
            )
        replicas = num_threads // self.num_threads
        if replicas == 1:
            return self
        thread = make_layout(self.thread_layout, Layout(replicas, 0))
        return TVLayout(make_layout(thread, self.value_layout), self.tile_shape)

    def __hash__(self) -> int:
        # Structural hash with per-instance caching (TV layouts participate
        # in the memoized layout algebra and in instruction hashing, where
        # they are re-hashed for every candidate leaf of the search).  The
        # (layout, tile_shape) pair is the canonical structural key, matching
        # the dataclass-generated __eq__.
        cached = getattr(self, "_cached_hash", None)
        if cached is None:
            cached = hash((self.layout, self.tile_shape))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __repr__(self) -> str:
        return f"TV[{self.layout} over tile {self.tile_shape}]"


def make_tv_layout(
    tile_shape: Sequence[int],
    thread_shape: IntTuple,
    thread_stride: IntTuple,
    value_shape: IntTuple,
    value_stride: IntTuple,
) -> TVLayout:
    """Convenience constructor from explicit thread/value shape-stride pairs."""
    layout = Layout((thread_shape, value_shape), (thread_stride, value_stride))
    return TVLayout(layout, tile_shape)
