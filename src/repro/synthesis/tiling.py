"""Construction of block-level thread-value layouts from instruction atoms.

Algorithm 1 *initializes* thread-value layouts at anchor operations:

* at a ``gemm`` anchor, the chosen Tensor Core instruction's operand atoms
  are tiled over the block-level (BM, BN, BK) tile across the block's warps
  (lines 8-11 of Algorithm 1);
* at a ``copy`` anchor, the layout is built by coalescing memory accesses —
  consecutive threads access consecutive vectors along the most-contiguous
  memory dimension (lines 14-16).

Both constructions are expressed with the layout algebra (rebasing atom
strides into the block tile's coordinate space, composing access orders),
so the resulting layouts are correct by construction.

The anchors recur across the programs of a batch (every equivalent
program, and every program with the same tile and memory order), so each
construction is memoized by value (:mod:`repro.utils.memo`): equal
anchors share one :class:`TVLayout`, and with it the modes, vector run,
warp coordinates and hash the layout computes once.  The public functions
check their integer arguments with :func:`as_ints` before the lookup,
because ``64.0`` and ``True`` hash and compare like ``64`` and ``1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.instructions.instruction import MmaInstruction
from repro.layout.algebra import coalesce, composition
from repro.layout.layout import Layout, as_ints, make_layout
from repro.layout.tv import TVLayout, _restride, rebase_strides
from repro.utils.inttuple import flatten, prefix_product, product
from repro.utils.memo import memoized

__all__ = [
    "TiledMma",
    "make_tiled_mma",
    "coalesced_copy_tv",
    "reduce_tv_layout",
    "pick_warp_grid",
]


@dataclass(frozen=True)
class TiledMma:
    """The block-level TV layouts of a gemm's three operands plus bookkeeping."""

    instruction: MmaInstruction
    block_tile: Tuple[int, int, int]
    warp_grid: Tuple[int, int]
    a_tv: TVLayout
    b_tv: TVLayout
    c_tv: TVLayout

    @property
    def repeats(self) -> Tuple[int, int, int]:
        bm, bn, bk = self.block_tile
        wm, wn = self.warp_grid
        return (
            bm // (wm * self.instruction.m),
            bn // (wn * self.instruction.n),
            bk // self.instruction.k,
        )

    def invocations_per_warp(self) -> int:
        rm, rn, rk = self.repeats
        return rm * rn * rk


def pick_warp_grid(num_warps: int, block_m: int, block_n: int, atom_m: int, atom_n: int) -> Tuple[int, int]:
    """Choose how to arrange ``num_warps`` warps over the M and N dimensions.

    Prefers a split where every warp owns at least one instruction atom in
    each dimension and that keeps the per-warp tile as square as possible
    (better register reuse).
    """
    best: Optional[Tuple[int, int]] = None
    best_score: Optional[float] = None
    for wm in range(1, num_warps + 1):
        if num_warps % wm != 0:
            continue
        wn = num_warps // wm
        if block_m % (wm * atom_m) != 0 or block_n % (wn * atom_n) != 0:
            continue
        per_warp_m = block_m // wm
        per_warp_n = block_n // wn
        score = abs(per_warp_m - per_warp_n) + 0.01 * wm
        if best_score is None or score < best_score:
            best_score = score
            best = (wm, wn)
    if best is None:
        raise ValueError(
            f"cannot tile block ({block_m}, {block_n}) with {num_warps} warps of "
            f"atoms ({atom_m}, {atom_n})"
        )
    return best


def _rebase_atom(atom: TVLayout, new_tile: Sequence[int]) -> Layout:
    """Rebase an instruction atom's layout into a larger tile's colex space."""
    return rebase_strides(atom.layout, atom.tile_shape, new_tile)


def make_tiled_mma(
    instruction: MmaInstruction,
    block_tile: Tuple[int, int, int],
    num_warps: int,
) -> TiledMma:
    """Tile a Tensor Core atom over a block tile, producing the operand TV layouts.

    ``block_tile`` is (BM, BN, BK).  Warps are arranged on the (WM, WN) grid
    that :func:`pick_warp_grid` chooses; each warp owns a contiguous
    (BM/WM, BN/WN) region of C and iterates the atom over it, so A
    fragments are replicated across the WN warps and B fragments across the
    WM warps (stride-0 thread modes).
    """
    block_tile = as_ints(block_tile, "make_tiled_mma block tile")
    (num_warps,) = as_ints((num_warps,), "make_tiled_mma warp count")
    return _tiled_mma(instruction, block_tile, num_warps)


@memoized(maxsize=1024)
def _tiled_mma(
    instruction: MmaInstruction, block_tile: Tuple[int, ...], num_warps: int
) -> TiledMma:
    bm, bn, bk = block_tile
    warp_grid = pick_warp_grid(num_warps, bm, bn, instruction.m, instruction.n)
    wm, wn = warp_grid
    # pick_warp_grid returns only grids that divide bm and bn.
    if bk % instruction.k:
        raise ValueError(
            f"block tile {block_tile} is not divisible by warp grid {warp_grid} x "
            f"atom ({instruction.m}, {instruction.n}, {instruction.k})"
        )
    rep_m = bm // (wm * instruction.m)
    rep_n = bn // (wn * instruction.n)
    rep_k = bk // instruction.k

    # ---- C: (BM, BN) ---------------------------------------------------- #
    c_atom = _rebase_atom(instruction.c_tv, (bm, bn))
    c_thread = make_layout(
        c_atom[0],
        Layout((wm, wn), (instruction.m * rep_m, instruction.n * rep_n * bm)),
    )
    c_value = make_layout(
        c_atom[1],
        Layout((rep_m, rep_n), (instruction.m, instruction.n * bm)),
    )
    c_tv = TVLayout(make_layout(c_thread, c_value), (bm, bn))

    # ---- A: (BM, BK) ---------------------------------------------------- #
    a_atom = _rebase_atom(instruction.a_tv, (bm, bk))
    a_thread = make_layout(
        a_atom[0],
        Layout((wm, wn), (instruction.m * rep_m, 0)),
    )
    a_value = make_layout(
        a_atom[1],
        Layout((rep_m, rep_k), (instruction.m, instruction.k * bm)),
    )
    a_tv = TVLayout(make_layout(a_thread, a_value), (bm, bk))

    # ---- B: (BN, BK) ---------------------------------------------------- #
    b_atom = _rebase_atom(instruction.b_tv, (bn, bk))
    b_thread = make_layout(
        b_atom[0],
        Layout((wm, wn), (0, instruction.n * rep_n)),
    )
    b_value = make_layout(
        b_atom[1],
        Layout((rep_n, rep_k), (instruction.n, instruction.k * bn)),
    )
    b_tv = TVLayout(make_layout(b_thread, b_value), (bn, bk))

    return TiledMma(instruction, (bm, bn, bk), (wm, wn), a_tv, b_tv, c_tv)


def coalesced_copy_tv(
    tile_shape: Sequence[int],
    memory_layout: Layout,
    num_threads: int,
    max_vector_elems: int,
) -> TVLayout:
    """Anchor-copy initialization: a TV layout with coalesced memory accesses.

    The memory layout's dimensions are sorted by stride; the vector width is
    limited by the contiguous extent and ``max_vector_elems``; consecutive
    threads then access consecutive vectors (Algorithm 1, line 15).
    """
    tile_shape = as_ints(tile_shape, "coalesced_copy_tv tile shape")
    num_threads, max_vector_elems = as_ints(
        (num_threads, max_vector_elems), "coalesced_copy_tv thread and vector counts"
    )
    return _coalesced_copy_tv(tile_shape, memory_layout, num_threads, max_vector_elems)


@memoized(maxsize=4096)
def _coalesced_copy_tv(
    tile_shape: Tuple[int, ...],
    memory_layout: Layout,
    num_threads: int,
    max_vector_elems: int,
) -> TVLayout:
    total = product(tile_shape)
    tile_strides = flatten(prefix_product(tile_shape))

    mem_strides = [coalesce(memory_layout[i]).flat_stride()[0] if memory_layout[i].size() > 1 else 0
                   for i in range(len(tile_shape))]
    order = sorted(range(len(tile_shape)), key=lambda i: (mem_strides[i] == 0, mem_strides[i]))
    # Permutation layout: access rank -> tile colex index, most-contiguous
    # memory dimension first.
    perm = Layout(
        tuple(tile_shape[i] for i in order),
        tuple(tile_strides[i] for i in order),
    )

    def build(order_layout: Layout, contiguous_extent: int) -> Optional[TVLayout]:
        vec = 1
        candidate = max(1, max_vector_elems)
        while candidate > 1:
            if contiguous_extent % candidate == 0 and total % candidate == 0:
                vec = candidate
                break
            candidate //= 2
        if total < num_threads * vec:
            return None
        while vec >= 1:
            if total % (num_threads * vec) == 0:
                rest = total // (num_threads * vec)
                access = Layout(
                    (num_threads, (vec, rest)),
                    (vec, (1, vec * num_threads)),
                )
                try:
                    tv_layout = composition(order_layout, access)
                except ValueError:
                    vec //= 2
                    continue
                return TVLayout(make_layout(tv_layout[0], tv_layout[1]), tile_shape)
            vec //= 2
        return None

    if total >= num_threads:
        # First try to coalesce along the memory order; if the tile extents
        # do not factor across the thread count (non-power-of-two tiles),
        # fall back to the tile's own colexicographic order, which always
        # composes but may leave the accesses less coalesced.
        result = build(perm, tile_shape[order[0]])
        if result is None:
            identity = Layout(tuple(tile_shape))
            result = build(identity, tile_shape[0])
        if result is not None:
            return result

    # Small tensor: fewer elements than threads. Each element goes to one
    # thread; the remaining threads replicate (stride-0 mode).
    active = total
    replicas = max(1, num_threads // active)
    mapped = composition(perm, Layout(active, 1))
    thread = make_layout(Layout(mapped.shape, mapped.stride), Layout(replicas, 0))
    value = Layout(1, 0)
    return TVLayout(make_layout(thread, value), tile_shape)


def reduce_tv_layout(tv: TVLayout, dim: int) -> TVLayout:
    """The TV layout of ``reduce(a, dim)``'s output (Fig. 19 d).

    Composes the input layout with the projection that collapses the reduced
    dimension: every stride is re-expressed over the output tile, as
    :func:`~repro.layout.tv.rebase_strides` does, with its step along ``dim``
    weighted 0, and the output tile has extent 1 in that dimension.  Threads
    that held different slices along ``dim`` now hold replicated copies of
    the partial results.
    """
    (dim,) = as_ints((dim,), "reduce_tv_layout dimension")
    return _reduce_tv_layout(tv, dim)


@memoized(maxsize=4096)
def _reduce_tv_layout(tv: TVLayout, dim: int) -> TVLayout:
    out_tile = tuple(1 if i == dim else extent for i, extent in enumerate(tv.tile_shape))
    out_strides = list(flatten(prefix_product(out_tile)))
    out_strides[dim] = 0
    return TVLayout(_restride(tv.layout, tv.tile_shape, out_strides), out_tile)
