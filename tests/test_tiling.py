"""Tests for block-level TV layout construction (gemm and copy anchors)."""

import pytest

from repro.instructions import instruction_set
from repro.ir import types
from repro.layout import Layout
from repro.synthesis import (
    check_gemm_constraint,
    coalesced_copy_tv,
    make_tiled_mma,
    pick_warp_grid,
    reduce_tv_layout,
)

from repro.synthesis.smem_solver import _strided_warp_coords
from repro.utils.memo import clear_caches

from strategies import covers_tile_oracle, is_replicated_oracle


def fp16_mma():
    return instruction_set(80).fastest_mma(types.float16, types.float16, types.float32)


def test_tiled_mma_covers_all_operands():
    tiled = make_tiled_mma(fp16_mma(), (64, 64, 32), num_warps=4)
    assert covers_tile_oracle(tiled.c_tv)
    assert tiled.a_tv.num_threads == 128
    # A and B are replicated across the warp dimension they do not own.
    assert is_replicated_oracle(tiled.a_tv) or tiled.warp_grid[1] == 1
    assert is_replicated_oracle(tiled.b_tv) or tiled.warp_grid[0] == 1


def test_tiled_mma_satisfies_gemm_constraints():
    instruction = fp16_mma()
    tiled = make_tiled_mma(instruction, (64, 64, 32), num_warps=4)
    assert check_gemm_constraint(tiled.a_tv, tiled.b_tv, tiled.c_tv, instruction)


def test_tiled_mma_invocation_count():
    tiled = make_tiled_mma(fp16_mma(), (128, 128, 32), num_warps=4)
    # (128*128*32) / (16*8*16) atoms split across 4 warps.
    assert tiled.invocations_per_warp() * 4 == (128 * 128 * 32) // (16 * 8 * 16)


def test_tiled_mma_rejects_indivisible_tiles():
    # M or N: no warp grid divides the tile, so pick_warp_grid refuses it.
    message = r"^cannot tile block \(60, 64\) with 4 warps of atoms \(16, 8\)$"
    with pytest.raises(ValueError, match=message):
        make_tiled_mma(fp16_mma(), (60, 64, 32), num_warps=4)
    # K: the warp grid is fine, the atom's K does not divide the tile's.
    message = (
        r"^block tile \(64, 64, 24\) is not divisible by warp grid \(2, 2\) x "
        r"atom \(16, 8, 16\)$"
    )
    with pytest.raises(ValueError, match=message):
        make_tiled_mma(fp16_mma(), (64, 64, 24), num_warps=4)


def test_pick_warp_grid_prefers_square_partitions():
    wm, wn = pick_warp_grid(4, 128, 128, 16, 8)
    assert wm * wn == 4
    assert 128 % (wm * 16) == 0 and 128 % (wn * 8) == 0


def test_coalesced_copy_row_major():
    tv = coalesced_copy_tv((64, 64), Layout((64, 64), (64, 1)), 128, 8)
    assert covers_tile_oracle(tv)
    dim, run = tv.vector_run
    assert dim == 1 and run >= 8  # vectorized along the contiguous dim


def test_coalesced_copy_column_major():
    tv = coalesced_copy_tv((64, 64), Layout((64, 64), (1, 64)), 128, 8)
    dim, run = tv.vector_run
    assert dim == 0 and run >= 8


def test_coalesced_copy_small_tensor_replicates():
    tv = coalesced_copy_tv((16, 1), Layout((16, 1), (1, 1)), 128, 8)
    assert tv.num_threads == 128
    assert is_replicated_oracle(tv)


def test_coalesced_copy_rejects_non_integer_tile_extents():
    with pytest.raises(TypeError, match="16.5"):
        coalesced_copy_tv((16.5, 8), Layout((16, 8), (8, 1)), 32, 4)


def test_value_vector_run_scalar_layout():
    tv = coalesced_copy_tv((64, 64), Layout((64, 64), (64, 1)), 128, 1)
    _, run = tv.vector_run
    assert run >= 1


def test_reduce_tv_layout_collapses_dimension():
    tv = coalesced_copy_tv((32, 64), Layout((32, 64), (64, 1)), 64, 8)
    reduced = reduce_tv_layout(tv, dim=1)
    assert reduced.tile_shape == (32, 1)
    for t in range(0, reduced.num_threads, 7):
        for v in range(reduced.values_per_thread):
            assert reduced.coords(t, v)[1] == 0
            assert reduced.coords(t, v)[0] == tv.coords(t, v)[0]


def test_anchor_memos_check_arguments_before_the_lookup():
    """``64.0 == 64`` and ``True == 1`` hash alike, so a memo keyed on the
    raw arguments would answer these calls from the integer call's entry
    instead of rejecting them."""
    clear_caches()
    row = Layout((64, 32), (32, 1))
    coalesced_copy_tv((64, 32), row, 128, 8)
    coalesced_copy_tv((1, 32), Layout((1, 32), (32, 1)), 128, 8)
    _strided_warp_coords((4, 8), 1, 2)
    make_tiled_mma(fp16_mma(), (64, 64, 32), num_warps=4)
    with pytest.raises(TypeError, match="64.0"):
        coalesced_copy_tv((64.0, 32), row, 128, 8)
    with pytest.raises(TypeError, match="True"):
        coalesced_copy_tv((True, 32), Layout((1, 32), (32, 1)), 128, 8)
    with pytest.raises(TypeError, match="4.0"):
        _strided_warp_coords((4.0, 8), 1, 2)
    with pytest.raises(TypeError, match="64.0"):
        make_tiled_mma(fp16_mma(), (64.0, 64, 32), num_warps=4)


def test_equal_anchors_share_one_layout_until_the_memos_clear():
    row = Layout((64, 32), (32, 1))
    first = coalesced_copy_tv((64, 32), row, 128, 8)
    assert coalesced_copy_tv([64, 32], Layout((64, 32), (32, 1)), 128, 8) is first
    tiled = make_tiled_mma(fp16_mma(), (64, 64, 32), num_warps=4)
    assert make_tiled_mma(fp16_mma(), (64, 64, 32), num_warps=4) is tiled
    assert reduce_tv_layout(first, 1) is reduce_tv_layout(first, 1)
    clear_caches()
    again = coalesced_copy_tv((64, 32), row, 128, 8)
    assert again == first and again is not first
