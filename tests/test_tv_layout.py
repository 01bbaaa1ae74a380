"""Tests for thread-value layouts (Fig. 1 / Fig. 2 of the paper)."""

import pytest

from repro.layout import Layout, TVLayout, make_tv_layout, rebase_strides, right_inverse

from strategies import covers_tile_oracle, is_replicated_oracle


def paper_tv() -> TVLayout:
    # f = ((2,4),(2,2)):((8,1),(4,16)) over a 4x8 tile (Fig. 2 b/c).
    return TVLayout(Layout(((2, 4), (2, 2)), ((8, 1), (4, 16))), (4, 8))


def test_paper_example_mapping():
    f = paper_tv()
    assert f(2, 3) == 21
    assert f.coords(2, 3) == (1, 5)


def test_counts_and_coverage():
    f = paper_tv()
    assert f.num_threads == 8
    assert f.values_per_thread == 4
    assert covers_tile_oracle(f)
    assert not is_replicated_oracle(f)


def test_covers_tile_rejects_images_outside_the_tile():
    # Four distinct images {0, 2, 4, 6} for a 4-element tile: elements 1
    # and 3 are never held, and 4 and 6 lie outside the tile.
    f = TVLayout(Layout((4, 1), (2, 0)), (4,))
    assert f.num_threads * f.values_per_thread == f.tile_size()
    assert not covers_tile_oracle(f)


def test_extent_one_stride_zero_thread_mode_is_not_replication():
    # The (4,1):(1,0) thread mode holds every element exactly once; its
    # extent-1 stride-0 leaf broadcasts nothing.
    f = TVLayout(Layout(((4, 1), 2), ((1, 0), 4)), (4, 2))
    assert covers_tile_oracle(f)
    assert not is_replicated_oracle(f)
    assert is_replicated_oracle(f.with_threads(8))


def test_equivalent_and_rebase():
    f = paper_tv()
    assert f.equivalent(paper_tv())
    g = TVLayout(rebase_strides(f.layout, f.tile_shape, (8, 8)), (8, 8))
    # Same thread/value pair maps to the same 2-D coordinate after rebasing.
    assert g.coords(2, 3) == f.coords(2, 3)


def test_with_threads_broadcast():
    f = paper_tv()
    g = f.with_threads(16)
    assert g.num_threads == 16
    assert is_replicated_oracle(g)
    assert g(10, 3) == f(2, 3)


def test_rebase_strides_rejects_bad_fit():
    with pytest.raises(ValueError):
        rebase_strides(Layout((4, 8)), (8, 8), (4, 4))


def test_make_tv_layout_and_inverse():
    tv = make_tv_layout((4, 8), (2, 4), (8, 1), (2, 2), (4, 16))
    inv = right_inverse(tv.layout)
    for i in range(inv.size()):
        assert tv.layout(inv(i)) == i
