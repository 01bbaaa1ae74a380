"""Tests for thread-value layouts (Fig. 1 / Fig. 2 of the paper)."""

import pytest

from repro.layout import Layout, TVLayout, make_tv_layout, rebase_strides


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
    assert f.covers_tile()
    assert not f.is_replicated()


def test_covers_tile_rejects_images_outside_the_tile():
    # Four distinct images {0, 2, 4, 6} for a 4-element tile: elements 1
    # and 3 are never held, and 4 and 6 lie outside the tile.
    f = TVLayout(Layout((4, 1), (2, 0)), (4,))
    assert f.num_threads * f.values_per_thread == f.tile_size()
    assert not f.covers_tile()


def test_extent_one_stride_zero_thread_mode_is_not_replication():
    # The (4,1):(1,0) thread mode holds every element exactly once; its
    # extent-1 stride-0 leaf broadcasts nothing.
    f = TVLayout(Layout(((4, 1), 2), ((1, 0), 4)), (4, 2))
    assert f.covers_tile()
    assert not f.is_replicated()
    assert f.with_threads(8).is_replicated()


def test_equivalent_and_rebase():
    f = paper_tv()
    assert f.equivalent(paper_tv())
    g = f.rebase((8, 8))
    assert g.tile_shape == (8, 8)
    # Same thread/value pair maps to the same 2-D coordinate after rebasing.
    assert g.coords(2, 3) == f.coords(2, 3)


def test_with_threads_broadcast():
    f = paper_tv()
    g = f.with_threads(16)
    assert g.num_threads == 16
    assert g.is_replicated()
    assert g(10, 3) == f(2, 3)


def test_rebase_strides_rejects_bad_fit():
    with pytest.raises(ValueError):
        rebase_strides(Layout((4, 8)), (8, 8), (4, 4))


def test_make_tv_layout_and_inverse():
    tv = make_tv_layout((4, 8), (2, 4), (8, 1), (2, 2), (4, 16))
    inv = tv.inverse()
    for i in range(inv.size()):
        assert tv.layout(inv(i)) == i


def test_composite_onto_instruction():
    from repro.instructions import atoms

    frag = atoms.LDMATRIX_X4_FRAGMENT
    composite = frag.composite_onto(frag)
    # Composing a layout with its own inverse is the identity on its image.
    for i in range(16):
        assert composite(i) == i

