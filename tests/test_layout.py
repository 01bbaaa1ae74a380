"""Tests for the core Layout abstraction (paper Section II examples)."""

import re

import numpy as np
import pytest

import repro.layout.layout as layout_module
from repro.kernels.attention import build_mha_decoding
from repro.kernels.fp8_gemm import build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.mamba import build_selective_scan
from repro.kernels.moe import build_moe_gemm
from repro.layout import (
    Layout,
    TVLayout,
    column_major,
    make_layout,
    make_ordered_layout,
    make_tv_layout,
    row_major,
)
from repro.pipeline import CompileCache, compile_program
from repro.synthesis.smem_solver import clear_smem_cache
from repro.utils.memo import clear_caches


def test_row_major_interleaved_paper_example():
    # Fig. 2 (a): m = ((2,2),8):((1,16),2); m(coordinate (2,4)) = 24.
    m = Layout(((2, 2), 8), ((1, 16), 2))
    assert m(((0, 1), 4)) == 24
    assert m.size() == 32
    assert m.cosize() == 32
    assert m.is_compact()


def test_layout_default_strides_are_column_major():
    layout = Layout((4, 8))
    assert layout.stride == (1, 4)
    assert layout(3, 0) == 3
    assert layout(0, 1) == 4


def test_row_major_and_column_major():
    rm = row_major((4, 8))
    cm = column_major((4, 8))
    assert rm(1, 0) == 8 and rm(0, 1) == 1
    assert cm(1, 0) == 1 and cm(0, 1) == 4


def test_make_ordered_layout():
    layout = make_ordered_layout((4, 8, 2), (2, 0, 1))
    assert layout.stride == (16, 1, 8)
    assert layout.is_compact()


def test_layout_getitem_and_modes():
    layout = Layout(((2, 2), 8), ((1, 16), 2))
    first = layout[0]
    assert first.shape == (2, 2)
    assert [m.shape for m in layout.modes()] == [(2, 2), 8]


def test_mode_leaves_are_the_modes_flat_form():
    for layout in (Layout(((2, 2), 8), ((1, 16), 2)), Layout((4, (2, 3)), (3, (1, 12))),
                   Layout(8, 2)):
        for i in range(layout.rank()):
            assert layout.mode_leaves(i) == (layout[i].flat_shape(), layout[i].flat_stride())
    assert Layout(8, 2).mode_leaves(-1) == ((8,), (2,))
    with pytest.raises(IndexError):
        Layout(8, 2).mode_leaves(1)


def test_layout_incongruent_raises():
    with pytest.raises(ValueError):
        Layout((2, 2), (1, 2, 3))


# Bad leaves and incongruent pairs, with the exception each has always
# raised: construction checks well-formed input in one walk and sends
# anything else through the full checks, which name the offending value.
BAD_LAYOUTS = [
    ((True, 2), (1, 2), TypeError, "not an IntTuple: True (type bool)"),
    ((2, -1), (1, 2), ValueError, "IntTuple leaves must be non-negative, got -1"),
    ((2.0, 4), (1, 2), TypeError, "not an IntTuple: 2.0 (type float)"),
    ((None, 4), (1, 2), TypeError, "not an IntTuple: None (type NoneType)"),
    ((True, 2), None, TypeError, "not an IntTuple: True (type bool)"),
    ((2.0, 4), None, TypeError, "not an IntTuple: 2.0 (type float)"),
    ((2, 2), (1, True), TypeError, "not an IntTuple: True (type bool)"),
    ((2, 2), (-1, 2), ValueError, "IntTuple leaves must be non-negative, got -1"),
    ((2, 2), (1.0, 2), TypeError, "not an IntTuple: 1.0 (type float)"),
    ((2, 2), (1, None), TypeError, "not an IntTuple: None (type NoneType)"),
    (4, True, TypeError, "not an IntTuple: True (type bool)"),
    (-4, 1, ValueError, "IntTuple leaves must be non-negative, got -4"),
    (4, 1.0, TypeError, "not an IntTuple: 1.0 (type float)"),
    ((2.0, 2), (1,), TypeError, "not an IntTuple: 2.0 (type float)"),
    ((2, 2), (1,), ValueError,
     "layout shape (2, 2) and stride (1,) are not congruent"),
    (4, (1,), ValueError, "layout shape 4 and stride (1,) are not congruent"),
    (((2, 2), 2), (1, 2), ValueError,
     "layout shape ((2, 2), 2) and stride (1, 2) are not congruent"),
    ((2,), 1, ValueError, "layout shape (2,) and stride 1 are not congruent"),
    ((2, 2), [1, 2], TypeError, "not an IntTuple: [1, 2] (type list)"),
]


@pytest.mark.parametrize("shape,stride,error,message", BAD_LAYOUTS)
def test_layout_rejects_bad_input_with_the_same_error(shape, stride, error, message):
    with pytest.raises(error) as info:
        Layout(shape, stride)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build,bad",
    [
        pytest.param(lambda: row_major((2.7, 4)), 2.7, id="row_major-float"),
        pytest.param(lambda: row_major((True, 4)), True, id="row_major-bool"),
        pytest.param(lambda: column_major((2.7, 4)), 2.7, id="column_major-float"),
        pytest.param(lambda: column_major((4, False)), False, id="column_major-bool"),
        pytest.param(lambda: make_ordered_layout((2.5, 4), (0, 1)), 2.5,
                     id="ordered-shape-float"),
        pytest.param(lambda: make_ordered_layout((2, 4), (0.0, 1)), 0.0,
                     id="ordered-order-float"),
        pytest.param(lambda: make_ordered_layout((2, 4), (True, 0)), True,
                     id="ordered-order-bool"),
        pytest.param(lambda: TVLayout(Layout((4, 2), (2, 1)), (4.9, 2)), 4.9,
                     id="tv-tile-float"),
        pytest.param(lambda: TVLayout(Layout((4, 2), (2, 1)), (True, 8)), True,
                     id="tv-tile-bool"),
        pytest.param(lambda: make_tv_layout((8, 1.5), 4, 1, 2, 4), 1.5,
                     id="make_tv_layout-float"),
    ],
)
def test_layout_helpers_reject_non_integer_extents(build, bad):
    """``int(...)`` used to truncate these: ``row_major((2.7, 4))`` was
    ``(2,4):(4,1)`` and a ``(4.9, 2)`` tile shape became ``(4, 2)``."""
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        build()


def test_layout_helpers_accept_numpy_integers():
    shape = (np.int64(2), np.int32(4))
    for layout in (row_major(shape), column_major(shape),
                   make_ordered_layout(shape, (np.int64(1), 0))):
        assert layout.shape == (2, 4)
        assert all(type(x) is int for x in layout.shape + layout.stride)
    tv = TVLayout(Layout((4, 2), (2, 1)), (np.int32(4), np.int64(2)))
    assert tv.tile_shape == (4, 2)
    assert all(type(x) is int for x in tv.tile_shape)


def test_tv_layout_modes_are_computed_once():
    tv = make_tv_layout((8, 4), (4, 2), (1, 8), 4, 16)
    assert tv.value_layout is tv.value_layout
    assert tv.thread_layout is tv.thread_layout
    assert (tv.num_threads, tv.values_per_thread) == (8, 4)
    assert tv.value_layout == tv.layout[1] and tv.thread_layout == tv.layout[0]


# One small program per kernel family, compiled on its own architecture.
KERNEL_FAMILIES = [
    (lambda: build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32)), "a100"),
    (lambda: build_fp8_blockwise_gemm(128, 128, 128), "h100"),
    (lambda: build_mha_decoding(128, 64, 2, 1), "a100"),
    (lambda: build_selective_scan(128, 128, 1), "h100"),
    (lambda: build_moe_gemm(16, 128, 128), "h100"),
]


def test_compiles_evaluate_layouts_without_crd2idx(monkeypatch):
    """Every layout evaluation on the compile path, cold and replay, takes
    the flat form: the hierarchical ``crd2idx`` is never called."""
    calls = []
    hierarchical = layout_module.crd2idx

    def counted(*args):
        calls.append(args)
        return hierarchical(*args)

    monkeypatch.setattr(layout_module, "crd2idx", counted)
    clear_caches()
    clear_smem_cache()
    cache = CompileCache()
    for build, arch in KERNEL_FAMILIES:
        cold = compile_program(build(), arch=arch, cache=cache, max_candidates=8)
        replay = compile_program(build(), arch=arch, cache=cache, max_candidates=8)
        assert not cold.cache_hit and replay.cache_hit
    assert calls == []
    # The patched name is the one a hierarchical coordinate reaches.
    assert Layout(((2, 2), 8), ((1, 16), 2))(((0, 1), 4)) == 24
    assert len(calls) == 1


def test_layout_injectivity():
    assert Layout((4, 8), (1, 4)).is_injective()
    assert not Layout((4, 8), (1, 1)).is_injective()


def test_make_layout_concatenates_modes():
    combined = make_layout(Layout(4, 1), Layout(8, 4))
    assert combined.shape == (4, 8)
    assert combined.stride == (1, 4)


def test_flatten_keeps_function():
    layout = Layout(((2, 2), 8), ((1, 16), 2))
    flat = layout.flatten()
    for i in range(layout.size()):
        assert layout(i) == flat(i)


def test_layout_call_with_multiple_args():
    layout = Layout((4, 8), (8, 1))
    assert layout(2, 3) == 19


def test_repr_roundtrip_format():
    assert repr(Layout(((2, 2), 8), ((1, 16), 2))) == "((2,2),8):((1,16),2)"
