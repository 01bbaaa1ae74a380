"""Tests for the layout algebra: coalesce, composition, complement and right
inverse — including the worked example from the paper appendix."""

from hypothesis import given, settings, strategies as st

from repro.layout import (
    Layout,
    coalesce,
    complement,
    composition,
    make_layout,
    right_inverse,
)
from repro.utils.inttuple import crd2idx


def test_coalesce_merges_contiguous_modes():
    layout = Layout((2, (1, 6)), (1, (7, 2)))
    merged = coalesce(layout)
    assert merged.size() == layout.size()
    for i in range(layout.size()):
        assert merged(i) == layout(i)


def test_coalesce_drops_size_one_modes():
    layout = Layout((4, 1, 8), (1, 77, 4))
    assert coalesce(layout).shape == 32


def test_composition_matches_function_composition():
    a = Layout((6, 2), (8, 2))
    b = Layout((4, 3), (3, 1))
    c = composition(a, b)
    for i in range(b.size()):
        assert c(i) == a(b(i))


def test_composition_with_tiler_by_mode():
    a = Layout((8, 8))
    c = composition(a, (Layout(4, 2), Layout(2, 4)))
    assert c.rank() == 2
    assert c(1, 0) == a(2, 0)
    assert c(0, 1) == a(0, 4)


def test_composition_stride_zero():
    a = Layout((8, 8))
    c = composition(a, Layout(4, 0))
    assert all(c(i) == 0 for i in range(4))


def test_complement_covers_rest_of_space():
    layout = Layout(4, 2)
    comp = complement(layout, 24)
    covered = {layout(i) for i in range(layout.size())}
    rest = {comp(i) for i in range(comp.size())}
    # Together they tile [0, 24) without overlap.
    combined = make_layout(layout, comp)
    image = sorted(combined(i) for i in range(combined.size()))
    assert image == list(range(24))
    assert covered & rest == {0}


def test_right_inverse_property():
    layout = Layout((4, 8), (8, 1))
    inverse = right_inverse(layout)
    for i in range(inverse.size()):
        assert layout(inverse(i)) == i


def test_ldmatrix_composite_from_appendix_c():
    # Appendix C: g o q^-1 for the ldmatrix fragment maps (17,5) -> 337.
    q = Layout(((4, 8), (2, 4)), ((64, 1), (32, 8)))
    g_restricted = Layout(((4, 8), (2, 2, 2)), ((32, 1), (16, 8, 256)))
    composite = composition(g_restricted, right_inverse(q))
    idx = crd2idx((17, 5), (32, 8))
    assert composite(idx) == 337


@st.composite
def simple_layouts(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(rank))
    order = draw(st.permutations(range(rank)))
    strides = [0] * rank
    running = 1
    for dim in order:
        strides[dim] = running
        running *= shape[dim]
    return Layout(shape, tuple(strides))


@settings(max_examples=50, deadline=None)
@given(simple_layouts())
def test_right_inverse_property_random(layout):
    inverse = right_inverse(layout)
    for i in range(inverse.size()):
        assert layout(inverse(i)) == i


@settings(max_examples=50, deadline=None)
@given(simple_layouts(), simple_layouts())
def test_composition_property_random(a, b):
    # Compose b restricted so its codomain fits a's domain.  Composition is
    # only defined when the shapes satisfy CuTe's divisibility conditions, so
    # indivisible pairs are skipped rather than treated as failures.
    if b.cosize() > a.size():
        return
    try:
        c = composition(a, b)
    except ValueError:
        return
    for i in range(b.size()):
        assert c(i) == a(b(i))


@settings(max_examples=50, deadline=None)
@given(simple_layouts())
def test_complement_makes_compact_cover(layout):
    total = layout.cosize()
    comp = complement(layout, total)
    combined = make_layout(layout, comp)
    image = sorted(combined(i) for i in range(combined.size()))
    assert len(set(image)) == len(image)
    assert image[0] == 0
