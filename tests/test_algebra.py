"""Tests for the layout algebra: coalesce, composition, complement, inverse,
divide and product — including the worked examples from the paper appendix."""

from hypothesis import given, settings, strategies as st

from repro.layout import (
    Layout,
    blocked_product,
    coalesce,
    complement,
    composition,
    left_inverse,
    logical_divide,
    logical_product,
    make_layout,
    raked_product,
    right_inverse,
    zipped_divide,
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


def test_left_inverse_property():
    layout = Layout((4, 8), (8, 1))
    inverse = left_inverse(layout)
    for i in range(layout.size()):
        assert inverse(layout(i)) == i


def test_ldmatrix_composite_from_appendix_c():
    # Appendix C: g o q^-1 for the ldmatrix fragment maps (17,5) -> 337.
    q = Layout(((4, 8), (2, 4)), ((64, 1), (32, 8)))
    g_restricted = Layout(((4, 8), (2, 2, 2)), ((32, 1), (16, 8, 256)))
    composite = composition(g_restricted, right_inverse(q))
    idx = crd2idx((17, 5), (32, 8))
    assert composite(idx) == 337


def test_logical_divide_tiles_domain():
    layout = Layout((8, 8))
    divided = logical_divide(layout, (Layout(2), Layout(4)))
    # Mode 0 of each dimension iterates within a tile, mode 1 across tiles.
    assert divided.size() == layout.size()
    values = sorted(divided(i) for i in range(divided.size()))
    assert values == list(range(64))


def test_zipped_divide_groups_tile_first():
    layout = Layout((8, 8))
    zipped = zipped_divide(layout, (Layout(2), Layout(4)))
    assert zipped[0].size() == 8      # 2x4 tile
    assert zipped[1].size() == 8      # 4x2 grid of tiles


def test_logical_product_replicates():
    tile = Layout(4, 1)
    prod = logical_product(tile, Layout(3))
    assert prod.size() == 12
    image = sorted(prod(i) for i in range(12))
    assert image == list(range(12))


def test_blocked_and_raked_products_are_bijections():
    a = Layout((2, 2))
    b = Layout((3, 3))
    for prod in (blocked_product(a, b), raked_product(a, b)):
        image = sorted(prod(i) for i in range(prod.size()))
        assert image == list(range(36))


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
