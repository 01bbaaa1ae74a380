"""Unit and property tests for the IntTuple utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.inttuple import (
    ceil_div,
    congruent,
    crd2idx,
    flatten,
    idx2crd,
    is_int,
    is_tuple,
    prefix_product,
    product,
    shape_div,
    unflatten_like,
)


def test_flatten_nested():
    assert flatten(((2, 2), 8)) == (2, 2, 8)
    assert flatten(5) == (5,)
    assert flatten(((1, (2, 3)), 4)) == (1, 2, 3, 4)


def test_product_and_size():
    # A shape's size (its number of coordinates) is its product.
    assert product(((2, 2), 8)) == 32
    assert product(7) == 7
    assert product(()) == 1


def test_is_int_rejects_bool():
    assert is_int(3)
    assert not is_int(True)
    assert is_tuple((1, 2))


def test_prefix_product_structure():
    assert prefix_product((2, 4, 8)) == (1, 2, 8)
    assert prefix_product(((2, 2), 8)) == ((1, 2), 4)


def test_crd2idx_paper_example():
    # Fig. 2 (a): layout m = ((2,2),8):((1,16),2) maps (2,4) -> 24.
    assert crd2idx(((0, 1), 4), ((2, 2), 8), ((1, 16), 2)) == 24


def test_crd2idx_integral_coordinate():
    # An integral coordinate is interpreted colexicographically.
    assert crd2idx(5, (4, 8)) == 5
    assert crd2idx((1, 1), (4, 8)) == 5


def test_idx2crd_roundtrip_simple():
    shape = ((2, 2), 8)
    for idx in range(product(shape)):
        assert crd2idx(idx2crd(idx, shape), shape) == idx


def test_shape_div():
    assert shape_div(8, 2) == 4
    assert shape_div(2, 8) == 1
    with pytest.raises(ValueError):
        shape_div(6, 4)


def test_shape_div_tuple():
    assert shape_div((4, 8), 4) == (1, 8)
    assert shape_div((4, 8), (2, 2)) == (2, 4)


def test_ceil_div():
    assert ceil_div(7, 3) == 3
    assert ceil_div(6, 3) == 2
    with pytest.raises(ValueError):
        ceil_div(4, 0)


def test_unflatten_like():
    assert unflatten_like([1, 2, 3], ((0, 0), 0)) == ((1, 2), 3)
    with pytest.raises(ValueError):
        unflatten_like([1, 2], ((0, 0), 0))
    with pytest.raises(ValueError):
        unflatten_like([1, 2, 3, 4], ((0, 0), 0))


def test_congruent():
    assert congruent(((2, 2), 8), ((1, 16), 2))
    assert not congruent((2, 2), (2, (2, 2)))


nested_shapes = st.recursive(
    st.integers(min_value=1, max_value=6),
    lambda children: st.tuples(children, children),
    max_leaves=4,
)


@given(nested_shapes)
def test_idx2crd_crd2idx_roundtrip_property(shape):
    total = product(shape)
    for idx in range(total):
        assert crd2idx(idx2crd(idx, shape), shape) == idx


@given(nested_shapes)
def test_flatten_preserves_product(shape):
    assert product(flatten(shape)) == product(shape)
