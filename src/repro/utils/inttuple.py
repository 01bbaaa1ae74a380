"""CuTe-style integer tuple (``IntTuple``) algebra.

An *IntTuple* is either a plain non-negative ``int`` or a (possibly nested)
tuple of IntTuples.  Layouts in the Hexcute reproduction are pairs of
congruent IntTuples (a *shape* and a *stride*), and most layout operations
reduce to a handful of primitive IntTuple manipulations implemented here:

* ``crd2idx`` / ``idx2crd`` — convert between (hierarchical) coordinates and
  column-major ("colexicographic") linear indices;
* ``shape_div`` — exact division used by layout composition;
* ``congruent`` — structural compatibility of shape/stride pairs.

The semantics follow the CuTe documentation and the ``pycute`` reference
implementation shipped with CUTLASS, restricted to non-negative strides,
which is all Hexcute needs.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

from repro.utils.memo import memoized

IntTuple = Union[int, Tuple["IntTuple", ...]]

__all__ = [
    "IntTuple",
    "is_int",
    "is_tuple",
    "flatten",
    "product",
    "congruent",
    "shape_div",
    "crd2idx",
    "idx2crd",
    "prefix_product",
    "ceil_div",
    "unflatten_like",
]


def is_int(value: IntTuple) -> bool:
    """Return True if ``value`` is a leaf (a plain integer)."""
    # ``type(...) is int`` answers the common case without the bool test.
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def is_tuple(value: IntTuple) -> bool:
    """Return True if ``value`` is a (possibly nested) tuple node."""
    return isinstance(value, tuple)


def _check(value: IntTuple) -> None:
    if is_int(value):
        if value < 0:
            raise ValueError(f"IntTuple leaves must be non-negative, got {value}")
        return
    if is_tuple(value):
        for item in value:
            _check(item)
        return
    raise TypeError(f"not an IntTuple: {value!r} (type {type(value).__name__})")


def validate(value: IntTuple) -> IntTuple:
    """Validate that ``value`` is a well-formed IntTuple and return it."""
    _check(value)
    return value


def flatten(value: IntTuple) -> Tuple[int, ...]:
    """Flatten a nested IntTuple into a flat tuple of leaves.

    >>> flatten(((2, 2), 8))
    (2, 2, 8)
    >>> flatten(5)
    (5,)
    """
    if is_int(value):
        return (value,)
    result: list[int] = []
    for item in value:
        result.extend(flatten(item))
    return tuple(result)


def product(value: IntTuple) -> int:
    """Product of all leaves of the IntTuple."""
    if is_int(value):
        return value
    result = 1
    for item in value:
        result *= product(item)
    return result


def congruent(a: IntTuple, b: IntTuple) -> bool:
    """Whether two IntTuples share the same hierarchical structure."""
    if is_int(a) and is_int(b):
        return True
    if is_tuple(a) and is_tuple(b):
        if len(a) != len(b):
            return False
        return all(congruent(x, y) for x, y in zip(a, b))
    return False


def shape_div(a: IntTuple, b: IntTuple) -> IntTuple:
    """CuTe's ``shape_div``: "divide" shape ``a`` by ``b``.

    For integers, ``a // b`` when ``b`` divides ``a``; ``1`` when ``a``
    divides ``b`` (the divisor consumes the whole mode); an error otherwise.
    For tuples the division is threaded through the modes left to right,
    with the divisor being reduced as it consumes each mode.
    """
    if is_tuple(a):
        if is_tuple(b):
            if len(a) != len(b):
                raise ValueError(f"shape_div: incongruent operands {a} and {b}")
            return tuple(shape_div(x, y) for x, y in zip(a, b))
        # Divide a tuple by an integer: consume the divisor mode by mode.
        result = []
        divisor = b
        for mode in a:
            result.append(shape_div(mode, divisor))
            divisor = shape_div(divisor, product(mode))
        return tuple(result)
    if is_tuple(b):
        return shape_div(a, product(b))
    if a % b == 0:
        return a // b
    if b % a == 0:
        return 1
    raise ValueError(f"shape_div: {a} and {b} are indivisible")


@memoized(maxsize=8192)
def prefix_product(shape: IntTuple) -> IntTuple:
    """Exclusive prefix products over the leaves, preserving structure.

    Memoized: shapes are immutable and the compiler re-derives the strides
    of the same handful of shapes throughout layout synthesis.

    This yields the column-major ("LayoutLeft") strides for ``shape``.

    >>> prefix_product((2, 4, 8))
    (1, 2, 8)
    >>> prefix_product(((2, 2), 8))
    ((1, 2), 4)
    """
    result, _ = _prefix_product_impl(shape, 1)
    return result


def _prefix_product_impl(shape: IntTuple, current: int) -> tuple[IntTuple, int]:
    if is_int(shape):
        return current, current * shape
    items = []
    for mode in shape:
        value, current = _prefix_product_impl(mode, current)
        items.append(value)
    return tuple(items), current


def crd2idx(coord: IntTuple, shape: IntTuple, stride: IntTuple | None = None) -> int:
    """Map a (hierarchical) coordinate to a linear index.

    With explicit ``stride`` the result is the inner product of the
    coordinate with the strides (after resolving integral coordinates into
    sub-coordinates column-major).  Without ``stride`` the canonical
    column-major strides of ``shape`` are used, i.e. the colexicographic
    linearisation.

    This is the hierarchical evaluator.  ``Layout.__call__`` evaluates an
    integer, or one integer per top-level mode, on the layout's flattened
    leaves instead and comes here only for any other coordinate; the tests
    keep this function as the oracle of that flat form.
    """
    if stride is None:
        stride = prefix_product(shape)
    return _crd2idx(coord, shape, stride)


def _crd2idx(coord: IntTuple, shape: IntTuple, stride: IntTuple) -> int:
    if coord is None:
        coord = 0
    if is_tuple(coord):
        if not is_tuple(shape) or len(coord) != len(shape):
            raise ValueError(f"crd2idx: coordinate {coord} incongruent with shape {shape}")
        if not is_tuple(stride) or len(stride) != len(shape):
            raise ValueError(f"crd2idx: stride {stride} incongruent with shape {shape}")
        return sum(_crd2idx(c, s, d) for c, s, d in zip(coord, shape, stride))
    # Integral coordinate: interpret it colexicographically over `shape`.
    if is_int(shape):
        if is_tuple(stride):
            raise ValueError(f"crd2idx: stride {stride} incongruent with shape {shape}")
        return coord * stride
    result = 0
    remaining = coord
    for mode_shape, mode_stride in zip(shape, stride):
        mode_size = product(mode_shape)
        result += _crd2idx(remaining % mode_size, mode_shape, mode_stride)
        remaining //= mode_size
    return result


@memoized(maxsize=65536)
def idx2crd(idx: int, shape: IntTuple) -> IntTuple:
    """Map a linear (colexicographic) index to a hierarchical coordinate.

    Memoized: TV synthesis decomposes the same atom and tile strides
    (``rebase_strides``, ``reduce_tv_layout``) in every compile and in
    every compile of a sweep, so the same (index, shape) pairs recur.  A
    warp's access coordinates do not come through here: each TV layout
    splits them over its tile once (``TVLayout.warp_coords``).
    """
    crd, _ = _idx2crd_impl(idx, shape)
    return crd


def _idx2crd_impl(idx: int, shape: IntTuple) -> tuple[IntTuple, int]:
    if is_int(shape):
        return idx % shape, idx // shape
    items = []
    for mode in shape:
        crd, idx = _idx2crd_impl(idx, mode)
        items.append(crd)
    return tuple(items), idx


def ceil_div(a: int, b: int) -> int:
    """Ceiling division of non-negative integers."""
    if b <= 0:
        raise ValueError(f"ceil_div: divisor must be positive, got {b}")
    return -(-a // b)


def unflatten_like(flat: Iterable[int], template: IntTuple) -> IntTuple:
    """Rebuild a nested IntTuple with the structure of ``template`` from a
    flat sequence of leaves.

    >>> unflatten_like([1, 2, 3], ((0, 0), 0))
    ((1, 2), 3)
    """
    iterator = iter(flat)
    result = _unflatten(iterator, template)
    remaining = list(iterator)
    if remaining:
        raise ValueError(f"unflatten_like: {len(remaining)} extra leaves")
    return result


def _unflatten(iterator, template: IntTuple) -> IntTuple:
    if is_int(template):
        try:
            return next(iterator)
        except StopIteration:
            raise ValueError("unflatten_like: not enough leaves") from None
    return tuple(_unflatten(iterator, mode) for mode in template)
