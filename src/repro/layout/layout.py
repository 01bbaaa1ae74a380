"""The CuTe ``Layout`` abstraction: hierarchical shape/stride mapping functions.

A layout ``L = shape : stride`` is a function from the integers
``[0, size(shape))`` (or equivalently from hierarchical coordinates of
``shape``) to integers, computed as the inner product of the coordinate with
the strides.  Layouts describe how tensors are arranged in memory (shared
memory layouts) and how register tensors are distributed across threads
(thread-value layouts, see :mod:`repro.layout.tv`).

The class below mirrors CuTe's semantics (and the ``pycute`` reference
implementation) restricted to non-negative strides.  The algebraic
operations — coalesce, composition, complement, right inverse — live in
:mod:`repro.layout.algebra`.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from repro.utils.inttuple import (
    IntTuple,
    congruent,
    crd2idx,
    flatten,
    is_int,
    is_tuple,
    prefix_product,
    validate,
)

__all__ = [
    "Layout",
    "make_layout",
    "make_ordered_layout",
    "row_major",
    "column_major",
]


class _FlatForm(NamedTuple):
    """What a layout derives from its shape and stride, computed once.

    ``digits`` holds one ``(divisor, extent, stride)`` triple per leaf of
    the whole shape, where ``divisor`` is the product of the extents
    before it: an integer ``i`` has leaf coordinate ``i // divisor %
    extent`` (its colexicographic digit), so ``L(i)`` is the sum of digit
    times stride.  ``modes`` holds the same triples per top-level mode, or
    the mode's stride when the mode is an integer.  An integral shape has
    neither: ``L(i)`` is ``i * stride`` with no wrap-around, as in
    :func:`crd2idx`.
    """

    size: int
    shape: tuple
    stride: tuple
    digits: Optional[tuple]
    modes: Optional[tuple]


class Layout:
    """A hierarchical shape:stride layout function.

    Parameters
    ----------
    shape:
        An IntTuple giving the extent of each mode.
    stride:
        An IntTuple congruent with ``shape`` giving the stride of each mode.
        If omitted, the compact column-major strides of ``shape`` are used.
    """

    __slots__ = ("shape", "stride", "_hash", "_flat", "_repr")

    def __init__(self, shape: IntTuple, stride: IntTuple | None = None):
        if stride is None:
            validate(shape)
            stride = prefix_product(shape)
        elif not _well_formed(shape, stride):
            # The full checks accept what the fast walk does not know
            # (int subclasses, tuple subclasses) and name what is wrong.
            validate(shape)
            validate(stride)
            if not congruent(shape, stride):
                raise ValueError(
                    f"layout shape {shape!r} and stride {stride!r} are not congruent"
                )
        self.shape = shape
        self.stride = stride
        # Structural hash, computed lazily and cached: layouts are immutable
        # after construction and are used as keys in the memoized layout
        # algebra (repro.utils.memo), so hashing must be cheap on repeats.
        self._hash = None
        # The flat form (see _FlatForm), built on first use.
        self._flat = None
        # The printed form, built on first use: codegen prints every layout
        # it declares, and the compile key every global layout.
        self._repr = None

    def _flat_form(self) -> _FlatForm:
        shape, stride = self.shape, self.stride
        if is_int(shape):
            form = _FlatForm(shape, (shape,), (stride,), None, None)
        else:
            flat_shape, flat_stride = flatten(shape), flatten(stride)
            digits, size = _digits(flat_shape, flat_stride)
            modes = tuple(
                mode_stride if is_int(mode_shape)
                else _digits(flatten(mode_shape), flatten(mode_stride))[0]
                for mode_shape, mode_stride in zip(shape, stride)
            )
            form = _FlatForm(size, flat_shape, flat_stride, digits, modes)
        self._flat = form
        return form

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Size of the domain (number of coordinates)."""
        return (self._flat or self._flat_form()).size

    def cosize(self) -> int:
        """One past the largest index produced by the layout.

        For an empty domain the cosize is 0; otherwise it is
        ``L(size - 1) + 1`` because the largest coordinate in every mode
        maximises the inner product when strides are non-negative.
        """
        size = self.size()
        if size == 0:
            return 0
        return self(size - 1) + 1

    def rank(self) -> int:
        """Number of top-level modes."""
        if is_tuple(self.shape):
            return len(self.shape)
        return 1

    def flat_shape(self) -> tuple[int, ...]:
        return (self._flat or self._flat_form()).shape

    def flat_stride(self) -> tuple[int, ...]:
        return (self._flat or self._flat_form()).stride

    # ------------------------------------------------------------------ #
    # Mode access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.rank()

    def __getitem__(self, index) -> "Layout":
        """Return the sub-layout (mode) at ``index``."""
        if isinstance(index, slice):
            if not is_tuple(self.shape):
                raise IndexError("cannot slice a rank-1 integral layout")
            shapes = self.shape[index]
            strides = self.stride[index]
            return Layout(tuple(shapes), tuple(strides))
        if is_tuple(self.shape):
            return Layout(self.shape[index], self.stride[index])
        if index not in (0, -1):
            raise IndexError(f"layout mode index {index} out of range for rank 1")
        return Layout(self.shape, self.stride)

    def mode_leaves(self, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The flat extents and strides of the top-level mode at ``index``:
        ``self[index].flat_shape()`` and ``flat_stride()``, without building
        (and validating) the mode as a layout of its own."""
        if is_tuple(self.shape):
            return flatten(self.shape[index]), flatten(self.stride[index])
        if index not in (0, -1):
            raise IndexError(f"layout mode index {index} out of range for rank 1")
        return (self.shape,), (self.stride,)

    def modes(self) -> Iterator["Layout"]:
        """Iterate over the top-level modes as layouts."""
        for i in range(self.rank()):
            yield self[i]

    # ------------------------------------------------------------------ #
    # Function evaluation
    # ------------------------------------------------------------------ #
    def __call__(self, *coord) -> int:
        """Evaluate the layout at a coordinate.

        The coordinate may be a single linear index, a single hierarchical
        coordinate, or one coordinate per top-level mode.  An integer, or
        one integer per top-level mode, is evaluated on the flat form;
        anything else goes through :func:`crd2idx`.
        """
        if len(coord) == 1:
            coord = coord[0]
        elif not coord:
            raise TypeError("layout call requires at least one coordinate")
        _, _, _, digits, modes = self._flat or self._flat_form()
        if type(coord) is int:
            if digits is None:
                return coord * self.stride
            index = 0
            for divisor, extent, step in digits:
                index += coord // divisor % extent * step
            return index
        if type(coord) is tuple and modes is not None and len(coord) == len(modes):
            index = 0
            for crd, mode in zip(coord, modes):
                if type(crd) is not int:
                    break
                if type(mode) is tuple:
                    for divisor, extent, step in mode:
                        index += crd // divisor % extent * step
                else:
                    index += crd * mode
            else:
                return index
        return crd2idx(coord, self.shape, self.stride)

    def all_indices(self) -> list[int]:
        """The image of the layout enumerated over its whole domain."""
        return [self(i) for i in range(self.size())]

    def is_injective(self) -> bool:
        """Whether distinct coordinates map to distinct indices.

        Decided analytically where it can be, all exact:

        * a mode with extent > 1 and stride 0 collapses two coordinates —
          not injective;
        * with the other modes sorted by stride, if every stride exceeds
          the reach ``sum((shape_j - 1) * stride_j)`` of the smaller-stride
          modes, every index has one mixed-radix representation —
          injective (this covers every layout the smem solver
          materializes);
        * otherwise an early-exit scan of the image decides (the
          condition is sufficient, not necessary: ``(3,2):(2,3)`` fails it
          yet is injective).
        """
        modes = sorted(
            (stride, extent)
            for extent, stride in zip(self.flat_shape(), self.flat_stride())
            if extent > 1
        )
        if modes and modes[0][0] == 0:
            return False
        reach = 0
        for stride, extent in modes:
            if stride <= reach:
                break
            reach += (extent - 1) * stride
        else:
            return True
        seen: set[int] = set()
        for i in range(self.size()):
            index = self(i)
            if index in seen:
                return False
            seen.add(index)
        return True

    def is_compact(self) -> bool:
        """Whether the layout is a bijection onto ``[0, size)``."""
        return self.is_injective() and self.cosize() == self.size()

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def flatten(self) -> "Layout":
        """A rank-``n`` layout with every leaf mode promoted to the top."""
        return Layout(self.flat_shape(), self.flat_stride())

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self.shape == other.shape and self.stride == other.stride

    def __hash__(self) -> int:
        # The (shape, stride) pair is the canonical structural key under
        # which layouts are memoized and compared (cf. __eq__).
        if self._hash is None:
            self._hash = hash((self.shape, self.stride))
        return self._hash

    def __repr__(self) -> str:
        if self._repr is None:
            self._repr = f"{_fmt(self.shape)}:{_fmt(self.stride)}"
        return self._repr


def _well_formed(shape: IntTuple, stride: IntTuple) -> bool:
    """One walk: ``shape`` and ``stride`` are congruent and every leaf is a
    plain non-negative ``int`` (never a ``bool``)."""
    if type(shape) is int:
        return type(stride) is int and shape >= 0 and stride >= 0
    return (
        type(shape) is tuple
        and type(stride) is tuple
        and len(shape) == len(stride)
        and all(map(_well_formed, shape, stride))
    )


def _digits(extents: tuple, strides: tuple) -> tuple[tuple, int]:
    """The ``(divisor, extent, stride)`` triple of each flat leaf, and the
    product of the extents."""
    digits = []
    divisor = 1
    for extent, stride in zip(extents, strides):
        digits.append((divisor, extent, stride))
        divisor *= extent
    return tuple(digits), divisor


def _fmt(value: IntTuple) -> str:
    if is_int(value):
        return str(value)
    return "(" + ",".join(_fmt(item) for item in value) + ")"


def make_layout(*layouts: Union[Layout, int]) -> Layout:
    """Build a layout by concatenating layouts (or integers) as modes.

    ``make_layout(a, b)`` produces the layout ``(a, b)`` whose first mode is
    ``a`` and second mode is ``b``.  A single argument is returned as-is
    (after promotion of plain integers).
    """
    promoted = [Layout(l) if isinstance(l, int) else l for l in layouts]
    for layout in promoted:
        if not isinstance(layout, Layout):
            raise TypeError(f"make_layout expects Layouts or ints, got {layout!r}")
    if len(promoted) == 1:
        return promoted[0]
    return Layout(
        tuple(l.shape for l in promoted),
        tuple(l.stride for l in promoted),
    )


def as_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of plain ints.

    Any integral type (a numpy integer, say) is accepted, but not ``bool``;
    anything else raises ``TypeError`` naming the value instead of being
    truncated by ``int(...)``.
    """
    result = []
    for value in values:
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{what}: {value!r} is not an integer")
            value = int(value)
        result.append(value)
    return tuple(result)


def row_major(shape: Sequence[int]) -> Layout:
    """A generalized row-major (C order) layout for a flat shape."""
    shape = as_ints(shape, "row_major shape")
    strides = []
    running = 1
    for extent in reversed(shape):
        strides.append(running)
        running *= extent
    return Layout(shape, tuple(reversed(strides)))


def column_major(shape: Sequence[int]) -> Layout:
    """A generalized column-major (Fortran order) layout for a flat shape."""
    shape = as_ints(shape, "column_major shape")
    return Layout(shape, prefix_product(shape))


def make_ordered_layout(shape: Sequence[int], order: Sequence[int]) -> Layout:
    """A layout over ``shape`` whose strides follow ``order``.

    ``order[i]`` gives the priority of dimension ``i``: the dimension with
    order 0 is contiguous (stride 1), the dimension with the next-larger
    order has stride equal to the first dimension's extent, and so on.
    """
    shape = as_ints(shape, "make_ordered_layout shape")
    order = as_ints(order, "make_ordered_layout order")
    if len(shape) != len(order):
        raise ValueError("make_ordered_layout: shape and order must have equal length")
    if sorted(order) != list(range(len(order))):
        raise ValueError(f"make_ordered_layout: order {order} is not a permutation")
    strides = [0] * len(shape)
    running = 1
    for priority in range(len(shape)):
        dim = order.index(priority)
        strides[dim] = running
        running *= shape[dim]
    return Layout(shape, tuple(strides))

