"""CuTe layout algebra: coalesce, composition, complement and right inverse.

These operations are what make layouts a practical representation for layout
*synthesis*: because layouts are closed under composition and admit (right)
inverses on their image, Hexcute can express constraints such as
``f ∘ p⁻¹ = g ∘ q⁻¹`` (the copy constraint of Section IV-A) and solve them
symbolically, e.g. ``f = g ∘ q⁻¹ ∘ p``.  The compiler uses this core:
``coalesce`` canonicalizes TV layouts, ``composition`` builds copy and
tiling layouts, and ``complement`` places the free modes of a shared-memory
layout constraint.  ``right_inverse`` is what the tests build composites
such as Appendix C's ``g ∘ q⁻¹`` with.  CuTe's divides and products are
not implemented: no compile splits or repeats one layout by another.

The algorithms follow the ``pycute`` reference implementation distributed
with CUTLASS, restricted to non-negative strides.  Only ``coalesce`` is
memoized (:mod:`repro.utils.memo`): the compiler reaches composition and
complement only through memoized anchor tilings and shared-memory base
layouts, which already absorb the repeats.
"""

from __future__ import annotations

from typing import Union

from repro.layout.layout import Layout, make_layout
from repro.utils.memo import memoized
from repro.utils.inttuple import (
    ceil_div,
    flatten,
    is_tuple,
    prefix_product,
    shape_div,
)

__all__ = [
    "coalesce",
    "composition",
    "complement",
    "right_inverse",
]

LayoutOrInt = Union[Layout, int]


def _as_layout(value: LayoutOrInt) -> Layout:
    if isinstance(value, Layout):
        return value
    if isinstance(value, int):
        return Layout(value)
    raise TypeError(f"expected Layout or int, got {value!r}")


# --------------------------------------------------------------------------- #
# Coalesce
# --------------------------------------------------------------------------- #
# Layouts are immutable values with structural hashing, so a bounded cache
# (see repro.utils.memo) can answer the repeats.
@memoized(maxsize=16384)
def coalesce(layout: Layout) -> Layout:
    """Simplify a layout without changing it as a function.

    Adjacent flat modes ``(s0:d0, s1:d1)`` merge into ``s0*s1 : d0`` whenever
    ``d1 == s0 * d0``; size-1 modes are dropped.
    """
    flat_shape = flatten(layout.shape)
    flat_stride = flatten(layout.stride)

    result_shape: list[int] = [1]
    result_stride: list[int] = [0]
    for shape, stride in zip(flat_shape, flat_stride):
        if shape == 1:
            continue
        if result_shape[-1] == 1:
            result_shape[-1] = shape
            result_stride[-1] = stride
        elif stride == result_shape[-1] * result_stride[-1]:
            result_shape[-1] = result_shape[-1] * shape
        else:
            result_shape.append(shape)
            result_stride.append(stride)

    if len(result_shape) == 1:
        return Layout(result_shape[0], result_stride[0])
    return Layout(tuple(result_shape), tuple(result_stride))


# --------------------------------------------------------------------------- #
# Composition
# --------------------------------------------------------------------------- #
def composition(layout_a: LayoutOrInt, layout_b) -> Layout:
    """Functional composition ``A ∘ B``: ``(A ∘ B)(c) = A(B(c))``.

    ``layout_b`` may be a Layout, an int (interpreted as the layout ``b:1``),
    a tuple of such (a *tiler*, composed by-mode), or ``None`` (identity).
    """
    layout_a = _as_layout(layout_a)
    if layout_b is None:
        return layout_a
    if isinstance(layout_b, int):
        layout_b = Layout(layout_b)
    if isinstance(layout_b, tuple):
        modes = [composition(layout_a[i], sub) for i, sub in enumerate(layout_b)]
        return make_layout(*modes)
    if not isinstance(layout_b, Layout):
        raise TypeError(f"composition: invalid right operand {layout_b!r}")

    if is_tuple(layout_b.shape):
        modes = [composition(layout_a, layout_b[i]) for i in range(layout_b.rank())]
        return make_layout(*modes)

    # layout_b is a single integral mode s:d
    b_shape = layout_b.shape
    b_stride = layout_b.stride
    if b_stride == 0:
        return Layout(b_shape, 0)

    flat_a = coalesce(layout_a)
    flat_shape = flatten(flat_a.shape)
    flat_stride = flatten(flat_a.stride)

    result_shape: list[int] = []
    result_stride: list[int] = []
    rest_shape = b_shape
    rest_stride = b_stride
    try:
        for shape, stride in zip(flat_shape[:-1], flat_stride[:-1]):
            s1 = shape_div(shape, rest_stride)
            result_shape.append(min(s1, rest_shape))
            result_stride.append(rest_stride * stride)
            rest_shape = shape_div(rest_shape, s1)
            rest_stride = shape_div(rest_stride, shape)
    except ValueError as exc:
        # shape_div raises without naming the operands; re-raise with both
        # layouts so a failed composite is diagnosable at the call site.
        raise ValueError(
            f"composition: layout {layout_a} is not divisible by layout "
            f"{layout_b} ({exc})"
        ) from exc
    result_shape.append(rest_shape)
    result_stride.append(rest_stride * flat_stride[-1])

    if len(result_shape) == 1:
        return coalesce(Layout(result_shape[0], result_stride[0]))
    return coalesce(Layout(tuple(result_shape), tuple(result_stride)))


# --------------------------------------------------------------------------- #
# Complement
# --------------------------------------------------------------------------- #
def complement(layout: LayoutOrInt, cosize_hi: int) -> Layout:
    """The layout covering the codomain indices *not* touched by ``layout``.

    ``complement(L, M)`` is the "rest" layout ``R`` such that ``(L, R)`` is
    an admissible (injective) cover of ``[0, M)``.
    """
    layout = _as_layout(layout)
    flat_shape = flatten(layout.shape)
    flat_stride = flatten(layout.stride)
    pairs = sorted(
        (d, s) for s, d in zip(flat_shape, flat_stride) if not (d == 0 or s == 1)
    )

    result_shape: list[int] = []
    result_stride: list[int] = []
    current = 1
    for stride, shape in pairs:
        if stride % current != 0:
            raise ValueError(
                f"complement: layout {layout} is not complementable in "
                f"[0, {cosize_hi}) (stride {stride} not divisible by "
                f"{current})"
            )
        result_shape.append(stride // current)
        result_stride.append(current)
        current = shape * stride
    result_shape.append(ceil_div(cosize_hi, current))
    result_stride.append(current)

    return coalesce(Layout(tuple(result_shape), tuple(result_stride)))


# --------------------------------------------------------------------------- #
# Right inverse
# --------------------------------------------------------------------------- #
def right_inverse(layout: LayoutOrInt) -> Layout:
    """A layout ``R`` with ``L(R(i)) = i`` for every ``i`` in ``[0, size(R))``.

    The inverse covers the maximal contiguous prefix ``[0, k)`` of the image
    of ``L``.  For a compact bijective layout this is a full inverse.
    """
    layout = _as_layout(layout)
    flat = coalesce(layout)
    shapes = flatten(flat.shape)
    strides = flatten(flat.stride)

    # Domain position (colex) of each flat mode.
    positions = flatten(prefix_product(shapes))

    order = sorted(range(len(shapes)), key=lambda i: strides[i])
    result_shape: list[int] = []
    result_stride: list[int] = []
    current = 1
    for i in order:
        if strides[i] == 0 or shapes[i] == 1:
            continue
        if strides[i] != current:
            break
        result_shape.append(shapes[i])
        result_stride.append(positions[i])
        current = shapes[i] * strides[i]

    if not result_shape:
        return Layout(1, 0)
    return coalesce(Layout(tuple(result_shape), tuple(result_stride)))
