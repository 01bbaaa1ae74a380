"""Parameterized layout constraints and unification (Section V of the paper).

A *layout constraint* is a layout over a tensor's coordinate space in which
some modes have known (integer) strides while the others carry free stride
variables.  Every ``copy`` touching a shared-memory tensor contributes one
constraint: the mode structure encodes "this many elements, walked along
this tensor dimension, must land on contiguous addresses" (the alignment of
the selected instruction).  The compiler *unifies* the constraints of all
copies touching the same buffer and then *materializes* the free strides so
the final layout is an injective, compact mapping of the buffer.

Example (Fig. 10 of the paper) — a ``(64, 64)`` tensor:

    C1 = ((8, 8), 64) : ((1, D1), D2)          # 8 contiguous along dim 0
    C2 = ((8, 2, 4), 64) : ((1, D1', 8), D2')  # finer refinement of dim 0
    unify(C1, C2) = ((8, 2, 4), 64) : ((1, D1', 8), D2)

whereas unifying a dim-0-contiguous constraint with a dim-1-contiguous one
fails (two distinct stride-1 modes would alias the same addresses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from repro.layout.algebra import complement, composition
from repro.layout.layout import Layout, as_ints
from repro.utils.inttuple import product

__all__ = [
    "StrideVar",
    "ConstraintMode",
    "LayoutConstraint",
    "UnificationError",
    "unify",
]

_counter = itertools.count()


def _fresh_name() -> str:
    return f"D{next(_counter)}"


@dataclass(frozen=True)
class StrideVar:
    """A free (not yet determined) stride variable."""

    name: str = field(default_factory=_fresh_name)

    def __repr__(self) -> str:
        return self.name


Stride = Union[int, StrideVar]


@dataclass(frozen=True)
class ConstraintMode:
    """One mode of a layout constraint: an extent with a known or free stride."""

    shape: int
    stride: Stride

    @property
    def known(self) -> bool:
        return isinstance(self.stride, int)

    def __repr__(self) -> str:
        return f"{self.shape}:{self.stride}"


class UnificationError(Exception):
    """Raised when two layout constraints cannot be merged."""


class LayoutConstraint:
    """A per-dimension refinement of a tensor shape with partially-known strides.

    ``dims[i]`` is the ordered (innermost first) list of modes refining
    tensor dimension ``i``; the product of their shapes equals the dimension
    extent.
    """

    def __init__(self, tensor_shape: Sequence[int], dims: Sequence[Sequence[ConstraintMode]]):
        self.tensor_shape = as_ints(tensor_shape, "constraint tensor shape")
        self.dims: List[List[ConstraintMode]] = [list(modes) for modes in dims]
        if len(self.dims) != len(self.tensor_shape):
            raise ValueError("constraint must have one mode list per tensor dimension")
        for extent, modes in zip(self.tensor_shape, self.dims):
            if product(tuple(m.shape for m in modes)) != extent:
                raise ValueError(
                    f"modes {modes} do not factor dimension extent {extent}"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def unconstrained(cls, tensor_shape: Sequence[int]) -> "LayoutConstraint":
        """A constraint with every dimension a single free mode."""
        tensor_shape = as_ints(tensor_shape, "constraint tensor shape")
        dims = [[ConstraintMode(extent, StrideVar())] for extent in tensor_shape]
        return cls(tensor_shape, dims)

    @classmethod
    def from_vectorized_access(
        cls,
        tensor_shape: Sequence[int],
        contiguous_dim: int,
        vector_elems: int,
    ) -> "LayoutConstraint":
        """The constraint produced by a copy whose instruction accesses
        ``vector_elems`` contiguous elements along ``contiguous_dim``."""
        tensor_shape = as_ints(tensor_shape, "constraint tensor shape")
        if not 0 <= contiguous_dim < len(tensor_shape):
            raise ValueError(f"contiguous_dim {contiguous_dim} out of range")
        extent = tensor_shape[contiguous_dim]
        if vector_elems <= 0 or extent % vector_elems != 0:
            raise UnificationError(
                f"vector width {vector_elems} does not divide extent {extent} "
                f"of dimension {contiguous_dim}"
            )
        dims: List[List[ConstraintMode]] = []
        for i, dim_extent in enumerate(tensor_shape):
            if i == contiguous_dim:
                modes = [ConstraintMode(vector_elems, 1)]
                if dim_extent // vector_elems > 1:
                    modes.append(ConstraintMode(dim_extent // vector_elems, StrideVar()))
            else:
                modes = [ConstraintMode(dim_extent, StrideVar())]
            dims.append(modes)
        return cls(tensor_shape, dims)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        return product(self.tensor_shape)

    def known_modes(self) -> List[ConstraintMode]:
        return [m for dim in self.dims for m in dim if m.known and m.shape > 1]

    def free_modes(self) -> List[ConstraintMode]:
        return [m for dim in self.dims for m in dim if not m.known and m.shape > 1]

    def __repr__(self) -> str:
        dims = ",".join(
            "(" + ",".join(repr(m) for m in modes) + ")" for modes in self.dims
        )
        return f"Constraint[{dims}]"

    # ------------------------------------------------------------------ #
    # Unification
    # ------------------------------------------------------------------ #
    def unify(self, other: "LayoutConstraint") -> "LayoutConstraint":
        """Merge two constraints over the same tensor shape.

        Raises :class:`UnificationError` when the known modes conflict.
        """
        if self.tensor_shape != other.tensor_shape:
            raise UnificationError(
                f"cannot unify constraints over shapes {self.tensor_shape} "
                f"and {other.tensor_shape}"
            )
        merged_dims = [
            _unify_dim(a, b) for a, b in zip(self.dims, other.dims)
        ]
        result = LayoutConstraint(self.tensor_shape, merged_dims)
        _check_known_consistency(result)
        return result

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def materialize(self) -> Layout:
        """Assign concrete strides to every free mode.

        The free strides are chosen so the resulting layout is a compact
        bijection of ``[0, size)`` that honours every known stride.  Raises
        :class:`UnificationError` when no assignment exists.
        """
        _check_known_consistency(self)
        known = self.known_modes()
        total = self.size()

        if known:
            known_layout = Layout(
                tuple(m.shape for m in known), tuple(m.stride for m in known)
            )
        else:
            known_layout = Layout(1, 0)

        free = self.free_modes()
        free_shapes = tuple(m.shape for m in free)
        assignments: dict[int, int] = {}
        if free:
            try:
                rest = complement(known_layout, total)
                placed = composition(rest, Layout(free_shapes))
            except ValueError as exc:
                raise UnificationError(
                    f"cannot materialize constraint {self}: {exc}"
                ) from exc
            placed_flat = placed.flatten()
            if placed_flat.size() != product(free_shapes):
                raise UnificationError(
                    f"cannot materialize constraint {self}: free modes do not "
                    f"fit the remaining address space"
                )
            strides = _strides_for_shapes(placed, free_shapes)
            for mode, stride in zip(free, strides):
                assignments[id(mode)] = stride

        dims_shapes = []
        dims_strides = []
        for modes in self.dims:
            shapes = []
            strides = []
            for m in modes:
                shapes.append(m.shape)
                if m.known:
                    strides.append(m.stride)
                elif m.shape == 1:
                    strides.append(0)
                else:
                    strides.append(assignments[id(m)])
            if len(shapes) == 1:
                dims_shapes.append(shapes[0])
                dims_strides.append(strides[0])
            else:
                dims_shapes.append(tuple(shapes))
                dims_strides.append(tuple(strides))
        layout = Layout(tuple(dims_shapes), tuple(dims_strides))
        if not layout.is_injective():
            raise UnificationError(
                f"materialized layout {layout} is not injective (constraint {self})"
            )
        return layout


def _strides_for_shapes(placed: Layout, shapes: Tuple[int, ...]) -> List[int]:
    """Read per-mode strides out of ``placed`` whose domain is colex over
    ``shapes`` — the stride of mode ``j`` is the address delta of one step
    in that mode."""
    strides = []
    offset = 1
    base = placed(0) if placed.size() else 0
    for shape in shapes:
        if shape == 1:
            strides.append(0)
        else:
            strides.append(placed(offset) - base)
        offset *= shape
    return strides


def _split_mode(mode: ConstraintMode, inner: int) -> Tuple[ConstraintMode, ConstraintMode]:
    """Split a mode into an inner part of extent ``inner`` and the rest."""
    if mode.shape % inner != 0:
        raise UnificationError(
            f"cannot split mode {mode} at {inner}: extents are incompatible"
        )
    outer = mode.shape // inner
    if mode.known:
        return (
            ConstraintMode(inner, mode.stride),
            ConstraintMode(outer, mode.stride * inner),
        )
    return ConstraintMode(inner, StrideVar()), ConstraintMode(outer, StrideVar())


def _merge_aligned(a: ConstraintMode, b: ConstraintMode) -> ConstraintMode:
    """Merge two modes of equal extent."""
    if a.shape != b.shape:
        raise UnificationError(f"internal: merging misaligned modes {a} and {b}")
    if a.known and b.known:
        if a.stride != b.stride:
            raise UnificationError(
                f"conflicting strides for a mode of extent {a.shape}: "
                f"{a.stride} vs {b.stride}"
            )
        return a
    if a.known:
        return a
    if b.known:
        return b
    return a


def _unify_dim(
    dims_a: Sequence[ConstraintMode], dims_b: Sequence[ConstraintMode]
) -> List[ConstraintMode]:
    """Unify two refinement chains of the same dimension extent."""
    queue_a = list(dims_a)
    queue_b = list(dims_b)
    result: List[ConstraintMode] = []
    while queue_a or queue_b:
        if not queue_a or not queue_b:
            raise UnificationError(
                f"refinements {list(dims_a)} and {list(dims_b)} cover different extents"
            )
        mode_a = queue_a[0]
        mode_b = queue_b[0]
        if mode_a.shape == mode_b.shape:
            result.append(_merge_aligned(mode_a, mode_b))
            queue_a.pop(0)
            queue_b.pop(0)
        elif mode_a.shape < mode_b.shape:
            inner, outer = _split_mode(mode_b, mode_a.shape)
            result.append(_merge_aligned(mode_a, inner))
            queue_a.pop(0)
            queue_b[0] = outer
        else:
            inner, outer = _split_mode(mode_a, mode_b.shape)
            result.append(_merge_aligned(inner, mode_b))
            queue_b.pop(0)
            queue_a[0] = outer
    return result


def _check_known_consistency(constraint: LayoutConstraint) -> None:
    """Reject constraints whose known modes alias the same addresses.

    The classic failure (Fig. 10 c, Case 2) is two distinct modes both
    claiming stride 1: distinct tensor elements would share an address.
    """
    known = constraint.known_modes()
    # Any two known modes must not overlap: the address sets
    # {stride * i : i < shape} must be disjoint except at 0.
    for i, a in enumerate(known):
        for b in known[i + 1:]:
            if _modes_overlap(a, b):
                raise UnificationError(
                    f"known modes {a} and {b} alias the same addresses"
                )


def _modes_overlap(a: ConstraintMode, b: ConstraintMode) -> bool:
    addresses_a = {a.stride * i for i in range(1, a.shape)}
    addresses_b = {b.stride * i for i in range(1, b.shape)}
    return bool(addresses_a & addresses_b)


def unify(constraints: Sequence[LayoutConstraint]) -> LayoutConstraint:
    """Unify a non-empty sequence of constraints left to right."""
    if not constraints:
        raise ValueError("unify requires at least one constraint")
    result = constraints[0]
    for constraint in constraints[1:]:
        result = result.unify(constraint)
    return result
