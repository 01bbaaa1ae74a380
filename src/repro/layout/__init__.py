"""Layout algebra: the foundation of Hexcute's layout synthesis.

This package implements CuTe-style layouts (hierarchical shape:stride
functions), the core of their algebra (coalesce, composition, complement,
right inverse), thread-value layouts for register tensors, swizzles
for bank-conflict-free shared memory, parameterized layout constraints
with unification, and the integer-set-relation view
(:mod:`repro.layout.relation`) that serves as an independent oracle for
the closed-form algebra.
"""

from repro.layout.layout import (
    Layout,
    make_layout,
    make_ordered_layout,
    row_major,
    column_major,
)
from repro.layout.algebra import (
    coalesce,
    composition,
    complement,
    right_inverse,
)
from repro.layout.relation import LayoutRelation
from repro.layout.tv import TVLayout, make_tv_layout, rebase_strides
from repro.layout.swizzle import (
    Swizzle,
    ComposedLayout,
    candidate_swizzles,
    swizzle_window_key,
)
from repro.layout.constraint import (
    StrideVar,
    ConstraintMode,
    LayoutConstraint,
    UnificationError,
    unify,
)

__all__ = [
    "Layout",
    "make_layout",
    "make_ordered_layout",
    "row_major",
    "column_major",
    "coalesce",
    "composition",
    "complement",
    "right_inverse",
    "LayoutRelation",
    "TVLayout",
    "make_tv_layout",
    "rebase_strides",
    "Swizzle",
    "ComposedLayout",
    "candidate_swizzles",
    "swizzle_window_key",
    "StrideVar",
    "ConstraintMode",
    "LayoutConstraint",
    "UnificationError",
    "unify",
]
