"""Shared low-level utilities for the Hexcute reproduction.

The layout algebra (``repro.layout``) is built on top of *integer tuples*
(possibly nested tuples of non-negative integers) exactly as CuTe's
``IntTuple`` concept.  This package collects the tuple manipulation helpers
and small arithmetic utilities used throughout the compiler.
"""

from repro.utils.inttuple import (
    IntTuple,
    is_int,
    is_tuple,
    flatten,
    product,
    congruent,
    shape_div,
    crd2idx,
    idx2crd,
    prefix_product,
    ceil_div,
    unflatten_like,
)

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
