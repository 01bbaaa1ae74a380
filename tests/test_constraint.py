"""Tests for layout constraints and unification (Fig. 10 of the paper)."""

import re

import pytest

from repro.layout import LayoutConstraint, UnificationError, unify
from repro.layout.constraint import ConstraintMode, StrideVar


def test_vectorized_constraint_structure():
    c = LayoutConstraint.from_vectorized_access((64, 64), 0, 8)
    assert c.tensor_shape == (64, 64)
    known = c.known_modes()
    assert len(known) == 1 and known[0].shape == 8 and known[0].stride == 1


def test_unify_refinement_case_1():
    # Fig. 10 (c) Case 1: an 8-wide and a 2-wide constraint on the same dim.
    c1 = LayoutConstraint.from_vectorized_access((64, 64), 0, 8)
    c2 = LayoutConstraint.from_vectorized_access((64, 64), 0, 2)
    merged = c1.unify(c2)
    shapes = [m.shape for m in merged.dims[0]]
    assert shapes[0] == 2  # refined innermost mode
    assert merged.dims[0][0].stride == 1


def test_unify_conflict_case_2():
    # Fig. 10 (c) Case 2: contiguity demanded along both dimensions fails.
    c1 = LayoutConstraint.from_vectorized_access((64, 64), 0, 8)
    c2 = LayoutConstraint.from_vectorized_access((64, 64), 1, 8)
    with pytest.raises(UnificationError):
        c1.unify(c2)


def test_unify_requires_same_shape():
    c1 = LayoutConstraint.from_vectorized_access((64, 64), 0, 8)
    c2 = LayoutConstraint.from_vectorized_access((32, 64), 0, 8)
    with pytest.raises(UnificationError):
        c1.unify(c2)


def test_materialize_produces_compact_injective_layout():
    c1 = LayoutConstraint.from_vectorized_access((64, 64), 0, 8)
    c2 = LayoutConstraint.from_vectorized_access((64, 64), 0, 2)
    layout = c1.unify(c2).materialize()
    assert layout.is_injective()
    assert layout.cosize() == 64 * 64
    # The vectorization requirement survives materialization.
    assert layout((1, 0)) - layout((0, 0)) == 1


def test_materialize_unconstrained():
    layout = LayoutConstraint.unconstrained((16, 32)).materialize()
    assert layout.is_compact()


def test_vector_width_must_divide_extent():
    with pytest.raises(UnificationError):
        LayoutConstraint.from_vectorized_access((12, 64), 0, 8)


@pytest.mark.parametrize(
    "build,bad",
    [
        pytest.param(lambda: LayoutConstraint((2.5, 4), [[ConstraintMode(2, 1)],
                                                       [ConstraintMode(4, 2)]]),
                     2.5, id="init"),
        pytest.param(lambda: LayoutConstraint.unconstrained((64.9, 4)), 64.9,
                     id="unconstrained"),
        pytest.param(lambda: LayoutConstraint.from_vectorized_access((64, True), 0, 8), True,
                     id="vectorized"),
    ],
)
def test_constraint_shapes_reject_non_integer_extents(build, bad):
    """``int(...)`` used to truncate these (``64.9`` became ``64``)."""
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        build()


def test_unify_many():
    constraints = [
        LayoutConstraint.from_vectorized_access((64, 64), 0, v) for v in (2, 4, 8)
    ]
    merged = unify(constraints)
    assert merged.dims[0][0].stride == 1
    merged.materialize()


def test_stride_var_names_are_unique():
    assert StrideVar().name != StrideVar().name


def test_known_mode_conflict_detected():
    c = LayoutConstraint(
        (8, 8),
        [[ConstraintMode(8, 1)], [ConstraintMode(8, 1)]],
    )
    with pytest.raises(UnificationError):
        c.materialize()
