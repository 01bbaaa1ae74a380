"""Tests for the tile IR: types, tensors, operations, program graph, printer."""

import warnings

import numpy as np
import pytest

from repro.ir import (
    Cast,
    Copy,
    Gemm,
    KernelProgram,
    ProgramError,
    Reduce,
    Scope,
    TileTensor,
    print_program,
    types,
)
from repro.frontend import KernelBuilder
from repro.layout import row_major


def test_datatype_properties():
    assert types.float16.bits == 16
    assert types.int4.is_subbyte
    assert types.uint4.max_value() == 15
    assert types.from_name("float8_e4m3").bits == 8
    with pytest.raises(KeyError):
        types.from_name("float128")


def test_quantize_int4_saturates():
    q = types.int4.quantize(np.array([100.0, -100.0, 3.4]))
    assert q.tolist() == [7, -8, 3]


# Each row: inputs and what the format holds for them.  Past the largest
# finite value a cast saturates (satfinite); below the smallest normal
# value (2**-6 and 2**-14) it rounds on the subnormal grid (steps of 2**-9
# and 2**-16), so under half a step it is 0.  3.3 is an ordinary normal.
FP8_CASES = {
    "float8_e4m3": (
        [1000.0, -1e6, 448.0, 470.0, 3.3, 0.011, 2.0**-9, 1e-4, 1e-10, np.inf],
        [448.0, -448.0, 448.0, 448.0, 3.25, 6 * 2.0**-9, 2.0**-9, 0.0, 0.0, 448.0],
    ),
    "float8_e5m2": (
        [1e6, -1e5, 57344.0, 3.3, 1e-5, 1e-6, -np.inf],
        [57344.0, -57344.0, 57344.0, 3.5, 2.0**-16, 0.0, -57344.0],
    ),
}


@pytest.mark.parametrize("name", sorted(FP8_CASES))
def test_quantize_fp8_saturates_and_rounds_subnormals(name):
    inputs, expected = FP8_CASES[name]
    assert types.from_name(name).quantize(np.array(inputs)).tolist() == expected


def test_quantize_float16_overflows_to_infinity_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = types.float16.quantize(np.array([1e30, -1e30, 65504.0, 70000.0]))
    assert q.tolist() == [np.inf, -np.inf, 65504.0, np.inf]


def test_quantize_bfloat16_truncates_mantissa():
    value = np.array([1.0 + 2**-12], dtype=np.float32)
    assert types.bfloat16.quantize(value)[0] == pytest.approx(1.0)


def test_global_tensor_requires_layout():
    with pytest.raises(ValueError):
        TileTensor("g", types.float16, Scope.GLOBAL, (4, 4))
    t = TileTensor("g", types.float16, Scope.GLOBAL, (4, 4), layout=row_major((4, 4)))
    assert t.is_global and t.nbytes() == 32


@pytest.mark.parametrize("shape,bad", [((64.9, True), 64.9), ((64, True), True), ((8.0, 4), 8.0)])
def test_tensor_rejects_non_integer_extents(shape, bad):
    """``int(...)`` used to truncate these: ``(64.9, True)`` became
    ``(64, 1)``."""
    with pytest.raises(TypeError) as info:
        TileTensor("a", types.float16, Scope.SHARED, shape)
    assert "'a'" in str(info.value) and repr(bad) in str(info.value)


def test_tensor_accepts_numpy_integer_extents():
    t = TileTensor("a", types.float16, Scope.SHARED, (np.int64(64), np.int32(8)))
    assert t.shape == (64, 8) and all(type(x) is int for x in t.shape)


def test_register_tensor_rejects_memory_layout():
    with pytest.raises(ValueError):
        TileTensor("r", types.float16, Scope.REGISTER, (4, 4), layout=row_major((4, 4)))


def test_copy_shape_checks_and_iterator_views():
    a = TileTensor("a", types.float16, Scope.GLOBAL, (8, 4, 3), layout=row_major((8, 4, 3)))
    s = TileTensor("s", types.float16, Scope.SHARED, (8, 4))
    copy = Copy(a, s)
    assert copy.tile_shape() == (8, 4)
    assert copy.direction == "G2S"
    assert copy.moves_bytes() == 8 * 4 * 2
    with pytest.raises(ValueError):
        Copy(TileTensor("x", types.float16, Scope.SHARED, (4, 4)), s)


def test_register_to_register_copy_rejected():
    r1 = TileTensor("r1", types.float16, Scope.REGISTER, (4, 4))
    r2 = TileTensor("r2", types.float16, Scope.REGISTER, (4, 4))
    with pytest.raises(ValueError):
        Copy(r1, r2)


def test_gemm_shape_validation():
    a = TileTensor("a", types.float16, Scope.REGISTER, (16, 32))
    b = TileTensor("b", types.float16, Scope.REGISTER, (8, 32))
    c = TileTensor("c", types.float32, Scope.REGISTER, (16, 8))
    gemm = Gemm(c, a, b)
    assert gemm.mnk == (16, 8, 32)
    assert gemm.flops() == 2 * 16 * 8 * 32
    bad_c = TileTensor("c2", types.float32, Scope.REGISTER, (8, 16))
    with pytest.raises(ValueError):
        Gemm(bad_c, a, b)


def test_reduce_requires_keepdim_shape():
    src = TileTensor("s", types.float32, Scope.REGISTER, (8, 4))
    good = TileTensor("d", types.float32, Scope.REGISTER, (8, 1))
    Reduce(src, good, dim=1)
    bad = TileTensor("d2", types.float32, Scope.REGISTER, (8,))
    with pytest.raises(ValueError):
        Reduce(src, bad, dim=1)


def test_program_validation_catches_undeclared_tensor():
    program = KernelProgram("bad", num_threads=64)
    ghost = TileTensor("ghost", types.float16, Scope.REGISTER, (4, 4))
    shared = TileTensor("s", types.float16, Scope.SHARED, (4, 4))
    program.add(Copy(ghost, shared))
    with pytest.raises(ProgramError):
        program.validate()


def test_program_partitioning_cuts_at_shared_memory():
    hx = KernelBuilder("partition", num_threads=64)
    g = hx.global_view("x", types.float16, (32, 32))
    r1 = hx.register_tensor(types.float16, (32, 32))
    s = hx.shared_tensor(types.float16, (32, 32))
    r2 = hx.register_tensor(types.float16, (32, 32))
    out = hx.global_view("y", types.float16, (32, 32))
    hx.copy(g, r1)
    hx.copy(r1, s)
    hx.copy(s, r2)
    hx.copy(r2, out)
    program = hx.build()
    components = program.connected_components()
    assert len(components) == 2  # the shared tensor separates the two halves


def test_program_rejects_bad_thread_count():
    with pytest.raises(ProgramError):
        KernelProgram("bad", num_threads=100)


def test_printer_includes_ops_and_layouts():
    hx = KernelBuilder("printed", num_threads=64)
    g = hx.global_view("x", types.float16, (32, 32))
    r = hx.register_tensor(types.float16, (32, 32))
    hx.copy(g, r)
    hx.copy(r, hx.global_view("y", types.float16, (32, 32)))
    text = print_program(hx.build())
    assert "copy" in text and "kernel printed" in text


def test_cast_checks_scope_and_shape():
    r = TileTensor("r", types.float32, Scope.REGISTER, (4, 4))
    out = TileTensor("o", types.float16, Scope.REGISTER, (4, 4))
    Cast(r, out)
    with pytest.raises(ValueError):
        Cast(r, TileTensor("o2", types.float16, Scope.REGISTER, (4, 2)))
