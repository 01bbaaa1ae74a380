"""Tests for Algorithm 1 (thread-value layout synthesis)."""

import pytest

from repro.frontend import KernelBuilder
from repro.instructions import instruction_set
from repro.ir import types
from repro.ir.ops import Rearrange
from repro.kernels.attention import build_mha_forward
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.layout import Layout
from repro.synthesis import ThreadValueSolver, TVSynthesisError, check_gemm_constraint

from strategies import covers_tile_oracle


def small_gemm_program():
    return build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32, num_stages=2))


def test_gemm_program_fully_solved():
    program = small_gemm_program()
    solution = ThreadValueSolver(program, instruction_set(80)).solve()
    for tensor in program.register_tensors():
        assert tensor.tv_layout is not None
        assert tuple(tensor.tv_layout.tile_shape) == tuple(tensor.shape)


def test_gemm_anchor_layouts_satisfy_constraints():
    program = small_gemm_program()
    solution = ThreadValueSolver(program, instruction_set(80)).solve()
    gemm = program.gemms()[0]
    instruction = gemm.selected_instruction
    assert instruction is not None
    assert check_gemm_constraint(
        gemm.a.tv_layout, gemm.b.tv_layout, gemm.c.tv_layout, instruction
    )


def test_cast_propagates_layout():
    program = small_gemm_program()
    ThreadValueSolver(program, instruction_set(80)).solve()
    casts = [op for op in program.operations if op.op_name == "cast"]
    assert casts
    for cast in casts:
        assert cast.src.tv_layout.equivalent(cast.dst.tv_layout)


def test_copy_anchor_component_without_gemm():
    hx = KernelBuilder("memcpy", num_threads=128)
    src = hx.global_view("src", types.float16, (128, 64), layout=Layout((128, 64), (64, 1)))
    dst = hx.global_view("dst", types.float16, (128, 64), layout=Layout((128, 64), (64, 1)))
    reg = hx.register_tensor(types.float16, (128, 64))
    hx.copy(src, reg)
    hx.copy(reg, dst)
    program = hx.build()
    solution = ThreadValueSolver(program, instruction_set(80)).solve()
    assert covers_tile_oracle(reg.tv_layout)
    assert len(solution.anchors) == 1


def test_annotation_is_respected():
    hx = KernelBuilder("annotated", num_threads=64)
    src = hx.global_view("src", types.float16, (64, 64), layout=Layout((64, 64), (64, 1)))
    dst = hx.global_view("dst", types.float16, (64, 64), layout=Layout((64, 64), (64, 1)))
    reg = hx.register_tensor(types.float16, (64, 64))
    from repro.synthesis import coalesced_copy_tv

    forced = coalesced_copy_tv((64, 64), Layout((64, 64), (1, 64)), 64, 8)
    reg.annotate_tv(forced)
    hx.copy(src, reg)
    hx.copy(reg, dst)
    program = hx.build()
    ThreadValueSolver(program, instruction_set(80)).solve()
    assert reg.tv_layout.equivalent(forced)


def test_multi_gemm_conflict_inserts_rearrange():
    # The FlashAttention-style kernel chains one gemm's accumulator into the
    # next gemm's A operand; the solver must reconcile the two layouts.
    program = build_mha_forward(128, 64, 1, 1)
    ThreadValueSolver(program, instruction_set(80)).solve()
    rearranges = [op for op in program.operations if isinstance(op, Rearrange)]
    assert rearranges, "expected a rearrange to resolve the layout conflict"
    for op in rearranges:
        assert op.src.tv_layout is not None and op.dst.tv_layout is not None


def test_unsupported_gemm_dtype_raises():
    hx = KernelBuilder("bad_gemm", num_threads=128)
    a = hx.register_tensor(types.int4, (64, 64))
    b = hx.register_tensor(types.int4, (64, 64))
    c = hx.register_tensor(types.float32, (64, 64))
    g = hx.global_view("out", types.float32, (64, 64))
    hx.gemm(c, a, b)
    hx.copy(c, g)
    program = hx.build()
    with pytest.raises(TVSynthesisError):
        ThreadValueSolver(program, instruction_set(80)).solve()
