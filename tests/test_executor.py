"""Functional-correctness tests: compiled programs executed on numpy match
plain numpy references (the "correct by construction" claim)."""

import math

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.frontend import KernelBuilder
from repro.ir import types
from repro.ir.ops import Rearrange
from repro.kernels.attention import AttentionConfig, build_mha_forward
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.layout import Layout
from repro.sim import ExecutionError, run_kernel


def test_staged_copy_roundtrip():
    hx = KernelBuilder("roundtrip", num_threads=64)
    src = hx.global_view("src", types.float16, (32, 32), layout=Layout((32, 32), (32, 1)))
    dst = hx.global_view("dst", types.float16, (32, 32), layout=Layout((32, 32), (32, 1)))
    smem = hx.shared_tensor(types.float16, (32, 32))
    reg = hx.register_tensor(types.float16, (32, 32))
    hx.copy(src, smem)
    hx.copy(smem, reg)
    hx.copy(reg, dst)
    program = hx.build()
    compile_kernel(program, arch="a100", max_candidates=4)

    rng = np.random.default_rng(1)
    data = rng.standard_normal((32, 32)).astype(np.float16)
    buffers = {"src": data.reshape(-1).copy(), "dst": np.zeros(32 * 32, dtype=np.float16)}
    run_kernel(program, buffers)
    np.testing.assert_array_equal(buffers["dst"].reshape(32, 32), data)


def test_gemm_matches_numpy_reference():
    m = n = 64
    k = 64
    program = build_fp16_gemm(m, n, k, GemmConfig(bm=64, bn=64, bk=32, num_stages=2))
    compile_kernel(program, arch="a100", max_candidates=8)

    rng = np.random.default_rng(2)
    a = rng.standard_normal((m, k)).astype(np.float16)
    b = rng.standard_normal((n, k)).astype(np.float16)
    buffers = {
        "a": a.reshape(-1).copy(),
        "b": b.reshape(-1).copy(),
        "c": np.zeros(m * n, dtype=np.float16),
    }
    run_kernel(program, buffers)
    reference = (a.astype(np.float32) @ b.astype(np.float32).T).astype(np.float32)
    out = buffers["c"].reshape(m, n).astype(np.float32)
    np.testing.assert_allclose(out, reference, rtol=2e-2, atol=2e-1)


def _softmax_attention(q, k, v):
    scores = q.astype(np.float64) @ k.astype(np.float64).T / math.sqrt(q.shape[1])
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True) @ v.astype(np.float64)


@pytest.mark.parametrize("arch", ["a100", "mi300", "cpu-sim"])
@pytest.mark.parametrize(
    "kv_len",
    [
        64,
        pytest.param(
            128,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 8: no rescale across KV tiles (no online softmax)",
            ),
        ),
    ],
)
def test_mha_forward_matches_softmax_attention(arch, kv_len):
    # TV synthesis inserts a rearrange into this kernel; the executor must
    # give the rearrange's destination a register file of its own.
    d = 64
    config = AttentionConfig(block_q=64, block_kv=64, head_dim=d)
    program = build_mha_forward(kv_len, d, 1, 1, config)
    compile_kernel(program, arch=arch, max_candidates=8)
    assert any(isinstance(op, Rearrange) and op.inserted for op in program.operations)

    rng = np.random.default_rng(8)
    q = rng.standard_normal((64, d)).astype(np.float16)
    k = rng.standard_normal((kv_len, d)).astype(np.float16)
    v = rng.standard_normal((kv_len, d)).astype(np.float16)
    buffers = {
        "q": q.reshape(-1).copy(),
        "k": k.reshape(-1).copy(),
        "v": v.reshape(-1).copy(),
        "o": np.zeros(64 * d, dtype=np.float16),
    }
    run_kernel(program, buffers)
    out = buffers["o"].reshape(64, d).astype(np.float64)
    np.testing.assert_allclose(out, _softmax_attention(q, k, v), rtol=0, atol=1e-3)


def test_elementwise_and_reduce_semantics():
    hx = KernelBuilder("softmaxish", num_threads=64)
    src = hx.global_view("x", types.float32, (32, 32), layout=Layout((32, 32), (32, 1)))
    out = hx.global_view("y", types.float32, (32, 1), layout=Layout((32, 1), (1, 1)))
    reg = hx.register_tensor(types.float32, (32, 32))
    hx.copy(src, reg)
    squared = hx.elementwise(lambda x: x * x, reg, fn_name="square")
    summed = hx.reduce(squared, dim=1, kind="sum")
    hx.copy(summed, out)
    program = hx.build()
    compile_kernel(program, arch="a100", max_candidates=4)

    rng = np.random.default_rng(3)
    x = rng.standard_normal((32, 32)).astype(np.float32)
    buffers = {"x": x.reshape(-1).copy(), "y": np.zeros(32, dtype=np.float32)}
    run_kernel(program, buffers)
    np.testing.assert_allclose(buffers["y"], (x * x).sum(axis=1), rtol=1e-5)


def test_cast_quantizes_values():
    hx = KernelBuilder("cast", num_threads=32)
    src = hx.global_view("x", types.float32, (16, 16), layout=Layout((16, 16), (16, 1)))
    out = hx.global_view("y", types.float32, (16, 16), layout=Layout((16, 16), (16, 1)))
    reg = hx.register_tensor(types.float32, (16, 16))
    hx.copy(src, reg)
    low = hx.cast(reg, types.int8)
    back = hx.cast(low, types.float32)
    hx.copy(back, out)
    program = hx.build()
    compile_kernel(program, arch="a100", max_candidates=2)
    x = np.linspace(-200, 200, 256, dtype=np.float32).reshape(16, 16)
    buffers = {"x": x.reshape(-1).copy(), "y": np.zeros(256, dtype=np.float32)}
    run_kernel(program, buffers)
    expected = np.clip(np.round(x), -128, 127)
    np.testing.assert_allclose(buffers["y"].reshape(16, 16), expected)


def test_missing_buffer_raises():
    hx = KernelBuilder("missing", num_threads=32)
    src = hx.global_view("present", types.float16, (16, 16), layout=Layout((16, 16), (16, 1)))
    reg = hx.register_tensor(types.float16, (16, 16))
    dst = hx.global_view("also_present", types.float16, (16, 16), layout=Layout((16, 16), (16, 1)))
    hx.copy(src, reg)
    hx.copy(reg, dst)
    program = hx.build()
    compile_kernel(program, arch="a100", max_candidates=2)
    with pytest.raises(ExecutionError):
        run_kernel(program, {"present": np.zeros(256, dtype=np.float16)})


def test_executor_requires_synthesized_layouts():
    hx = KernelBuilder("unsynthesized", num_threads=32)
    src = hx.global_view("a", types.float16, (16, 16), layout=Layout((16, 16), (16, 1)))
    reg = hx.register_tensor(types.float16, (16, 16))
    dst = hx.global_view("b", types.float16, (16, 16), layout=Layout((16, 16), (16, 1)))
    hx.copy(src, reg)
    hx.copy(reg, dst)
    program = hx.build()
    with pytest.raises(RuntimeError):
        run_kernel(program, {"a": np.zeros(256, dtype=np.float16),
                             "b": np.zeros(256, dtype=np.float16)})
