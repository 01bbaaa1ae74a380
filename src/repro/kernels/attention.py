"""Fused multi-head attention kernels (Table II rows; Figs. 23, 24, 27).

Two kernels mirror the paper's attention benchmarks:

* :func:`build_mha_forward` — a FlashAttention-style fused forward kernel:
  the query tile stays resident in registers while the kernel streams K/V
  tiles, computing ``QK^T`` and ``PV`` with Tensor Cores and maintaining the
  online-softmax running maximum/normalizer.  This kernel contains two
  ``gemm`` operations connected through register tensors — the case that
  exercises Hexcute's conflict handling / consistent-thread-arrangement
  machinery (Fig. 9).
* :func:`build_mha_decoding` — single-query decoding attention (the
  FlashInfer comparison): one query row attends over a long KV cache; the
  kernel is memory-bound and is dominated by how widely the K/V tiles can be
  loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.pipeline import CompileRequest, compile_many
from repro.frontend.script import KernelBuilder
from repro.ir import types
from repro.kernels.common import OperatorResult, numpy_module
from repro.layout.layout import Layout
from repro.sim.arch import get_arch
from repro.utils.inttuple import ceil_div

__all__ = [
    "AttentionConfig",
    "build_mha_forward",
    "build_mha_decoding",
    "AttentionOperator",
]


@dataclass(frozen=True)
class AttentionConfig:
    """Tile configuration of the fused attention kernels."""

    block_q: int = 64
    block_kv: int = 64
    head_dim: int = 128
    num_threads: int = 128
    num_stages: int = 2


def build_mha_forward(
    seq_len: int,
    head_dim: int,
    num_heads: int,
    batch: int,
    config: Optional[AttentionConfig] = None,
):
    """Fused MHA forward: one thread block per (batch, head, query tile)."""
    config = config or AttentionConfig(head_dim=head_dim)
    bq, bkv, d = config.block_q, config.block_kv, head_dim
    trips = max(1, ceil_div(seq_len, bkv))
    grid = batch * num_heads * ceil_div(seq_len, bq)
    hx = KernelBuilder(
        "mha_forward",
        num_threads=config.num_threads,
        grid_blocks=grid,
        num_stages=config.num_stages,
    )
    f16, f32 = types.float16, types.float32
    scale = 1.0 / math.sqrt(d)

    gq = hx.global_view("q", f16, (bq, d), layout=Layout((bq, d), (d, 1)))
    gk = hx.global_view("k", f16, (bkv, d, trips), layout=Layout((bkv, d, trips), (d, 1, bkv * d)))
    gv = hx.global_view("v", f16, (d, bkv, trips), layout=Layout((d, bkv, trips), (1, d, bkv * d)))
    go = hx.global_view("o", f16, (bq, d), layout=Layout((bq, d), (d, 1)))

    sq = hx.shared_tensor(f16, (bq, d), name="sq")
    sk = hx.shared_tensor(f16, (bkv, d), name="sk")
    sv = hx.shared_tensor(f16, (d, bkv), name="sv")

    rq = hx.register_tensor(f16, (bq, d), name="rq")
    rk = hx.register_tensor(f16, (bkv, d), name="rk")
    rv = hx.register_tensor(f16, (d, bkv), name="rv")
    r_scores = hx.register_tensor(f32, (bq, bkv), name="r_scores")
    r_acc = hx.register_tensor(f32, (bq, d), name="r_acc")
    r_lse = hx.register_tensor(f32, (bq, 1), name="r_lse")

    # Load Q once.
    hx.copy(gq, sq)
    hx.copy(sq, rq)
    hx.fill(r_acc, 0.0)
    hx.fill(r_lse, 0.0)

    with hx.for_range(trips):
        hx.copy(gk, sk)
        hx.copy(sk, rk)
        hx.fill(r_scores, 0.0)
        hx.gemm(r_scores, rq, rk)  # scores = Q @ K^T
        r_max = hx.reduce(r_scores, dim=1, kind="max", name="r_max")
        r_prob = hx.elementwise(
            lambda s, m: numpy_module().exp((s - m) * scale),
            r_scores,
            r_max,
            fn_name="softmax_exp",
            name="r_prob",
        )
        r_sum = hx.reduce(r_prob, dim=1, kind="sum", name="r_sum")
        hx.elementwise(
            lambda lse, add: lse + add,
            r_lse,
            r_sum,
            fn_name="accumulate_lse",
            out=r_lse,
        )
        r_prob16 = hx.cast(r_prob, f16, name="r_prob16")
        hx.copy(gv, sv)
        hx.copy(sv, rv)
        # acc += P @ V : gemm expects (M, K) x (N, K); P is (bq, bkv), V is
        # stored (d, bkv) so the contraction runs over the KV dimension.
        hx.gemm(r_acc, r_prob16, rv)
    r_out = hx.elementwise(
        lambda acc, lse: acc / numpy_module().maximum(lse, 1e-20),
        r_acc,
        r_lse,
        fn_name="normalize",
        name="r_out",
    )
    r_out16 = hx.cast(r_out, f16, name="r_out16")
    so = hx.shared_tensor(f16, (bq, d), name="so")
    hx.copy(r_out16, so)
    r_store = hx.register_tensor(f16, (bq, d), name="r_store")
    hx.copy(so, r_store)
    hx.copy(r_store, go)
    program = hx.build()
    program.unique_global_bytes = 4.0 * batch * num_heads * seq_len * head_dim * 2
    return program


def build_mha_decoding(
    kv_len: int,
    head_dim: int,
    num_heads: int,
    batch: int,
    config: Optional[AttentionConfig] = None,
):
    """Single-query decoding attention over a KV cache (memory bound)."""
    config = config or AttentionConfig(head_dim=head_dim, block_kv=128)
    bkv, d = config.block_kv, head_dim
    trips = max(1, ceil_div(kv_len, bkv))
    grid = batch * num_heads
    hx = KernelBuilder(
        "mha_decoding",
        num_threads=config.num_threads,
        grid_blocks=grid,
        num_stages=config.num_stages,
    )
    f16, f32 = types.float16, types.float32
    scale = 1.0 / math.sqrt(d)

    gq = hx.global_view("q", f16, (1, d), layout=Layout((1, d), (d, 1)))
    gk = hx.global_view("k", f16, (bkv, d, trips), layout=Layout((bkv, d, trips), (d, 1, bkv * d)))
    gv = hx.global_view("v", f16, (bkv, d, trips), layout=Layout((bkv, d, trips), (d, 1, bkv * d)))
    go = hx.global_view("o", f16, (1, d), layout=Layout((1, d), (d, 1)))

    rq = hx.register_tensor(f16, (1, d), name="rq")
    rk = hx.register_tensor(f16, (bkv, d), name="rk")
    rv = hx.register_tensor(f16, (bkv, d), name="rv")
    r_acc = hx.register_tensor(f32, (1, d), name="r_acc")
    r_norm = hx.register_tensor(f32, (1, 1), name="r_norm")

    hx.copy(gq, rq)
    hx.fill(r_acc, 0.0)
    hx.fill(r_norm, 0.0)
    with hx.for_range(trips):
        hx.copy(gk, rk)
        hx.copy(gv, rv)
        # scores[j] = sum_d q[d] * k[j, d]
        r_qk = hx.elementwise(
            lambda k, q: k * q, rk, rq, fn_name="qk_mul", name="r_qk", out_dtype=f32
        )
        r_scores = hx.reduce(r_qk, dim=1, kind="sum", name="r_scores")
        r_prob = hx.elementwise(
            lambda s: numpy_module().exp(s * scale), r_scores, fn_name="softmax_exp", name="r_prob"
        )
        r_sum = hx.reduce(r_prob, dim=0, kind="sum", name="r_sum")
        hx.elementwise(
            lambda n, s: n + s, r_norm, r_sum, fn_name="accumulate_norm", out=r_norm
        )
        r_weighted = hx.elementwise(
            lambda v, p: v * p, rv, r_prob, fn_name="weight_v", name="r_weighted", out_dtype=f32
        )
        r_contrib = hx.reduce(r_weighted, dim=0, kind="sum", name="r_contrib")
        hx.elementwise(
            lambda acc, c: acc + c, r_acc, r_contrib, fn_name="accumulate_o", out=r_acc
        )
    r_out = hx.elementwise(
        lambda acc, n: acc / numpy_module().maximum(n, 1e-20),
        r_acc,
        r_norm,
        fn_name="normalize",
        name="r_out",
    )
    r_out16 = hx.cast(r_out, f16, name="r_out16")
    hx.copy(r_out16, go)
    program = hx.build()
    program.unique_global_bytes = 2.0 * batch * num_heads * kv_len * head_dim * 2
    return program


class AttentionOperator:
    """Host-level fused attention (forward or decoding)."""

    def __init__(self, arch="a100", mode: str = "forward", max_candidates: int = 8, cache=None):
        if mode not in ("forward", "decoding"):
            raise ValueError(f"unknown attention mode {mode!r}")
        self.arch = get_arch(arch)
        self.mode = mode
        self.max_candidates = max_candidates
        # Optional repro.pipeline.CompileCache; None uses the process default.
        self.cache = cache

    def requests(
        self, batch: int, num_heads: int, seq_len: int, head_dim: int
    ) -> List[CompileRequest]:
        """The compile request ``run`` issues for the same shape."""
        build = build_mha_forward if self.mode == "forward" else build_mha_decoding
        program = build(seq_len, head_dim, num_heads, batch)
        return [CompileRequest(program, self.arch, max_candidates=self.max_candidates)]

    def run(
        self,
        batch: int,
        num_heads: int,
        seq_len: int,
        head_dim: int,
    ) -> OperatorResult:
        (kernel,) = compile_many(
            self.requests(batch, num_heads, seq_len, head_dim), cache=self.cache
        )
        if self.mode == "forward":
            flops = 4.0 * batch * num_heads * seq_len * seq_len * head_dim
        else:
            flops = 4.0 * batch * num_heads * seq_len * head_dim
        return OperatorResult(
            name=f"mha_{self.mode}_{batch}x{num_heads}x{seq_len}x{head_dim}",
            arch=self.arch,
            latency_us=kernel.latency_us,
            flops=flops,
            lines_of_code=kernel.lines_of_code(),
            kernels={"attention": kernel},
        )
