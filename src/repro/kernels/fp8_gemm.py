"""Blockwise-scaled FP8 GEMM (the H100 row of Table II, Fig. 26).

DeepSeek-style FP8 GEMM quantizes A and B in blocks along K (and N), keeping
one FP32 scale per block; the kernel accumulates each K-block's partial
product in FP32 and folds in the per-block scales before adding it to the
running accumulator.  In the tile program below the per-block scale product
is precomputed by the host into a (BM, BN) scale tile per K-block (the
outer product of the row/column scale vectors), which preserves the data
movement and compute structure of the blockwise-scaled kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.frontend.autotune import gemm_tile_candidates
from repro.frontend.script import KernelBuilder
from repro.ir import types
from repro.kernels.common import TileSweepOperator
from repro.layout.layout import Layout
from repro.utils.inttuple import ceil_div

__all__ = ["Fp8GemmConfig", "build_fp8_blockwise_gemm", "Fp8GemmOperator"]


@dataclass(frozen=True)
class Fp8GemmConfig:
    bm: int = 128
    bn: int = 128
    bk: int = 128  # one quantization block per K iteration
    num_threads: int = 128
    num_stages: int = 3


def build_fp8_blockwise_gemm(m: int, n: int, k: int, config: Optional[Fp8GemmConfig] = None):
    """Build the blockwise-scaled FP8 GEMM tile program."""
    config = config or Fp8GemmConfig()
    bm, bn, bk = config.bm, config.bn, config.bk
    trips = max(1, ceil_div(k, bk))
    grid = ceil_div(m, bm) * ceil_div(n, bn)
    hx = KernelBuilder(
        "fp8_blockwise_gemm",
        num_threads=config.num_threads,
        grid_blocks=grid,
        num_stages=config.num_stages,
    )
    fp8 = types.float8_e4m3
    ga = hx.global_view("a", fp8, (bm, bk, trips), layout=Layout((bm, bk, trips), (k, 1, bk)))
    gb = hx.global_view("b", fp8, (bn, bk, trips), layout=Layout((bn, bk, trips), (k, 1, bk)))
    gscale_a = hx.global_view(
        "scale_a", types.float32, (bm, 1, trips), layout=Layout((bm, 1, trips), (trips, 1, 1))
    )
    gscale_b = hx.global_view(
        "scale_b", types.float32, (1, bn, trips), layout=Layout((1, bn, trips), (1, trips, 1))
    )
    gc = hx.global_view("c", types.float16, (bm, bn), layout=Layout((bm, bn), (n, 1)))

    sa = hx.shared_tensor(fp8, (bm, bk), name="sa")
    sb = hx.shared_tensor(fp8, (bn, bk), name="sb")
    ra = hx.register_tensor(fp8, (bm, bk), name="ra")
    rb = hx.register_tensor(fp8, (bn, bk), name="rb")
    r_partial = hx.register_tensor(types.float32, (bm, bn), name="r_partial")
    r_scale_a = hx.register_tensor(types.float32, (bm, 1), name="r_scale_a")
    r_scale_b = hx.register_tensor(types.float32, (1, bn), name="r_scale_b")
    r_acc = hx.register_tensor(types.float32, (bm, bn), name="r_acc")
    hx.fill(r_acc, 0.0)
    with hx.for_range(trips):
        hx.copy(ga, sa)
        hx.copy(gb, sb)
        hx.copy(sa, ra)
        hx.copy(sb, rb)
        hx.fill(r_partial, 0.0)
        hx.gemm(r_partial, ra, rb)
        hx.copy(gscale_a, r_scale_a)
        hx.copy(gscale_b, r_scale_b)
        hx.elementwise(
            lambda acc, partial, sa_, sb_: acc + partial * sa_ * sb_,
            r_acc,
            r_partial,
            r_scale_a,
            r_scale_b,
            fn_name="scaled_accumulate",
            out=r_acc,
        )
    r_out = hx.cast(r_acc, types.float16, name="r_out")
    sc = hx.shared_tensor(types.float16, (bm, bn), name="sc")
    hx.copy(r_out, sc)
    r_store = hx.register_tensor(types.float16, (bm, bn), name="r_store")
    hx.copy(sc, r_store)
    hx.copy(r_store, gc)
    program = hx.build()
    program.unique_global_bytes = float(m * k + n * k + 4 * m * n)
    return program


class Fp8GemmOperator(TileSweepOperator):
    """Host-level blockwise-scaled FP8 GEMM with tile autotuning."""

    kernel_key = "fp8_gemm"

    def _build(self, m: int, n: int, k: int, params: dict):
        # bk stays at one quantization block (Fp8GemmConfig's default).
        return build_fp8_blockwise_gemm(m, n, k, Fp8GemmConfig(**params))

    def _tile_candidates(self, m: int, n: int, k: int) -> list:
        """The tile sweep ``run`` autotunes over for one problem size."""
        candidates = [
            {"bm": c["bm"], "bn": c["bn"]}
            for c in gemm_tile_candidates(m, n, max(k, 128))
            if c["bk"] == 64
        ]
        # Deduplicate (bk collapsed), prefer the larger tiles that minimise
        # redundant traffic, and cap the sweep.
        unique = []
        for cand in candidates:
            if cand not in unique:
                unique.append(cand)
        unique.sort(key=lambda c: -(c["bm"] * c["bn"]))
        unique = unique[: self.max_tile_trials] or [{"bm": 128, "bn": 128}]
        if {"bm": 128, "bn": 128} not in unique:
            unique.append({"bm": 128, "bn": 128})
        return unique
