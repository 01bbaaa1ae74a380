"""FP16 GEMM kernels written in the Hexcute DSL.

Two variants mirror the paper's Table II rows:

* :func:`build_fp16_gemm` — the pipelined GEMM of Fig. 6 (b)/Fig. 15: global
  tiles are staged through shared memory with asynchronous copies, loaded
  into registers for the Tensor Core ``gemm``, and the accumulator is
  redistributed through shared memory for coalesced global stores.
* :func:`build_warp_specialized_gemm` — the Hopper-style variant where a
  producer warp group performs the memory movement and consumer warp groups
  run the Tensor Core math (Section VII-A, "Warp Specialized FP16 GEMM").

The user writes only the dataflow; every register and shared-memory layout
in these kernels is synthesized by the compiler.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

from repro.frontend.autotune import gemm_tile_candidates
from repro.frontend.script import KernelBuilder
from repro.ir import types
from repro.kernels.common import TileSweepOperator
from repro.layout.layout import Layout
from repro.utils.inttuple import ceil_div

__all__ = [
    "build_fp16_gemm",
    "build_warp_specialized_gemm",
    "GemmConfig",
    "GemmOperator",
]


@dataclass(frozen=True)
class GemmConfig:
    """Tile configuration of one GEMM kernel instance."""

    bm: int = 128
    bn: int = 128
    bk: int = 32
    num_threads: int = 128
    num_stages: int = 3
    in_dtype: types.DataType = types.float16
    out_dtype: types.DataType = types.float16
    acc_dtype: types.DataType = types.float32


def _build_gemm(
    name: str, m: int, n: int, k: int, config: GemmConfig, warp_specialized: bool
):
    """The tile-level dataflow of both GEMM variants.

    The warp-specialized variant issues the same operations inside the
    producer (memory movement) and consumer (Tensor Core math) warp-group
    contexts; the pipelined variant runs them under no-op contexts.
    """
    grid = ceil_div(m, config.bm) * ceil_div(n, config.bn)
    hx = KernelBuilder(
        name,
        num_threads=config.num_threads,
        grid_blocks=grid,
        num_stages=config.num_stages,
        warp_specialized=warp_specialized,
    )
    if warp_specialized:
        producer, consumer = hx.warp_groups_producer, hx.warp_groups_consumer
    else:
        producer = consumer = contextlib.nullcontext
    bm, bn, bk = config.bm, config.bn, config.bk
    trips = max(1, ceil_div(k, bk))
    # Iterator views: one K-slice per loop trip (paper Fig. 15, lines 3-4).
    ga = hx.global_view(
        "a", config.in_dtype, (bm, bk, trips), layout=Layout((bm, bk, trips), (k, 1, bk))
    )
    gb = hx.global_view(
        "b", config.in_dtype, (bn, bk, trips), layout=Layout((bn, bk, trips), (k, 1, bk))
    )
    gc = hx.global_view("c", config.out_dtype, (bm, bn), layout=Layout((bm, bn), (n, 1)))

    sa = hx.shared_tensor(config.in_dtype, (bm, bk), name="sa")
    sb = hx.shared_tensor(config.in_dtype, (bn, bk), name="sb")
    ra = hx.register_tensor(config.in_dtype, (bm, bk), name="ra")
    rb = hx.register_tensor(config.in_dtype, (bn, bk), name="rb")
    rc = hx.register_tensor(config.acc_dtype, (bm, bn), name="rc")
    hx.fill(rc, 0.0)
    with hx.for_range(trips):
        with producer():
            hx.copy(ga, sa)
            hx.copy(gb, sb)
        with consumer():
            hx.copy(sa, ra)
            hx.copy(sb, rb)
            hx.gemm(rc, ra, rb)
    with consumer():
        rc_out = hx.cast(rc, config.out_dtype, name="rc_out")
        # Redistribute through shared memory so the global store is
        # coalesced (paper Fig. 15, lines 14-20).
        sc = hx.shared_tensor(config.out_dtype, (bm, bn), name="sc")
        hx.copy(rc_out, sc)
        r_store = hx.register_tensor(config.out_dtype, (bm, bn), name="r_store")
        hx.copy(sc, r_store)
        hx.copy(r_store, gc)
    program = hx.build()
    program.unique_global_bytes = 2.0 * (m * k + n * k + m * n)  # FP16 A, B and C
    return program


def build_fp16_gemm(m: int, n: int, k: int, config: Optional[GemmConfig] = None):
    """Build the pipelined FP16 GEMM tile program for one problem size."""
    return _build_gemm("fp16_gemm", m, n, k, config or GemmConfig(), warp_specialized=False)


def build_warp_specialized_gemm(m: int, n: int, k: int, config: Optional[GemmConfig] = None):
    """Build the warp-specialized GEMM: producer warps move data, consumer
    warps compute (Hopper)."""
    config = config or GemmConfig(num_threads=256, num_stages=4)
    return _build_gemm("ws_fp16_gemm", m, n, k, config, warp_specialized=True)


class GemmOperator(TileSweepOperator):
    """Host-level FP16 GEMM: picks tile sizes and reports simulated latency."""

    def __init__(
        self,
        arch="a100",
        warp_specialized: bool = False,
        max_candidates: int = 12,
        max_tile_trials: int = 10,
        cache=None,
    ):
        super().__init__(arch, max_candidates, max_tile_trials, cache)
        self.warp_specialized = warp_specialized

    def _build(self, m: int, n: int, k: int, params: dict):
        if self.warp_specialized:
            config = GemmConfig(**params, num_threads=256, num_stages=4)
            return build_warp_specialized_gemm(m, n, k, config)
        return build_fp16_gemm(m, n, k, GemmConfig(**params))

    def _tile_candidates(self, m: int, n: int, k: int) -> list:
        """The tile sweep ``run`` autotunes over for one problem size."""
        candidates = gemm_tile_candidates(m, n, k)
        candidates = [
            c for c in candidates if c["bm"] <= max(64, m) and c["bn"] <= max(64, n)
        ]
        # Prefer tiles that keep every SM busy, and among those the largest
        # (they minimise redundant global traffic); tiles too large to fill
        # the GPU are kept as later fallbacks for small problems.
        def tile_score(c):
            grid = ceil_div(m, c["bm"]) * ceil_div(n, c["bn"])
            fills = grid >= self.arch.num_sms
            return (not fills, -(c["bm"] * c["bn"]) if fills else -grid, -c["bk"])

        candidates.sort(key=tile_score)
        candidates = candidates[: self.max_tile_trials]
        # Always keep the canonical power-of-two tilings in the sweep so the
        # autotuned kernel is never worse than a heuristic fixed-tile choice.
        for fallback in ({"bm": 128, "bn": 128, "bk": 32}, {"bm": 64, "bn": 64, "bk": 32}):
            feasible = fallback["bm"] <= max(64, m) and fallback["bn"] <= max(64, n)
            if feasible and fallback not in candidates:
                candidates.append(fallback)
        return candidates
