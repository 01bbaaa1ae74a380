"""The serving step-latency model: (model config, backend, batch) -> latency.

A continuous-batching simulator recomposes its decode batch every step, so
it asks for step latencies at many different batch sizes, thousands of
times.  Recompiling the underlying kernels per query (what
``e2e.engine.decode_latency`` used to do inline) would dwarf the simulated
traffic, so this module turns the per-operator latencies into a reusable
provider with two levels of reuse:

* **memoization** — per-operator latencies are cached on
  ``(config, backend, batch)``, so repeated queries are dictionary lookups;
* **batch-size bucketing** — serving queries round the batch up to a fixed
  bucket (powers of two by default), the same trick real engines use to
  bound the number of captured CUDA graphs / compiled kernel shapes.  The
  whole bucket set can be **precompiled up front** through
  :func:`repro.pipeline.compile_many`: one batch compiles the hexcute
  operators' ``requests`` — exactly the programs their ``run`` compiles —
  so kernel compilation cost is paid once per bucket at serving startup
  (and a warm compile cache makes that startup measurably faster — the
  cold-vs-warm experiment in ``benchmarks/bench_serving.py``).  Without a
  precompile, each (config, backend, bucket) cell compiles on its first
  lookup through the same cache, so buckets the traffic never reaches are
  never compiled; the latencies are identical either way.

:func:`hexcute_operator` maps each operator class of a step (attention /
MoE / Mamba scan / FFN) to its hexcute operator and shape arguments, and
:func:`operator_us` times it on a backend — the composition ``e2e.engine``
reports as Fig. 13; ``decode_latency`` delegates here, so end-to-end and
serving numbers come from one source.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines import (
    TritonMoeOperator,
    TritonScanOperator,
    cublas_gemm,
    cutlass_fp8_gemm,
    flash_attention_decoding,
    mamba_library_scan,
    marlin_old_moe,
)
from repro.kernels.attention import AttentionOperator
from repro.kernels.fp8_gemm import Fp8GemmOperator
from repro.kernels.gemm import GemmOperator
from repro.kernels.mamba import SelectiveScanOperator
from repro.kernels.moe import MixedTypeMoeOperator
from repro.instructions.registry import instruction_set
from repro.pipeline.cache import CompileCache, compile_key, default_cache
from repro.pipeline.context import CompileRequest
from repro.pipeline.driver import compile_many
from repro.sim.arch import DEFAULT_EVAL_ARCH, get_arch

__all__ = [
    "DEFAULT_BATCH_BUCKETS",
    "PrecompileStats",
    "StepLatencyModel",
    "hexcute_operator",
    "operator_plan",
    "operator_us",
    "shared_step_model",
]

# Decode batch sizes the serving layer compiles kernels for; queries round
# up to the next bucket (and clamp to the largest).
DEFAULT_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


# --------------------------------------------------------------------------- #
# Per-operator step latencies (moved out of e2e.engine)
# --------------------------------------------------------------------------- #
def hexcute_operator(name: str, arch, config, batch: int, cache=None) -> Tuple[object, tuple]:
    """The hexcute operator behind operator class ``name`` of one decode step
    of ``config`` at ``batch``, and the shape arguments of its ``run`` and
    ``requests`` (the baselines take the same shapes)."""
    tp = config.tensor_parallel
    if name == "attention":
        heads = max(1, config.num_heads // tp)
        op = AttentionOperator(arch=arch, mode="decoding", cache=cache)
        return op, (batch, heads, config.kv_len, config.head_dim)
    if name == "moe":
        op = MixedTypeMoeOperator(
            arch=arch, num_experts=config.moe_experts, top_k=config.moe_top_k,
            n=config.moe_intermediate, k=max(1, config.hidden_size // tp), cache=cache,
        )
        return op, (batch,)
    if name == "mamba_scan":
        d_inner = max(64, config.mamba_d_inner // tp)
        return SelectiveScanOperator(arch=arch, cache=cache), (batch, config.kv_len, d_inner)
    if name == "ffn":
        gemm = Fp8GemmOperator if config.weight_dtype == "fp8" else GemmOperator
        m, n = max(batch, 16), max(256, config.ffn_intermediate // tp)
        return gemm(arch=arch, max_tile_trials=2, cache=cache), (m, n, config.hidden_size)
    raise KeyError(f"unknown operator class {name!r}")


def operator_us(name: str, arch, config, batch: int, backend: str, cache=None) -> float:
    """One invocation of operator class ``name`` on ``backend``, in microseconds."""
    op, args = hexcute_operator(name, arch, config, batch, cache)
    if backend == "hexcute":
        return op.run(*args).latency_us
    if name == "attention":
        return flash_attention_decoding(arch, *args).latency_us
    if name == "moe":
        if backend == "marlin-old":
            return marlin_old_moe(arch, batch, op.num_experts, op.top_k, op.n, op.k).latency_us
        op = TritonMoeOperator(
            arch=arch, num_experts=op.num_experts, top_k=op.top_k, n=op.n, k=op.k, cache=cache
        )
        return op.run(batch).latency_us
    if name == "mamba_scan":
        if backend == "triton":
            return TritonScanOperator(arch, cache=cache).run(*args).latency_us
        return mamba_library_scan(arch, *args).latency_us
    gemm = cutlass_fp8_gemm if config.weight_dtype == "fp8" else cublas_gemm
    return gemm(arch, *args).latency_us


def operator_plan(config, backend: str) -> List[Tuple[str, int, str]]:
    """The operator classes one decode step of ``config`` runs.

    Returns ``(op_name, layer_count, effective_backend)`` triples in the
    canonical breakdown order.  The generic ``"baseline"`` backend resolves
    to the concrete per-operator baseline the paper compares against
    (Triton MoE, the Mamba library scan); other backends pass through.
    """
    plan: List[Tuple[str, int, str]] = [("attention", config.num_layers, backend)]
    if config.moe_layers:
        plan.append(("moe", config.moe_layers, "triton" if backend == "baseline" else backend))
    if config.mamba_layers:
        plan.append(
            ("mamba_scan", config.mamba_layers, "mamba-lib" if backend == "baseline" else backend)
        )
    if config.dense_ffn_layers:
        plan.append(("ffn", config.dense_ffn_layers, backend))
    return plan


# --------------------------------------------------------------------------- #
# The memoized provider
# --------------------------------------------------------------------------- #
@dataclass
class PrecompileStats:
    """What one :meth:`StepLatencyModel.precompile` batch did.

    ``requests`` counts every (config, operator, bucket) tile program
    considered; ``already_cached`` those whose fingerprint was found in the
    compile cache (the warm-startup path: no passes run at all);
    ``compiled`` the distinct programs actually sent through
    ``compile_many``.
    """

    requests: int
    compiled: int
    already_cached: int
    errors: int
    seconds: float
    # CacheStats delta over the batch (puts on a cold start).
    cache_delta: Dict[str, int] = field(default_factory=dict)


class StepLatencyModel:
    """Memoized (model config, backend, batch size) -> step latency.

    ``config`` objects are :class:`repro.e2e.ModelConfig`-shaped (any frozen
    dataclass with the same fields works).  Serving queries are *bucketed*:
    the batch size rounds up to the next entry of ``buckets`` so the model
    only ever compiles kernels for a fixed set of batch shapes.
    ``bucketed=False`` (used by ``decode_latency``) evaluates at the exact
    batch size instead, still memoized.
    """

    def __init__(
        self,
        arch=DEFAULT_EVAL_ARCH,
        buckets: Sequence[int] = DEFAULT_BATCH_BUCKETS,
        cache: Optional[CompileCache] = None,
    ):
        self.arch = get_arch(arch)
        self.buckets = tuple(sorted({int(b) for b in buckets}))
        if not self.buckets or self.buckets[0] < 1:
            raise ValueError(f"buckets must be positive integers, got {buckets!r}")
        self.cache = cache
        self._memo: Dict[Tuple, Dict[str, float]] = {}
        self._lock = threading.Lock()
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------ #
    def bucket_for(self, batch: int) -> int:
        """The smallest bucket >= ``batch``.

        A batch above the largest bucket used to be *silently clamped* —
        timed as if it were the largest bucket, so a simulator configured
        with ``max_batch_size`` above the bucket set underestimated every
        step.  It is now an error; callers that legitimately need a larger
        bucket extend the set with :meth:`ensure_bucket` (the
        :class:`~repro.serving.simulator.ServingSimulator` constructor
        does this for its ``max_batch_size``).
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        for bucket in self.buckets:
            if batch <= bucket:
                return bucket
        raise ValueError(
            f"batch {batch} exceeds the largest step-latency bucket "
            f"{self.buckets[-1]}; call ensure_bucket({batch}) (or construct the "
            f"model with larger buckets) instead of relying on a silent clamp"
        )

    def ensure_bucket(self, batch: int) -> int:
        """Guarantee a bucket covering ``batch`` exists; return that bucket.

        Extends the bucket set with the next power of two >= ``batch``
        (keeping the power-of-two discipline real engines use for captured
        kernel shapes).  Memoized latencies are unaffected: buckets only
        ever grow, and existing queries keep resolving to their old
        buckets.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        with self._lock:
            if batch > self.buckets[-1]:
                new_bucket = 1 << (batch - 1).bit_length()
                self.buckets = tuple(sorted(set(self.buckets) | {new_bucket}))
        return self.bucket_for(batch)

    def operator_latencies_us(
        self,
        config,
        backend: str = "hexcute",
        batch: int = 1,
        *,
        bucketed: bool = True,
        parallel: bool = True,
    ) -> Dict[str, float]:
        """Per-operator latencies (us) of one decode step, memoized.

        A memo miss evaluates the step's operators in order on the calling
        thread.  ``parallel`` is accepted and ignored.
        """
        effective = self.bucket_for(batch) if bucketed else int(batch)
        key = (config, backend, effective)
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self.memo_hits += 1
                return dict(cached)
            self.memo_misses += 1

        per_op = {
            name: operator_us(name, self.arch, config, effective, op_backend, self.cache)
            for name, _, op_backend in operator_plan(config, backend)
        }

        with self._lock:
            # Concurrent misses compute identical values; first writer wins.
            per_op = self._memo.setdefault(key, per_op)
        return dict(per_op)

    def step_breakdown_ms(
        self,
        config,
        backend: str = "hexcute",
        batch: int = 1,
        *,
        bucketed: bool = True,
    ) -> Tuple[float, Dict[str, float]]:
        """Whole-step latency (ms) plus the per-operator-class breakdown."""
        per_op_us = self.operator_latencies_us(config, backend, batch, bucketed=bucketed)
        breakdown: Dict[str, float] = {}
        step_us = 0.0
        for name, layers, _ in operator_plan(config, backend):
            total_us = per_op_us[name] * layers
            breakdown[name] = total_us / 1000.0
            step_us += total_us
        return step_us / 1000.0, breakdown

    def step_latency_ms(
        self, config, backend: str = "hexcute", batch: int = 1, *, bucketed: bool = True
    ) -> float:
        """Latency of one decode step at ``batch`` concurrent requests."""
        step_ms, _ = self.step_breakdown_ms(config, backend, batch, bucketed=bucketed)
        return step_ms

    # ------------------------------------------------------------------ #
    # Bucket precompilation
    # ------------------------------------------------------------------ #
    def precompile_requests(
        self, config, backend: str = "hexcute", buckets: Optional[Iterable[int]] = None
    ) -> List[CompileRequest]:
        """The compile requests evaluation at each bucket will issue.

        Each operator's ``requests`` returns exactly what its ``run``
        compiles, so the fingerprints match and the later evaluation
        compiles become cache replays.  Only the hexcute backend
        contributes; the library baselines are analytical and the Triton
        baselines compile on first lookup.
        """
        requests: List[CompileRequest] = []
        if backend != "hexcute":
            return requests
        buckets = self.buckets if buckets is None else tuple(sorted({int(b) for b in buckets}))
        for name, _, _ in operator_plan(config, backend):
            for bucket in buckets:
                op, args = hexcute_operator(name, self.arch, config, bucket)
                requests.extend(op.requests(*args))
        return requests

    def precompile(
        self,
        configs,
        backend: str = "hexcute",
        buckets: Optional[Iterable[int]] = None,
        max_workers: Optional[int] = None,
    ) -> PrecompileStats:
        """Compile every bucket's kernels up front, in one batch.

        ``configs`` is one model config or a sequence of them.  The tile
        programs of all (config, operator, bucket) combinations are
        fingerprinted against the compile cache first — a shape the cache
        already holds is *skipped outright* (a warm serving startup runs no
        compiler passes at all, it just verifies fingerprints), which is
        what makes warm startup dramatically cheaper than cold.  The
        remaining distinct programs go through a single
        :func:`repro.pipeline.compile_many` call, in order on the calling
        thread.  Build failures are tolerated (the corresponding tile was
        infeasible); the returned stats carry the cache-stats delta so cold
        and warm startups can be told apart.  ``max_workers`` is accepted
        and ignored.
        """
        if hasattr(configs, "num_layers"):  # a single ModelConfig-shaped object
            configs = [configs]
        cache = self.cache if self.cache is not None else default_cache()
        before = cache.stats.as_dict()
        start = time.perf_counter()

        requests: List[CompileRequest] = []
        for config in configs:
            requests.extend(self.precompile_requests(config, backend, buckets))
        # Dedupe by fingerprint and drop shapes the cache already holds.
        distinct: Dict[str, CompileRequest] = {}
        already_cached = 0
        for request in requests:
            iset = request.instructions or instruction_set(self.arch.sm_arch)
            key = compile_key(
                request.program, self.arch, iset, request.max_candidates,
                backend=self.arch.backend,
            )
            if key in cache:
                already_cached += 1
            else:
                distinct.setdefault(key, request)

        results = compile_many(
            list(distinct.values()),
            arch=self.arch,
            cache=cache,
            return_errors=True,
        )
        seconds = time.perf_counter() - start
        errors = sum(1 for r in results if isinstance(r, BaseException))
        delta = {
            key: value - before.get(key, 0) for key, value in cache.stats.as_dict().items()
        }
        return PrecompileStats(
            requests=len(requests),
            compiled=len(results) - errors,
            already_cached=already_cached,
            errors=errors,
            seconds=seconds,
            cache_delta=delta,
        )


# --------------------------------------------------------------------------- #
# The process-wide shared models (one per architecture)
# --------------------------------------------------------------------------- #
_shared_models: Dict[str, StepLatencyModel] = {}
_shared_lock = threading.Lock()


def shared_step_model(arch=DEFAULT_EVAL_ARCH) -> StepLatencyModel:
    """The process-wide :class:`StepLatencyModel` for ``arch``.

    ``e2e.decode_latency`` routes through this, so repeated calls at the
    same (config, batch, backend, arch) are near-free memo hits.
    """
    gpu = get_arch(arch)
    with _shared_lock:
        model = _shared_models.get(gpu.name)
        if model is None:
            model = _shared_models[gpu.name] = StepLatencyModel(arch=gpu)
        return model
