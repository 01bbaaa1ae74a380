"""The KV-cache memory model: per-replica budgets and block accounting.

Continuous batching exists because decode is memory-bound *and* memory-
limited: every running request pins one KV-cache entry per generated token
per layer, so the number of requests a replica can actually hold is decided
by HBM capacity, not by a slot count.  This module gives the serving
simulator that constraint, vLLM-style:

* :func:`weight_bytes` / :func:`kv_bytes_per_token` — coarse per-replica
  footprints derived from a :class:`~repro.e2e.ModelConfig` (weights are
  sharded at ``tensor_parallel``; KV is ``2 x layers x heads x head_dim``
  at the KV dtype width per token);
* :func:`kv_budget_blocks` — the per-replica block budget: HBM capacity
  (``GpuArch.hbm_gb``) times a utilization headroom, minus weights,
  divided by the per-block byte cost;
* :class:`KvBlockManager` — paged-attention-style block accounting: each
  request holds ``ceil(tokens / block_tokens)`` blocks, growing one token
  per decode step; the simulator allocates/releases through it and
  preempts when a step would exceed the budget;
* :class:`KvMemoryView` — the per-step record handed to schedulers so a
  memory-aware policy can order admissions by block cost without being
  able to mutate the accounting.

**Determinism contract.** Everything is integer block arithmetic on
deterministic inputs, so the accounting adds no nondeterminism to the
simulator.

**Digest compatibility.** The budget only ever *removes* admissions or
*adds* preemptions; a run that never touches either limit executes the
same trace at any budget size, which is why an infinite budget and a
pool just large enough for the whole workload digest identically.  Tests
assert this per scheduler and workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Mapping

from repro.sim.arch import GpuArch, get_arch

__all__ = [
    "DEFAULT_HBM_UTILIZATION",
    "DEFAULT_KV_BLOCK_TOKENS",
    "KvBlockManager",
    "KvMemoryView",
    "blocks_for_tokens",
    "kv_budget_blocks",
    "kv_bytes_per_token",
    "weight_bytes",
]

# Tokens per KV block (vLLM's default page size).
DEFAULT_KV_BLOCK_TOKENS = 16

# Fraction of HBM the engine may use (vLLM's ``gpu_memory_utilization``):
# the rest is headroom for activations, CUDA graphs and fragmentation.
DEFAULT_HBM_UTILIZATION = 0.9

# Storage width of the model weights by dtype name (bytes per parameter).
_WEIGHT_DTYPE_BYTES = {
    "fp32": 4.0,
    "fp16": 2.0,
    "bf16": 2.0,
    "fp8": 1.0,
    "awq-int4": 0.5,
    "int4": 0.5,
}

# The KV cache is stored at fp16 regardless of the weight dtype.
_KV_DTYPE_BYTES = 2.0


@lru_cache(maxsize=None)
def blocks_for_tokens(tokens: int, block_tokens: int = DEFAULT_KV_BLOCK_TOKENS) -> int:
    """Blocks a context of ``tokens`` tokens occupies (>= 1).

    The one place the block-granularity arithmetic lives;
    :class:`KvBlockManager` and :class:`KvMemoryView` delegate here, and
    benchmarks/tests sizing a budget against a workload should too.
    Memoized: admission prices the same token counts over and over (every
    scheduler's ``select`` asks for each candidate it admits, and
    ``memory-aware`` for the whole backlog), and the answer is pure integer
    arithmetic.
    """
    return max(1, math.ceil(tokens / block_tokens))


def _dtype_bytes(name: str) -> float:
    try:
        return _WEIGHT_DTYPE_BYTES[name]
    except KeyError:
        raise KeyError(
            f"unknown weight dtype {name!r} (expected one of {sorted(_WEIGHT_DTYPE_BYTES)})"
        )


def weight_bytes(config) -> float:
    """Per-replica weight footprint of ``config``, in bytes.

    A coarse parameter count over the operator classes the decode step runs
    (attention QKVO projections, MoE expert FFNs, Mamba in/out projections,
    dense FFNs), at the weight dtype's storage width, sharded across
    ``tensor_parallel`` replicas.  Embeddings are excluded (they are small
    next to the expert/FFN weights for every evaluated model and their
    vocabulary size is not part of :class:`~repro.e2e.ModelConfig`).
    """
    h = config.hidden_size
    params = 4.0 * h * h * config.num_layers  # Q/K/V/O projections
    if config.moe_layers:
        params += (
            float(config.moe_layers)
            * config.moe_experts
            * 3.0  # gate / up / down
            * h
            * config.moe_intermediate
        )
    if config.mamba_layers:
        # in_proj (h -> 2*d_inner), out_proj (d_inner -> h) and the small
        # conv/dt/state parameters folded into one d_inner*h-sized term.
        params += float(config.mamba_layers) * 4.0 * h * config.mamba_d_inner
    if config.dense_ffn_layers:
        params += float(config.dense_ffn_layers) * 3.0 * h * config.ffn_intermediate
    return params * _dtype_bytes(config.weight_dtype) / max(1, config.tensor_parallel)


def kv_bytes_per_token(config) -> float:
    """Per-replica KV-cache bytes one token of context pins.

    ``2`` (K and V) x attention layers x per-replica heads x head_dim at
    the KV storage width (fp16).
    """
    heads = max(1, config.num_heads // max(1, config.tensor_parallel))
    return 2.0 * config.num_layers * heads * config.head_dim * _KV_DTYPE_BYTES


def kv_budget_blocks(
    config,
    arch,
    block_tokens: int = DEFAULT_KV_BLOCK_TOKENS,
    hbm_utilization: float = DEFAULT_HBM_UTILIZATION,
) -> int:
    """The per-replica KV block budget of ``config`` on ``arch``.

    ``hbm_gb x utilization`` minus the sharded weights, divided by the byte
    cost of one ``block_tokens``-token block.  Raises if the model's
    weights alone exceed the usable capacity (the deployment is simply
    impossible at this tensor-parallel degree).
    """
    if block_tokens < 1:
        raise ValueError(f"block_tokens must be >= 1, got {block_tokens}")
    if not 0.0 < hbm_utilization <= 1.0:
        raise ValueError(f"hbm_utilization must be in (0, 1], got {hbm_utilization}")
    gpu: GpuArch = get_arch(arch)
    usable = gpu.hbm_gb * 1e9 * hbm_utilization
    free_bytes = usable - weight_bytes(config)
    if free_bytes <= 0:
        raise ValueError(
            f"{config.name}: weights ({weight_bytes(config) / 1e9:.1f} GB per replica) "
            f"exceed usable HBM ({usable / 1e9:.1f} GB) on {gpu.name} at "
            f"tensor_parallel={config.tensor_parallel}"
        )
    block_bytes = kv_bytes_per_token(config) * block_tokens
    return max(1, int(free_bytes // block_bytes))


@dataclass(slots=True)
class KvMemoryView:
    """The block pool as a scheduler policy sees it for one admission call.

    ``used_blocks`` / ``peak_used_blocks`` expose the pool's pressure so a
    policy (or the prefix store) never has to reach into the mutable
    manager.  ``resident_prefixes`` maps a shared prefix id to the tokens
    of that prefix pinned in the pool (whole blocks only), and
    ``free_blocks`` counts reclaimable prefix blocks as free; see
    :meth:`repro.serving.prefix.PrefixStore.view`, which builds a fresh
    record per call for the engine to hand its scheduler.  The block
    counts are fixed when the record is built; the map the store passes
    is its live read-only proxy, so a policy reads it within the call
    and copies it if it keeps it.
    """

    block_tokens: int
    total_blocks: int
    free_blocks: int
    used_blocks: int = 0
    peak_used_blocks: int = 0
    resident_prefixes: Mapping[str, int] = field(default_factory=dict)

    def blocks_for(self, tokens: int) -> int:
        return blocks_for_tokens(tokens, self.block_tokens)

    def admission_blocks(self, request) -> int:
        """Blocks a request needs to join: its prompt plus the first
        generated token, so admission never forces an immediate preemption
        to grow the request it just admitted.

        Prefix-aware: a request carrying a ``prefix_id`` whose shared
        prefix is already resident is charged only its *private* suffix
        blocks (the copy-on-write tail).  A non-resident prefix is charged
        in full — the shared and private parts of a block-aligned split
        sum to exactly ``blocks_for(prompt + 1)``, so without residency
        the prefix changes nothing.
        """
        prefix_id = getattr(request, "prefix_id", None)
        if prefix_id is not None:
            shared_blocks = request.prefix_tokens // self.block_tokens
            if shared_blocks:
                private = self.blocks_for(
                    request.prompt_tokens + 1 - shared_blocks * self.block_tokens
                )
                if self.resident_prefixes.get(prefix_id, 0) >= (
                    shared_blocks * self.block_tokens
                ):
                    return private
                return shared_blocks + private
        return self.blocks_for(request.prompt_tokens + 1)


class KvBlockManager:
    """Paged KV-cache accounting: request id -> blocks held.

    ``allocate`` is *absolute* (it sets the holding to what ``tokens``
    tokens require), so growing a request by one decode token is
    ``allocate(rid, prompt + done + 1)`` and re-admission after preemption
    naturally starts from the prompt again.
    """

    def __init__(self, total_blocks: int, block_tokens: int = DEFAULT_KV_BLOCK_TOKENS):
        if total_blocks < 1:
            raise ValueError(f"total_blocks must be >= 1, got {total_blocks}")
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1, got {block_tokens}")
        self.total_blocks = total_blocks
        self.block_tokens = block_tokens
        self._held: Dict[int, int] = {}
        # Incremental sum of self._held.values(): the engine reads the pool
        # level every step (and the cluster per routed request), so it must
        # be O(1), not a scan of every holding.
        self._used = 0
        self.peak_used_blocks = 0

    # ------------------------------------------------------------------ #
    @property
    def used_blocks(self) -> int:
        return self._used

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used

    @property
    def utilization(self) -> float:
        return self._used / self.total_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks a context of ``tokens`` tokens occupies (>= 1)."""
        return blocks_for_tokens(tokens, self.block_tokens)

    def held(self, request_id: int) -> int:
        return self._held.get(request_id, 0)

    # ------------------------------------------------------------------ #
    def fits(self, request_id: int, tokens: int) -> bool:
        """Whether growing ``request_id`` to ``tokens`` tokens fits."""
        delta = self.blocks_for(tokens) - self.held(request_id)
        return delta <= self.free_blocks

    def allocate(self, request_id: int, tokens: int) -> int:
        """Grow (or create) a holding to cover ``tokens`` tokens.

        Returns the blocks newly taken from the pool.  Raises if the pool
        cannot cover the growth — the simulator must preempt first — or if
        the call would *shrink* the holding: contexts only ever grow one
        decode token at a time, and the one way a holding gets smaller is
        :meth:`release` (finish or preemption), so a shrinking allocate is
        a caller bug, not a request to free blocks.
        """
        target = self.blocks_for(tokens)
        held = self._held.get(request_id, 0)
        delta = target - held
        if delta < 0:
            raise ValueError(
                f"allocate would shrink request {request_id}'s holding from "
                f"{held} to {target} blocks; use release() to free blocks"
            )
        if delta > self.total_blocks - self._used:
            raise RuntimeError(
                f"KV pool exhausted: request {request_id} needs {delta} more "
                f"blocks but only {self.free_blocks}/{self.total_blocks} are free"
            )
        self._held[request_id] = target
        self._used += delta
        if self._used > self.peak_used_blocks:
            self.peak_used_blocks = self._used
        return delta

    def release(self, request_id: int) -> int:
        """Free a request's blocks (finish or preemption); returns them."""
        freed = self._held.pop(request_id, 0)
        self._used -= freed
        return freed

    def reset(self) -> None:
        """Drop every holding at once — the replica-crash wipe.

        The pool is empty afterwards, as if freshly constructed;
        ``peak_used_blocks`` survives, it describes the run's high-water
        mark, not the current pool.
        """
        self._held.clear()
        self._used = 0
