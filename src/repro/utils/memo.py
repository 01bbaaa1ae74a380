"""Bounded memoization for the pure layout-algebra hot paths.

Layouts (and the IntTuples they are built from) are immutable, structurally
hashable values, so functions of them are pure.  Three layout-algebra
helpers are memoized — ``coalesce``, ``idx2crd`` and ``prefix_product`` —
because the compiler calls them with a small working set of distinct
arguments and many repeats.  Composition, complement, right inverse and
injectivity are not: the compiler reaches them only below the anchor and
base-layout memos described further down, so their own memos mostly
missed.

Layout evaluation is not memoized either: a ``Layout`` evaluates integer
coordinates on its flat form, which it computes once
(:mod:`repro.layout.layout`), and only other coordinates reach the
unmemoized ``crd2idx``.

The registry also holds the anchor tilings that TV synthesis seeds from
and that recur across the compiles of a batch (the tiled MMA, the
coalesced-copy and reduce TV layouts of :mod:`repro.synthesis.tiling`),
a warp's strided access coordinates and a shared buffer's materialized
base layout (:mod:`repro.synthesis.smem_solver`), so equal anchors share
one value across programs.  Their public functions check integer
arguments before the lookup: ``64.0`` and ``True`` hash and compare like
``64`` and ``1``, so a key built from raw arguments would skip the check.

:func:`memoized` wraps a function in a bounded :func:`functools.lru_cache`
and records it in a process-wide registry so that benchmarks and tests can
inspect hit rates (:func:`cache_stats`) or reset state (:func:`clear_caches`)
without importing every cached module individually.  A memo stays only
while measured traffic pays for it: ``benchmarks/bench_compile_time.py
--smoke`` prints each one's hits and lookups over a cold batch of compiles.

The caches are *value* caches: results may be shared between callers, which
is safe precisely because layouts are never mutated after construction.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict

__all__ = ["memoized", "cache_stats", "clear_caches"]

# name -> lru_cache-wrapped function
_REGISTRY: Dict[str, Callable] = {}


def memoized(maxsize: int = 8192, name: str | None = None) -> Callable:
    """Decorator: memoize a pure function behind a bounded LRU cache.

    All arguments must be hashable.  Exceptions are not cached (an argument
    combination that raises is recomputed on every call), matching
    :func:`functools.lru_cache` semantics.
    """

    def decorate(fn: Callable) -> Callable:
        wrapped = functools.lru_cache(maxsize=maxsize)(fn)
        _REGISTRY[name or f"{fn.__module__}.{fn.__qualname__}"] = wrapped
        return wrapped

    return decorate


def cache_stats() -> Dict[str, "functools._CacheInfo"]:
    """Per-function :func:`functools.lru_cache` statistics, keyed by name."""
    return {name: fn.cache_info() for name, fn in _REGISTRY.items()}


def clear_caches() -> None:
    """Drop every registered cache (useful for isolated measurements)."""
    for fn in _REGISTRY.values():
        fn.cache_clear()
