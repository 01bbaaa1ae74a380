"""Pipeline drivers: single compiles, cached replays and batch compiles.

:func:`compile_program` is the one compile entry point: it resolves the
architecture/instruction set, consults the compile cache, runs the passes
(:func:`~repro.pipeline.passes.run_passes`) over a fresh
:class:`~repro.pipeline.context.CompiledKernel`, and returns that record.
``repro.compiler`` re-exports it as ``compile_kernel``.

:func:`compile_many` batch-compiles a list of programs/requests in request
order on the calling thread, each through :func:`compile_program`, so a
repeated request is a cache hit — the substrate of the autotuning sweep in
:mod:`repro.frontend.autotune`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.instructions.registry import InstructionSet, instruction_set
from repro.ir.graph import KernelProgram
from repro.pipeline.cache import CacheEntry, CompileCache, compile_key, default_cache
from repro.pipeline.context import CompiledKernel, CompileRequest
from repro.pipeline.passes import run_passes
from repro.sim.arch import DEFAULT_ARCH, get_arch

__all__ = ["compile_program", "compile_many"]


def compile_program(
    program: KernelProgram,
    arch=DEFAULT_ARCH,
    instructions: Optional[InstructionSet] = None,
    max_candidates: int = 256,
    cache: Optional[CompileCache] = None,
    backend=None,
) -> CompiledKernel:
    """Run the pass pipeline on one tile program, consulting the cache.

    ``arch`` accepts anything :func:`repro.sim.arch.get_arch` does —
    ``"a100"``/``"h100"``/``"mi300"``/``"cpu-sim"`` names, SM numbers
    (``80``/``90``), or a :class:`GpuArch` — and defaults to
    :data:`repro.sim.arch.DEFAULT_ARCH` (``"a100"``), the same default as
    ``compile_many``.  ``backend`` overrides the architecture's declared
    codegen backend (a ``repro.codegen.BACKENDS`` name or instance); the
    cache key includes the resolved backend, so the same program compiled
    for different targets never shares entries.  ``max_candidates`` bounds
    the leaves the instruction-selection search covers.  Per-copy width
    caps are program data (``Copy.max_vector_bytes``), so a capped program
    caches like any other.  ``cache`` defaults to the process-wide
    :func:`default_cache`; pass a fresh :class:`CompileCache` for an
    isolated compile.
    """
    from repro.codegen.backend import get_backend

    gpu = get_arch(arch)
    target = get_backend(backend if backend is not None else gpu.backend)
    iset = instructions or instruction_set(gpu.sm_arch)
    cache = cache if cache is not None else default_cache()

    key = compile_key(program, gpu, iset, max_candidates, backend=target.name)
    entry = cache.get(key)
    kernel = CompiledKernel(
        program=program,
        arch=gpu,
        instructions=iset,
        max_candidates=max_candidates,
        backend=target,
        # A hit replays the cached winning assignment through the pipeline.
        # All passes run (so the program gets identical layouts installed),
        # but instruction selection evaluates exactly one candidate instead
        # of searching.
        seed_assignment=entry.assignment if entry is not None else None,
        fingerprint=key,
    )
    run_passes(kernel)
    if kernel.cache_hit:
        cache.note_replay()
    else:
        # A miss, or a seed that failed to resolve (e.g. a damaged disk
        # entry) and fell back to the full search: store the fresh result so
        # a stale entry is repaired.
        cache.put(key, CacheEntry(key, kernel.candidate.named_assignment(program)))
    return kernel


def _normalize_request(
    item: Union[CompileRequest, KernelProgram],
    arch,
    instructions: Optional[InstructionSet],
    max_candidates: int,
    backend=None,
) -> CompileRequest:
    if not isinstance(item, CompileRequest):
        item = CompileRequest(program=item)
    return CompileRequest(
        program=item.program,
        arch=item.arch if item.arch is not None else arch,
        instructions=item.instructions if item.instructions is not None else instructions,
        max_candidates=(
            item.max_candidates if item.max_candidates is not None else max_candidates
        ),
        backend=item.backend if item.backend is not None else backend,
    )


def compile_many(
    programs: Sequence[Union[CompileRequest, KernelProgram]],
    arch=DEFAULT_ARCH,
    instructions: Optional[InstructionSet] = None,
    max_candidates: int = 256,
    cache: Optional[CompileCache] = None,
    max_workers: Optional[int] = None,
    return_errors: bool = False,
    backend=None,
) -> List[object]:
    """Batch-compile tile programs through the shared cache.

    Requests compile in order on the calling thread, each through
    :func:`compile_program`, so a request repeating an earlier one is a
    cache hit (a replay) rather than a second search.  Results are returned
    in request order.  With ``return_errors=True``, a failing compile
    yields its exception in the result list instead of raising — the
    autotuner uses this to record *why* a tile candidate was infeasible.
    ``max_workers`` is accepted and ignored.

    Disk-backed caches are flushed **once** for the whole batch: per-put
    write-through would rewrite the entire JSON store per compiled program
    (O(n²) disk I/O across a batch), so the driver wraps the batch in
    :meth:`CompileCache.deferred_writes` — single ``compile_program`` calls
    keep their immediate write-through semantics.
    """
    cache = cache if cache is not None else default_cache()
    requests = [
        _normalize_request(item, arch, instructions, max_candidates, backend)
        for item in programs
    ]
    results: List[object] = []
    with cache.deferred_writes():
        for request in requests:
            try:
                results.append(
                    compile_program(
                        request.program,
                        arch=request.arch,
                        instructions=request.instructions,
                        max_candidates=request.max_candidates,
                        cache=cache,
                        backend=request.backend,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - reported per-request
                if not return_errors:
                    raise
                results.append(exc)
    return results
