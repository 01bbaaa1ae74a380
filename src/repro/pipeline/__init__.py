"""The pass-based compilation pipeline.

The Fig. 6(c) compiler is organized as named passes that fill one
:class:`CompiledKernel` record per compile, with a content-addressed compile
cache and a batch driver layered on top:

* :mod:`repro.pipeline.context` — ``CompiledKernel`` / ``CompileRequest``;
* :mod:`repro.pipeline.passes` — the five passes and ``run_passes``;
* :mod:`repro.pipeline.cache` — fingerprints, the LRU + on-disk store;
* :mod:`repro.pipeline.driver` — ``compile_program`` (the one compile entry
  point, re-exported as ``repro.compiler.compile_kernel``) and
  ``compile_many``.
"""

from repro.pipeline.cache import (
    CacheEntry,
    CacheStats,
    CompileCache,
    compile_key,
    default_cache,
    program_fingerprint,
)
from repro.pipeline.context import CompiledKernel, CompileRequest
from repro.pipeline.driver import compile_many, compile_program
from repro.pipeline.passes import (
    PASS_REGISTRY,
    CodegenPass,
    CompilerPass,
    InstructionSelectionPass,
    SmemSwizzlePass,
    TimingPass,
    TVSynthesisPass,
    run_passes,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CompileCache",
    "CompiledKernel",
    "CompileRequest",
    "CompilerPass",
    "CodegenPass",
    "InstructionSelectionPass",
    "PASS_REGISTRY",
    "SmemSwizzlePass",
    "TVSynthesisPass",
    "TimingPass",
    "compile_key",
    "compile_many",
    "compile_program",
    "default_cache",
    "program_fingerprint",
    "run_passes",
]
