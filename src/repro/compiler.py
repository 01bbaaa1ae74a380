"""The Hexcute compilation pipeline (Fig. 6 c of the paper).

``compile_kernel`` (the same function as
:func:`repro.pipeline.compile_program`) takes a tile-level
:class:`KernelProgram` written with the DSL and runs, in order:

1. thread-value layout synthesis (Algorithm 1);
2. instruction selection over the DFS search tree, with shared-memory layout
   synthesis and the analytical cost model ranking every valid candidate;
3. swizzle selection and installation of the winning layouts;
4. lowering / CUDA-like source emission;
5. the architecture timing model, producing the simulated kernel latency
   used by the benchmark harness.

These stages are the passes of :mod:`repro.pipeline` (``tv-synthesis``,
``instruction-selection``, ``smem-swizzle``, ``codegen``, ``timing``), each
independently invokable and timed, run behind the content-addressed
compile cache.

The result is the :class:`CompiledKernel` the passes filled (defined in
:mod:`repro.pipeline.context`): the compile's inputs, the synthesized
layouts, the chosen instructions, the emitted source, the latency estimate,
and the per-pass statistics of the compile that produced it.
"""

from repro.pipeline.context import CompiledKernel
from repro.pipeline.driver import compile_program as compile_kernel

__all__ = ["CompiledKernel", "compile_kernel"]
