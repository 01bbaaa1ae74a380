"""Pass-pipeline tests: per-pass stats, partial runs, batch compiles, and
the refactor-equivalence check against the seed (pre-refactor) pipeline."""

import pytest

from repro.codegen import CUDA_DIALECT, emit_gpu_source
from repro.compiler import compile_kernel
from repro.frontend.autotune import autotune_compile
from repro.instructions.registry import instruction_set
from repro.kernels.attention import build_mha_decoding
from repro.kernels.fp8_gemm import build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.mamba import build_selective_scan
from repro.kernels.moe import build_moe_gemm
from repro.pipeline import (
    PASS_REGISTRY,
    CompileCache,
    CompiledKernel,
    CodegenPass,
    InstructionSelectionPass,
    SmemSwizzlePass,
    TimingPass,
    TVSynthesisPass,
    compile_many,
    compile_program,
    run_passes,
)
from repro.sim.arch import get_arch
from repro.sim.timing import estimate_kernel_latency
from repro.synthesis.search import InstructionSelector
from repro.synthesis.tv_solver import ThreadValueSolver


def seed_compile(program, arch, max_candidates):
    """The seed's monolithic compile_kernel, reproduced verbatim as the
    pre-refactor reference: TV synthesis -> search -> apply -> timing ->
    codegen, with no caching and no pass structure."""
    gpu = get_arch(arch)
    iset = instruction_set(gpu.sm_arch)
    tv_solution = ThreadValueSolver(program, iset).solve()
    selector = InstructionSelector(program, tv_solution, iset, max_candidates=max_candidates)
    best = selector.best()
    best.apply(program)
    timing = estimate_kernel_latency(program, best.cost, gpu)
    source = emit_gpu_source(program, best, gpu, CUDA_DIALECT)
    return best, timing, source


KERNEL_FAMILIES = [
    ("gemm", lambda: build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32)), "a100"),
    ("fp8_gemm", lambda: build_fp8_blockwise_gemm(128, 128, 128), "h100"),
    ("attention", lambda: build_mha_decoding(128, 64, 2, 1), "a100"),
    ("mamba", lambda: build_selective_scan(128, 128, 1), "h100"),
    ("moe", lambda: build_moe_gemm(16, 128, 128), "h100"),
]


@pytest.mark.parametrize("name,build,arch", KERNEL_FAMILIES, ids=[f[0] for f in KERNEL_FAMILIES])
def test_pipeline_equivalent_to_seed(name, build, arch):
    """The refactored pass path must reproduce the seed pipeline exactly:
    same latency estimate, same instruction assignment, same source."""
    seed_program = build()
    seed_best, seed_timing, seed_source = seed_compile(seed_program, arch, max_candidates=8)
    kernel = compile_kernel(build(), arch=arch, max_candidates=8, cache=CompileCache())
    assert kernel.latency_us == seed_timing.latency_us
    assert kernel.source == seed_source
    assert kernel.candidate.named_assignment(kernel.program) == seed_best.named_assignment(
        seed_program
    )


def test_pass_stats_exposed_on_result():
    kernel = compile_kernel(
        build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32)),
        arch="a100",
        max_candidates=4,
        cache=CompileCache(),
    )
    assert list(kernel.pass_times()) == list(PASS_REGISTRY)
    assert all(seconds >= 0.0 for seconds in kernel.pass_stats.values())
    # The search counters ride along in pass_stats under dotted keys but are
    # excluded from the timing view and from compile_seconds().
    assert "instruction-selection.leaves_evaluated" in kernel.pass_stats
    assert "instruction-selection.leaves_pruned" in kernel.pass_stats
    assert "instruction-selection.subproblems_memoized" in kernel.pass_stats
    assert kernel.compile_seconds() > 0.0
    assert kernel.compile_seconds() == sum(kernel.pass_times().values())
    assert "pass times" in kernel.summary()


def test_partial_run_and_individual_passes():
    build = lambda: build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32))
    gpu = get_arch("a100")
    kernel = CompiledKernel(
        program=build(),
        arch=gpu,
        instructions=instruction_set(gpu.sm_arch),
        max_candidates=4,
    )
    TVSynthesisPass().run(kernel)
    assert kernel.tv_solution is not None and kernel.candidate is None
    InstructionSelectionPass().run(kernel)
    assert kernel.candidate is not None
    assert kernel.source is None and kernel.timing is None
    assert kernel.pass_stats["instruction-selection.leaves_evaluated"] > 0

    # The remaining passes are independently invokable on the same record.
    SmemSwizzlePass().run(kernel)
    CodegenPass().run(kernel)
    TimingPass().run(kernel)
    assert "__global__" in kernel.source
    # A record filled pass by pass is what compile_program returns.
    compiled = compile_program(build(), arch=gpu, max_candidates=4, cache=CompileCache())
    assert kernel.source == compiled.source
    assert kernel.latency_us == compiled.latency_us > 0


def test_compile_many_matches_serial_and_dedupes():
    cache = CompileCache()
    build = lambda bk, k: build_fp16_gemm(64, 64, k, GemmConfig(bm=64, bn=64, bk=bk))
    programs = [build(32, 64), build(64, 128), build(32, 64)]  # last = duplicate
    results = compile_many(programs, arch="a100", max_candidates=4, cache=cache)
    assert len(results) == 3
    serial = [
        compile_kernel(build(32, 64), arch="a100", max_candidates=4, cache=CompileCache()),
        compile_kernel(build(64, 128), arch="a100", max_candidates=4, cache=CompileCache()),
    ]
    assert results[0].latency_us == serial[0].latency_us
    assert results[1].latency_us == serial[1].latency_us
    assert results[0].source == serial[0].source
    # The duplicate was served from the cache, not re-searched.
    assert results[2].cache_hit
    assert results[2].latency_us == results[0].latency_us
    assert cache.stats.puts == 2


def test_compile_many_returns_errors_when_asked():
    from repro.ir.graph import KernelProgram, ProgramError
    from repro.ir.ops import Copy
    from repro.ir.tensor import Scope, TileTensor
    from repro.ir import types
    from repro.layout.layout import Layout

    good = lambda: build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32))
    # Structurally invalid: the copy's operands were never declared through
    # global_view/register_tensor, so validation fails during tv-synthesis.
    bad = KernelProgram("bad", num_threads=32)
    src = TileTensor("src", types.float16, Scope.GLOBAL, (8, 8), layout=Layout((8, 8), (8, 1)))
    dst = TileTensor("dst", types.float16, Scope.REGISTER, (8, 8))
    bad.add(Copy(src, dst))

    results = compile_many(
        [good(), bad], arch="a100", max_candidates=2, cache=CompileCache(),
        return_errors=True,
    )
    assert results[0].latency_us > 0
    assert isinstance(results[1], ProgramError)

    # A failing request repeated around a good one fails in both slots.
    results = compile_many(
        [bad, good(), bad], arch="a100", max_candidates=2, cache=CompileCache(),
        return_errors=True,
    )
    assert isinstance(results[0], ProgramError)
    assert results[1].latency_us > 0
    assert isinstance(results[2], ProgramError)

    with pytest.raises(ProgramError):
        compile_many([bad], arch="a100", max_candidates=2, cache=CompileCache())
    with pytest.raises(ProgramError):
        compile_many([bad, good(), bad], arch="a100", max_candidates=2, cache=CompileCache())


def test_autotune_compile_records_build_failures():
    def build(params):
        if params["bk"] > 32:
            raise ValueError(f"bk={params['bk']} exceeds K")
        return build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=params["bk"]))

    result = autotune_compile(
        build,
        [{"bk": 64}, {"bk": 32}],
        arch="a100",
        max_candidates=4,
        cache=CompileCache(),
    )
    assert result.best_params == {"bk": 32}
    assert result.best_kernel is not None
    assert result.best_kernel.latency_us == result.best_latency_us
    failures = result.failures()
    assert len(failures) == 1 and "exceeds K" in failures[0].error

    # Nothing feasible: the sweep raises, naming the rejection reasons.
    with pytest.raises(RuntimeError, match="bk=64 exceeds K"):
        autotune_compile(build, [{"bk": 64}], arch="a100", max_candidates=4, cache=CompileCache())



def test_compile_kernel_is_compile_program():
    assert compile_kernel is compile_program


def test_compile_program_returns_the_record_its_passes_filled(monkeypatch):
    import repro.compiler
    import repro.pipeline.driver as driver

    filled = []

    def recording_run_passes(kernel):
        filled.append(kernel)
        run_passes(kernel)

    monkeypatch.setattr(driver, "run_passes", recording_run_passes)
    kernel = compile_program(
        build_fp16_gemm(64, 64, 64, GemmConfig(bm=64, bn=64, bk=32)),
        arch="a100",
        max_candidates=4,
        cache=CompileCache(),
    )
    assert len(filled) == 1 and filled[0] is kernel
    assert repro.compiler.CompiledKernel is CompiledKernel
