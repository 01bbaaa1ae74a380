"""Fig. 12: accuracy of the analytical cost model — the selected candidate is
within ~1.01x of the best candidate across GEMM shapes.

Each shape compiles normally (branch-and-bound selection on the cost model).
The reference is the lowest timing-model latency over every valid candidate
of a fresh build.  The timing model is not a function of the cost model's
``total_cycles`` alone — it weights stall and issue cycles by different
wave counts and applies DRAM/compute rooflines — so here it stands in for
timing each candidate on hardware."""

from repro.codegen import get_backend
from repro.compiler import compile_kernel
from repro.instructions.registry import instruction_set
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.pipeline import CompileCache
from repro.reporting import format_series
from repro.sim.arch import get_arch
from repro.sim.timing import estimate_kernel_latency
from repro.synthesis.search import InstructionSelector
from repro.synthesis.tv_solver import ThreadValueSolver

SHAPES = [(64, 64, 128), (128, 64, 128), (128, 128, 128), (64, 128, 256)]
MAX_CANDIDATES = 48


def best_timed_latency_us(program, arch) -> float:
    """The lowest timing-model latency over every valid candidate."""
    gpu = get_arch(arch)
    iset = instruction_set(gpu.sm_arch)
    selector = InstructionSelector(
        program, ThreadValueSolver(program, iset).solve(), iset,
        max_candidates=MAX_CANDIDATES,
        bank_params=get_backend(gpu.backend).smem_bank_params(gpu),
    )
    return min(
        estimate_kernel_latency(program, c.cost, gpu).latency_us
        for c in selector.all_valid_candidates()
    )


def build_series():
    ratios = []
    for m, n, k in SHAPES:
        def build():
            return build_fp16_gemm(m, n, k, GemmConfig(bm=min(128, m), bn=min(128, n), bk=32))

        compiled = compile_kernel(
            build(), arch="a100", max_candidates=MAX_CANDIDATES, cache=CompileCache()
        )
        ratios.append(compiled.latency_us / best_timed_latency_us(build(), "a100"))
    return ratios


def test_fig12(once):
    ratios = once(build_series)
    print()
    print(format_series("Fig. 12: selected / optimal candidate latency", "shape",
                        {"ratio": ratios}, [f"{m}x{n}x{k}" for m, n, k in SHAPES]))
    assert max(ratios) <= 1.01
