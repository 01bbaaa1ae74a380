"""Per-batch facts are computed once (clock-free work bounds).

A batch of compiles -- here the compile-buckets set: the bucket kernels of
the three paper models at batch sizes 1 and 256 on h100, in a seeded
order -- shares its anchor tilings and shared-memory base layouts through
the process memos, partitions each program once per TV solve, and a warm
startup's replays walk each copy's menu only as far as the entry the
cached assignment names.  Each bound below was 166/746/44 calls, or no
sharing at all, before those reuses.  One GEMM compiled for every backend
in turn reuses the shared-memory base layouts of the first backend's
compile: that traffic is what keeps the base-layout memo.
"""

import random

import pytest

from repro.e2e import DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B
from repro.ir.graph import KernelProgram
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.pipeline import CompileCache, compile_many, compile_program, program_fingerprint
from repro.serving.step_model import StepLatencyModel
from repro.synthesis.search import InstructionSelector
from repro.synthesis.smem_solver import clear_smem_cache
from repro.synthesis.tv_solver import ThreadValueSolver
from repro.utils.memo import cache_stats, clear_caches

ARCH = "h100"
BUCKETS = (1, 256)
ORDER_SEED = 1000


def bucket_batch(order_seed=ORDER_SEED):
    """The compile-buckets requests, shuffled by ``order_seed``."""
    model = StepLatencyModel(arch=ARCH, buckets=BUCKETS)
    requests = []
    for config in (DEEPSEEK_R1_AWQ, JAMBA_MINI, QWEN3_32B):
        for bucket in BUCKETS:
            requests += model.precompile_requests(config, "hexcute", buckets=[bucket])
    random.Random(order_seed).shuffle(requests)
    return requests


def compile_phase(batch, cache):
    """Compile ``batch`` one request per call from cleared memos, as a
    startup does."""
    clear_caches()
    clear_smem_cache()
    results = []
    with cache.deferred_writes():
        for request in batch:
            results += compile_many([request], arch=ARCH, cache=cache)
    return results


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def store(tmp_path):
    """A disk store holding the cold compile of the bucket batch."""
    path = str(tmp_path / "compile-cache.json")
    compile_phase(bucket_batch(), CompileCache(max_entries=4096, disk_path=path))
    return path


def test_replay_phase_builds_no_menus(store, monkeypatch):
    batch = bucket_batch()
    menus = counting(monkeypatch, InstructionSelector, "_build_menu")
    checks = counting(monkeypatch, InstructionSelector, "_vector_valid")
    replays = compile_phase(batch, CompileCache(max_entries=4096, disk_path=store))
    assert all(kernel.cache_hit for kernel in replays)
    assert all(kernel.candidates_explored == 1 for kernel in replays)
    assert len(menus) == 0
    assert len(checks) <= 306


def test_each_tv_solve_partitions_its_program_once(monkeypatch):
    batch = bucket_batch()  # building a program validates it once
    partitions = counting(monkeypatch, KernelProgram, "connected_components")
    solves = counting(monkeypatch, ThreadValueSolver, "solve")
    compile_phase(batch, CompileCache())
    assert len(solves) == len(batch) == 22
    assert len(partitions) == len(solves)


def test_equivalent_programs_of_a_batch_share_their_tv_layouts():
    kernels = compile_phase(bucket_batch(), CompileCache())
    decoding = {}
    for kernel in kernels:
        if kernel.program.name == "mha_decoding":
            decoding.setdefault(kernel.fingerprint, []).append(kernel.program)
    groups = [programs for programs in decoding.values() if len(programs) == 3]
    assert len(groups) == 2  # one per bucket, one program per model
    for first, *others in groups:
        tensors = first.register_tensors()
        assert tensors and all(t.tv_layout is not None for t in tensors)
        for other in others:
            assert [t.tv_layout for t in other.register_tensors()] == [
                t.tv_layout for t in tensors
            ]
            assert all(
                mine.tv_layout is theirs.tv_layout
                for mine, theirs in zip(other.register_tensors(), tensors)
            )

    # Clearing the memos ends the sharing; the layouts stay equal.
    first = groups[0][0]
    rebuilt = next(
        request.program for request in bucket_batch()
        if program_fingerprint(request.program) == program_fingerprint(first)
    )
    clear_caches()
    (fresh,) = compile_many([rebuilt], arch=ARCH, cache=CompileCache())
    pairs = list(zip(fresh.program.register_tensors(), first.register_tensors()))
    assert all(mine.tv_layout == theirs.tv_layout for mine, theirs in pairs)
    assert not any(mine.tv_layout is theirs.tv_layout for mine, theirs in pairs)


def test_later_backends_find_every_base_layout_in_the_memo():
    """bench_compile_time.py's Fig. 22 GEMM config compiled from cleared
    memos for a100, then mi300, then cpu-sim.  The banking differs per
    backend, the buffers and their access constraints do not, so the second
    and third compiles materialize no base layout (15 lookups each)."""
    name = "repro.synthesis.smem_solver._base_layout"
    clear_caches()
    clear_smem_cache()
    cache = CompileCache()
    counts = []
    for arch in ("a100", "mi300", "cpu-sim"):
        before = cache_stats()[name]
        program = build_fp16_gemm(4096, 4096, 4096, GemmConfig(bm=128, bn=128, bk=32))
        compile_program(program, arch=arch, max_candidates=102, cache=cache)
        after = cache_stats()[name]
        counts.append((after.hits - before.hits, after.misses - before.misses))
    assert counts[0][1] > 0
    for hits, misses in counts[1:]:
        assert hits > 0 and misses == 0
