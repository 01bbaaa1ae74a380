"""Tests for the codegen Backend registry (repro.codegen.backend).

Three layers of guarantees:

* **cuda bit-identity** — the default backend reproduces, bit for bit, the
  pre-refactor emitter for all five kernel families
  (``tests/data/golden_backend_digests.json``, recorded on the tree just
  before the registry landed);
* **legitimate divergence** — the rocm backend's wider LDS banking flows
  into swizzle enumeration/conflict scoring, so fig22 GEMM synthesis
  picks a different shared-memory plan than cuda;
* **cache isolation** — the content-addressed compile key includes the
  backend, so the same program compiled for two targets never cross-replays.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.codegen import BACKENDS, get_backend
from repro.codegen import cpu_emitter, cuda_emitter, rocm_emitter
from repro.compiler import compile_kernel
from repro.ir import types as ir_types
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.pipeline.cache import CompileCache
from repro.sim.arch import CPU_SIM, MI300, get_arch

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_backend_digests.json").read_text())

# The recorder module owns the family -> (builder, arch, max_candidates)
# mapping; importing it (instead of duplicating the configs) keeps the gate
# and the recording procedure in lockstep.
_spec = importlib.util.spec_from_file_location(
    "record_backend_goldens", DATA / "record_backend_goldens.py"
)
_recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_recorder)
FAMILY_BUILDS = _recorder.FAMILY_BUILDS


def _fig22_gemm():
    return build_fp16_gemm(4096, 4096, 4096, GemmConfig(bm=128, bn=128, bk=32))


@pytest.fixture(scope="module")
def family_kernels():
    """One fresh (uncached) cuda compile per golden kernel family."""
    kernels = {}
    for family, (build, arch, max_candidates) in FAMILY_BUILDS.items():
        kernels[family] = compile_kernel(
            build(), arch=arch, max_candidates=max_candidates, use_cache=False
        )
    return kernels


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_registry_holds_the_three_backends():
    assert set(BACKENDS) >= {"cuda", "rocm", "cpu-sim"}
    for name, backend in BACKENDS.items():
        assert backend.name == name
        assert get_backend(name) is backend
        # Instances pass through, mirroring get_arch(GpuArch).
        assert get_backend(backend) is backend


def test_get_backend_error_lists_registered_names():
    with pytest.raises(KeyError) as excinfo:
        get_backend("metal")
    message = str(excinfo.value)
    for name in BACKENDS:
        assert name in message


def test_get_arch_error_lists_registered_names():
    with pytest.raises(KeyError) as excinfo:
        get_arch("tpu-v5")
    message = str(excinfo.value)
    for name in ("a100", "h100", "mi300", "cpu-sim"):
        assert name in message


def test_arch_entries_declare_their_backend():
    assert get_arch("a100").backend == "cuda"
    assert get_arch("h100").backend == "cuda"
    assert get_arch("mi300").backend == "rocm"
    assert get_arch("cpu-sim").backend == "cpu-sim"
    # Every declared backend resolves in the registry.
    for spec in ("a100", "h100", "mi300", "cpu-sim"):
        assert get_backend(get_arch(spec).backend).name in BACKENDS


def test_backend_bank_params_follow_the_arch():
    assert get_backend("cuda").smem_bank_params(get_arch("a100")).phase_bytes == 128
    assert get_backend("rocm").smem_bank_params(MI300).phase_bytes == 256
    # cpu-sim is an unbanked scratchpad regardless of the arch entry.
    assert get_backend("cpu-sim").smem_bank_params(CPU_SIM).banks <= 1


# --------------------------------------------------------------------------- #
# cuda bit-identity (the pre-refactor golden gate)
# --------------------------------------------------------------------------- #
def test_cuda_backend_bit_identical_to_prerefactor_goldens(family_kernels):
    assert set(family_kernels) == set(GOLDEN)
    for family, kernel in family_kernels.items():
        entry = GOLDEN[family]
        digest = hashlib.sha256(kernel.source.encode("utf-8")).hexdigest()
        assert digest == entry["source_sha256"], f"{family}: emitted source diverged"
        assignment = [list(t) for t in kernel.candidate.named_assignment(kernel.program)]
        assert assignment == entry["assignment"], f"{family}: winning assignment diverged"
        assert float(kernel.timing.latency_us).hex() == entry["latency_us"], (
            f"{family}: simulated latency diverged"
        )


# --------------------------------------------------------------------------- #
# Golden emission structure, per kernel family x backend
# --------------------------------------------------------------------------- #
def test_emission_structure_per_family_and_backend(family_kernels):
    for family, kernel in family_kernels.items():
        mnemonics = {i.name for i in kernel.candidate.assignment.values()}
        num_threads = kernel.program.num_threads

        has_smem = bool(kernel.candidate.smem_plans)

        cuda_src = kernel.source
        assert f"__launch_bounds__({num_threads})" in cuda_src
        assert ("__shared__" in cuda_src) == has_smem
        if has_smem:
            assert "swizzle" in cuda_src
        for name in mnemonics:
            assert name in cuda_src, f"{family}/cuda: missing mnemonic {name}"

        rocm_src = get_backend("rocm").emit(kernel.program, kernel.candidate, MI300)
        assert "hip_runtime.h" in rocm_src
        assert f"__launch_bounds__({num_threads})" in rocm_src
        if has_smem:
            assert "LDS" in rocm_src
        assert "64-lane" in rocm_src
        for name in mnemonics:
            assert name in rocm_src, f"{family}/rocm: missing mnemonic {name}"

        cpu_src = get_backend("cpu-sim").emit(kernel.program, kernel.candidate, CPU_SIM)
        assert "#pragma omp simd" in cpu_src
        assert "__shared__" not in cpu_src  # no shared-memory stage on cpu-sim
        assert "__launch_bounds__" not in cpu_src
        for name in mnemonics:
            assert name in cpu_src, f"{family}/cpu-sim: missing mnemonic {name}"


# --------------------------------------------------------------------------- #
# fig22 synthesis divergence: cuda vs rocm
# --------------------------------------------------------------------------- #
def test_fig22_gemm_synthesis_diverges_on_rocm(family_kernels):
    cuda = family_kernels["gemm"]  # the fig22 config, per the recorder
    rocm = compile_kernel(_fig22_gemm(), arch="mi300", max_candidates=102, use_cache=False)
    cuda_plans = {t.name: str(p.swizzle) for t, p in cuda.candidate.smem_plans.items()}
    rocm_plans = {t.name: str(p.swizzle) for t, p in rocm.candidate.smem_plans.items()}
    # The wider CDNA banking admits (and rewards) a swizzle the NVIDIA
    # enumeration never considers for the epilogue staging buffer.
    assert cuda_plans != rocm_plans
    assert rocm_plans["sc"] != "Swizzle<0,0,0>"
    assert cuda_plans["sc"] == "Swizzle<0,0,0>"
    assert "rocm" in rocm.source and "hip_runtime.h" in rocm.source


# --------------------------------------------------------------------------- #
# Cross-backend cache isolation
# --------------------------------------------------------------------------- #
def test_same_program_two_backends_two_cache_entries():
    cache = CompileCache(disk_path=None)

    def build():
        return build_fp16_gemm(256, 256, 64, GemmConfig(bm=64, bn=64, bk=32))

    cuda = compile_kernel(build(), arch="a100", max_candidates=8, cache=cache)
    rocm = compile_kernel(build(), arch="a100", backend="rocm", max_candidates=8, cache=cache)
    # Identical program + arch, different backend: no cross-replay.
    assert not cuda.cache_hit and not rocm.cache_hit
    assert cuda.fingerprint != rocm.fingerprint
    assert cache.stats.puts == 2
    assert cuda.source != rocm.source

    # Each backend replays its own entry.
    cuda2 = compile_kernel(build(), arch="a100", max_candidates=8, cache=cache)
    rocm2 = compile_kernel(build(), arch="a100", backend="rocm", max_candidates=8, cache=cache)
    assert cuda2.cache_hit and rocm2.cache_hit
    assert cuda2.fingerprint == cuda.fingerprint
    assert rocm2.fingerprint == rocm.fingerprint
    assert cache.stats.puts == 2


# --------------------------------------------------------------------------- #
# _ctype: every mapped dtype round-trips; unknown dtypes raise
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "emitter", [cuda_emitter, rocm_emitter, cpu_emitter],
    ids=["cuda", "rocm", "cpu-sim"],
)
def test_ctype_roundtrips_every_mapped_dtype(emitter):
    # Every dtype the IR defines has a mapping, and the mapping resolves
    # through _ctype (no silent float fallback).
    assert set(emitter._CTYPE) == {d.name for d in ir_types.all_types()}
    for dtype in ir_types.all_types():
        assert emitter._ctype(dtype) == emitter._CTYPE[dtype.name]


@pytest.mark.parametrize(
    "emitter", [cuda_emitter, rocm_emitter, cpu_emitter],
    ids=["cuda", "rocm", "cpu-sim"],
)
def test_ctype_unknown_dtype_raises_keyerror_listing_known(emitter):
    class FakeDtype:
        name = "float128_imaginary"

    with pytest.raises(KeyError) as excinfo:
        emitter._ctype(FakeDtype())
    message = str(excinfo.value)
    assert "float128_imaginary" in message
    assert "float16" in message  # the known names are listed


# --------------------------------------------------------------------------- #
# Lazy kernel compilation in the serving step model
# --------------------------------------------------------------------------- #
def test_lazy_step_model_digest_identical_and_compiles_fewer_buckets():
    from repro.e2e import ModelConfig
    from repro.serving.simulator import ServingSimulator
    from repro.serving.step_model import StepLatencyModel
    from repro.serving.workload import bursty_workload, steady_workload

    tiny_dense = ModelConfig(
        name="tiny-dense", num_layers=2, hidden_size=256, num_heads=4,
        kv_len=256, head_dim=64, dense_ffn_layers=2, ffn_intermediate=512,
        weight_dtype="fp16", tensor_parallel=1,
    )
    steady = list(steady_workload(num_requests=40, seed=3))
    bursty = list(bursty_workload(num_requests=40, seed=3))

    eager_model = StepLatencyModel(arch="a100", cache=CompileCache(disk_path=None))
    lazy_model = StepLatencyModel(
        arch="a100", cache=CompileCache(disk_path=None), lazy=True
    )
    assert not eager_model.lazy and lazy_model.lazy

    def simulator(step_model, scheduler="fcfs"):
        return ServingSimulator(
            tiny_dense, scheduler=scheduler, arch="a100", max_batch_size=32,
            step_model=step_model,
        )

    eager_stats = simulator(eager_model).precompile()
    assert eager_stats.compiled > 0
    lazy_stats = simulator(lazy_model).precompile()
    # A lazy precompile defers: nothing compiles at startup.
    assert lazy_stats.compiled == 0
    assert lazy_model.compiles_deferred == eager_stats.compiled
    assert lazy_model.buckets_compiled == 0

    # Digest-identical per scheduler x steady/bursty workload.  Each serve
    # compiles only the bucket cells no earlier serve touched; the eager
    # model never compiles lazily.
    deltas = []
    for scheduler in ("fcfs", "slo"):
        for name, requests in (("steady", steady), ("bursty", bursty)):
            eager_report = simulator(eager_model, scheduler).simulate(requests, workload=name)
            before = lazy_model.buckets_compiled
            lazy_report = simulator(lazy_model, scheduler).simulate(requests, workload=name)
            deltas.append(lazy_model.buckets_compiled - before)
            assert eager_report.digest() == lazy_report.digest(), (
                f"{scheduler}/{name}: lazy digest diverged from eager"
            )
            assert eager_model.buckets_compiled == eager_model.compiles_deferred == 0
    assert deltas[0] > 0 and deltas[2:] == [0, 0]
    assert lazy_model.compiles_deferred == eager_stats.compiled

    # The traffic never batched at every bucket: lazily compiling on first
    # lookup touched strictly fewer bucket cells than the eager precompile
    # paid for up front.
    eager_cells = len([b for b in eager_model.buckets if b <= 32])
    assert sum(deltas) == lazy_model.buckets_compiled < eager_cells
