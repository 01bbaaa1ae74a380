"""Record golden per-backend digests for the seven kernel families.

Run from the repo root (``PYTHONPATH=src python tests/data/record_backend_goldens.py``)
against the PRE-refactor tree; ``tests/test_backends.py`` then pins the
post-refactor backends to these digests, the same golden-gate shape the
serving digests use (``golden_sim_digests.json``).

Each family entry records the sha256 of the emitted cuda source, the winning
named assignment, and the simulated latency for one representative compile
per kernel family on its compile arch.  The GEMM entry is the fig22
configuration used by ``bench_compile_time.py`` so the cuda-vs-rocm
divergence criterion and the cuda bit-identity criterion share a config.
``mha_forward`` pins the ``rearrange_via_*`` lines (its compile inserts one
``Rearrange``) and ``ws_gemm`` the ``*-specialized`` lines.

Two more entries pin the other backends byte for byte:

* ``cross_backend`` — per family, the sha256 of the same cuda-compiled
  program emitted through each entry of ``CROSS_EMITS`` (rocm on mi300,
  cpu-sim on cpu-sim);
* ``fig22_mi300`` — the source sha256 and the per-buffer swizzles of the
  fig22 GEMM compiled on mi300, whose wider LDS banking changes synthesis.

A ``capped`` entry pins three width-capped kernels the same way (source
sha256, named assignment, latency), each compiled through its operator's
``requests()``: the Fig. 14 MoE layout ablation, the Table IV library
scan and the Triton scan.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.baselines import TritonScanOperator
from repro.codegen import get_backend
from repro.compiler import compile_kernel
from repro.kernels.attention import AttentionConfig, build_mha_decoding, build_mha_forward
from repro.kernels.fp8_gemm import Fp8GemmConfig, build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm, build_warp_specialized_gemm
from repro.kernels.mamba import ScanConfig, SelectiveScanOperator, build_selective_scan
from repro.kernels.moe import MixedTypeMoeOperator, MoeConfig, build_moe_gemm
from repro.pipeline import CompileCache, compile_many
from repro.sim.arch import get_arch

OUT = Path(__file__).with_name("golden_backend_digests.json")

# One representative (builder, max_candidates) per kernel family.  The
# configs are small enough for the tier-1 suite but exercise every op kind
# the emitter handles.  gemm is the fig22 config (bench_compile_time.py).
FAMILY_BUILDS = {
    "gemm": (lambda: build_fp16_gemm(4096, 4096, 4096, GemmConfig(bm=128, bn=128, bk=32)), "a100", 102),
    "fp8_gemm": (lambda: build_fp8_blockwise_gemm(1024, 1024, 512, Fp8GemmConfig(bm=64, bn=64, bk=128)), "h100", 24),
    "attention": (lambda: build_mha_decoding(2048, 128, 8, 4, AttentionConfig(head_dim=128, block_kv=128)), "a100", 24),
    "mamba": (lambda: build_selective_scan(2048, 1024, 2, ScanConfig()), "a100", 24),
    "moe": (lambda: build_moe_gemm(64, 4096, 4096, MoeConfig()), "a100", 24),
    "mha_forward": (lambda: build_mha_forward(2048, 128, 16, 8), "a100", 24),
    "ws_gemm": (lambda: build_warp_specialized_gemm(4096, 4096, 4096), "h100", 24),
}

# (backend, arch) pairs each family's cuda-compiled program is re-emitted
# through for the cross_backend entry.
CROSS_EMITS = (("rocm", "mi300"), ("cpu-sim", "cpu-sim"))

# The width-capped kernels of the capped entry, as their operators' compile
# requests: the Fig. 14 MoE at 16 tokens per expert (512 tokens over 256
# experts, top-8) with every copy capped at 2 B, and the Table IV scan
# shape with the library's 2 B and Triton's 4 B caps.
CAPPED_REQUESTS = {
    "moe_fig14": lambda: MixedTypeMoeOperator(
        "h100", max_weight_vector_bytes=2, max_candidates=4).requests(512),
    "scan_library": lambda: SelectiveScanOperator(
        "h100", use_shared_stage=False, num_stages=1, instruction_cap_bytes=2,
        max_candidates=4).requests(1, 2048, 1024),
    "scan_triton": lambda: TritonScanOperator("h100").requests(1, 2048, 1024),
}


def sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cross_backend_digests(kernel) -> dict:
    """sha256 of ``kernel``'s program emitted through every CROSS_EMITS pair."""
    return {
        backend: sha256(get_backend(backend).emit(kernel.program, kernel.candidate, get_arch(arch)))
        for backend, arch in CROSS_EMITS
    }


def compile_fig22_mi300():
    """The fig22 GEMM compiled on mi300 with the cuda entry's search budget."""
    build, _, max_candidates = FAMILY_BUILDS["gemm"]
    return compile_kernel(build(), arch="mi300", max_candidates=max_candidates,
                          cache=CompileCache())


def swizzles(kernel) -> dict:
    return {t.name: str(p.swizzle) for t, p in kernel.candidate.smem_plans.items()}


def kernel_digest(kernel) -> dict:
    """The emitted source's sha256, the named assignment and the latency."""
    return {
        "source_sha256": sha256(kernel.source),
        "assignment": [list(item) for item in kernel.candidate.named_assignment(kernel.program)],
        "latency_us": float(kernel.timing.latency_us).hex(),
    }


def compile_capped(name: str):
    """One kernel of the capped entry, compiled through a fresh cache."""
    (kernel,) = compile_many(CAPPED_REQUESTS[name](), cache=CompileCache())
    return kernel


def record() -> dict:
    entries = {}
    cross_backend = {}
    for family, (build, arch, max_candidates) in sorted(FAMILY_BUILDS.items()):
        kernel = compile_kernel(build(), arch=arch, max_candidates=max_candidates,
                                cache=CompileCache())
        entries[family] = {"arch": arch, "max_candidates": max_candidates,
                           **kernel_digest(kernel)}
        cross_backend[family] = cross_backend_digests(kernel)
    entries["cross_backend"] = cross_backend
    entries["capped"] = {name: kernel_digest(compile_capped(name)) for name in CAPPED_REQUESTS}
    rocm = compile_fig22_mi300()
    entries["fig22_mi300"] = {
        "arch": "mi300",
        "max_candidates": FAMILY_BUILDS["gemm"][2],
        "source_sha256": sha256(rocm.source),
        "swizzles": swizzles(rocm),
    }
    return entries


if __name__ == "__main__":
    entries = record()
    OUT.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for family in FAMILY_BUILDS:
        entry = entries[family]
        print(f"{family}: {entry['source_sha256'][:16]}  latency={entry['latency_us']}")
    print(f"fig22 on mi300: {entries['fig22_mi300']['source_sha256'][:16]}")
    print(f"wrote {OUT}")
