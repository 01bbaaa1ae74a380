"""Each operator's ``requests`` is exactly what its ``run`` compiles.

The serving step model precompiles ``op.requests(*args)`` and later
evaluates ``op.run(*args)``; a precompile only warms the cache when both
name the same programs.  On a fresh cache, ``run`` must look up exactly
the compile keys of ``requests``, in order, and store nothing else.
"""

import pytest

from repro.baselines import TritonMoeOperator, TritonScanOperator
from repro.instructions.registry import instruction_set
from repro.kernels import (
    AttentionOperator,
    Fp8GemmOperator,
    GemmOperator,
    MixedTypeMoeOperator,
    SelectiveScanOperator,
)
from repro.pipeline import CompileCache, compile_key


class RecordingCache(CompileCache):
    """A compile cache that records every key a compile looks up."""

    def __init__(self):
        super().__init__()
        self.looked_up = []

    def get(self, key):
        self.looked_up.append(key)
        return super().get(key)


MOE_SHAPE = dict(num_experts=8, top_k=2, n=256, k=512, max_candidates=2)

# family -> (operator factory, run's shape arguments)
FAMILIES = {
    "attention-decoding": (
        lambda arch, cache: AttentionOperator(arch, "decoding", max_candidates=2, cache=cache),
        (2, 2, 256, 64),
    ),
    "attention-forward": (
        lambda arch, cache: AttentionOperator(arch, "forward", max_candidates=2, cache=cache),
        (1, 2, 128, 64),
    ),
    "moe": (
        lambda arch, cache: MixedTypeMoeOperator(arch, cache=cache, **MOE_SHAPE),
        (6,),
    ),
    "triton-moe": (
        lambda arch, cache: TritonMoeOperator(arch, cache=cache, **MOE_SHAPE),
        (6,),
    ),
    "scan": (
        lambda arch, cache: SelectiveScanOperator(arch, max_candidates=2, cache=cache),
        (1, 256, 128),
    ),
    # Table IV's library model: no shared staging, 2-byte accesses.
    "scan-capped": (
        lambda arch, cache: SelectiveScanOperator(
            arch, use_shared_stage=False, num_stages=1, instruction_cap_bytes=2,
            max_candidates=2, cache=cache,
        ),
        (1, 256, 128),
    ),
    "triton-scan": (
        lambda arch, cache: TritonScanOperator(arch, cache=cache),
        (1, 256, 128),
    ),
    "gemm": (
        lambda arch, cache: GemmOperator(arch, max_tile_trials=2, max_candidates=2, cache=cache),
        (256, 256, 256),
    ),
    "ws-gemm": (
        lambda arch, cache: GemmOperator(
            arch, warp_specialized=True, max_tile_trials=2, max_candidates=2, cache=cache
        ),
        (256, 256, 256),
    ),
    "fp8-gemm": (
        lambda arch, cache: Fp8GemmOperator(
            arch, max_tile_trials=1, max_candidates=2, cache=cache
        ),
        (256, 256, 256),
    ),
}

CASES = [("a100", family) for family in FAMILIES]
CASES += [("h100", family) for family in FAMILIES]
CASES += [("mi300", "gemm")]


def _keys(op, requests):
    gpu = op.arch
    return [
        compile_key(
            r.program, gpu, r.instructions or instruction_set(gpu.sm_arch),
            r.max_candidates, backend=gpu.backend,
        )
        for r in requests
    ]


@pytest.mark.parametrize("arch,family", CASES, ids=[f"{a}-{f}" for a, f in CASES])
def test_run_compiles_exactly_its_requests(arch, family):
    factory, args = FAMILIES[family]
    cache = RecordingCache()
    op = factory(arch, cache)
    expected = _keys(op, op.requests(*args))
    assert expected
    if family == "fp8-gemm" and arch == "a100":
        # No FP8 tensor-core instruction before sm_90: every tile of the
        # sweep compiles and fails, so run raises after compiling them.
        with pytest.raises(RuntimeError, match="no feasible candidate"):
            op.run(*args)
    else:
        assert op.run(*args).latency_us > 0
    assert cache.looked_up == expected
    assert set(cache.keys()) <= set(expected)


# family -> (operator factory, shape arguments, the width cap it sets)
CAPPED = {
    "moe-capped": (
        lambda arch, cache: MixedTypeMoeOperator(
            arch, max_weight_vector_bytes=2, cache=cache, **MOE_SHAPE
        ),
        (6,),
        2,
    ),
    "scan-capped": (*FAMILIES["scan-capped"], 2),
    "triton-scan": (*FAMILIES["triton-scan"], 4),
}


@pytest.mark.parametrize("family", sorted(CAPPED))
def test_operator_width_caps_are_per_copy_program_data(family):
    """A width-capped operator compiles with its arch's full instruction set
    and carries the cap on every copy of the program it builds."""
    factory, args, cap = CAPPED[family]
    op = factory("h100", None)
    for request in op.requests(*args):
        assert request.instructions is instruction_set(op.arch.sm_arch)
        assert {copy.max_vector_bytes for copy in request.program.copies()} == {cap}
