"""Output checks: recorded references plus an independent interpreter.

* Compiles: each request's outcome -- the sha256 of the emitted source and
  the modeled latency, or the exception class for a tile the compiler
  rejects -- must equal the outcome recorded in ``reference.json``.  The
  outcome does not depend on the seed (the seed only shuffles the order).
* Serving: the report digest must equal the digest recorded for the seed
  (seeds outside the recorded range are checked for repeatability across
  the run's plays instead), and every injected request must be either
  completed or shed.
* Once per ``compile-buckets`` run, outside every timed region, a small
  GEMM compiled for a100, mi300 and cpu-sim runs on the numpy
  ``FunctionalExecutor`` and must match ``numpy.matmul``.

Each check is one attempted operation; each mismatch is one failure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compile_outcome(result) -> dict:
    if isinstance(result, BaseException):
        return {"error": type(result).__name__}
    return {
        "source_sha256": hashlib.sha256(result.source.encode("utf-8")).hexdigest(),
        "latency_us": result.latency_us,
    }


def check_compiles(checks: Checks, reference: Dict[str, dict], labels, results, phase: str) -> None:
    for label, result in zip(labels, results):
        expected = reference.get(label)
        got = compile_outcome(result)
        checks.check(
            expected == got, f"{phase} {label}: expected {expected}, got {got}"
        )


def check_serve(
    checks: Checks, expected_digest: Optional[str], rep, injected: int, first_digest: str
) -> None:
    want = expected_digest if expected_digest is not None else first_digest
    checks.check(
        rep.digest == want and rep.served == injected,
        f"serve: digest {rep.digest[:12]} (want {want[:12]}), "
        f"completed+shed {rep.served} of {injected} injected",
    )


def check_executor(checks: Checks, seed: int) -> None:
    """Compile one small GEMM per backend and execute it on numpy."""
    import numpy as np

    from repro.kernels.gemm import GemmConfig, build_fp16_gemm
    from repro.pipeline import CompileCache, compile_program
    from repro.sim import run_kernel

    m = n = k = 64
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float16)
    b = rng.standard_normal((n, k)).astype(np.float16)
    reference = np.matmul(a.astype(np.float32), b.astype(np.float32).T)
    for arch in ("a100", "mi300", "cpu-sim"):
        program = build_fp16_gemm(m, n, k, GemmConfig(bm=64, bn=64, bk=32, num_stages=2))
        compile_program(program, arch=arch, cache=CompileCache(), max_candidates=8)
        buffers = {
            "a": a.reshape(-1).copy(),
            "b": b.reshape(-1).copy(),
            "c": np.zeros(m * n, dtype=np.float16),
        }
        run_kernel(program, buffers)
        out = buffers["c"].reshape(m, n).astype(np.float32)
        error = float(np.max(np.abs(out - reference)))
        checks.check(
            bool(np.allclose(out, reference, rtol=2e-2, atol=2e-1)),
            f"executor {arch}: max abs error {error:.3g} vs numpy.matmul",
        )
