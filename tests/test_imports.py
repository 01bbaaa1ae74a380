"""Import hygiene.

* No module under ``src/repro/``, ``benchmarks/``, ``examples/`` or
  ``tests/`` imports a name it never uses.  A stand-in for a linter's
  unused-import check, built on :mod:`ast`.  A module-level import counts
  as used when the module reads the bound name, lists it in ``__all__`` or
  names it inside a string annotation.  Package ``__init__.py`` files are
  exempt: their imports are re-exports.
* Compiling and serving never load numpy: only the functional executor
  (``repro.sim.executor``) imports it at module level.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _bound_names(node):
    """(name, line) for each name a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name != "*":
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _string_annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            annotations = [param.annotation for param in params] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        yield ast.parse(part.value, mode="eval")
                    except SyntaxError:  # a Literal's text, not a type
                        continue


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for parsed in _string_annotations(tree):
        used |= {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {
                part.value
                for part in ast.walk(node.value)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            }
    return used


def unused_imports(source: str):
    """(line, name) for each module-level import of ``source`` never used."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        (line, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name, line in _bound_names(node)
        if name not in used
    ]


def _unused_under(*roots):
    modules = sorted(
        path for root in roots for path in root.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]


def test_src_has_no_unused_imports():
    unused = _unused_under(SRC)
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_benchmarks_examples_and_tests_have_no_unused_imports():
    unused = _unused_under(ROOT / "benchmarks", ROOT / "examples", ROOT / "tests")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_tells_used_from_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "import numpy as np\n"
        "__all__ = ['Dict']\n"
        "def f(x: 'Optional[int]', mode: Literal['a b']) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "List")]


def _imports_numpy_at_module_level(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_the_executor_imports_numpy_at_module_level():
    importers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _imports_numpy_at_module_level(ast.parse(path.read_text()))
    )
    assert importers == ["sim/executor.py"]


# Imports every public package, compiles one small program of each kernel
# family through a fresh cache, plays a hexcute serving simulator and a
# crashing two-replica fleet, then checks numpy was never loaded.
_BOUNDARY_SCRIPT = """
import sys

import repro
import repro.baselines
import repro.compiler
import repro.e2e
import repro.kernels
import repro.pipeline
import repro.serving
import repro.sim
from repro.e2e import ModelConfig
from repro.kernels.attention import AttentionConfig, build_mha_decoding, build_mha_forward
from repro.kernels.fp8_gemm import build_fp8_blockwise_gemm
from repro.kernels.gemm import build_fp16_gemm, build_warp_specialized_gemm
from repro.kernels.mamba import build_selective_scan
from repro.kernels.moe import build_moe_gemm
from repro.pipeline import CompileCache, compile_program
from repro.serving import (
    ClusterSimulator, FaultSchedule, ServingSimulator, StepLatencyModel, steady_workload,
)

cache = CompileCache()
programs = [
    ("a100", build_fp16_gemm(128, 128, 128)),
    ("h100", build_warp_specialized_gemm(128, 128, 128)),
    ("h100", build_fp8_blockwise_gemm(128, 128, 128)),
    ("a100", build_mha_forward(64, 64, 1, 1, AttentionConfig(head_dim=64))),
    ("a100", build_mha_decoding(256, 64, 1, 1)),
    ("a100", build_moe_gemm(16, 256, 512)),
    ("a100", build_selective_scan(256, 128, 1)),
]
for arch, program in programs:
    kernel = compile_program(program, arch=arch, cache=cache, max_candidates=2)
    assert kernel.latency_us > 0, program.name

model = ModelConfig(
    name="tiny-dense", num_layers=2, hidden_size=256, num_heads=4, kv_len=256,
    head_dim=64, dense_ffn_layers=2, ffn_intermediate=512, weight_dtype="fp16",
    tensor_parallel=1,
)
workload = steady_workload(
    num_requests=12, rate_rps=50.0, mean_prompt_tokens=64, mean_output_tokens=12, seed=3
)
step_model = StepLatencyModel(arch="a100", buckets=(1, 2, 4), cache=CompileCache())
sim = ServingSimulator(model, backend="hexcute", arch="a100", max_batch_size=4,
                       step_model=step_model)
report = sim.simulate(workload)
assert len(report.requests) + report.shed == len(workload)
cluster = ClusterSimulator(model, replicas=2, backend="hexcute", arch="a100",
                           max_batch_size=4, step_model=step_model)
faults = FaultSchedule.generate(2, horizon_ms=1_000.0, seed=1, mean_uptime_ms=200.0)
report = cluster.simulate(workload, faults=faults)
assert len(report.requests) + report.shed == len(workload) and report.crashes, report.crashes

assert "numpy" not in sys.modules, "compiling or serving loaded numpy"
from repro.sim import run_kernel
assert callable(run_kernel) and "numpy" in sys.modules
try:
    repro.sim.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("repro.sim.no_such_name resolved")
print("ok")
"""


def test_compiling_and_serving_never_load_numpy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
