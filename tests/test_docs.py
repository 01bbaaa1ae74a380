"""Docs-consistency checks: the documentation may not drift from the tree.

Four contracts, all cheap enough to run in the tier-1 suite (CI runs it
on every push):

1. **File references resolve.**  Every backticked file path in
   ``README.md`` and ``docs/*.md`` (a single ``  `path/to/file.ext`  ``
   span ending in a known source/config extension) must name a file that
   exists.  Docs may spell paths from the repo root (``src/repro/...``,
   ``benchmarks/...``), package-relative (``serving/memory.py``,
   ``pipeline/cache.py``) or relative to the doc's own directory
   (``architecture.md`` cross-links) — the resolver tries each base.

2. **Policy names match the registries.**  The workload, scheduler and
   router tables in ``docs/serving.md`` must list exactly the names
   registered in ``repro.serving.WORKLOADS``, ``SCHEDULERS`` and
   ``ROUTERS``, and the backend table in ``docs/architecture.md`` must
   list exactly ``repro.codegen.BACKENDS`` — adding a policy or backend
   without documenting it (or documenting one that does not exist) fails.

3. **Every example and benchmark script imports.**  Tier-1 collects only
   ``tests/``, so importing each ``examples/*.py`` and ``benchmarks/*.py``
   module here (without calling ``main()``) is what catches a script still
   importing a removed or renamed API.

4. **The memoized functions match the memo registry.**  The one
   ``Memoized functions:`` line of ``docs/architecture.md`` must name
   exactly the functions in ``repro.utils.memo.cache_stats()`` once every
   ``repro`` module is imported, so adding or removing a memo without
   saying so fails.
"""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.serving import ROUTERS, SCHEDULERS, WORKLOADS
from repro.utils.memo import cache_stats

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

# A backticked span that is exactly one path-ish token with a file
# extension we know how to resolve (spans carrying flags or prose, e.g.
# `bench_compile_time.py --smoke`, are deliberately not matched).
_FILE_REF = re.compile(r"`([A-Za-z0-9_.\-/]+\.(?:py|md|yml|yaml|json|toml|txt))`")

# Bases a documented path may be spelled from, tried in order.
_BASES = [
    REPO_ROOT,
    REPO_ROOT / "src",
    REPO_ROOT / "src" / "repro",
]


def _references(doc: Path):
    return sorted(set(_FILE_REF.findall(doc.read_text(encoding="utf-8"))))


def test_docs_exist():
    """The documentation suite itself is part of the contract."""
    for required in ("README.md", "docs/architecture.md", "docs/serving.md",
                     "docs/benchmarks.md"):
        assert (REPO_ROOT / required).is_file(), f"missing {required}"
    assert DOCS, "no documentation files found"


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
def test_every_documented_file_reference_resolves(doc):
    refs = _references(doc)
    assert refs, f"{doc.name} references no files at all — wrong parse?"
    missing = []
    for ref in refs:
        bases = _BASES + [doc.parent]
        if not any((base / ref).is_file() for base in bases):
            missing.append(ref)
    assert not missing, (
        f"{doc.relative_to(REPO_ROOT)} references files that do not exist: "
        f"{missing}"
    )


def _table_names(text: str, heading: str):
    """The backticked first-column keys of the table under ``heading``."""
    section = text.split(heading, 1)
    assert len(section) == 2, f"doc lost its {heading!r} section"
    body = section[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9\-]+)` \|", body, flags=re.MULTILINE))


def test_documented_workload_names_match_registry():
    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    documented = _table_names(text, "## Workloads and requests")
    assert documented == set(WORKLOADS), (
        f"docs/serving.md workload table {sorted(documented)} != "
        f"registered WORKLOADS {sorted(WORKLOADS)}"
    )


def test_documented_scheduler_names_match_registry():
    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    documented = _table_names(text, "## Scheduling policies")
    assert documented == set(SCHEDULERS), (
        f"docs/serving.md scheduler table {sorted(documented)} != "
        f"registered SCHEDULERS {sorted(SCHEDULERS)}"
    )


def test_documented_router_names_match_registry():
    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    documented = _table_names(text, "## Routing policies")
    assert documented == set(ROUTERS), (
        f"docs/serving.md router table {sorted(documented)} != "
        f"registered ROUTERS {sorted(ROUTERS)}"
    )


def test_documented_backend_names_match_registry():
    from repro.codegen import BACKENDS

    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    documented = _table_names(text, "## Backend registry")
    assert documented == set(BACKENDS), (
        f"docs/architecture.md backend table {sorted(documented)} != "
        f"registered BACKENDS {sorted(BACKENDS)}"
    )


def test_documented_fault_api_names_exist():
    """The fault-injection section must document the real event API —
    every name it teaches is importable from ``repro.serving``."""
    import repro.serving as serving

    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    section = text.split("## Fault injection & recovery", 1)
    assert len(section) == 2, "docs/serving.md lost its fault-injection section"
    body = section[1].split("\n## ", 1)[0]
    for name in ("FaultSchedule", "ReplicaCrash", "ReplicaRecover",
                 "ReplicaSlowdown", "health_aware", "deadline_ms"):
        assert name in body, f"fault section no longer mentions {name}"
    for name in ("FaultSchedule", "ReplicaCrash", "ReplicaRecover",
                 "ReplicaSlowdown"):
        assert hasattr(serving, name), f"repro.serving no longer exports {name}"


def test_documented_memoized_functions_match_the_registry():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.startswith("Memoized functions:")]
    assert len(lines) == 1, "docs/architecture.md needs one 'Memoized functions:' line"
    documented = set(re.findall(r"`([\w.]+)`", lines[0]))
    assert documented == set(cache_stats()), (
        f"docs/architecture.md memoized functions {sorted(documented)} != "
        f"repro.utils.memo registry {sorted(cache_stats())}"
    )


def test_readme_states_the_tier1_verify_command():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "PYTHONPATH=src python -m pytest -x -q" in text


SCRIPTS = sorted((REPO_ROOT / "examples").glob("*.py")) + sorted(
    path for path in (REPO_ROOT / "benchmarks").glob("*.py") if path.name != "conftest.py"
)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_example_and_benchmark_script_imports(script, monkeypatch):
    # The figure scripts import their shared sweep helpers as _kernel_sweeps.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
    name = f"{script.parent.name}_{script.stem}"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: dataclasses resolve annotations through it.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
