"""No module under ``src/repro/``, ``benchmarks/``, ``examples/`` or
``tests/`` imports a name it never uses.

A stand-in for a linter's unused-import check, built on :mod:`ast`.  A
module-level import counts as used when the module reads the bound name,
lists it in ``__all__`` or names it inside a string annotation.  Package
``__init__.py`` files are exempt: their imports are re-exports.
"""

import ast
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
