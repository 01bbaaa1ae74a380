"""``perfbench/tracing.py`` wraps the program from the outside.

``instrument`` patches attributes where the program looks them up — each
backend class's own ``emit``, the passes' ``run``, ``compile_key`` in the
modules that import it — so a refactor that moves one of them (say ``emit``
onto a shared base class) breaks ``perfbench/run.py --trace 1``.  This
test loads the module by path, instruments, and checks that ``close()``
restores every wrapped attribute.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import repro.serving.step_model as step_model
from repro.codegen import BACKENDS
from repro.serving import SCHEDULERS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_then_close_restores_every_wrapped_attribute():
    tracing = _load_tracing()
    handle = tracing.instrument(tracing.Tracer())
    try:
        patched = list(handle._restore)  # (owner, attr, original) per wrap
        wrapped = {(owner, attr) for owner, attr, _ in patched}
        for backend in BACKENDS.values():
            assert (type(backend), "emit") in wrapped
        # The per-layer select metrics need a ``select`` in every
        # registered policy's own class body.
        for cls in SCHEDULERS.values():
            assert (cls, "select") in wrapped
        assert (step_model, "compile_key") in wrapped
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner}.{attr} not wrapped"
    finally:
        handle.close()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
