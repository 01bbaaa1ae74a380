"""Shared configuration for the benchmark harness.

Every file in this directory regenerates one table or figure from the
paper's evaluation (``docs/benchmarks.md`` maps each script to its figure).
The kernels run on the simulated GPU substrate, so the benchmarks are
deterministic; ``pytest-benchmark`` measures the harness itself
(compilation + analytical timing), while the *reproduced numbers* are
printed to stdout.
"""

import pytest


def run_once(benchmark, fn):
    """Run a harness exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def runner(fn):
        return run_once(benchmark, fn)

    return runner
