"""Tile-size autotuning.

Hexcute generates shape-specific kernels and tunes hyperparameters such as
tile sizes; the paper notes that *non-power-of-two* tiles are selected for
28 of 40 GEMM shapes on H100 and that disabling them costs up to 13.4%
performance.  The tuner below evaluates candidate tile configurations with
the compiler's analytical latency estimate (no hardware runs needed) and
returns the best configuration.

:func:`autotune_compile` takes a ``build_program`` callback that turns each
candidate into a :class:`KernelProgram` and compiles the whole sweep
through :func:`repro.pipeline.compile_many`, in order on the calling
thread, so repeated configurations are compile-cache hits.  It records
*every* candidate as a :class:`Trial` — infeasible ones keep the exception
message that disqualified them, so tuning failures are debuggable instead
of silently dropped.  Its build loop, :func:`build_sweep`, is also what the
autotuned operators' ``requests`` enumerate, so a precompile skips exactly
the tiles the sweep finds infeasible to build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.graph import ProgramError
from repro.sim.arch import DEFAULT_ARCH
from repro.synthesis.search import SelectionError
from repro.synthesis.smem_solver import SmemSynthesisError
from repro.synthesis.tv_solver import TVSynthesisError

__all__ = [
    "Trial",
    "TuneResult",
    "autotune_compile",
    "build_sweep",
    "gemm_tile_candidates",
    "INFEASIBLE_ERRORS",
]

# The compiler-domain failures that mark a candidate configuration as
# infeasible (rather than crashing the sweep): structural program errors,
# unsatisfiable layout synthesis, the shape/validation ValueErrors the DSL
# builders raise for tiles that do not divide the problem, and RuntimeError
# because compiler infeasibility surfaces as one ("no valid candidate
# programs", layouts accessed before synthesis).  Anything outside this
# tuple — KeyError typos, AttributeError, MemoryError, interrupts —
# propagates as the bug it is.
INFEASIBLE_ERRORS = (
    ProgramError,
    TVSynthesisError,
    SmemSynthesisError,
    SelectionError,
    ValueError,
    RuntimeError,
)


@dataclass
class Trial:
    """One evaluated candidate configuration.

    ``latency_us`` is ``None`` for infeasible candidates, with ``error``
    recording why the candidate was rejected; feasible candidates keep
    their compiled kernel.
    """

    params: Dict
    latency_us: Optional[float]
    error: Optional[str] = None
    kernel: Optional[object] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.latency_us is not None


@dataclass
class TuneResult:
    """The outcome of an autotuning sweep."""

    best_params: Dict
    best_latency_us: float
    trials: List[Trial]
    best_kernel: Optional[object] = field(default=None, repr=False)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def num_feasible(self) -> int:
        return sum(1 for trial in self.trials if trial.ok)

    def failures(self) -> List[Trial]:
        """The infeasible trials, each carrying its rejection reason."""
        return [trial for trial in self.trials if not trial.ok]


# RuntimeError is in the infeasible set, but these subclasses of it are
# always bugs/environment failures, never a property of the candidate.
_ALWAYS_RAISE = (RecursionError, NotImplementedError)


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pick_best(trials: List[Trial]) -> TuneResult:
    best: Optional[Trial] = None
    for trial in trials:
        if trial.ok and (best is None or trial.latency_us < best.latency_us):
            best = trial
    if best is None:
        reasons = "; ".join(
            f"{trial.params}: {trial.error}" for trial in trials[:5] if trial.error
        )
        raise RuntimeError(
            "autotune: no feasible candidate configuration"
            + (f" ({reasons})" if reasons else "")
        )
    return TuneResult(
        best_params=best.params,
        best_latency_us=best.latency_us,
        trials=trials,
        best_kernel=best.kernel,
    )


def build_sweep(
    build_program: Callable[[Dict], object], candidates: Sequence[Dict]
) -> Tuple[List[Optional[Trial]], List[Tuple[int, object]]]:
    """Build every candidate's program, in candidate order.

    Returns one slot per candidate — an infeasible :class:`Trial` carrying
    the message of the build error, or ``None`` when the build succeeded —
    and the ``(candidate index, program)`` pairs of the builds that did.
    """
    trials: List[Optional[Trial]] = [None] * len(candidates)
    built: List[Tuple[int, object]] = []
    for index, params in enumerate(candidates):
        try:
            built.append((index, build_program(params)))
        except INFEASIBLE_ERRORS as exc:
            if isinstance(exc, _ALWAYS_RAISE):
                raise
            trials[index] = Trial(params=params, latency_us=None, error=_describe_error(exc))
    return trials, built


def autotune_compile(
    build_program: Callable[[Dict], object],
    candidates: Iterable[Dict],
    arch=DEFAULT_ARCH,
    cache=None,
    max_candidates: int = 256,
) -> TuneResult:
    """Batch-compile a tile sweep through the pipeline and keep the fastest.

    ``build_program`` maps a candidate parameter dict to a
    :class:`KernelProgram`; the built programs are compiled together via
    :func:`repro.pipeline.compile_many` (in order, repeats replayed from
    the compile cache) for ``arch`` and its declared codegen backend.  Build
    or compile failures become infeasible trials carrying their exception
    message.
    """
    from repro.pipeline.driver import compile_many

    candidates = list(candidates)
    trials, built = build_sweep(build_program, candidates)
    outcomes = compile_many(
        [program for _, program in built],
        arch=arch,
        cache=cache,
        return_errors=True,
        max_candidates=max_candidates,
    )
    for (index, _), outcome in zip(built, outcomes):
        params = candidates[index]
        if isinstance(outcome, BaseException):
            if not isinstance(outcome, INFEASIBLE_ERRORS) or isinstance(
                outcome, _ALWAYS_RAISE
            ):
                raise outcome
            trials[index] = Trial(
                params=params, latency_us=None, error=_describe_error(outcome)
            )
        else:
            trials[index] = Trial(
                params=params, latency_us=outcome.latency_us, kernel=outcome
            )
    return _pick_best([trial for trial in trials if trial is not None])


def gemm_tile_candidates(
    m: int,
    n: int,
    k: int,
    allow_non_power_of_two: bool = True,
) -> List[Dict]:
    """Candidate (BM, BN, BK) tilings for a GEMM problem.

    Includes the canonical power-of-two tiles plus non-power-of-two block
    sizes (multiples of the 16x8 instruction atom such as 96, 112, 144, 160)
    that better fit odd problem shapes — the choice Section VII-A highlights.
    """
    bm_options = [64, 128, 256]
    bn_options = [64, 128, 256]
    bk_options = [32, 64]
    if allow_non_power_of_two:
        bm_options += [96, 112, 144, 160, 192, 224]
        bn_options += [96, 112, 160, 192]
    candidates: List[Dict] = []
    for bm in sorted(set(bm_options)):
        if bm > max(m, 64):
            continue
        for bn in sorted(set(bn_options)):
            if bn > max(n, 64):
                continue
            for bk in bk_options:
                if bk > k:
                    continue
                if k % bk != 0:
                    continue
                candidates.append({"bm": bm, "bn": bn, "bk": bk})
    if not candidates:
        candidates.append({"bm": min(64, m), "bn": min(64, n), "bk": min(32, k)})
    return candidates
