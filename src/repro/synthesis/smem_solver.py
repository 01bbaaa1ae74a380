"""Shared-memory layout synthesis (Section V of the paper).

For every shared-memory tensor the solver:

1. builds an alignment-aware :class:`LayoutConstraint` from each copy that
   touches the buffer (the instruction selected for the copy dictates how
   many elements must be contiguous and along which tensor dimension);
2. unifies the constraints of all copies and materializes the free strides,
   yielding the base memory layout ``m`` (memoized by the buffer shape and
   the constraints, failures included, since buffers recur across the
   subproblems of a search and the programs of a batch);
3. selects a swizzle function ``S`` that minimizes shared-memory bank
   conflicts for the actual warp access patterns, giving the final layout
   ``M = S ∘ m``;
4. for TMA copies (issued by a single thread) checks the materialized layout
   against TMA's contiguity requirements and falls back to non-TMA
   instructions when they cannot be met.

Unification failure is not fatal: the search layer falls back to narrower
(ultimately scalar) instructions whose constraints are always satisfiable,
exactly as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.instructions.instruction import MemoryInstruction
from repro.ir.ops import Copy
from repro.ir.tensor import TileTensor
from repro.layout.constraint import LayoutConstraint, UnificationError, unify
from repro.layout.layout import Layout, as_ints
from repro.layout.swizzle import (
    ComposedLayout,
    Swizzle,
    candidate_swizzles,
    swizzle_window_key,
)
from repro.layout.tv import TVLayout
from repro.utils.inttuple import product
from repro.utils.memo import memoized

__all__ = [
    "CopyAccess",
    "DEFAULT_BANK_PARAMS",
    "SmemBankParams",
    "SmemPlan",
    "SmemSolution",
    "SmemSynthesisError",
    "bank_conflict_factor",
    "copy_access_for",
    "clear_smem_cache",
    "smem_solution_for",
    "solve_subproblem",
    "subproblem_key",
]


@dataclass(frozen=True)
class SmemBankParams:
    """The banking geometry the conflict model and swizzle enumeration use.

    The defaults are NVIDIA's 32 banks of 4 bytes; a codegen backend
    supplies the target's own geometry
    (``repro.codegen.Backend.smem_bank_params``), so e.g. CDNA's wider LDS
    window enumerates wider swizzles and scores conflicts over 64 banks.
    ``banks <= 1`` means an unbanked scratchpad: every access is
    conflict-free, so the solver keeps the identity swizzle.
    """

    banks: int = 32
    bank_bytes: int = 4

    @property
    def phase_bytes(self) -> int:
        """Bytes one conflict phase covers (the banked window)."""
        return self.banks * self.bank_bytes


DEFAULT_BANK_PARAMS = SmemBankParams()


class SmemSynthesisError(Exception):
    """Raised when no shared-memory layout satisfies the copy constraints."""


@dataclass
class CopyAccess:
    """How one copy operation touches a shared-memory tensor.

    ``contiguous_dim``/``vector_elems`` describe the alignment constraint
    the selected instruction imposes; ``thread_coords`` lists, for one warp,
    the element coordinate each thread addresses in a single simultaneous
    access (used for bank-conflict analysis).
    """

    copy: Copy
    instruction: MemoryInstruction
    contiguous_dim: int
    vector_elems: int
    thread_coords: Sequence[Tuple[int, ...]] = field(default_factory=tuple)

    @property
    def constraint_key(self) -> Optional[Tuple[int, int]]:
        """The alignment constraint as a value: ``None`` when the access
        leaves the buffer unconstrained (scalar or single-thread), else
        ``(contiguous_dim, vector_elems)``."""
        if self.vector_elems <= 1 or self.instruction.single_thread:
            return None
        return as_ints((self.contiguous_dim, self.vector_elems), "copy access constraint")


@dataclass
class SmemPlan:
    """The synthesized layout of one shared-memory tensor."""

    tensor: TileTensor
    base_layout: Layout
    swizzle: Swizzle
    conflict_factor: float
    accesses: List[CopyAccess]

    @property
    def layout(self) -> ComposedLayout:
        return ComposedLayout(self.swizzle, self.base_layout)

    def apply(self) -> None:
        """Store the result on the tensor."""
        self.tensor.layout = self.base_layout
        self.tensor.swizzled_layout = self.layout


# --------------------------------------------------------------------------- #
# Access construction
# --------------------------------------------------------------------------- #
def copy_access_for(
    copy: Copy,
    instruction: MemoryInstruction,
    smem_tensor: TileTensor,
    reg_tv: Optional[TVLayout],
) -> CopyAccess:
    """Derive the alignment constraint and warp access pattern of one copy."""
    dtype = smem_tensor.dtype
    vec = instruction.elements_per_thread(dtype)
    shape = smem_tensor.shape

    if instruction.single_thread:
        # TMA: a single thread issues the copy; the layout constraint is
        # checked post-hoc by `check_tma_compatible`.
        contiguous_dim = _global_contiguous_dim(copy, shape)
        return CopyAccess(copy, instruction, contiguous_dim, vec, [(0,) * len(shape)])

    if reg_tv is None:
        # Global <-> shared copy with no register operand (cp.async): the
        # vectorization direction follows the global tensor's contiguous dim.
        contiguous_dim = _global_contiguous_dim(copy, shape)
        coords = _strided_warp_coords(shape, contiguous_dim, vec)
        return CopyAccess(copy, instruction, contiguous_dim, vec, coords)

    if instruction.collective:
        # ldmatrix/stmatrix: every thread addresses one `vec`-element row;
        # the 32 rows of a warp walk down the other dimension first.  The
        # `.trans` variants read rows along the other tile dimension and
        # transpose in flight.
        run_dim, _ = reg_tv.vector_run
        contiguous_dim = run_dim
        if instruction.transposed and len(shape) == 2:
            contiguous_dim = 1 - run_dim
        coords = _strided_warp_coords(shape, contiguous_dim, vec)
        return CopyAccess(copy, instruction, contiguous_dim, vec, coords)

    run_dim, run = reg_tv.vector_run
    usable = min(vec, run) if run > 1 else 1
    # Clamp to a width that actually divides the run (vector accesses must
    # not straddle the thread's contiguous segment).
    while usable > 1 and run % usable != 0:
        usable //= 2
    return CopyAccess(copy, instruction, run_dim, usable, reg_tv.warp_coords)


def _global_contiguous_dim(copy: Copy, smem_shape: Sequence[int]) -> int:
    """The dimension that is contiguous in the global operand of a copy."""
    other = copy.src if copy.src.is_global else copy.dst if copy.dst.is_global else None
    if other is None or other.layout is None:
        return len(smem_shape) - 1
    strides = []
    for i in range(min(other.rank, len(smem_shape))):
        extents, mode_strides = other.layout.mode_leaves(i)
        strides.append(mode_strides[-1] if product(extents) > 1 else 1 << 30)
    return int(min(range(len(strides)), key=lambda i: strides[i]))


def _strided_warp_coords(
    shape: Sequence[int], contiguous_dim: int, vec: int
) -> Tuple[Tuple[int, ...], ...]:
    """Coordinates of the 32 simultaneous per-thread accesses of one warp
    when each thread owns one ``vec``-element run along ``contiguous_dim``
    and consecutive threads walk the other dimensions first.

    Memoized by value, so equal accesses share one tuple; the arguments
    are checked first (``4.0`` would find the entry of ``4``)."""
    shape = as_ints(shape, "warp access shape")
    contiguous_dim, vec = as_ints((contiguous_dim, vec), "warp access run")
    return _warp_coords(shape, contiguous_dim, vec)


@memoized(maxsize=4096)
def _warp_coords(
    shape: Tuple[int, ...], contiguous_dim: int, vec: int
) -> Tuple[Tuple[int, ...], ...]:
    other_dims = [i for i in range(len(shape)) if i != contiguous_dim]
    coords = []
    for t in range(32):
        remaining = t
        coord = [0] * len(shape)
        for dim in other_dims:
            coord[dim] = remaining % shape[dim]
            remaining //= shape[dim]
        coord[contiguous_dim] = (remaining * vec) % max(shape[contiguous_dim], 1)
        coords.append(tuple(coord))
    return tuple(coords)


# --------------------------------------------------------------------------- #
# Bank conflicts
# --------------------------------------------------------------------------- #
def bank_conflict_factor(
    layout,
    coords: Sequence[Tuple[int, ...]],
    element_bytes: float,
    access_bytes: int,
    bank_params: SmemBankParams = DEFAULT_BANK_PARAMS,
) -> float:
    """Average bank-conflict multiplier of a warp-wide access.

    The 32 accesses are split into phases such that each phase moves at most
    ``bank_params.phase_bytes`` (128 bytes — the shared-memory transaction
    size — under the default NVIDIA banking); within a phase the multiplier
    is the maximum number of distinct bank conflicts, and the result is the
    mean over phases.  1.0 means conflict-free.
    """
    offsets = [layout(tuple(coord)) for coord in coords]
    return _offset_conflict_factor(offsets, element_bytes, access_bytes, bank_params)


def _offset_conflict_factor(
    offsets: Sequence[int],
    element_bytes: float,
    access_bytes: int,
    bank_params: SmemBankParams,
) -> float:
    """:func:`bank_conflict_factor` of the element offsets the warp's
    accesses reach, one per access slot in issue order."""
    if not offsets:
        return 1.0
    if bank_params.banks <= 1:
        return 1.0  # unbanked scratchpad: nothing to conflict on
    threads_per_phase = max(1, int(bank_params.phase_bytes // max(access_bytes, 1)))
    factors = []
    for start in range(0, len(offsets), threads_per_phase):
        banks: Dict[int, set] = {}
        for offset in offsets[start:start + threads_per_phase]:
            address = int(offset * element_bytes)
            bank = (address // bank_params.bank_bytes) % bank_params.banks
            banks.setdefault(bank, set()).add(address // bank_params.phase_bytes)
        worst = max(len(lines) for lines in banks.values())
        factors.append(worst)
    return sum(factors) / len(factors)


# --------------------------------------------------------------------------- #
# TMA compatibility
# --------------------------------------------------------------------------- #
def check_tma_compatible(layout: Layout, element_bits: int) -> bool:
    """TMA requires a contiguous innermost run of at least 16 bytes whose
    extent times the element size is a multiple of 16 bytes."""
    flat = layout.flatten()
    for shape, stride in zip(flat.flat_shape(), flat.flat_stride()):
        if stride == 1:
            run_bytes = shape * element_bits / 8
            return run_bytes >= 16 and run_bytes % 16 == 0
    return False


# --------------------------------------------------------------------------- #
# Structural subproblem cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SmemSolution:
    """The tensor-independent payload of one solved smem subproblem.

    A subproblem is fully determined by the buffer's shape/element width and
    the structural signatures of its accesses (instruction, alignment
    constraint, warp coordinates, trip weights) — never by tensor identity —
    so solutions can be shared across compiles of equivalent tile programs
    (e.g. the same tile config at different problem shapes in an autotuning
    sweep).  ``failure`` carries the reason when the constraints do not
    unify or a TMA copy's contiguity check fails; failures are cached too,
    so an infeasible combination is proven exactly once per process.
    """

    base_layout: Optional[Layout]
    swizzle: Optional[Swizzle]
    conflict_factor: float
    failure: Optional[str] = None
    # Instrumentation of the swizzle selection that produced this solution:
    # how many candidates were actually scored through the conflict model
    # and how many the analytic prune predicates skipped.  Not part
    # of the solution's *result* (see `winner`).
    swizzles_scored: int = 0
    swizzles_pruned: int = 0

    @property
    def winner(self) -> tuple:
        """The result payload, excluding instrumentation counters — two
        solves are bit-identical iff their winners are equal."""
        return (self.base_layout, self.swizzle, self.conflict_factor, self.failure)

    def as_plan(self, tensor: TileTensor, accesses: Sequence[CopyAccess]) -> SmemPlan:
        if self.failure is not None:
            raise SmemSynthesisError(f"shared tensor {tensor.name!r}: {self.failure}")
        return SmemPlan(
            tensor, self.base_layout, self.swizzle, self.conflict_factor, list(accesses)
        )


def _access_signature(access: CopyAccess) -> tuple:
    return (
        access.instruction,
        access.contiguous_dim,
        access.vector_elems,
        tuple(access.thread_coords),
        access.copy.trips,
    )


def subproblem_key(
    tensor: TileTensor,
    accesses: Sequence[CopyAccess],
    bank_params: SmemBankParams = DEFAULT_BANK_PARAMS,
) -> tuple:
    """The canonical structural key of one smem synthesis subproblem.

    The banking geometry is part of the key: the same buffer/access
    structure solved for different targets (cuda vs rocm) yields different
    swizzles, so the process-wide cache must never cross-serve them.
    """
    return (
        tuple(tensor.shape),
        tensor.dtype.bits,
        (bank_params.banks, bank_params.bank_bytes),
        tuple(_access_signature(access) for access in accesses),
    )


# Bounded process-wide cache: structural key -> SmemSolution.  Eviction is
# FIFO (dicts preserve insertion order), which is plenty for the compiler's
# small, highly repetitive working set.
_SOLUTION_CACHE: Dict[tuple, SmemSolution] = {}
_SOLUTION_CACHE_MAX = 4096


def clear_smem_cache() -> None:
    _SOLUTION_CACHE.clear()


def smem_solution_for(
    tensor: TileTensor,
    accesses: Sequence[CopyAccess],
    bank_params: SmemBankParams = DEFAULT_BANK_PARAMS,
) -> Tuple[SmemSolution, bool]:
    """The (possibly memoized) solution of one subproblem plus whether the
    structural cache already held it.

    Never raises: infeasible subproblems come back as a solution whose
    ``failure`` is set.  The hit flag is reported per call, so callers can
    attribute their own solve/hit statistics correctly even when other
    threads use the cache concurrently.
    """
    key = subproblem_key(tensor, accesses, bank_params)
    cached = _SOLUTION_CACHE.get(key)
    if cached is not None:
        return cached, True
    solution = solve_subproblem(tensor, accesses, bank_params)
    _remember(key, solution)
    return solution, False


def _remember(key: tuple, solution: SmemSolution) -> None:
    if len(_SOLUTION_CACHE) >= _SOLUTION_CACHE_MAX:
        try:
            # pop(..., None) so two threads compiling concurrently and
            # evicting the same oldest key cannot race into a KeyError.
            _SOLUTION_CACHE.pop(next(iter(_SOLUTION_CACHE)), None)
        except (StopIteration, RuntimeError):  # emptied/resized concurrently
            pass
    _SOLUTION_CACHE[key] = solution


# --------------------------------------------------------------------------- #
# Swizzle selection
# --------------------------------------------------------------------------- #
# The analytic lower bound of _total_conflicts: every phase pays at least
# one access per bank, so the trip-weighted mean can never drop below 1.0.
# Once the incumbent reaches it, no candidate can *strictly* improve, and
# the `factor < best - 1e-9` update rule means the winner is unchanged.
_CONFLICT_FLOOR = 1.0


def _access_offsets(base: Layout, accesses: Sequence[CopyAccess]) -> List[List[int]]:
    """The base-layout offset of every access slot, per access: what every
    candidate swizzle permutes."""
    return [[base(tuple(coord)) for coord in access.thread_coords] for access in accesses]


def _access_window_bits(offsets: Sequence[Sequence[int]]) -> int:
    """Bit width of the element-index window the warp accesses touch:
    the bit length of the largest base-layout offset of any access (the
    maximum of the accesses' relation images, ``LayoutRelation.from_access``).

    All addresses the conflict model will ever evaluate lie in
    ``[0, 2**bits)``, so two swizzles with equal restrictions to that window
    (equal ``swizzle_window_key``) produce identical conflict factors.
    """
    return max((max(access) for access in offsets if access), default=0).bit_length()


@memoized(maxsize=4096)
def _base_layout(
    shape: Tuple[int, ...], constraint_keys: Tuple[Optional[Tuple[int, int]], ...]
) -> Tuple[Optional[Layout], Optional[str]]:
    """The materialized base layout of a buffer of ``shape`` under one
    access constraint per key (:attr:`CopyAccess.constraint_key`), unified
    in order, or ``(None, reason)`` when they do not unify.  Memoized by
    value, failures included: buffers of one shape recur across the
    subproblems of a search and across the programs of a batch."""
    constraints = [
        LayoutConstraint.unconstrained(shape)
        if key is None
        else LayoutConstraint.from_vectorized_access(shape, *key)
        for key in constraint_keys
    ]
    try:
        return unify(constraints).materialize(), None
    except UnificationError as exc:
        return None, str(exc)


def solve_subproblem(
    tensor: TileTensor,
    accesses: Sequence[CopyAccess],
    bank_params: SmemBankParams,
    prune: bool = True,
) -> SmemSolution:
    """Solve one smem subproblem, bypassing the structural cache.

    Never raises: when the constraints do not unify, or a TMA copy's
    contiguity requirement fails, the solution's ``failure`` says why.
    ``prune=True`` (the search's setting) skips swizzle candidates that
    cannot beat the incumbent: the whole remainder once the conflict floor
    is reached, and candidates whose restriction to the touched address
    window ties an already-scored one.  ``prune=False`` scores every
    candidate: it is the oracle the equivalence suite and the prune gate
    compare ``winner``s against.

    A swizzle permutes the base layout's integer offsets, so each access
    slot's offset is computed once, and the identity and every candidate
    are scored by applying the swizzle to those integers.
    """
    if not accesses:
        # An unused buffer: any compact layout works.
        return SmemSolution(Layout(tensor.shape), Swizzle(0, 0, 0), 1.0)

    base, failure = _base_layout(
        tuple(tensor.shape), tuple(access.constraint_key for access in accesses)
    )
    if failure is not None:
        return SmemSolution(None, None, 0.0, failure=failure)

    # TMA feasibility check for single-thread copies.
    tma = any(access.instruction.single_thread for access in accesses)
    if tma and not check_tma_compatible(base, tensor.dtype.bits):
        return SmemSolution(
            None, None, 0.0,
            failure=f"layout {base} does not satisfy TMA contiguity requirements",
        )

    element_bytes = tensor.dtype.bits / 8
    row_bytes = int(
        max(
            (access.vector_elems for access in accesses),
            default=1,
        )
        * element_bytes
    )
    offsets = _access_offsets(base, accesses)
    best_swizzle = Swizzle(0, 0, 0)
    best_factor = _total_conflicts(offsets, best_swizzle, accesses, element_bytes, bank_params)
    candidates = candidate_swizzles(
        tensor.dtype.bits, row_bytes, bank_params.phase_bytes
    )
    scored = 0
    pruned = 0
    if prune:
        window = _access_window_bits(offsets)
        seen_keys = {swizzle_window_key(best_swizzle, window)}
    for swizzle in candidates:
        if prune:
            if best_factor <= _CONFLICT_FLOOR + 1e-12:
                # Conflict-freedom reached: no candidate can strictly win.
                pruned = len(candidates) - scored
                break
            key = swizzle_window_key(swizzle, window)
            if key in seen_keys:
                # Restriction to the touched window ties an already-scored
                # candidate (or the identity): it can only tie, never win.
                pruned += 1
                continue
            seen_keys.add(key)
        scored += 1
        factor = _total_conflicts(offsets, swizzle, accesses, element_bytes, bank_params)
        if factor < best_factor - 1e-9:
            best_factor = factor
            best_swizzle = swizzle
    return SmemSolution(
        base,
        best_swizzle,
        best_factor,
        swizzles_scored=scored,
        swizzles_pruned=pruned,
    )


def _total_conflicts(
    offsets: Sequence[Sequence[int]],
    swizzle: Swizzle,
    accesses: Sequence[CopyAccess],
    element_bytes: float,
    bank_params: SmemBankParams,
) -> float:
    """Trip-weighted mean conflict factor of ``swizzle`` applied to each
    access's base-layout offsets."""
    total = 0.0
    weight = 0.0
    for access, access_offsets in zip(accesses, offsets):
        factor = _offset_conflict_factor(
            [swizzle(offset) for offset in access_offsets],
            element_bytes,
            access.instruction.vector_bytes,
            bank_params,
        )
        trips = access.copy.trips
        total += factor * trips
        weight += trips
    return total / weight if weight else 1.0
