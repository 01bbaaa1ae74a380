"""Instruction selection via branch-and-bound DFS over the layout search tree.

When several instructions can implement a copy, Hexcute expands the choice
into a search tree whose leaves are candidate programs (Section IV-B,
"Expanding Search Tree").  Each leaf fixes one instruction per copy; the
shared-memory solver then synthesizes buffer layouts for that leaf, invalid
leaves (unsatisfiable layout constraints) are discarded, and the analytical
cost model ranks the valid ones.  The all-scalar leaf is always valid, so
compilation never fails for want of a layout.

The search walks the tree depth-first in the same order the original flat
enumeration did (largest copies first, best/widest instruction first within
each copy) but exploits two factorizations to avoid touching most leaves:

* **Buffer factorization.**  Shared-memory synthesis for a buffer depends
  only on the instructions assigned to the copies touching it, so each
  buffer's feasibility is checked as soon as its *last* touching copy is
  assigned, and an unsatisfiable buffer prunes the entire subtree below the
  offending prefix.  Subproblem results (both plans and failures) are
  memoized per ``(buffer, touching-instruction tuple)`` and shared across
  the whole search, including the greedy repair and cache replays.
* **Incremental cost with an admissible lower bound.**  The
  assignment-invariant operation costs (gemm/elementwise/reduce/rearrange)
  are computed once per program; per-copy issue costs accumulate as the DFS
  descends, unassigned copies are bounded by their cheapest (widest) menu
  entry at a bank-conflict factor of 1.0, and any prefix whose bound cannot
  beat the incumbent (seeded by :meth:`InstructionSelector.greedy_repair`)
  is pruned.  The bound never exceeds the true leaf cost, so pruning never
  changes the selected candidate.

The search remains exhaustive up to ``max_candidates`` *leaf equivalents*
(pruned subtrees count every leaf they contain), which makes the result
bit-identical to the pre-branch-and-bound flat enumeration — kept available
as :meth:`InstructionSelector.best_exhaustive` for equivalence tests and the
CI regression gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence

from repro.instructions.instruction import MemoryInstruction
from repro.instructions.registry import InstructionSet
from repro.ir.graph import KernelProgram
from repro.ir.ops import Copy
from repro.ir.tensor import Scope, TileTensor
from repro.synthesis.cost_model import AnalyticalCostModel, CostBreakdown
from repro.synthesis.smem_solver import (
    DEFAULT_BANK_PARAMS,
    SmemBankParams,
    SmemPlan,
    copy_access_for,
    smem_solution_for,
)
from repro.synthesis.tv_solver import TVSolution

__all__ = ["Candidate", "InstructionSelector", "SelectionError", "SelectionStats"]

# Valid instructions each copy's menu keeps, widest first.
MAX_CHOICES_PER_COPY = 3


class SelectionError(Exception):
    """Raised when no valid candidate program exists (should not happen:
    the scalar fallback is always valid)."""


@dataclass
class SelectionStats:
    """Instrumentation of one instruction-selection search.

    ``leaves_evaluated`` counts full leaf evaluations (shared-memory plan
    assembly plus a cost-model run); ``leaves_pruned`` counts the leaf
    equivalents inside subtrees cut by branch-and-bound.
    ``subproblems_memoized`` counts shared-memory subproblem cache hits and
    ``smem_solves`` the actual constraint-unification solves that ran.
    ``swizzles_scored``/``swizzles_pruned`` aggregate, over those fresh
    solves, how many swizzle candidates went through the conflict model and
    how many the analytic prune predicates discarded (conflict-floor early
    exit + touched-window restriction dedupe; see
    ``smem_solver.solve_subproblem``).
    """

    leaves_evaluated: int = 0
    leaves_pruned: int = 0
    leaf_memo_hits: int = 0
    subproblems_memoized: int = 0
    smem_solves: int = 0
    swizzles_scored: int = 0
    swizzles_pruned: int = 0

    @property
    def leaf_equivalents(self) -> int:
        """Leaves accounted for by the search: evaluated, replayed from the
        leaf memo, or pruned."""
        return self.leaves_evaluated + self.leaf_memo_hits + self.leaves_pruned


@dataclass
class Candidate:
    """One leaf of the search tree: a full instruction assignment."""

    assignment: Dict[int, MemoryInstruction]
    smem_plans: Dict[TileTensor, SmemPlan] = field(default_factory=dict)
    conflict_factors: Dict[int, float] = field(default_factory=dict)
    cost: Optional[CostBreakdown] = None

    @property
    def total_cycles(self) -> float:
        return self.cost.total_cycles if self.cost else float("inf")

    def named_assignment(self, program: KernelProgram) -> List[tuple]:
        """The assignment as ``(name, direction, vector_bytes)`` triples in
        program-copy order — a stable, serializable form used by the compile
        cache to replay the winning leaf on an equivalent program."""
        named = []
        for copy in program.copies():
            instr = self.assignment[copy.op_id]
            named.append((instr.name, instr.direction, instr.vector_bytes))
        return named

    def apply(self, program: KernelProgram) -> None:
        """Install the chosen instructions and shared-memory layouts on
        ``program`` (the program this candidate was selected for)."""
        for copy in program.copies():
            copy.selected_instruction = self.assignment[copy.op_id]
        for plan in self.smem_plans.values():
            plan.apply()


class InstructionSelector:
    """Enumerates, validates and ranks candidate programs.

    Program structure that the search reuses for every leaf — the copy list,
    the per-buffer touching-copy lists and the cost model's table — is
    computed once here rather than per leaf; the per-copy instruction menus
    are listed once, when the search first reads them.
    """

    def __init__(
        self,
        program: KernelProgram,
        tv_solution: TVSolution,
        instructions: InstructionSet,
        max_candidates: int = 256,
        bank_params: SmemBankParams = DEFAULT_BANK_PARAMS,
    ):
        self.program = program
        self.tv_solution = tv_solution
        self.instructions = instructions
        self.max_candidates = max_candidates
        # Target banking geometry for shared-memory synthesis; supplied per
        # compile by the codegen backend so rocm targets score conflicts
        # over their own LDS window.
        self.bank_params = bank_params
        self.stats = SelectionStats()
        self.last_failed_tensor: Optional[TileTensor] = None

        # --- precomputed program structure ----------------------------- #
        self.copies: List[Copy] = program.copies()
        self._reg_tv = {}
        for copy in self.copies:
            reg = copy.register_operand()
            self._reg_tv[copy.op_id] = reg.tv_layout if reg is not None else None
        # Search order: biggest copies first (ties keep program order); the
        # greedy repair degrades in the opposite (cheapest-first) order.
        self._search_order: List[Copy] = sorted(
            self.copies, key=lambda c: -(c.moves_bytes() * c.trips)
        )
        self._repair_order: List[Copy] = sorted(
            self.copies, key=lambda c: (c.moves_bytes() * c.trips)
        )
        self._shared: List[TileTensor] = program.shared_tensors()
        self._touching: Dict[int, List[Copy]] = {
            t.tensor_id: program.copies_touching(t) for t in self._shared
        }
        # --- memoized subproblems -------------------------------------- #
        # (tensor_id, (instruction per touching copy)) -> SmemPlan | None
        self._smem_cache: Dict[tuple, Optional[SmemPlan]] = {}
        # (instruction per copy) -> (Candidate | None, failed tensor | None);
        # the greedy repair and the DFS revisit identical assignments (the
        # incumbent's leaf in particular), which replay from here for free.
        self._leaf_cache: Dict[tuple, tuple] = {}
        # One cost model per search: every operation's assignment-invariant
        # facts, read by each leaf's estimate and by the lower bound (the
        # gemm instructions and TV layouts tv-synthesis installed are in
        # place by now).
        self.cost_model = AnalyticalCostModel(program)

    @cached_property
    def _menus(self) -> Dict[int, List[MemoryInstruction]]:
        """Every copy's menu, listed on first use by the search; a replay
        that resolves its seed never lists one."""
        return {c.op_id: self._build_menu(c) for c in self.copies}

    @property
    def candidates_explored(self) -> int:
        """Leaf equivalents accounted for by the search — the same count the
        flat enumeration reported, so cache/benchmark consumers keep their
        semantics: pruned subtrees contribute every leaf they contain."""
        return self.stats.leaf_equivalents

    # ------------------------------------------------------------------ #
    # Per-copy candidate instructions
    # ------------------------------------------------------------------ #
    def _menu(self, copy: Copy) -> Iterator[MemoryInstruction]:
        """The menu rule, in menu order: the instructions valid for
        ``copy``, widest first, cut at ``MAX_CHOICES_PER_COPY``, then the
        scalar fallback unless it is among them (so it stays reachable).
        Each entry is validated only when the walk reaches it."""
        reg_tv = self._reg_tv[copy.op_id]
        kept: List[MemoryInstruction] = []
        for instr in self.instructions.copies(
            copy.src.scope, copy.dst.scope, max_vector_bytes=copy.max_vector_bytes
        ):
            if len(kept) == MAX_CHOICES_PER_COPY:
                break
            if instr.collective:
                valid = self._collective_valid(copy, instr)
            elif instr.single_thread:
                valid = copy.dst.scope is Scope.SHARED
            else:
                valid = self._vector_valid(copy, instr, reg_tv)
            if valid:
                kept.append(instr)
                yield instr
        scalar = self.instructions.scalar_copy(copy.src.scope, copy.dst.scope)
        if scalar not in kept:
            yield scalar

    def _build_menu(self, copy: Copy) -> List[MemoryInstruction]:
        return list(self._menu(copy))

    def _collective_valid(self, copy: Copy, instr: MemoryInstruction) -> bool:
        """ldmatrix/stmatrix validity: 16-bit data feeding a Tensor Core
        operand whose register distribution matches the instruction fragment."""
        reg = copy.register_operand()
        if reg is None or reg.dtype.bits != 16:
            return False
        if reg not in self.tv_solution.mma_operands:
            return False
        if instr.name.startswith("ldmatrix") and not (
            copy.src.is_shared and copy.dst.is_register
        ):
            return False
        if instr.name.startswith("stmatrix") and not (
            copy.src.is_register and copy.dst.is_shared
        ):
            return False
        return True

    def _vector_valid(
        self, copy: Copy, instr: MemoryInstruction, reg_tv
    ) -> bool:
        dtype = copy.src.dtype
        elems = instr.elements_per_thread(dtype)
        if elems * dtype.bits < 8:
            return False
        if reg_tv is not None:
            run_dim, run = reg_tv.vector_run
            if elems > 1 and (run < elems or run % elems != 0):
                return False
            contiguous_dim = run_dim
        else:
            contiguous_dim = None
        # Global operands have user-fixed layouts: the vector must follow a
        # stride-1 dimension with a divisible extent.
        for tensor in (copy.src, copy.dst):
            if tensor.is_global and elems > 1:
                if not self._global_supports_vector(tensor, elems, contiguous_dim):
                    return False
        return True

    def _global_supports_vector(
        self, tensor: TileTensor, elems: int, contiguous_dim: Optional[int]
    ) -> bool:
        layout = tensor.layout
        if layout is None:
            return False
        dims = range(tensor.rank) if contiguous_dim is None else [contiguous_dim]
        for dim in dims:
            shapes, strides = layout.mode_leaves(dim)
            if 1 in strides:
                extent = shapes[strides.index(1)]
                if extent % elems == 0:
                    return True
        return False

    def resolve_named_assignment(
        self, named: Sequence[tuple]
    ) -> Optional[Dict[int, MemoryInstruction]]:
        """Map ``(name, direction, vector_bytes)`` triples (one per copy in
        program order, cf. :meth:`Candidate.named_assignment`) back onto this
        program's copies.  Each triple must resolve to an instruction the
        current per-copy validity rules would still offer (so a persisted
        assignment from an older code revision cannot replay choices the
        present search would reject): the copy's menu is walked only as far
        as the named entry, so a replay lists no menu.  Returns ``None``
        when the program shape, instruction set or validity rules no longer
        match — callers fall back to the full search."""
        if len(named) != len(self.copies):
            return None
        assignment: Dict[int, MemoryInstruction] = {}
        for copy, (name, direction, vector_bytes) in zip(self.copies, named):
            if copy.direction != direction:
                return None
            instr = next(
                (
                    i
                    for i in self._menu(copy)
                    if i.name == name
                    and i.direction == direction
                    and i.vector_bytes == vector_bytes
                ),
                None,
            )
            if instr is None:
                return None
            assignment[copy.op_id] = instr
        return assignment

    # ------------------------------------------------------------------ #
    # Memoized shared-memory subproblems
    # ------------------------------------------------------------------ #
    def _plan_for(
        self, tensor: TileTensor, assignment: Dict[int, MemoryInstruction]
    ) -> Optional[SmemPlan]:
        """The synthesized (or memoized) plan for one buffer under the
        instructions currently assigned to its touching copies, or ``None``
        when the constraints do not unify.  Failures are memoized too, so an
        infeasible combination is proven exactly once."""
        touching = self._touching[tensor.tensor_id]
        key = (tensor.tensor_id, tuple(assignment[c.op_id] for c in touching))
        if key in self._smem_cache:
            self.stats.subproblems_memoized += 1
            return self._smem_cache[key]
        accesses = [
            copy_access_for(c, assignment[c.op_id], tensor, self._reg_tv[c.op_id])
            for c in touching
        ]
        solution, hit = smem_solution_for(tensor, accesses, self.bank_params)
        if hit:
            # The process-wide structural cache already knew this subproblem
            # (e.g. from an equivalent compile earlier in an autotune sweep).
            self.stats.subproblems_memoized += 1
        else:
            self.stats.smem_solves += 1
            self.stats.swizzles_scored += solution.swizzles_scored
            self.stats.swizzles_pruned += solution.swizzles_pruned
        plan: Optional[SmemPlan] = (
            None if solution.failure is not None else solution.as_plan(tensor, accesses)
        )
        self._smem_cache[key] = plan
        return plan

    # ------------------------------------------------------------------ #
    # Leaf evaluation
    # ------------------------------------------------------------------ #
    def enumerate_assignments(self) -> Iterator[Dict[int, MemoryInstruction]]:
        """Flat enumeration over per-copy choices, biggest copies first,
        best-first within each copy, capped at ``max_candidates`` leaves —
        the window the branch-and-bound search covers via pruning."""
        copies = self._search_order
        menus = [self._menus[copy.op_id] for copy in copies]
        count = 0
        for combo in itertools.product(*menus):
            if count >= self.max_candidates:
                return
            count += 1
            yield {copy.op_id: instr for copy, instr in zip(copies, combo)}

    def evaluate(self, assignment: Dict[int, MemoryInstruction]) -> Optional[Candidate]:
        """Synthesize shared-memory layouts and estimate the latency of one leaf.

        Returns ``None`` for invalid leaves (unsatisfiable shared-memory
        constraints) and records the offending buffer in
        ``self.last_failed_tensor`` so the greedy repair can degrade the right
        copies.  Buffer subproblems come from the shared memo, so repeated
        evaluations of overlapping assignments never re-unify constraints,
        and identical assignments replay their complete result.
        """
        leaf_key = tuple(assignment[c.op_id] for c in self.copies)
        cached = self._leaf_cache.get(leaf_key)
        if cached is not None:
            self.stats.leaf_memo_hits += 1
            candidate, failed = cached
            self.last_failed_tensor = failed
            return candidate
        self.stats.leaves_evaluated += 1
        self.last_failed_tensor = None
        candidate = Candidate(assignment=dict(assignment))

        # Shared-memory layout synthesis per buffer (memoized per subproblem).
        for tensor in self._shared:
            plan = self._plan_for(tensor, assignment)
            if plan is None:
                self.last_failed_tensor = tensor
                self._leaf_cache[leaf_key] = (None, tensor)
                return None
            candidate.smem_plans[tensor] = plan
            for access in plan.accesses:
                candidate.conflict_factors[access.copy.op_id] = max(
                    candidate.conflict_factors.get(access.copy.op_id, 1.0),
                    plan.conflict_factor,
                )

        # The model reads the assignment directly, so nothing needs to be
        # installed on the program.
        candidate.cost = self.cost_model.estimate(assignment, candidate.conflict_factors)
        self._leaf_cache[leaf_key] = (candidate, None)
        return candidate

    # ------------------------------------------------------------------ #
    # Incremental cost bound
    # ------------------------------------------------------------------ #
    def _issue_terms_for(self, order: Sequence[Copy]) -> List[List[float]]:
        """Per-depth, per-menu-entry total issue cycles at conflict 1.0 —
        the per-copy building blocks of the admissible lower bound."""
        return [
            [self.cost_model.copy_issue_bound(copy, instr) for instr in self._menus[copy.op_id]]
            for copy in order
        ]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def greedy_repair(self) -> Optional[Candidate]:
        """A valid candidate obtained by starting from the widest instruction
        per copy and locally degrading copies until the shared-memory layout
        constraints unify.

        This mirrors the paper's fallback guarantee: the all-scalar leaf is
        always satisfiable, so the repair loop terminates with some valid
        candidate even when wide choices conflict (Fig. 10 c, Case 2).
        """
        copies = self._repair_order
        menus = {copy.op_id: self._menus[copy.op_id] for copy in copies}
        position = {copy.op_id: 0 for copy in copies}
        while True:
            assignment = {
                op_id: menu[min(position[op_id], len(menu) - 1)]
                for op_id, menu in menus.items()
            }
            candidate = self.evaluate(assignment)
            if candidate is not None:
                return candidate
            # Degrade a copy involved in the failing buffer when known (the
            # cheaper side first), otherwise the cheapest copy overall.
            failed = self.last_failed_tensor
            if failed is not None:
                involved = [c for c in copies if failed in c.tensors()]
            else:
                involved = []
            pool = involved or copies
            for copy in pool:
                if position[copy.op_id] < len(menus[copy.op_id]) - 1:
                    position[copy.op_id] += 1
                    break
            else:
                # Every involved copy is already at its narrowest choice;
                # degrade something else before giving up entirely.
                for copy in copies:
                    if position[copy.op_id] < len(menus[copy.op_id]) - 1:
                        position[copy.op_id] += 1
                        break
                else:
                    return None

    def best(self) -> Candidate:
        """Pick the valid candidate with the lowest estimated latency via
        branch-and-bound DFS.

        Exhaustive up to ``max_candidates`` leaf equivalents and guaranteed
        to return the same candidate as :meth:`best_exhaustive`: infeasible
        subtrees contain no valid leaves, and bound-pruned subtrees contain
        no leaf that could *strictly* beat the incumbent.
        """
        best = self.greedy_repair()

        order = self._search_order
        menus = [self._menus[copy.op_id] for copy in order]
        n = len(order)
        # subtree[i]: leaves under a node with copies[0..i-1] assigned.
        subtree = [1] * (n + 1)
        for i in range(n - 1, -1, -1):
            subtree[i] = subtree[i + 1] * len(menus[i])

        # Buffers become checkable at the depth of their last touching copy.
        pos = {copy.op_id: i for i, copy in enumerate(order)}
        complete_at: List[List[TileTensor]] = [[] for _ in range(n)]
        for tensor in self._shared:
            touching = self._touching[tensor.tensor_id]
            if touching:
                complete_at[max(pos[c.op_id] for c in touching)].append(tensor)

        invariants = self.cost_model.invariant_costs()
        terms = self._issue_terms_for(order)
        # suffix_min[i]: cheapest possible issue total of copies i..n-1 — the
        # unassigned-copy part of the bound, precomputed once so every DFS
        # node sums the same floats (no incremental +=/-= drift).
        suffix_min = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_min[i] = min(terms[i]) + suffix_min[i + 1]

        budget = self.max_candidates
        assignment: Dict[int, MemoryInstruction] = {}

        def prune(depth: int) -> None:
            nonlocal budget
            cut = min(subtree[depth], budget)
            budget -= cut
            self.stats.leaves_pruned += cut

        def dfs(depth: int, assigned_issue: float) -> None:
            nonlocal best, budget
            if budget <= 0:
                return
            if depth == n:
                budget -= 1
                candidate = self.evaluate(assignment)
                if candidate is not None and (
                    best is None or candidate.total_cycles < best.total_cycles
                ):
                    best = candidate
                return
            copy = order[depth]
            for choice, instr in enumerate(menus[depth]):
                if budget <= 0:
                    return
                assignment[copy.op_id] = instr
                # Buffer factorization: every buffer whose copies are now all
                # assigned either unifies (memoized plan) or cuts the subtree.
                feasible = True
                for tensor in complete_at[depth]:
                    if self._plan_for(tensor, assignment) is None:
                        feasible = False
                        break
                if not feasible:
                    prune(depth + 1)
                    continue
                prefix_issue = assigned_issue + terms[depth][choice]
                # Prune when the bound cannot *strictly* beat the incumbent.
                # The flat enumeration only replaces the incumbent on strict
                # improvement, so tied subtrees are safe to cut; no epsilon —
                # the bound must genuinely reach the incumbent.
                if (
                    best is not None
                    and invariants.lower_bound(prefix_issue + suffix_min[depth + 1])
                    >= best.total_cycles
                ):
                    prune(depth + 1)
                else:
                    dfs(depth + 1, prefix_issue)
            del assignment[copy.op_id]

        dfs(0, 0.0)
        if best is None:
            raise SelectionError(
                f"no valid candidate program found for kernel {self.program.name!r}"
            )
        return best

    def best_exhaustive(self) -> Candidate:
        """The pre-branch-and-bound reference: flat enumeration of the first
        ``max_candidates`` leaves, each fully evaluated.  Kept as the ground
        truth for the equivalence test suite and the CI regression gate
        (``bench_compile_time.py --smoke``)."""
        best = self.greedy_repair()
        for assignment in self.enumerate_assignments():
            candidate = self.evaluate(assignment)
            if candidate is None:
                continue
            if best is None or candidate.total_cycles < best.total_cycles:
                best = candidate
        if best is None:
            raise SelectionError(
                f"no valid candidate program found for kernel {self.program.name!r}"
            )
        return best

    def all_valid_candidates(self) -> List[Candidate]:
        """Every valid leaf with its cost — used by the cost-model-accuracy
        experiment (Fig. 12)."""
        result = []
        for assignment in self.enumerate_assignments():
            candidate = self.evaluate(assignment)
            if candidate is not None:
                result.append(candidate)
        return result
