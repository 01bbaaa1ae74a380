"""Layout synthesis: thread-value layouts (Algorithm 1), shared-memory
layouts (Section V), instruction selection (Section IV-B) and the analytical
cost model (Section VI)."""

from repro.synthesis.tiling import (
    TiledMma,
    make_tiled_mma,
    coalesced_copy_tv,
    reduce_tv_layout,
    pick_warp_grid,
)
from repro.synthesis.tv_constraints import check_gemm_constraint
from repro.synthesis.tv_solver import (
    TVSynthesisError,
    TVSolution,
    ThreadValueSolver,
)
from repro.synthesis.smem_solver import (
    CopyAccess,
    SmemBankParams,
    SmemPlan,
    SmemSolution,
    SmemSynthesisError,
    bank_conflict_factor,
    clear_smem_cache,
    copy_access_for,
    smem_solution_for,
    solve_subproblem,
)
from repro.synthesis.cost_model import (
    AnalyticalCostModel,
    CostBreakdown,
    InvariantCosts,
    copy_issue_cycles,
)
from repro.synthesis.search import (
    Candidate,
    InstructionSelector,
    SelectionError,
    SelectionStats,
)

__all__ = [
    "TiledMma",
    "make_tiled_mma",
    "coalesced_copy_tv",
    "reduce_tv_layout",
    "pick_warp_grid",
    "check_gemm_constraint",
    "TVSynthesisError",
    "TVSolution",
    "ThreadValueSolver",
    "CopyAccess",
    "SmemBankParams",
    "SmemPlan",
    "SmemSolution",
    "SmemSynthesisError",
    "bank_conflict_factor",
    "clear_smem_cache",
    "copy_access_for",
    "smem_solution_for",
    "solve_subproblem",
    "AnalyticalCostModel",
    "CostBreakdown",
    "InvariantCosts",
    "copy_issue_cycles",
    "Candidate",
    "InstructionSelector",
    "SelectionError",
    "SelectionStats",
]
