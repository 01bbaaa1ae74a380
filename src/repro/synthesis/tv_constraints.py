"""The gemm thread-value constraint of Section IV-A (Fig. 19 b), as a test oracle.

Each tile-level operation induces a constraint relating the thread-value
layouts of its operands through the implementing instruction's operand
layouts.  For ``gemm(c, a, b)`` with instruction operand layouts ``p_A,
p_B, p_C`` the constraint is dimension-wise: the M coordinates agree
between C and A, the N coordinates between C and B, and the K
coordinates between A and B.

``check_gemm_constraint`` verifies that equation point-wise over the
instruction's (thread, value) domain.  The solver (``tv_solver.py``)
does not call it: it builds the gemm operands' layouts by tiling the
instruction atoms (``tiling.make_tiled_mma``), and the test suite checks
those layouts, and the ones the solver installs, against this oracle.
"""

from __future__ import annotations

from repro.instructions.instruction import MmaInstruction
from repro.layout.tv import TVLayout

__all__ = ["check_gemm_constraint"]


def check_gemm_constraint(
    fa: TVLayout, fb: TVLayout, fc: TVLayout, instruction: MmaInstruction
) -> bool:
    """The dimension-wise gemm constraints of Fig. 19 (b), checked point-wise.

    For every (thread, value) pair of the instruction atom, the M coordinate
    assigned through C must match the one assigned through A, the N
    coordinate through C must match B's, and the K coordinate through A must
    match B's.
    """
    pa, pb, pc = instruction.a_tv, instruction.b_tv, instruction.c_tv
    threads = pa.num_threads

    # M consistency: C rows vs A rows.
    for t in range(threads):
        m_from_c = {pc.coords(t, v)[0] for v in range(pc.values_per_thread)}
        m_from_a = {pa.coords(t, v)[0] for v in range(pa.values_per_thread)}
        tile_m_c = {fc.coords(t, v)[0] for v in range(pc.values_per_thread)}
        tile_m_a = {fa.coords(t, v)[0] for v in range(pa.values_per_thread)}
        if m_from_c != m_from_a:
            # The atom itself pairs rows differently; nothing to check here.
            continue
        if tile_m_c != tile_m_a:
            return False

    # N consistency: C columns vs B rows.
    for t in range(threads):
        n_from_c = {pc.coords(t, v)[1] for v in range(pc.values_per_thread)}
        n_from_b = {pb.coords(t, v)[0] for v in range(pb.values_per_thread)}
        tile_n_c = {fc.coords(t, v)[1] for v in range(pc.values_per_thread)}
        tile_n_b = {fb.coords(t, v)[0] for v in range(pb.values_per_thread)}
        if n_from_c != n_from_b:
            continue
        if tile_n_c != tile_n_b:
            return False

    # K consistency: A columns vs B columns.
    for t in range(threads):
        k_from_a = {pa.coords(t, v)[1] for v in range(pa.values_per_thread)}
        k_from_b = {pb.coords(t, v)[1] for v in range(pb.values_per_thread)}
        tile_k_a = {fa.coords(t, v)[1] for v in range(pa.values_per_thread)}
        tile_k_b = {fb.coords(t, v)[1] for v in range(pb.values_per_thread)}
        if k_from_a != k_from_b:
            continue
        if tile_k_a != tile_k_b:
            return False
    return True
