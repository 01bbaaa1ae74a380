"""Thread-value layout constraints (Section IV-A, Fig. 19).

Each tile-level operation induces a constraint relating the thread-value
layouts of its operands, expressed through composition with the inverses of
the implementing instruction's operand layouts:

* ``copy(a, b)`` with instruction layouts ``p`` (source side) and ``q``
  (destination side):  ``f ∘ p⁻¹ = g ∘ q⁻¹``;
* ``gemm(c, a, b)`` with instruction operand layouts ``p_A, p_B, p_C``:
  the composites agree dimension-wise (M between C and A, N between C and
  B, K between A and B);
* ``elementwise``: all operands share one TV layout;
* ``reduce``: the output layout is the input layout composed with the
  projection collapsing the reduced dimension.

``check_copy_constraint`` and ``check_gemm_constraint`` verify their
equations point-wise over the instruction's (thread, value) domain;
``check_elementwise_constraint`` and ``check_reduce_constraint`` compare
whole layouts through ``TVLayout.equivalent``, which decides function
equality analytically from coalesced forms.  The solver (``tv_solver.py``)
does not call them; the test suite uses them as the ground-truth semantics
of the constraint system, to check the layouts the solver and the tiling
helpers construct.
"""

from __future__ import annotations

from repro.instructions.instruction import MmaInstruction
from repro.layout.tv import TVLayout
from repro.synthesis.tiling import reduce_tv_layout

__all__ = [
    "check_copy_constraint",
    "check_gemm_constraint",
    "check_elementwise_constraint",
    "check_reduce_constraint",
]


# --------------------------------------------------------------------------- #
# Constraint checks
# --------------------------------------------------------------------------- #
def check_copy_constraint(f: TVLayout, g: TVLayout, p: TVLayout, q: TVLayout) -> bool:
    """``f ∘ p⁻¹ = g ∘ q⁻¹`` over the instruction's (thread, value) domain.

    ``f``/``g`` are the source/destination tensor TV layouts restricted to
    the instruction's thread group, ``p``/``q`` the instruction's input and
    output layouts.  Verified point-wise: the same (thread, value) pair must
    address the same logical element on both sides.
    """
    threads = min(p.num_threads, q.num_threads)
    values = min(p.values_per_thread, q.values_per_thread)
    if f.num_threads < threads or g.num_threads < threads:
        return False
    composite_f = {}
    composite_g = {}
    for t in range(threads):
        for v in range(values):
            composite_f[p(t, v)] = f(t, v)
            composite_g[q(t, v)] = g(t, v)
    shared_keys = set(composite_f) & set(composite_g)
    if not shared_keys:
        return False
    return all(composite_f[k] == composite_g[k] for k in shared_keys)


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


def check_elementwise_constraint(layouts: list[TVLayout]) -> bool:
    """All operands of an elementwise op must share one TV layout (Fig. 19 c)."""
    if not layouts:
        return True
    return all(layouts[0].equivalent(l) for l in layouts[1:])


def check_reduce_constraint(src: TVLayout, dst: TVLayout, dim: int) -> bool:
    """The reduce output layout must be the input layout with the reduced
    dimension collapsed (Fig. 19 d)."""
    expected = reduce_tv_layout(src, dim)
    return dst.equivalent(expected)
