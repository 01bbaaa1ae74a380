"""Swizzle functions for shared-memory bank-conflict avoidance.

Hexcute (following CuTe) represents a shared-memory layout as the composition
``M = S ∘ m`` of a base memory layout ``m`` (synthesized by unification, see
:mod:`repro.synthesis.smem_solver`) with a *swizzle* ``S`` that permutes
addresses to spread accesses across the 32 shared-memory banks.

``Swizzle(bits, base, shift)`` is CuTe's generic XOR swizzle: a group of
``bits`` address bits located ``shift`` positions above the ``base`` bits is
XOR-ed into the ``bits`` bits directly above ``base``:

    y = x XOR ((x & mask_hi) >> shift)

The swizzle is an involution on ``[0, 2^(base+bits+shift))`` extended
periodically, so it never changes *which* elements a layout addresses —
only their order — making it safe to apply after the base layout is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.layout import Layout

__all__ = ["Swizzle", "ComposedLayout", "candidate_swizzles", "swizzle_window_key"]


@dataclass(frozen=True)
class Swizzle:
    """CuTe's ``Swizzle<B, M, S>`` XOR address permutation.

    Parameters
    ----------
    bits:
        Number of bits participating in the XOR (``B``); ``2**bits`` rows
        get distinct permutations.
    base:
        Number of low-order bits left untouched (``M``); ``2**base``
        elements move together (the vector granularity).
    shift:
        Distance between the source and destination bit groups (``S``).
    """

    bits: int
    base: int
    shift: int

    def __post_init__(self):
        if self.bits < 0 or self.base < 0:
            raise ValueError(f"invalid swizzle parameters {self}")
        if self.shift < self.bits:
            raise ValueError(
                f"swizzle shift ({self.shift}) must be >= bits ({self.bits})"
            )

    def __call__(self, index: int) -> int:
        if self.bits == 0:
            return index
        mask = (1 << self.bits) - 1
        hi = (index >> (self.base + self.shift)) & mask
        return index ^ (hi << self.base)

    def period(self) -> int:
        """Size of the address window the swizzle permutes within."""
        return 1 << (self.base + self.shift + self.bits)

    def is_identity(self) -> bool:
        return self.bits == 0

    def __repr__(self) -> str:
        return f"Swizzle<{self.bits},{self.base},{self.shift}>"


@dataclass(frozen=True)
class ComposedLayout:
    """A shared-memory layout ``swizzle ∘ base``: evaluate the base layout,
    then permute the resulting address with the swizzle."""

    swizzle: Swizzle
    base: Layout

    def __call__(self, *coord) -> int:
        return self.swizzle(self.base(*coord))

    def size(self) -> int:
        return self.base.size()

    def cosize(self) -> int:
        # The swizzle is a permutation of a power-of-two window; it cannot
        # increase the maximum address beyond the next power-of-two
        # boundary, but for reporting we use the base cosize which is what
        # determines the allocation size.
        return self.base.cosize()

    def all_indices(self) -> list[int]:
        return [self(i) for i in range(self.size())]

    def is_injective(self) -> bool:
        # A swizzle is an XOR bijection on addresses, so the composition
        # is injective iff the base layout is.
        return self.base.is_injective()

    def __repr__(self) -> str:
        return f"{self.swizzle} o {self.base}"


def swizzle_window_key(swizzle: Swizzle, window_bits: int) -> tuple:
    """Canonical key of a swizzle's restriction to ``[0, 2**window_bits)``.

    ``Swizzle(bits, base, shift)`` XORs ``(x >> (base + shift)) & mask``
    into the bits just above ``base``; for ``x < 2**window_bits`` the
    source field carries at most ``window_bits - (base + shift)`` live
    bits, so only ``min(bits, window_bits - base - shift)`` of them can
    ever fire.  Two swizzles with equal keys therefore agree *pointwise*
    on the whole window; the empty key ``()`` means the restriction is the
    identity.  The smem solver uses this to skip candidates that cannot be
    distinguished by any address its warp accesses actually touch.
    """
    effective = min(swizzle.bits, max(0, window_bits - (swizzle.base + swizzle.shift)))
    if effective <= 0:
        return ()
    return (swizzle.base, swizzle.shift, effective)


def candidate_swizzles(
    element_bits: int,
    row_bytes: int,
    phase_bytes: int = 128,
) -> list[Swizzle]:
    """Enumerate the swizzles worth trying for a shared-memory buffer.

    ``element_bits`` is the storage width of one element and ``row_bytes``
    the byte length of one contiguous row of the base layout; the candidates
    mirror the canonical CUTLASS shared-memory atoms (none, 32 B, 64 B and
    128 B swizzles) expressed at element granularity.  The identity swizzle
    always comes first.

    ``phase_bytes`` is the banked window one warp-wide access phase covers
    (``banks * bank_bytes`` — 128 B on NVIDIA's 32x4 B banking).  The widest
    useful swizzle permutes one full phase of 16-byte vectors, so targets
    with wider banking (e.g. CDNA's 256 B LDS window) enumerate one more
    swizzle tier and admit proportionally wider spans.
    """
    candidates = [Swizzle(0, 0, 0)]
    element_bytes = max(1, element_bits // 8)
    # The base covers one 16-byte vector worth of elements (128-bit accesses).
    vector_elems = max(1, 16 // element_bytes)
    base = max(0, vector_elems.bit_length() - 1)
    # log2(vectors per phase): 3 for the canonical 128-byte phase.
    max_bits = max(1, (max(phase_bytes, 32) // 16).bit_length() - 1)
    if phase_bytes > 128:
        # Wide-banked targets (e.g. CDNA's 256 B LDS window) conflict across
        # strides far beyond one row: admit swizzles permuting up to
        # 2**max_bits whole phases so those address bits can be folded in.
        span_limit_bytes = phase_bytes * (1 << max_bits)
    else:
        span_limit_bytes = max(row_bytes, 16) * (1 << max_bits) if row_bytes else None
    for bits in range(1, max_bits + 1):
        for shift in sorted({bits, max_bits}):
            candidate = Swizzle(bits, base, shift)
            # The span must come from *this* candidate's period: a
            # Swizzle(bits, base, 3) permutes within 2**(base+3+bits)
            # elements, a wider window than the shift==bits form at the
            # same bits — filtering both on the shift==bits span used to
            # let wide-window candidates through on buffers too small for
            # their period to make sense.
            span_bytes = candidate.period() * element_bytes
            if span_limit_bytes is not None and span_bytes > span_limit_bytes:
                continue
            candidates.append(candidate)
    return candidates
