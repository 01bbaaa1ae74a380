"""Integer-set-relation view of layouts: the independent verification oracle.

Following NVIDIA's "Modeling Layout Abstractions Using Integer Set
Relations" (and Cecka's "CuTe Layout Representation and Algebra", which
pins down the semantics), a CuTe layout ``L = shape:stride`` over the
domain ``[0, size)`` is nothing more than the *finite integer relation*

    R_L = { (i, L(i)) : 0 <= i < size }

and every operation of the layout algebra has a purely set-theoretic
definition on relations:

* composition ``A ∘ B``       → relational composition
  ``{ (x, z) : (x, y) ∈ R_B and (y, z) ∈ R_A }``;
* right inverse               → the converse relation restricted to the
  image (``inverse_on_image``);
* complement in ``[0, M)``    → the greedy cover: scan the codomain and
  give the next uncovered offset to the complement, requiring the sumset
  ``image(L) + image(C)`` to tile ``[0, M)`` without collision.

None of these definitions share any code with the closed-form algebra in
:mod:`repro.layout.algebra` — the whole point.  ``tests/test_relation.py``
cross-checks the algebra (coalesce / composition / complement /
right_inverse), ``Layout.is_injective`` and the enumerated bank-conflict
model against this view on hundreds of randomized layouts per operation,
so a wrong composite cannot silently corrupt synthesis.

The relation view also answers two queries by enumeration:

* :meth:`LayoutRelation.is_injective` — the oracle of
  ``Layout.is_injective``'s analytic sorted-stride test;
* :meth:`LayoutRelation.bank_conflict_degree` — the banked conflict
  multiplier computed from the relation pairs alone (the oracle twin of
  ``smem_solver.bank_conflict_factor``).

The shared-memory solver's swizzle pruning (``smem_solver``) bounds the
touched address window by the largest base-layout offset of the warp
accesses — the maximum of their access relations' images, which
``tests/test_relation.py`` checks it against; see ``swizzle_window_key``
in :mod:`repro.layout.swizzle`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.layout.layout import Layout

__all__ = ["LayoutRelation"]

Pair = Tuple[int, int]


class LayoutRelation:
    """A finite integer relation ``{(x, y)}`` with layout-algebra semantics.

    Pairs are stored deduplicated and sorted, so two relations are equal
    iff they are equal as sets — the representation *is* the semantics,
    which is what makes this class a trustworthy oracle for the
    closed-form algebra.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Pair]):
        cleaned = sorted({(int(x), int(y)) for x, y in pairs})
        for x, y in cleaned:
            if x < 0 or y < 0:
                raise ValueError(f"relation pairs must be non-negative, got {(x, y)}")
        self.pairs = tuple(cleaned)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_layout(cls, layout, domain_size: int | None = None) -> "LayoutRelation":
        """The graph of a layout function over ``[0, domain_size)``.

        ``layout`` may be a :class:`Layout` or any layout-like callable with
        a ``size()`` (e.g. a swizzle-composed ``ComposedLayout``).
        """
        n = layout.size() if domain_size is None else int(domain_size)
        return cls((i, layout(i)) for i in range(n))

    @classmethod
    def from_access(
        cls, layout, coords: Sequence[Tuple[int, ...]]
    ) -> "LayoutRelation":
        """The warp-access relation ``{(slot, layout(coord_slot))}``.

        ``coords`` lists one hierarchical coordinate per access slot (the
        per-thread simultaneous addresses of ``CopyAccess.thread_coords``).
        """
        return cls((slot, layout(tuple(coord))) for slot, coord in enumerate(coords))

    @classmethod
    def identity(cls, n: int) -> "LayoutRelation":
        """The identity relation on ``[0, n)``."""
        return cls((i, i) for i in range(int(n)))

    # ------------------------------------------------------------------ #
    # Set-theoretic queries
    # ------------------------------------------------------------------ #
    def domain(self) -> Tuple[int, ...]:
        """Sorted distinct inputs."""
        return tuple(sorted({x for x, _ in self.pairs}))

    def image(self) -> Tuple[int, ...]:
        """Sorted distinct outputs."""
        return tuple(sorted({y for _, y in self.pairs}))

    def is_function(self) -> bool:
        """Every input relates to at most one output."""
        return len({x for x, _ in self.pairs}) == len(self.pairs)

    def is_injective(self) -> bool:
        """No two distinct inputs relate to the same output."""
        outputs: dict[int, int] = {}
        for x, y in self.pairs:
            if outputs.setdefault(y, x) != x:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Algebra (all purely set-theoretic)
    # ------------------------------------------------------------------ #
    def compose(self, other: "LayoutRelation") -> "LayoutRelation":
        """Relational composition ``self ∘ other``.

        ``(x, z)`` is in the result iff ``(x, y) ∈ other`` and
        ``(y, z) ∈ self`` for some ``y`` — matching function composition
        ``(A ∘ B)(x) = A(B(x))`` when both relations are functions.
        """
        by_input: dict[int, list[int]] = {}
        for y, z in self.pairs:
            by_input.setdefault(y, []).append(z)
        composed = []
        for x, y in other.pairs:
            for z in by_input.get(y, ()):
                composed.append((x, z))
        return LayoutRelation(composed)

    def inverse_on_image(self) -> "LayoutRelation":
        """The converse relation ``{(y, x)}`` — the set-theoretic inverse,
        defined exactly on the image."""
        return LayoutRelation((y, x) for x, y in self.pairs)

    def restrict_domain(self, inputs: Iterable[int]) -> "LayoutRelation":
        """The sub-relation whose inputs lie in ``inputs``."""
        keep = set(int(i) for i in inputs)
        return LayoutRelation((x, y) for x, y in self.pairs if x in keep)

    def complement_in(self, cosize: int) -> "LayoutRelation":
        """The greedy set-theoretic complement of this relation's image in
        ``[0, cosize)``.

        Scans offsets ``m = 0, 1, ...`` and hands each offset not yet
        covered by ``image(self) + image(complement)`` to the complement,
        until the cover reaches ``cosize``.  Raises :class:`ValueError`
        when the sumset collides (two base/complement pairs produce the
        same offset) — the relation is then not complementable, matching
        the divisibility failure of the closed-form ``complement``.
        """
        cosize = int(cosize)
        base_image = self.image()
        if not base_image:
            base_image = (0,)
        covered: set[int] = set()
        complement_offsets: list[int] = []
        for m in range(cosize):
            if m in covered:
                continue
            # Give m to the complement and mark the whole translated copy
            # of the base image as covered (offset 0 lands here first, so
            # the base tile itself is always part of the cover).
            complement_offsets.append(m)
            for y in base_image:
                shifted = y + m
                if shifted in covered:
                    raise ValueError(
                        f"relation complement: offset {shifted} covered "
                        f"twice while complementing image {base_image} "
                        f"in [0, {cosize})"
                    )
                covered.add(shifted)
        return LayoutRelation(enumerate(complement_offsets))

    # ------------------------------------------------------------------ #
    # Conversion back to a layout
    # ------------------------------------------------------------------ #
    def to_layout(self) -> Layout:
        """Factor a single-valued relation on the compact domain ``[0, n)``
        back into a shape:stride layout.

        Requires the relation to be a function whose domain is exactly
        ``[0, n)`` and whose offsets are affine in the mixed-radix digits
        of the index (every layout function has this form).  Raises
        :class:`ValueError` otherwise.
        """
        if not self.is_function():
            raise ValueError(f"to_layout: relation is not single-valued: {self}")
        offsets = [y for _, y in self.pairs]
        n = len(offsets)
        if self.domain() != tuple(range(n)):
            raise ValueError(
                f"to_layout: domain {self.domain()} is not the compact "
                f"prefix [0, {n})"
            )
        if n == 0:
            return Layout(0, 0)
        if offsets[0] != 0:
            raise ValueError(f"to_layout: offset at 0 is {offsets[0]}, not 0")
        if n == 1:
            return Layout(1, 0)
        shapes: list[int] = []
        strides: list[int] = []
        block = 1
        while block < n:
            stride = offsets[block]
            extent = 2
            while block * extent < n and offsets[block * extent] == extent * stride:
                extent += 1
            shapes.append(extent)
            strides.append(stride)
            block *= extent
        candidate = Layout(tuple(shapes), tuple(strides))
        if candidate.size() != n:
            raise ValueError(
                f"to_layout: offsets of {self} do not factor into a layout"
            )
        for i in range(n):
            if candidate(i) != offsets[i]:
                raise ValueError(
                    f"to_layout: offsets of {self} are not affine in the "
                    f"mixed-radix digits (mismatch at index {i})"
                )
        return candidate

    # ------------------------------------------------------------------ #
    # Bank-conflict analysis
    # ------------------------------------------------------------------ #
    def bank_conflict_degree(
        self,
        banks: int,
        bank_bytes: int,
        element_bits: int,
        access_bytes: int | None = None,
    ) -> float:
        """The banked conflict multiplier of this access relation.

        Inputs are access slots in issue order, outputs element indices;
        the semantics mirror ``smem_solver.bank_conflict_factor``: slots
        are split into phases of ``phase_bytes // access_bytes`` accesses,
        each phase pays the maximum number of distinct ``phase_bytes``
        lines hitting one bank, and the result is the mean over phases.
        ``banks <= 1`` models an unbanked scratchpad (always 1.0).
        """
        if not self.pairs:
            return 1.0
        banks = int(banks)
        if banks <= 1:
            return 1.0
        element_bytes = element_bits / 8
        phase_bytes = banks * int(bank_bytes)
        if access_bytes is None:
            access_bytes = max(1, int(element_bytes))
        threads_per_phase = max(1, int(phase_bytes // max(int(access_bytes), 1)))
        ordered = sorted(self.pairs)
        factors = []
        for start in range(0, len(ordered), threads_per_phase):
            phase = ordered[start:start + threads_per_phase]
            lines_per_bank: dict[int, set] = {}
            for _, index in phase:
                address = int(index * element_bytes)
                bank = (address // int(bank_bytes)) % banks
                lines_per_bank.setdefault(bank, set()).add(address // phase_bytes)
            factors.append(max(len(lines) for lines in lines_per_bank.values()))
        return sum(factors) / len(factors)

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in set(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayoutRelation):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        if len(self.pairs) <= 8:
            body = ", ".join(f"({x},{y})" for x, y in self.pairs)
        else:
            head = ", ".join(f"({x},{y})" for x, y in self.pairs[:4])
            body = f"{head}, ... {len(self.pairs) - 4} more"
        return f"LayoutRelation{{{body}}}"
