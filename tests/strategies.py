"""Seeded randomized generators for the layout-relation oracle suite.

``tests/test_relation.py`` cross-checks the closed-form layout algebra
against the integer-set relation view on hundreds of generated cases per
operation.  The generators here are deliberately *not* hypothesis
strategies: a plain seeded ``random.Random`` keeps every run of the suite
bit-reproducible (no shrinking, no example database) while still covering
nested-mode shapes, zero strides, non-compact strides and colliding
strides.

Every sampler keeps sizes small (a few hundred coordinates at most, up
to about a thousand for a broadcast TV layout) so a 300-case loop costs
well under a second, and returns plain ``repro.layout`` values.
``LayoutSampler.refactor`` rewrites a layout into a structurally
different one computing the same function, which is what the analytic
``TVLayout.equivalent`` has to see through.

``covers_tile_oracle`` and ``is_replicated_oracle`` decide the two
TV-layout predicates nothing on the compile path asks, per (thread,
value) pair; the tests use them to check the layouts the compiler builds.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.layout import Layout, Swizzle, TVLayout, make_layout, make_ordered_layout
from repro.utils.inttuple import flatten, prefix_product, product

__all__ = [
    "LayoutSampler",
    "layout_cases",
    "tv_elements",
    "covers_tile_oracle",
    "is_replicated_oracle",
]


class LayoutSampler:
    """A seeded source of random layouts, swizzles and access patterns."""

    #: extents drawn for individual modes (kept small and mixed between
    #: powers of two and awkward odd sizes)
    EXTENTS = (1, 2, 3, 4, 5, 6, 8)
    #: extents for the power-of-two families (where the algebra's
    #: divisibility requirements must hold by construction)
    POW2_EXTENTS = (2, 4, 8)

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Shapes
    # ------------------------------------------------------------------ #
    def extents(self, max_modes: int = 4, pool: Tuple[int, ...] | None = None,
                max_size: int = 256) -> List[int]:
        """1..max_modes extents whose product stays under ``max_size``."""
        pool = pool or self.EXTENTS
        count = self.rng.randint(1, max_modes)
        result: List[int] = []
        size = 1
        for _ in range(count):
            extent = self.rng.choice(pool)
            if size * extent > max_size:
                break
            result.append(extent)
            size *= extent
        return result or [self.rng.choice(pool)]

    def _nest(self, shape: List[int], stride: List[int]):
        """Randomly group adjacent leaves into nested modes (CuTe layouts
        are hierarchical; the algebra must not depend on the grouping)."""
        if len(shape) < 2 or self.rng.random() < 0.5:
            if len(shape) == 1:
                return shape[0], stride[0]
            return tuple(shape), tuple(stride)
        split = self.rng.randint(1, len(shape) - 1)
        left = (tuple(shape[:split]), tuple(stride[:split])) if split > 1 else (
            shape[0], stride[0])
        right = (tuple(shape[split:]), tuple(stride[split:])) if len(
            shape) - split > 1 else (shape[split], stride[split])
        return (left[0], right[0]), (left[1], right[1])

    # ------------------------------------------------------------------ #
    # Layout families
    # ------------------------------------------------------------------ #
    def layout(self, style: str | None = None, max_modes: int = 4) -> Layout:
        """One random layout with non-negative strides.

        Styles: ``compact`` (column-major), ``permuted`` (compact with a
        shuffled stride order — injective bijections), ``strided``
        (injective with gaps), ``random`` (arbitrary small strides — may
        collide and may contain stride-0 broadcast modes).
        """
        style = style or self.rng.choice(
            ("compact", "permuted", "strided", "random"))
        extents = self.extents(max_modes)
        if style == "compact":
            shape, stride = self._nest(extents, self._compact_strides(extents))
            return Layout(shape, stride)
        if style == "permuted":
            order = list(range(len(extents)))
            self.rng.shuffle(order)
            flat = make_ordered_layout(extents, order)
            shape, stride = self._nest(
                list(flat.flat_shape()), list(flat.flat_stride()))
            return Layout(shape, stride)
        if style == "strided":
            order = list(range(len(extents)))
            self.rng.shuffle(order)
            strides = [0] * len(extents)
            running = 1
            for dim in order:
                running *= self.rng.choice((1, 2, 3))
                strides[dim] = running
                running *= extents[dim]
            shape, stride = self._nest(extents, strides)
            return Layout(shape, stride)
        # random: anything goes, including zero strides and collisions
        strides = [self.rng.choice((0, 1, 2, 3, 4, 6, 8, 12, 16))
                   for _ in extents]
        shape, stride = self._nest(extents, strides)
        return Layout(shape, stride)

    def _compact_strides(self, extents: List[int]) -> List[int]:
        strides = []
        running = 1
        for extent in extents:
            strides.append(running)
            running *= extent
        return strides

    def complementable_layout(self, max_modes: int = 3) -> Tuple[Layout, int]:
        """A layout whose sorted strides chain-divide (so ``complement``
        succeeds) plus the natural cover size of ``(layout, complement)``.

        Built smallest-stride-first: each stride is a multiple of the
        previous mode's ``shape * stride``, then the mode order is
        shuffled (complement sorts by stride internally).
        """
        extents = self.extents(max_modes, max_size=64)
        strides = []
        current = 1
        for extent in extents:
            stride = current * self.rng.choice((1, 2, 4))
            strides.append(stride)
            current = stride * extent
        cover = current * self.rng.randint(1, 3)
        order = list(range(len(extents)))
        self.rng.shuffle(order)
        shape = [extents[i] for i in order]
        stride = [strides[i] for i in order]
        if len(shape) == 1:
            return Layout(shape[0], stride[0]), cover
        return Layout(tuple(shape), tuple(stride)), cover

    def pow2_layout(self, max_modes: int = 3, max_size: int = 128) -> Layout:
        """A layout whose extents and strides are all powers of two, so
        every ``shape_div`` in ``composition`` succeeds by construction."""
        extents = self.extents(max_modes, pool=self.POW2_EXTENTS,
                               max_size=max_size)
        strides = [1 << self.rng.randint(0, 5) for _ in extents]
        shape, stride = self._nest(extents, strides)
        return Layout(shape, stride)

    def pow2_tiler(self, domain: int, max_modes: int = 2) -> Layout:
        """An admissible power-of-two tiler for ``composition`` against a
        power-of-two left operand of size ``domain``.

        Modes are chained — each stride is at least the previous mode's
        ``shape * stride`` — so distinct modes read disjoint bit ranges of
        the coordinate space and the mode-wise closed-form composition
        agrees with pointwise function composition (the oracle's claim).
        ``shape * stride`` of every mode stays within ``domain``, keeping
        all inputs inside the left operand's actual domain.
        """
        modes = []
        current = 1 << self.rng.randint(0, 2)
        for _ in range(self.rng.randint(1, max_modes)):
            if current > max(1, domain // 2):
                break
            max_shape_bits = max(0, (domain // current).bit_length() - 1)
            shape = 1 << self.rng.randint(0, max_shape_bits)
            modes.append((shape, current))
            current *= shape << self.rng.randint(0, 1)
        if not modes:
            modes = [(1, 1)]
        if len(modes) == 1:
            return Layout(modes[0][0], modes[0][1])
        return Layout(tuple(s for s, _ in modes), tuple(d for _, d in modes))

    # ------------------------------------------------------------------ #
    # Thread-value layouts
    # ------------------------------------------------------------------ #
    TV_STYLES = ("tile", "broadcast", "partial", "random")

    def tv_layout(self, style: str | None = None) -> TVLayout:
        """One random TV layout whose image lies inside its tile.

        Styles: ``tile`` (a bijection onto the tile: every tile dimension
        is split into factor modes carrying their colex strides, shuffled
        and dealt between the thread and value modes), ``broadcast`` (the
        same plus stride-0 modes of extent > 1 on either side), ``partial``
        (some factor modes dropped: injective, covering part of the tile)
        and ``random`` (arbitrary small strides that may collide, the tile
        grown until it holds the image).  Both sides may carry extent-1
        modes with arbitrary strides and are randomly nested.  All but
        ``random`` are injective apart from their stride-0 modes, like the
        distributions the compiler builds.
        """
        style = style or self.rng.choice(self.TV_STYLES)
        tile = self.extents(max_modes=3, pool=(1, 2, 3, 4, 8), max_size=64)
        if style == "random":
            modes = [(extent, self.rng.choice((0, 1, 2, 3, 4, 6, 8)))
                     for extent in self.extents(max_modes=4, max_size=64)]
        else:
            modes = self._tile_modes(tile)
            self.rng.shuffle(modes)
            if style == "partial" and modes:
                modes = self.rng.sample(modes, self.rng.randint(0, len(modes) - 1))
        split = self.rng.randint(0, max(0, len(modes) - 1))  # values nonempty
        sides = [modes[:split], modes[split:]]
        if style == "broadcast":
            for _ in range(self.rng.randint(1, 2)):
                side = self.rng.choice(sides)
                side.insert(self.rng.randint(0, len(side)),
                            (self.rng.choice((2, 3, 4)), 0))
        thread, value = (self._side(side) for side in sides)
        layout = make_layout(thread, value)
        if layout.cosize() > product(tile):
            tile[-1] *= -(-layout.cosize() // product(tile))
        return TVLayout(layout, tuple(tile))

    def _tile_modes(self, tile: List[int]) -> List[Tuple[int, int]]:
        """Each tile dimension split into factor modes with colex strides."""
        modes = []
        for extent, stride in zip(tile, flatten(prefix_product(tuple(tile)))):
            while extent > 1:
                factor = self.rng.choice(
                    [f for f in range(2, extent + 1) if extent % f == 0])
                modes.append((factor, stride))
                extent //= factor
                stride *= factor
        return modes

    def _side(self, modes: List[Tuple[int, int]]) -> Layout:
        """One thread or value mode: the given leaves plus stray extent-1
        modes, randomly nested."""
        modes = list(modes)
        if self.rng.random() < 0.5:
            modes.insert(self.rng.randint(0, len(modes)),
                         (1, self.rng.randint(0, 16)))
        if not modes:
            modes = [(1, 0)]
        shape, stride = self._nest([s for s, _ in modes], [d for _, d in modes])
        return Layout(shape, stride)

    def refactor(self, layout: Layout) -> Layout:
        """A structurally different layout with the same function, mode by
        mode: every top-level mode keeps its size and its values.

        Each mode's flat leaves go through a few random rewrites — split
        ``s:d`` into ``(a, s/a):(d, a·d)``, merge neighbours ``(s0:d0,
        s1:d1)`` with ``d1 == s0·d0``, insert ``1:x`` with an arbitrary
        stride, drop an extent-1 leaf — and are then re-nested.
        """
        while True:
            result = make_layout(*(self._refactor_mode(m) for m in layout.modes()))
            if result != layout:
                return result

    def _refactor_mode(self, mode: Layout) -> Layout:
        leaves = list(zip(mode.flat_shape(), mode.flat_stride()))
        for _ in range(self.rng.randint(1, 4)):
            op = self.rng.choice(("split", "merge", "insert", "drop"))
            at = self.rng.randrange(len(leaves))
            shape, stride = leaves[at]
            if op == "split":
                divisors = [a for a in range(2, shape) if shape % a == 0]
                if divisors:
                    a = self.rng.choice(divisors)
                    leaves[at:at + 1] = [(a, stride), (shape // a, a * stride)]
            elif op == "merge":
                if at + 1 < len(leaves) and leaves[at + 1][1] == shape * stride:
                    leaves[at:at + 2] = [(shape * leaves[at + 1][0], stride)]
            elif op == "insert":
                leaves.insert(at, (1, self.rng.randint(0, 16)))
            elif shape == 1 and len(leaves) > 1:
                del leaves[at]
        shape, stride = self._nest([s for s, _ in leaves], [d for _, d in leaves])
        return Layout(shape, stride)

    # ------------------------------------------------------------------ #
    # Swizzles and access patterns
    # ------------------------------------------------------------------ #
    def swizzle(self) -> Swizzle:
        bits = self.rng.randint(0, 3)
        base = self.rng.randint(0, 4)
        shift = bits + self.rng.randint(0, 3)
        return Swizzle(bits, base, shift)

    def coords(self, layout: Layout, count: int = 32) -> List[Tuple[int, ...]]:
        """Random per-mode coordinates of ``layout`` (one warp access)."""
        mode_sizes = [product(layout[i].shape) for i in range(layout.rank())]
        return [
            tuple(self.rng.randrange(size) for size in mode_sizes)
            for _ in range(count)
        ]


def layout_cases(seed: int, count: int, style: str | None = None,
                 max_modes: int = 4) -> Iterator[Layout]:
    """``count`` random layouts from one seeded sampler."""
    sampler = LayoutSampler(seed)
    for _ in range(count):
        yield sampler.layout(style=style, max_modes=max_modes)


def tv_elements(tv: TVLayout) -> dict:
    """``{(tid, vid): tile index}`` over the whole (thread, value) domain."""
    return {
        (t, v): tv(t, v)
        for t in range(tv.num_threads)
        for v in range(tv.values_per_thread)
    }


def covers_tile_oracle(tv: TVLayout) -> bool:
    """Whether every tile element is held by exactly one (tid, vid)."""
    images = list(tv_elements(tv).values())
    return sorted(images) == list(range(tv.tile_size()))


def is_replicated_oracle(tv: TVLayout) -> bool:
    """Whether some tile element is held by more than one thread."""
    holders = {}
    for (t, _v), index in tv_elements(tv).items():
        holders.setdefault(index, set()).add(t)
    return any(len(threads) > 1 for threads in holders.values())
