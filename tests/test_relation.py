"""The integer-set relation oracle (``repro.layout.relation``).

Two jobs:

1. **Semantics of the relation view itself** — hand-checkable cases for
   construction, composition, inverse, greedy complement, conversion and
   the conflict-degree model.

2. **Property-based cross-checks of the closed-form algebra** — every
   operation in ``repro.layout.algebra`` (coalesce, composition,
   complement, right_inverse) and the enumerated
   ``bank_conflict_factor`` is compared against its set-theoretic
   definition on hundreds of seeded random layouts (see
   ``tests/strategies.py``), plus the metamorphic algebra laws
   (associativity, inverse-then-compose = identity, complement
   disjointness/cover), the analytic predicates backing the smem
   solver's swizzle pruning (``swizzle_window_key``, injectivity) and its
   scoring of swizzles on precomputed base-layout offsets.

3. **Per-element oracles for the TV-layout predicates** — the loops over
   every (thread, value) pair that ``TVLayout.equivalent``,
   ``vector_run`` and ``warp_coords`` used to run on the compile path
   survive here, and the coalesced-form and flat-form decisions must
   agree with them on generated TV layouts.  Whether a layout covers its
   tile or is replicated is decided only per element
   (``covers_tile_oracle`` / ``is_replicated_oracle`` in
   ``tests/strategies.py``).

4. **The hierarchical evaluator as the oracle of the flat form** —
   ``Layout.__call__`` evaluates integers on the layout's flattened
   leaves, and must give what ``crd2idx`` gives (value or exception) on
   every coordinate, inside the domain or out of it.
"""

import random
from types import SimpleNamespace

import pytest

from repro.layout import (
    ComposedLayout,
    Layout,
    LayoutRelation,
    Swizzle,
    TVLayout,
    coalesce,
    complement,
    composition,
    make_layout,
    right_inverse,
    swizzle_window_key,
)
from repro.instructions.instruction import MemoryInstruction
from repro.ir.tensor import Scope
from repro.layout.swizzle import candidate_swizzles
from repro.synthesis import smem_solver
from repro.synthesis.smem_solver import CopyAccess, SmemBankParams, bank_conflict_factor
from repro.utils.inttuple import crd2idx, flatten, idx2crd, is_tuple, product, unflatten_like

from strategies import LayoutSampler, is_replicated_oracle, layout_cases, tv_elements

# Every randomized cross-check below runs at least this many generated
# cases (the acceptance bar of the oracle suite).
CASES = 300


def relation_of(layout, domain_size=None):
    return LayoutRelation.from_layout(layout, domain_size=domain_size)


# --------------------------------------------------------------------------- #
# Relation semantics (hand cases)
# --------------------------------------------------------------------------- #
def test_from_layout_enumerates_the_graph():
    rel = relation_of(Layout((2, 3), (3, 1)))
    assert rel.pairs == ((0, 0), (1, 3), (2, 1), (3, 4), (4, 2), (5, 5))
    assert rel.domain() == (0, 1, 2, 3, 4, 5)
    assert rel.image() == (0, 1, 2, 3, 4, 5)
    assert rel.is_function() and rel.is_injective()


def test_identity_is_neutral_for_compose():
    rel = relation_of(Layout((4, 2), (1, 8)))
    n = len(rel)
    assert rel.compose(LayoutRelation.identity(n)) == rel
    assert LayoutRelation.identity(16).compose(rel) == rel


def test_compose_matches_pointwise_function_composition():
    inner = Layout(4, 2)          # i -> 2i
    outer = Layout(8, 3)          # j -> 3j
    composed = relation_of(outer).compose(relation_of(inner))
    assert composed == LayoutRelation((i, 6 * i) for i in range(4))


def test_compose_is_empty_off_the_image():
    # outer is only defined on [0, 2); inner's larger outputs drop out.
    inner = relation_of(Layout(4, 1))
    outer = relation_of(Layout(2, 5))
    assert outer.compose(inner).pairs == ((0, 0), (1, 5))


def test_inverse_on_image_swaps_pairs():
    rel = relation_of(Layout((2, 2), (4, 1)))
    inv = rel.inverse_on_image()
    assert set(inv.pairs) == {(y, x) for x, y in rel.pairs}
    assert inv.compose(rel) == LayoutRelation.identity(4)


def test_multivalued_relation_predicates():
    rel = LayoutRelation([(0, 1), (0, 2), (1, 3)])
    assert not rel.is_function()
    assert rel.is_injective()  # no output shared between distinct inputs
    collide = LayoutRelation([(0, 5), (1, 5)])
    assert collide.is_function() is True and not collide.is_injective()


def test_restrict_domain():
    rel = relation_of(Layout(6, 2))
    assert rel.restrict_domain([1, 3]).pairs == ((1, 2), (3, 6))


def test_complement_in_matches_cute_example():
    # complement(4:2, 24) = (2,3):(1,8) with image {0,1,8,9,16,17}.
    greedy = relation_of(Layout(4, 2)).complement_in(24)
    assert greedy.image() == (0, 1, 8, 9, 16, 17)
    closed = complement(Layout(4, 2), 24)
    assert tuple(sorted(set(closed.all_indices()))) == greedy.image()


def test_complement_in_raises_on_sumset_collision():
    rel = LayoutRelation(enumerate([0, 2, 3]))
    with pytest.raises(ValueError, match="covered twice"):
        rel.complement_in(6)


def test_to_layout_roundtrip_hand_case():
    layout = Layout((4, 8), (8, 1))
    recovered = relation_of(layout).to_layout()
    assert [recovered(i) for i in range(32)] == layout.all_indices()


def test_to_layout_rejects_non_affine_offsets():
    # [0, 1, 2, 4] cannot be written as shape:stride (the step changes
    # mid-sequence without a mode boundary).
    with pytest.raises(ValueError, match="do not factor"):
        LayoutRelation(enumerate([0, 1, 2, 4])).to_layout()
    # ...whereas [0, 1, 3, 4] can: it is exactly (2,2):(1,3).
    recovered = LayoutRelation(enumerate([0, 1, 3, 4])).to_layout()
    assert [recovered(i) for i in range(4)] == [0, 1, 3, 4]


def test_to_layout_rejects_multivalued_or_sparse_domains():
    with pytest.raises(ValueError, match="single-valued"):
        LayoutRelation([(0, 0), (0, 1), (1, 2), (2, 3)]).to_layout()
    with pytest.raises(ValueError, match="compact"):
        LayoutRelation([(0, 0), (2, 1)]).to_layout()


def test_from_access_builds_slot_indexed_pairs():
    layout = Layout((4, 4), (1, 4))
    coords = [(1, 0), (1, 0), (0, 2)]
    rel = LayoutRelation.from_access(layout, coords)
    assert rel.pairs == ((0, 1), (1, 1), (2, 8))


def test_bank_conflict_degree_hand_cases():
    # 32 threads on 32 consecutive fp32 words: one access per bank.
    spread = LayoutRelation.identity(32)
    assert spread.bank_conflict_degree(32, 4, 32) == 1.0
    # 32 threads on one column of a 32-wide fp32 row-major tile: every
    # access hits bank 0 in a different 128 B line -> 32-way conflict.
    column = LayoutRelation(enumerate(32 * t for t in range(32)))
    assert column.bank_conflict_degree(32, 4, 32, access_bytes=4) == 32.0
    # Full broadcast: one address, one bank, one line.
    broadcast = LayoutRelation((t, 0) for t in range(32))
    assert broadcast.bank_conflict_degree(32, 4, 32) == 1.0
    # Unbanked scratchpad never conflicts.
    assert column.bank_conflict_degree(1, 128, 32) == 1.0


def test_relation_dunder_plumbing():
    rel = relation_of(Layout(3, 2))
    assert len(rel) == 3 and (1, 2) in rel and list(rel) == [(0, 0), (1, 2), (2, 4)]
    assert rel == LayoutRelation([(2, 4), (0, 0), (1, 2)])  # order-insensitive
    assert hash(rel) == hash(LayoutRelation(rel.pairs))
    assert "LayoutRelation" in repr(rel)
    with pytest.raises(ValueError, match="non-negative"):
        LayoutRelation([(-1, 0)])


# --------------------------------------------------------------------------- #
# Randomized oracle: evaluation on the flat form against crd2idx
# --------------------------------------------------------------------------- #
# Integral and tuple shapes, nesting, and extent-0, extent-1 and stride-0
# modes (the sampler draws no extent 0).
FLAT_FORM_HAND_CASES = [
    Layout(4, 1),
    Layout(0, 3),
    Layout(1, 0),
    Layout((4,), (1,)),
    Layout(()),
    Layout((3, 0, 2), (1, 5, 7)),
    Layout((2, 1, 3), (0, 9, 2)),
    Layout(((2, 0), 3), ((1, 2), 4)),
    Layout(((2, 1), (1, 3)), ((0, 5), (7, 1))),
    Layout(((2, 2), 8), ((1, 16), 2)),
    Layout((4, (2, 3)), (3, (0, 1))),
]


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def check_flat_form(layout, rng):
    shape, stride = layout.shape, layout.stride

    def same(*coord):
        crd = coord[0] if len(coord) == 1 else coord
        expected = _outcome(crd2idx, crd, shape, stride)
        assert _outcome(layout, *coord) == expected, (layout, coord)

    size = product(shape)
    assert layout.size() == size
    assert layout.flat_shape() == flatten(shape)
    assert layout.flat_stride() == flatten(stride)
    # Integers inside the domain and out of it.
    for i in range(3 * max(size, 1)):
        same(i)
    # One integer per top-level mode, inside and outside each mode, as
    # one tuple and as separate arguments.
    mode_sizes = [product(mode) for mode in shape] if is_tuple(shape) else [size]
    for _ in range(24):
        coord = tuple(rng.randrange(2 * m + 2) for m in mode_sizes)
        same(coord)
        if len(coord) > 1:
            same(*coord)
    # Nested, wrong-rank and None coordinates: the same value or error.
    for i in range(min(size, 8)):
        same(idx2crd(i, shape))
    rank = len(mode_sizes)
    for coord in (None, True, (0,) * (rank + 1), (0,) * (rank - 1), (None,) * rank):
        same(coord)


def test_flat_form_wraps_exactly_like_crd2idx():
    assert Layout((4,), (1,))(7) == 3  # a tuple shape reduces every leaf
    assert Layout(4, 1)(7) == 7  # an integral shape does not
    assert Layout((4, 2), (1, 4))((7, 0)) == 7  # nor does an integral mode
    with pytest.raises(ZeroDivisionError):
        Layout((2, 0), (1, 2))(1)


def test_flat_form_matches_crd2idx_on_hand_cases():
    rng = random.Random(107)
    for layout in FLAT_FORM_HAND_CASES:
        check_flat_form(layout, rng)


def test_flat_form_matches_crd2idx_on_generated_layouts():
    rng = random.Random(108)
    for layout in layout_cases(seed=108, count=CASES):
        check_flat_form(layout, rng)


# --------------------------------------------------------------------------- #
# Randomized oracle: coalesce
# --------------------------------------------------------------------------- #
def test_coalesce_oracle_preserves_the_relation():
    for layout in layout_cases(seed=101, count=CASES + 20):
        flattened = coalesce(layout)
        assert relation_of(flattened) == relation_of(layout), layout
        assert flattened.size() == layout.size()


def test_coalesce_is_idempotent():
    for layout in layout_cases(seed=102, count=CASES):
        once = coalesce(layout)
        assert coalesce(once) == once, layout


def test_to_layout_roundtrips_random_compact_layouts():
    checked = 0
    for layout in layout_cases(seed=103, count=CASES + 50, style="permuted"):
        rel = relation_of(layout)
        recovered = rel.to_layout()
        assert relation_of(recovered) == rel, layout
        checked += 1
    assert checked >= CASES


# --------------------------------------------------------------------------- #
# Randomized oracle: composition
# --------------------------------------------------------------------------- #
def test_composition_oracle_matches_relational_composition():
    sampler = LayoutSampler(seed=201)
    for _ in range(CASES + 20):
        outer = sampler.pow2_layout()
        inner = sampler.pow2_tiler(outer.size())
        composed = composition(outer, inner)
        domain = max(outer.size(), inner.cosize())
        oracle = relation_of(outer, domain_size=domain).compose(
            relation_of(inner))
        assert relation_of(composed) == oracle, (outer, inner)


def test_composition_is_associative():
    sampler = LayoutSampler(seed=202)
    for _ in range(CASES + 20):
        a = sampler.pow2_layout()
        b = sampler.pow2_tiler(a.size())
        c = sampler.pow2_tiler(b.size())
        left = composition(composition(a, b), c)
        right = composition(a, composition(b, c))
        assert relation_of(left) == relation_of(right), (a, b, c)


# --------------------------------------------------------------------------- #
# Randomized oracle: complement
# --------------------------------------------------------------------------- #
def test_complement_oracle_matches_greedy_cover():
    sampler = LayoutSampler(seed=301)
    for _ in range(CASES + 20):
        layout, cover = sampler.complementable_layout()
        closed = complement(layout, cover)
        greedy = relation_of(layout).complement_in(cover)
        assert tuple(sorted(set(closed.all_indices()))) == greedy.image(), (
            layout, cover)


def test_complement_disjointness_and_cover_law():
    sampler = LayoutSampler(seed=302)
    for _ in range(CASES + 20):
        layout, cover = sampler.complementable_layout()
        rest = complement(layout, cover)
        combined = relation_of(make_layout(layout, rest))
        # (layout, complement) tiles [0, cover): injective and onto.
        assert combined.is_injective(), (layout, cover)
        assert combined.image() == tuple(range(cover)), (layout, cover)


# --------------------------------------------------------------------------- #
# Randomized oracle: inverses
# --------------------------------------------------------------------------- #
def test_right_inverse_oracle_identity_on_image():
    checked = 0
    for layout in layout_cases(seed=401, count=CASES + 60):
        inverse = right_inverse(layout)
        if inverse.size() == 0:
            continue
        domain = max(layout.size(), inverse.cosize())
        composed = relation_of(layout, domain_size=domain).compose(
            relation_of(inverse))
        assert composed == LayoutRelation.identity(inverse.size()), (
            layout, inverse)
        checked += 1
    assert checked >= CASES


def test_right_inverse_of_compact_layouts_is_a_full_inverse():
    for layout in layout_cases(seed=402, count=CASES, style="permuted"):
        inverse = right_inverse(layout)
        assert inverse.size() == layout.size(), layout
        # Both directions are identities for a bijection.
        forward = relation_of(layout).compose(relation_of(inverse))
        backward = relation_of(inverse, domain_size=layout.size()).compose(
            relation_of(layout))
        assert forward == LayoutRelation.identity(layout.size())
        assert backward == LayoutRelation.identity(layout.size())


# --------------------------------------------------------------------------- #
# Randomized oracle: injectivity
# --------------------------------------------------------------------------- #
def test_is_injective_equivalence():
    """Layout.is_injective (analytic, with an exact fallback) ≡ the
    relation predicate ≡ brute force, across every generator style
    including zero strides."""
    for layout in layout_cases(seed=501, count=CASES + 100):
        image = layout.all_indices()
        brute = len(set(image)) == len(image)
        assert layout.is_injective() == brute, layout
        assert relation_of(layout).is_injective() == brute, layout


def test_analytic_fast_path_is_not_trusted_beyond_its_reach():
    # (3,2):(2,3) fails the sorted-stride sufficient condition (3 <= 2+2)
    # yet is injective — the exact fallback must catch it.
    assert Layout((3, 2), (2, 3)).is_injective()
    # And genuine collisions behind interleaved strides are still found.
    assert not Layout((4, 8), (1, 1)).is_injective()
    assert not Layout((2, 2), (3, 3)).is_injective()


def test_swizzled_injectivity_matches_base():
    sampler = LayoutSampler(seed=502)
    for _ in range(CASES):
        base = sampler.layout()
        swizzled = ComposedLayout(sampler.swizzle(), base)
        expected = base.is_injective()
        assert swizzled.is_injective() == expected, swizzled
        image = swizzled.all_indices()
        assert (len(set(image)) == len(image)) == expected, swizzled


# --------------------------------------------------------------------------- #
# Randomized oracle: bank conflicts
# --------------------------------------------------------------------------- #
BANKINGS = (SmemBankParams(32, 4), SmemBankParams(64, 4), SmemBankParams(1, 128))


def test_bank_conflict_degree_matches_enumerated_factor():
    sampler = LayoutSampler(seed=601)
    checked = 0
    while checked < CASES + 20:
        base = sampler.layout(style=sampler.rng.choice(("permuted", "strided")))
        if not isinstance(base.shape, tuple):
            continue  # multi-coordinate accesses need a tuple-shaped tile
        layout = ComposedLayout(sampler.swizzle(), base)
        coords = sampler.coords(base, count=32)
        element_bits = sampler.rng.choice((8, 16, 32))
        access_bytes = sampler.rng.choice((4, 8, 16))
        params = sampler.rng.choice(BANKINGS)
        expected = bank_conflict_factor(
            layout, coords, element_bits / 8, access_bytes, params)
        degree = LayoutRelation.from_access(layout, coords).bank_conflict_degree(
            params.banks, params.bank_bytes, element_bits, access_bytes)
        assert degree == pytest.approx(expected, abs=1e-12), (
            base, layout.swizzle, params)
        checked += 1


def test_offset_scoring_matches_the_composed_layout_factor():
    """The smem solver evaluates the base layout once per access slot and
    scores the identity and every candidate swizzle by permuting those
    offsets.  Each score must equal the trip-weighted conflict factor of
    the swizzle-composed layout evaluated coordinate by coordinate, and
    the pruning window must be the bit length of the largest offset in
    the access relations' images."""
    sampler = LayoutSampler(seed=602)
    checked = scored = 0
    while checked < CASES:
        base = sampler.layout(style=sampler.rng.choice(("permuted", "strided")))
        if not isinstance(base.shape, tuple):
            continue  # multi-coordinate accesses need a tuple-shaped tile
        element_bits = sampler.rng.choice((8, 16, 32))
        element_bytes = element_bits / 8
        params = sampler.rng.choice(BANKINGS)
        accesses = []
        for _ in range(sampler.rng.randint(1, 3)):
            access_bytes = sampler.rng.choice((4, 8, 16))
            instruction = MemoryInstruction(
                f"ld.shared.{access_bytes}", Scope.SHARED, Scope.REGISTER, access_bytes, 1.0, 1.0)
            copy = SimpleNamespace(trips=sampler.rng.randint(1, 4))
            accesses.append(CopyAccess(copy, instruction, 0, 1, sampler.coords(base, count=32)))

        offsets = smem_solver._access_offsets(base, accesses)
        image_max = max(
            LayoutRelation.from_access(base, access.thread_coords).image()[-1]
            for access in accesses
        )
        assert smem_solver._access_window_bits(offsets) == image_max.bit_length()

        row_bytes = sampler.rng.choice((4, 16, 64, 128))
        swizzles = candidate_swizzles(element_bits, row_bytes, params.phase_bytes)
        for swizzle in swizzles + [sampler.swizzle()]:
            composed = ComposedLayout(swizzle, base)
            total = weight = 0.0
            for access in accesses:
                factor = bank_conflict_factor(
                    composed, access.thread_coords, element_bytes,
                    access.instruction.vector_bytes, params)
                total += factor * access.copy.trips
                weight += access.copy.trips
            score = smem_solver._total_conflicts(
                offsets, swizzle, accesses, element_bytes, params)
            assert score == total / weight, (base, swizzle, params)
            scored += 1
        checked += 1
    assert scored >= 3 * CASES


def test_bank_conflict_degree_defaults_access_to_element_width():
    rel = LayoutRelation(enumerate(32 * t for t in range(32)))
    assert rel.bank_conflict_degree(32, 4, 32) == rel.bank_conflict_degree(
        32, 4, 32, access_bytes=4)


# --------------------------------------------------------------------------- #
# Divisibility error messages (regression: failures must name the layouts)
# --------------------------------------------------------------------------- #
def test_composition_divisibility_error_names_both_layouts():
    # (6,2):(2,16) does not coalesce, and its leading extent 6 is
    # indivisible by the tiler stride 4.
    a = Layout((6, 2), (2, 16))
    b = Layout(4, 4)
    with pytest.raises(ValueError) as err:
        composition(a, b)
    message = str(err.value)
    assert "composition" in message
    assert "(6,2):(2,16)" in message and "4:4" in message


def test_complement_error_names_layout_and_cosize():
    layout = Layout((2, 3), (2, 3))
    with pytest.raises(ValueError) as err:
        complement(layout, 24)
    message = str(err.value)
    assert "(2,3):(2,3)" in message and "24" in message


def test_algebra_errors_are_not_cached():
    # Exceptions are recomputed (lru_cache never stores them): the same
    # call must raise the same error twice in a row.
    for _ in range(2):
        with pytest.raises(ValueError, match="not divisible by layout"):
            composition(Layout((6, 2), (2, 16)), Layout(4, 4))
        with pytest.raises(ValueError, match="not complementable"):
            complement(Layout((2, 3), (2, 3)), 24)


# --------------------------------------------------------------------------- #
# The analytic swizzle-prune predicates
# --------------------------------------------------------------------------- #
def test_swizzle_window_key_identity_cases():
    assert swizzle_window_key(Swizzle(0, 0, 0), 12) == ()
    # Source bits live entirely above the window: restriction is identity.
    assert swizzle_window_key(Swizzle(2, 3, 4), 7) == ()
    # Window truncates the live source bits.
    assert swizzle_window_key(Swizzle(3, 3, 4), 9) == (3, 4, 2)
    assert swizzle_window_key(Swizzle(2, 3, 4), 9) == (3, 4, 2)
    # Fully inside the window: full key.
    assert swizzle_window_key(Swizzle(2, 3, 4), 20) == (3, 4, 2)


def test_swizzle_window_key_soundness():
    """Equal window keys imply pointwise-equal restrictions — the fact the
    smem solver's dedupe prune rests on."""
    sampler = LayoutSampler(seed=701)
    checked = 0
    while checked < CASES:
        s1, s2 = sampler.swizzle(), sampler.swizzle()
        window = sampler.rng.randint(0, 12)
        k1 = swizzle_window_key(s1, window)
        k2 = swizzle_window_key(s2, window)
        if k1 == ():
            assert all(s1(x) == x for x in range(1 << window)), (s1, window)
        if k1 == k2:
            assert all(
                s1(x) == s2(x) for x in range(1 << window)
            ), (s1, s2, window)
            checked += 1


# --------------------------------------------------------------------------- #
# Randomized oracle: TV-layout predicates against per-element loops
# --------------------------------------------------------------------------- #
def equivalent_oracle(a, b):
    return (
        a.tile_shape == b.tile_shape
        and a.num_threads == b.num_threads
        and a.values_per_thread == b.values_per_thread
        and tv_elements(a) == tv_elements(b)
    )


def value_vector_run_oracle(tv):
    """Thread 0's values walked one by one: the first step must be +1
    along exactly one tile dimension, and the run lasts while every
    further step repeats it."""
    values = tv.values_per_thread
    if values == 1:
        return 0, 1
    coords = [tv.coords(0, v) for v in range(values)]
    first_delta = tuple(b - a for a, b in zip(coords[0], coords[1]))
    dims_changed = [i for i, d in enumerate(first_delta) if d != 0]
    if len(dims_changed) != 1 or first_delta[dims_changed[0]] != 1:
        return 0, 1
    dim = dims_changed[0]
    run = 1
    for v in range(1, values):
        delta = tuple(b - a for a, b in zip(coords[v - 1], coords[v]))
        if delta != tuple(int(i == dim) for i in range(len(delta))):
            break
        run += 1
    return dim, run


def perturb_stride(sampler, layout):
    """``layout`` with one extent > 1 leaf moved to a different stride
    (a different function), or ``None`` if it has no such leaf."""
    shape, stride = layout.flat_shape(), list(layout.flat_stride())
    leaves = [i for i, s in enumerate(shape) if s > 1]
    if not leaves:
        return None
    at = sampler.rng.choice(leaves)
    stride[at] = sampler.rng.choice(
        [d for d in range(0, 17) if d != stride[at]])
    return Layout(layout.shape, unflatten_like(stride, layout.stride))


def test_refactor_preserves_each_mode_as_a_function():
    sampler = LayoutSampler(seed=801)
    for _ in range(CASES):
        tv = sampler.tv_layout()
        other = sampler.refactor(tv.layout)
        assert other != tv.layout
        for mode, rewritten in zip(tv.layout.modes(), other.modes()):
            assert relation_of(rewritten) == relation_of(mode), (tv, other)


def test_equivalent_matches_the_per_element_oracle():
    """Half the pairs are function-equal rewrites with a different
    structure; the other half move one stride of such a rewrite."""
    sampler = LayoutSampler(seed=802)
    equal = unequal = 0
    while equal + unequal < 2 * CASES:
        tv = sampler.tv_layout()
        other = sampler.refactor(tv.layout)
        if equal > unequal:
            other = perturb_stride(sampler, other)
            if other is None:
                continue
        pair = TVLayout(other, tv.tile_shape)
        expected = equivalent_oracle(tv, pair)
        assert tv.equivalent(pair) == expected, (tv, pair)
        assert pair.equivalent(tv) == expected, (tv, pair)
        if expected:
            equal += 1
        else:
            unequal += 1
    assert equal >= CASES and unequal >= CASES // 2


def test_equivalent_prechecks_compare_tile_and_counts():
    tv = TVLayout(Layout((4, 2), (2, 1)), (2, 4))
    assert tv.equivalent(TVLayout(Layout(((2, 2), 2), ((2, 4), 1)), (2, 4)))
    # Same flat function, different thread/value split: different domains.
    assert not tv.equivalent(TVLayout(Layout((2, (2, 2)), (2, (4, 1))), (2, 4)))
    assert not tv.equivalent(TVLayout(tv.layout, (4, 2)))


def test_value_vector_run_matches_the_per_element_oracle():
    sampler = LayoutSampler(seed=803)
    vectorized = 0
    for _ in range(CASES + 100):
        tv = sampler.tv_layout()
        assert tv.layout.cosize() <= tv.tile_size(), tv  # exactness needs it
        expected = value_vector_run_oracle(tv)
        assert tv.vector_run == expected, tv
        vectorized += expected[1] > 1
    assert vectorized >= CASES // 3


def test_warp_coords_match_the_per_thread_oracle():
    """``TVLayout.warp_coords`` (computed once per layout from its flat
    form) equals ``coords(t, 0)`` for the first ``min(32, T)`` threads.
    Each sampled layout is checked as drawn (mostly fewer than 32
    threads) and broadcast past 40 threads by a replicated (stride-0)
    thread mode."""
    sampler = LayoutSampler(seed=806)
    wide = narrow = replicated = 0
    for _ in range(CASES + 100):
        tv = sampler.tv_layout()
        broadcast = tv.with_threads(tv.num_threads * (1 + 40 // tv.num_threads))
        for case in (tv, broadcast):
            expected = [case.coords(t, 0) for t in range(min(32, case.num_threads))]
            assert list(case.warp_coords) == expected, case
            assert case.warp_coords is case.warp_coords
            wide += case.num_threads > 32
            narrow += case.num_threads < 32
            replicated += is_replicated_oracle(case)
    assert min(wide, narrow, replicated) >= CASES // 2, (wide, narrow, replicated)
