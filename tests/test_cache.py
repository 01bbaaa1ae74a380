"""Compile-cache tests: fingerprint stability, hit equality, misses on
arch/option changes, the LRU bound, and the on-disk JSON store."""

import hashlib
import json

import pytest

from repro.compiler import compile_kernel
from repro.kernels.attention import build_mha_forward
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.pipeline import (
    CacheEntry,
    CompileCache,
    compile_key,
    program_fingerprint,
)
from repro.pipeline.cache import _DISK_FORMAT_VERSION
from repro.sim.arch import get_arch
from repro.instructions.registry import instruction_set


def small_gemm(bm=64, bn=64, bk=32, k=64):
    return build_fp16_gemm(64, 64, k, GemmConfig(bm=bm, bn=bn, bk=bk))


def write_store(path, entries, version=_DISK_FORMAT_VERSION):
    path.write_text(json.dumps({"version": version, "entries": entries}))


def capped(program, max_vector_bytes):
    for copy in program.copies():
        copy.max_vector_bytes = max_vector_bytes
    return program


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #
def test_fingerprint_stable_across_equivalent_programs():
    assert program_fingerprint(small_gemm()) == program_fingerprint(small_gemm())


def test_fingerprint_distinguishes_programs():
    base = program_fingerprint(small_gemm())
    assert program_fingerprint(small_gemm(bk=64, k=128)) != base
    other = small_gemm()
    other.unique_global_bytes = 123.0
    assert program_fingerprint(other) != base


# mha_forward's TV synthesis inserts a rearrange and rewires its consumer;
# the GEMM's does not.
COMPILED_IN_PLACE = [small_gemm, lambda: build_mha_forward(256, 64, 4, 1)]


@pytest.mark.parametrize("build", COMPILED_IN_PLACE, ids=["gemm", "mha_forward"])
def test_fingerprint_stable_across_compilation(build):
    """Synthesized artifacts must not leak into the fingerprint: compiling a
    program (which installs TV/shared layouts and instructions in place and
    may insert rearranges) leaves its fingerprint unchanged."""
    program = build()
    before = program_fingerprint(program)
    compile_kernel(program, arch="a100", max_candidates=4, cache=CompileCache())
    assert program_fingerprint(program) == before


def test_second_compile_of_a_rearranged_program_replays():
    """Every pass runs again on the compiled program: TV synthesis removes
    the rearrange it inserted and inserts it anew, and instruction
    selection evaluates the cached leaf."""
    cache = CompileCache()
    program = build_mha_forward(256, 64, 4, 1)
    cold = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert cold.tv_solution.inserted_rearranges
    warm = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit and warm.candidates_explored == 1
    assert warm.tv_solution is not cold.tv_solution
    assert len(warm.tv_solution.inserted_rearranges) == len(cold.tv_solution.inserted_rearranges)
    assert warm.source == cold.source
    assert cache.stats.hits == 1 and cache.stats.replays == 1 and cache.stats.puts == 1


def test_recompiling_a_compiled_program_reproduces_its_kernel():
    """TV synthesis removes the rearranges it inserted before, so a program
    compiled by replay replays again, and a compiled program compiles
    through another cache, both to the cold kernel."""
    build = lambda: build_mha_forward(256, 64, 4, 1)
    cache = CompileCache()
    cold = compile_kernel(build(), arch="a100", max_candidates=4, cache=cache)
    program = build()
    first = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    again = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert first.cache_hit and again.cache_hit and cache.stats.replays == 2
    elsewhere = compile_kernel(program, arch="a100", max_candidates=4, cache=CompileCache())
    assert not elsewhere.cache_hit
    for kernel in (first, again, elsewhere):
        assert kernel.source == cold.source
    assert len(program.operations) == len(cold.program.operations)


def test_compile_key_varies_with_arch_and_options():
    program = small_gemm()
    a100, iset80 = get_arch("a100"), instruction_set(80)
    base = compile_key(program, a100, iset80, 4)
    assert compile_key(small_gemm(), a100, iset80, 4) == base
    assert compile_key(program, get_arch("h100"), iset80, 4) != base
    assert compile_key(program, a100, instruction_set(90), 4) != base
    assert compile_key(program, a100, iset80, 8) != base
    # A per-copy width cap is program content: it keys apart, per value.
    one_capped = small_gemm()
    one_capped.copies()[0].max_vector_bytes = 4
    four = compile_key(one_capped, a100, iset80, 4)
    assert four != base
    one_capped.copies()[0].max_vector_bytes = 8
    assert compile_key(one_capped, a100, iset80, 4) not in (base, four)


# --------------------------------------------------------------------------- #
# Hits, misses, replay semantics
# --------------------------------------------------------------------------- #
def test_cache_hit_returns_equal_kernel():
    cache = CompileCache()
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert cache.stats.hits == 1 and cache.stats.replays == 1
    assert warm.cache_hit and not cold.cache_hit
    assert warm.latency_us == cold.latency_us
    assert warm.source == cold.source
    assert warm.candidate.named_assignment(warm.program) == cold.candidate.named_assignment(
        cold.program
    )


def test_replay_installs_layouts_on_the_new_program():
    """A replayed compile must leave the new program in the same state a
    cold compile would: instructions selected, shared layouts installed."""
    cache = CompileCache()
    compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    program = small_gemm()
    kernel = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert kernel.program is program
    for copy in program.copies():
        assert copy.selected_instruction is not None
    for tensor in program.shared_tensors():
        assert tensor.layout is not None and tensor.swizzled_layout is not None
    for tensor in program.register_tensors():
        assert tensor.tv_layout is not None


def test_same_program_object_replays():
    """The cache keeps no compiled kernel: a second compile of the same
    program object replays its assignment like an equivalent program's."""
    cache = CompileCache()
    program = small_gemm()
    cold = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    warm = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit and warm.candidates_explored == 1
    assert cache.stats.hits == 1 and cache.stats.replays == 1
    assert warm.latency_us == cold.latency_us
    assert warm.source == cold.source


def test_arch_and_option_changes_miss():
    cache = CompileCache()
    compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    compile_kernel(small_gemm(), arch="h100", max_candidates=4, cache=cache)
    compile_kernel(small_gemm(), arch="a100", max_candidates=8, cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.misses == 3
    assert len(cache) == 3


def test_capped_programs_cache_and_replay():
    """A per-copy width cap is part of the program, so a capped compile is
    put in the cache, an equivalent rebuilt capped program replays it, and
    the uncapped rebuild misses under a different fingerprint."""
    cache = CompileCache()
    cold = compile_kernel(capped(small_gemm(), 4), arch="a100", max_candidates=4, cache=cache)
    assert not cold.cache_hit and cache.stats.puts == 1

    warm = compile_kernel(capped(small_gemm(), 4), arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit
    assert cache.stats.puts == 1 and cache.stats.replays == 1
    assert warm.source == cold.source and warm.latency_us == cold.latency_us
    assert all(i.vector_bytes <= 4 for i in warm.candidate.assignment.values())

    uncapped = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert not uncapped.cache_hit and cache.stats.puts == 2
    assert uncapped.fingerprint != cold.fingerprint
    assert max(i.vector_bytes for i in uncapped.candidate.assignment.values()) > 4


# --------------------------------------------------------------------------- #
# LRU bound
# --------------------------------------------------------------------------- #
def test_lru_eviction_bound():
    cache = CompileCache(max_entries=2)
    programs = [small_gemm(), small_gemm(bk=64, k=128), small_gemm(bm=32)]
    keys = []
    for program in programs:
        kernel = compile_kernel(program, arch="a100", max_candidates=2, cache=cache)
        keys.append(kernel.fingerprint)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert keys[0] not in cache  # oldest entry evicted
    assert keys[1] in cache and keys[2] in cache


def test_lru_recency_updated_on_hit():
    cache = CompileCache(max_entries=2)
    first = small_gemm()
    k1 = compile_kernel(first, arch="a100", max_candidates=2, cache=cache)
    k2 = compile_kernel(small_gemm(bk=64, k=128), arch="a100", max_candidates=2, cache=cache)
    compile_kernel(first, arch="a100", max_candidates=2, cache=cache)  # touch entry 1
    compile_kernel(small_gemm(bm=32), arch="a100", max_candidates=2, cache=cache)
    assert k1.fingerprint in cache  # recently used: survives
    assert k2.fingerprint not in cache  # least recently used: evicted


# --------------------------------------------------------------------------- #
# Disk store
# --------------------------------------------------------------------------- #
def test_disk_store_roundtrip_and_replay(tmp_path):
    path = str(tmp_path / "compile_cache.json")
    cache = CompileCache(disk_path=path)
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert cold.candidates_explored > 1

    # A second process: fresh cache hydrated from disk.
    rehydrated = CompileCache(disk_path=path)
    assert len(rehydrated) == 1
    entry = rehydrated.get(cold.fingerprint)
    assert entry is not None
    assert entry.assignment == cold.candidate.named_assignment(cold.program)

    # Hitting the disk entry replays the stored assignment: one candidate
    # evaluated, bit-identical result.
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=rehydrated)
    assert warm.cache_hit
    assert warm.candidates_explored == 1
    assert warm.latency_us == cold.latency_us
    assert warm.source == cold.source


def test_disk_store_records_key_and_assignment_only(tmp_path):
    path = tmp_path / "compile_cache.json"
    cold = compile_kernel(
        small_gemm(), arch="a100", max_candidates=4, cache=CompileCache(disk_path=str(path))
    )
    records = json.loads(path.read_text())["entries"]
    assert list(records) == [cold.fingerprint]
    assert set(records[cold.fingerprint]) == {"key", "assignment"}


def test_disk_store_with_result_metadata_still_replays(tmp_path):
    """A record that also carries program_name, latency_us, source_digest and
    pass_stats (written by earlier versions) loads and replays."""
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=CompileCache())
    record = {
        "key": cold.fingerprint,
        "program_name": cold.program.name,
        "assignment": [list(t) for t in cold.candidate.named_assignment(cold.program)],
        "latency_us": cold.latency_us,
        "source_digest": hashlib.sha256(cold.source.encode("utf-8")).hexdigest(),
        "pass_stats": dict(cold.pass_stats),
    }
    path = tmp_path / "compile_cache.json"
    write_store(path, {cold.fingerprint: record})
    cache = CompileCache(disk_path=str(path))
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit and warm.candidates_explored == 1
    assert cache.stats.replays == 1 and cache.stats.puts == 0
    assert warm.source == cold.source and warm.latency_us == cold.latency_us


def test_disk_store_rejects_unknown_version(tmp_path):
    path = tmp_path / "compile_cache.json"
    path.write_text('{"version": 999, "entries": {"x": {}}}')
    cache = CompileCache(disk_path=str(path))
    assert len(cache) == 0


def test_version_one_disk_store_loads_no_entries(tmp_path):
    """Version-1 keys spelled every operand's tensor in full: no current
    key matches one, so such a store loads empty instead of missing."""
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=CompileCache())
    record = {
        "key": cold.fingerprint,
        "assignment": [list(t) for t in cold.candidate.named_assignment(cold.program)],
    }
    path = tmp_path / "compile_cache.json"
    write_store(path, {cold.fingerprint: record}, version=1)
    assert len(CompileCache(disk_path=str(path))) == 0


def test_disk_store_with_non_mapping_entries_loads_empty(tmp_path):
    path = tmp_path / "compile_cache.json"
    write_store(path, [])
    cache = CompileCache(disk_path=str(path))
    assert len(cache) == 0
    kernel = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert not kernel.cache_hit
    assert len(CompileCache(disk_path=str(path))) == 1


@pytest.mark.parametrize("damage", ["pairs", "string"])
def test_damaged_disk_assignment_is_searched_and_repaired(tmp_path, damage):
    """A record whose assignment is not a list of (name, direction,
    vector_bytes) triples is skipped at load: the compile searches and its
    put rewrites the record."""
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=CompileCache())
    named = cold.candidate.named_assignment(cold.program)
    if damage == "pairs":
        assignment = [[name, direction] for name, direction, _ in named]
    else:
        assignment = "x" * len(named)
    path = tmp_path / "compile_cache.json"
    write_store(path, {cold.fingerprint: {"key": cold.fingerprint, "assignment": assignment}})
    cache = CompileCache(disk_path=str(path))
    kernel = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert not kernel.cache_hit and kernel.candidates_explored > 1
    assert kernel.source == cold.source
    assert CompileCache(disk_path=str(path)).get(cold.fingerprint).assignment == named


@pytest.mark.parametrize(
    "assignment",
    ["abc", [["ld", "G2S"]], [("ld", "G2S", 16)], [["ld", "G2S", 16.0]],
     [["ld", "G2S", True]], [["ld", 7, 16]], None],
    ids=["string", "pair", "tuple", "float", "bool", "direction", "none"],
)
def test_cache_entry_rejects_assignments_that_are_not_triples(assignment):
    with pytest.raises(TypeError):
        CacheEntry.from_json({"key": "k", "assignment": assignment})
    entry = CacheEntry.from_json({"key": "k", "assignment": [["ld", "G2S", 16]]})
    assert entry.assignment == [("ld", "G2S", 16)]


def test_stale_entry_falls_back_to_search_and_is_repaired():
    """An entry whose stored assignment no longer resolves (e.g. a damaged
    disk record) must fall back to the full search, report a miss, and be
    overwritten with the fresh result."""
    cache = CompileCache()
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    entry = cache.get(cold.fingerprint)
    entry.assignment = entry.assignment[:-1]  # truncate: cannot resolve

    repaired = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert not repaired.cache_hit
    assert repaired.candidates_explored > 1  # full search ran
    assert repaired.latency_us == cold.latency_us
    # The bad entry was replaced; the next compile replays normally.
    assert cache.get(cold.fingerprint).assignment == cold.candidate.named_assignment(
        cold.program
    )
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit and warm.candidates_explored == 1


def test_batch_compiles_flush_the_disk_store_once(tmp_path):
    """compile_many over a disk-backed cache must not rewrite the JSON store
    per insertion (O(n^2) I/O across a batch): puts inside the batch only
    mark the store dirty and one flush runs at the end."""
    from repro.pipeline import compile_many

    path = str(tmp_path / "compile_cache.json")
    cache = CompileCache(disk_path=path)
    programs = [small_gemm(), small_gemm(bk=64, k=128), small_gemm(bm=32)]
    compile_many(programs, arch="a100", max_candidates=2, cache=cache)
    assert cache.stats.puts == 3
    assert cache.disk_writes == 1  # one flush for the whole batch
    # Write-through semantics survive for single compiles.
    compile_kernel(small_gemm(bm=32, bn=32), arch="a100", max_candidates=2, cache=cache)
    assert cache.disk_writes == 2
    # All four entries made it to disk.
    assert len(CompileCache(disk_path=path)) == 4


def test_flush_is_a_noop_when_clean(tmp_path):
    path = str(tmp_path / "compile_cache.json")
    cache = CompileCache(disk_path=path)
    assert cache.flush() is False  # nothing dirty yet
    compile_kernel(small_gemm(), arch="a100", max_candidates=2, cache=cache)
    writes = cache.disk_writes
    assert cache.flush() is False  # put already wrote through
    assert cache.disk_writes == writes
    with cache.deferred_writes():
        compile_kernel(small_gemm(bm=32), arch="a100", max_candidates=2, cache=cache)
        assert cache.disk_writes == writes  # deferred: no write yet
    assert cache.disk_writes == writes + 1  # flushed on scope exit
    # No disk store configured: flush is a harmless no-op.
    assert CompileCache().flush() is False


def test_disk_store_tolerates_corruption(tmp_path):
    """A damaged store degrades to a cold cache instead of failing the
    compile that tried to warm up from it, and is rewritten on the next put."""
    path = tmp_path / "compile_cache.json"
    path.write_text("{not json")
    cache = CompileCache(disk_path=str(path))
    assert len(cache) == 0
    kernel = compile_kernel(small_gemm(), arch="a100", max_candidates=2, cache=cache)
    assert kernel.latency_us > 0
    assert len(CompileCache(disk_path=str(path))) == 1
