"""Tests for the instruction database and its thread-value layout atoms."""

import pytest

from repro.instructions import MemoryInstruction, atoms, instruction_set
from repro.ir import types
from repro.ir.ops import Copy
from repro.ir.tensor import Scope, TileTensor
from repro.layout import Layout

from strategies import covers_tile_oracle


def test_mma_atoms_cover_their_fragments():
    for atom in (
        atoms.MMA_M16N8K16_F16_A,
        atoms.MMA_M16N8K16_F16_B,
        atoms.MMA_M16N8K16_C,
        atoms.MMA_M16N8K8_F16_A,
        atoms.MMA_M16N8K32_8BIT_A,
        atoms.MMA_M16N8K32_8BIT_B,
    ):
        assert atom.num_threads == 32
        assert covers_tile_oracle(atom), atom


def test_ldmatrix_fragment_matches_paper_layout():
    q = atoms.LDMATRIX_X4_FRAGMENT
    assert q.num_threads == 32 and q.values_per_thread == 8
    assert covers_tile_oracle(q)


def test_instruction_set_arch_filtering():
    a100 = instruction_set(80)
    h100 = instruction_set(90)
    names_a100 = {i.name for i in a100.memory}
    names_h100 = {i.name for i in h100.memory}
    assert "cp.async.bulk.tensor" not in names_a100
    assert "cp.async.bulk.tensor" in names_h100
    assert "stmatrix.x4" not in names_a100


def test_copies_are_sorted_widest_first():
    iset = instruction_set(80)
    widths = [i.vector_bytes for i in iset.copies(Scope.SHARED, Scope.REGISTER)]
    assert widths == sorted(widths, reverse=True)


def test_scalar_copy_always_exists():
    iset = instruction_set(80)
    scalar = iset.scalar_copy(Scope.GLOBAL, Scope.REGISTER)
    assert scalar.vector_bytes <= 4


def test_fastest_mma_selection():
    iset = instruction_set(90)
    fp16 = iset.fastest_mma(types.float16, types.float16, types.float32)
    assert fp16.k == 16
    fp8 = iset.fastest_mma(types.float8_e4m3, types.float8_e4m3, types.float32)
    assert fp8.k == 32
    with pytest.raises(KeyError):
        iset.fastest_mma(types.int4, types.int4, types.float32)


def test_fp8_mma_not_on_ampere():
    iset = instruction_set(80)
    with pytest.raises(KeyError):
        iset.fastest_mma(types.float8_e4m3, types.float8_e4m3, types.float32)


def test_elements_per_thread():
    iset = instruction_set(80)
    cp16 = iset.by_name("cp.async.cg.16")
    assert cp16.elements_per_thread(types.float16) == 8
    assert cp16.elements_per_thread(types.uint4) == 32
    assert cp16.asynchronous and not cp16.collective


def test_memory_instruction_hash_is_computed_once_and_structural():
    from dataclasses import fields, replace

    for instr in instruction_set(90).copies(Scope.GLOBAL, Scope.SHARED):
        assert hash(instr) == hash(tuple(getattr(instr, f.name) for f in fields(instr)))
        twin = replace(instr)
        assert twin == instr and twin is not instr and hash(twin) == hash(instr)
        wider = replace(instr, vector_bytes=2 * instr.vector_bytes)
        assert wider != instr
        assert hash(wider) == hash(tuple(getattr(wider, f.name) for f in fields(wider)))


def test_by_name_lookup_error():
    with pytest.raises(KeyError):
        instruction_set(80).by_name("no.such.instruction")


def test_transposed_ldmatrix_available():
    iset = instruction_set(80)
    trans = iset.by_name("ldmatrix.x4.trans")
    assert trans.transposed and trans.collective


def test_direction_tag_is_stored_once_and_shared_with_copies():
    """An instruction computes its direction tag at construction, and a
    copy between the same scopes spells it the same way, in all six
    directions."""
    for instr in instruction_set(90).memory:
        assert instr.direction is instr.direction

    def tensor(scope, name):
        layout = Layout((8,)) if scope is Scope.GLOBAL else None
        return TileTensor(name, types.float16, scope, (8,), layout=layout)

    letters = {Scope.GLOBAL: "G", Scope.SHARED: "S", Scope.REGISTER: "R"}
    directions = [(s, d) for s in letters for d in letters if s is not d]
    assert len(directions) == 6
    for src, dst in directions:
        copy = Copy(tensor(src, "a"), tensor(dst, "b"))
        instr = MemoryInstruction("test.move", src, dst, 4, 1.0, 1.0)
        assert copy.direction == instr.direction == f"{letters[src]}2{letters[dst]}"
