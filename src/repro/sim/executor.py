"""Functional executor: runs compiled tile programs on numpy.

This is the correctness half of the simulated GPU substrate.  Every data
movement goes through the *synthesized layouts*:

* global tensors are flat buffers addressed through the user-provided
  layouts (including iterator views with a trailing loop dimension);
* shared tensors are flat buffers addressed through the synthesized base
  layout composed with the selected swizzle;
* register tensors are per-thread register files addressed through the
  synthesized thread-value layouts (replicated elements are written to every
  owner and must agree when read back).

A program whose layouts were synthesized incorrectly (non-injective shared
layout, inconsistent thread-value layouts, wrong reduce projection, ...)
produces wrong numerical results or triggers an executor error, so the test
suite can check the compiler's "correct by construction" claim by comparing
kernel outputs against plain numpy references.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.graph import KernelProgram
from repro.ir.ops import (
    AllocRegister,
    AllocShared,
    Cast,
    Copy,
    Elementwise,
    Fill,
    Gemm,
    GlobalView,
    Operation,
    Rearrange,
    Reduce,
)
from repro.ir.tensor import TileTensor

__all__ = ["ExecutionError", "FunctionalExecutor", "run_kernel"]


class ExecutionError(Exception):
    """Raised when a program cannot be executed functionally."""


class _RegisterFile:
    """Per-thread storage of one register tensor, addressed via its TV layout."""

    def __init__(self, tensor: TileTensor):
        tv = tensor.require_tv_layout()
        self.tensor = tensor
        self.tv = tv
        self.data = np.zeros((tv.num_threads, tv.values_per_thread), dtype=np.float64)
        # owners[linear tile index] -> list of (thread, value) slots
        owners: Dict[int, List[Tuple[int, int]]] = {}
        for t in range(tv.num_threads):
            for v in range(tv.values_per_thread):
                owners.setdefault(tv(t, v), []).append((t, v))
        self.owners = owners
        self.tile_size = int(np.prod(tensor.shape))

    def write_tile(self, tile: np.ndarray) -> None:
        flat = np.asarray(tile, dtype=np.float64).reshape(self.tensor.shape, order="C")
        flat = flat.reshape(-1, order="F")  # colexicographic (column-major) order
        for index in range(self.tile_size):
            for (t, v) in self.owners.get(index, ()):  # replicate to every owner
                self.data[t, v] = flat[index]

    def read_tile(self) -> np.ndarray:
        flat = np.zeros(self.tile_size, dtype=np.float64)
        for index in range(self.tile_size):
            slots = self.owners.get(index)
            if not slots:
                raise ExecutionError(
                    f"register tensor {self.tensor.name}: element {index} is not "
                    f"covered by its thread-value layout {self.tv.layout}"
                )
            t, v = slots[0]
            flat[index] = self.data[t, v]
        return flat.reshape(self.tensor.shape, order="F")

    def fill(self, value: float) -> None:
        self.data[:] = value


class _SharedBuffer:
    """A shared-memory buffer addressed through the synthesized layout."""

    def __init__(self, tensor: TileTensor):
        self.tensor = tensor
        layout = tensor.effective_layout()
        indices = [layout(i) for i in range(int(np.prod(tensor.shape)))]
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(set(indices)) != len(indices):
            raise ExecutionError(
                f"shared tensor {tensor.name}: layout {layout} is not injective"
            )
        self.data = np.zeros(int(self.indices.max()) + 1, dtype=np.float64)

    def write_tile(self, tile: np.ndarray) -> None:
        flat = np.asarray(tile, dtype=np.float64).reshape(-1, order="F")
        self.data[self.indices] = flat

    def read_tile(self) -> np.ndarray:
        flat = self.data[self.indices]
        return flat.reshape(self.tensor.shape, order="F")


class _GlobalBuffer:
    """A global buffer addressed through the user-provided layout."""

    def __init__(self, tensor: TileTensor, storage: np.ndarray):
        self.tensor = tensor
        self.layout = tensor.require_layout()
        self.storage = storage.reshape(-1)

    def _tile_indices(self, tile_shape: Tuple[int, ...], iteration: int) -> np.ndarray:
        indices = np.empty(int(np.prod(tile_shape)), dtype=np.int64)
        pos = 0
        for coord in np.ndindex(*reversed(tile_shape)):
            crd = tuple(reversed(coord))
            if len(self.tensor.shape) > len(tile_shape):
                crd = crd + (iteration,)
            indices[pos] = self.layout(crd)
            pos += 1
        return indices

    def read_tile(self, tile_shape: Tuple[int, ...], iteration: int) -> np.ndarray:
        indices = self._tile_indices(tile_shape, iteration)
        flat = self.storage[indices].astype(np.float64)
        return flat.reshape(tile_shape, order="F")

    def write_tile(self, tile: np.ndarray, iteration: int) -> None:
        tile_shape = tuple(tile.shape)
        indices = self._tile_indices(tile_shape, iteration)
        self.storage[indices] = tile.reshape(-1, order="F").astype(self.storage.dtype)


class FunctionalExecutor:
    """Interprets a compiled (layouts synthesized) tile program."""

    def __init__(self, program: KernelProgram):
        self.program = program

    # ------------------------------------------------------------------ #
    def run(self, buffers: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the program against global buffers (keyed by buffer name).

        Buffers are modified in place for outputs and also returned.
        """
        registers: Dict[int, _RegisterFile] = {}
        shared: Dict[int, _SharedBuffer] = {}
        globals_: Dict[int, _GlobalBuffer] = {}

        for op in self.program.operations:
            if isinstance(op, GlobalView):
                tensor = op.tensor
                key = tensor.buffer_name or tensor.name
                if key not in buffers:
                    raise ExecutionError(f"missing global buffer {key!r}")
                globals_[tensor.tensor_id] = _GlobalBuffer(tensor, buffers[key])
            elif isinstance(op, AllocRegister):
                registers[op.tensor.tensor_id] = _RegisterFile(op.tensor)
            elif isinstance(op, Rearrange) and op.inserted:
                # TV synthesis inserts no AllocRegister for its destination.
                registers[op.dst.tensor_id] = _RegisterFile(op.dst)
            elif isinstance(op, AllocShared):
                shared[op.tensor.tensor_id] = _SharedBuffer(op.tensor)

        state = _State(registers, shared, globals_)

        # Execute: straight-line ops run once; maximal runs of ops sharing a
        # trip count > 1 form the main loop and run `trips` times.
        ops = [
            op
            for op in self.program.operations
            if not isinstance(op, (GlobalView, AllocRegister, AllocShared))
        ]
        position = 0
        while position < len(ops):
            op = ops[position]
            if op.trips == 1:
                self._execute(op, state, iteration=0)
                position += 1
                continue
            body = [op]
            nxt = position + 1
            while nxt < len(ops) and ops[nxt].trips == op.trips:
                body.append(ops[nxt])
                nxt += 1
            for iteration in range(op.trips):
                for body_op in body:
                    self._execute(body_op, state, iteration=iteration)
            position = nxt

        return buffers

    # ------------------------------------------------------------------ #
    def _execute(self, op: Operation, state: "_State", iteration: int) -> None:
        if isinstance(op, Copy):
            self._copy(op, state, iteration)
        elif isinstance(op, Gemm):
            self._gemm(op, state)
        elif isinstance(op, Cast):
            tile = state.read(op.src, iteration)
            state.write(op.dst, op.dst.dtype.quantize(tile), iteration)
        elif isinstance(op, Rearrange):
            state.write(op.dst, state.read(op.src, iteration), iteration)
        elif isinstance(op, Elementwise):
            tiles = [state.read(t, iteration) for t in op.inputs]
            result = op.fn(*tiles)
            state.write(op.output, np.asarray(result, dtype=np.float64), iteration)
        elif isinstance(op, Reduce):
            tile = state.read(op.src, iteration)
            if op.kind == "sum":
                reduced = tile.sum(axis=op.dim, keepdims=True)
            elif op.kind == "max":
                reduced = tile.max(axis=op.dim, keepdims=True)
            else:
                reduced = tile.min(axis=op.dim, keepdims=True)
            state.write(op.dst, reduced, iteration)
        elif isinstance(op, Fill):
            state.registers[op.dst.tensor_id].fill(op.value)
        else:
            raise ExecutionError(f"cannot execute operation {op.describe()}")

    def _copy(self, op: Copy, state: "_State", iteration: int) -> None:
        tile_shape = op.tile_shape()
        tile = state.read(op.src, iteration, tile_shape)
        tile = op.dst.dtype.quantize(tile) if op.dst.dtype.is_integer else tile
        state.write(op.dst, tile, iteration)

    def _gemm(self, op: Gemm, state: "_State") -> None:
        a = state.read(op.a, 0)
        b = state.read(op.b, 0)
        c = state.read(op.c, 0)
        a = op.a.dtype.quantize(a) if op.a.dtype.bits < 32 else a
        b = op.b.dtype.quantize(b) if op.b.dtype.bits < 32 else b
        result = c + a.astype(np.float64) @ b.astype(np.float64).T
        state.write(op.c, result, 0)


class _State:
    def __init__(self, registers, shared, globals_):
        self.registers: Dict[int, _RegisterFile] = registers
        self.shared: Dict[int, _SharedBuffer] = shared
        self.globals: Dict[int, _GlobalBuffer] = globals_

    def read(
        self,
        tensor: TileTensor,
        iteration: int,
        tile_shape: Optional[Tuple[int, ...]] = None,
    ) -> np.ndarray:
        if tensor.is_register:
            return self.registers[tensor.tensor_id].read_tile()
        if tensor.is_shared:
            return self.shared[tensor.tensor_id].read_tile()
        shape = tile_shape if tile_shape is not None else tensor.shape
        return self.globals[tensor.tensor_id].read_tile(tuple(shape), iteration)

    def write(self, tensor: TileTensor, tile: np.ndarray, iteration: int) -> None:
        if tensor.is_register:
            self.registers[tensor.tensor_id].write_tile(tile)
        elif tensor.is_shared:
            self.shared[tensor.tensor_id].write_tile(tile)
        else:
            self.globals[tensor.tensor_id].write_tile(np.asarray(tile), iteration)


def run_kernel(program: KernelProgram, buffers: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Convenience wrapper: execute a compiled program on numpy buffers."""
    return FunctionalExecutor(program).run(buffers)
