"""The tile-level program: an operation DAG plus kernel launch metadata.

Algorithm 1 of the paper operates on "a directed acyclic graph of tile-level
operations" and partitions it "into connected subgraphs separated by shared
memory reads and writes".  :class:`KernelProgram` holds the operation list
(in program order), derives producer/consumer maps, and implements the
partitioning used by the thread-value layout solver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.ops import (
    AllocRegister,
    AllocShared,
    Copy,
    Gemm,
    GlobalView,
    Operation,
)
from repro.ir.tensor import TileTensor

__all__ = ["KernelProgram", "ProgramError"]


class ProgramError(Exception):
    """Raised when a tile program is structurally invalid."""


class KernelProgram:
    """A Hexcute kernel body: tile operations plus launch configuration.

    Parameters
    ----------
    name:
        Kernel name (used in diagnostics and generated code).
    num_threads:
        Threads per thread block (a multiple of the 32-thread warp size).
    grid_blocks:
        Number of thread blocks launched (used by the timing model).
    num_stages:
        Software-pipelining depth for the main loop (1 = no pipelining).
    warp_specialized:
        Whether the kernel uses producer/consumer warp groups.
    """

    WARP_SIZE = 32

    def __init__(
        self,
        name: str,
        num_threads: int = 128,
        grid_blocks: int = 1,
        num_stages: int = 1,
        warp_specialized: bool = False,
    ):
        if num_threads % self.WARP_SIZE != 0 or num_threads <= 0:
            raise ProgramError(
                f"num_threads must be a positive multiple of {self.WARP_SIZE}, got {num_threads}"
            )
        if num_stages < 1:
            raise ProgramError(f"num_stages must be >= 1, got {num_stages}")
        self.name = name
        self.num_threads = num_threads
        self.grid_blocks = int(grid_blocks)
        self.num_stages = num_stages
        self.warp_specialized = warp_specialized
        self.operations: List[Operation] = []
        # Optional hint from the host wrapper: the problem-level unique
        # global-memory footprint in bytes.  Per-CTA traffic beyond this is
        # inter-CTA reuse served by the L2 cache in the timing model.
        self.unique_global_bytes: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, operation: Operation) -> Operation:
        self.operations.append(operation)
        return operation

    @property
    def num_warps(self) -> int:
        return self.num_threads // self.WARP_SIZE

    # ------------------------------------------------------------------ #
    # Derived structure
    # ------------------------------------------------------------------ #
    def tensors(self) -> List[TileTensor]:
        seen: Dict[int, TileTensor] = {}
        for op in self.operations:
            for tensor in op.tensors():
                seen.setdefault(tensor.tensor_id, tensor)
        return list(seen.values())

    def register_tensors(self) -> List[TileTensor]:
        return [t for t in self.tensors() if t.is_register]

    def shared_tensors(self) -> List[TileTensor]:
        return [t for t in self.tensors() if t.is_shared]

    def global_tensors(self) -> List[TileTensor]:
        return [t for t in self.tensors() if t.is_global]

    def copies(self) -> List[Copy]:
        return [op for op in self.operations if isinstance(op, Copy)]

    def gemms(self) -> List[Gemm]:
        return [op for op in self.operations if isinstance(op, Gemm)]

    def copies_touching(self, tensor: TileTensor) -> List[Copy]:
        return [op for op in self.copies() if tensor in op.tensors()]

    # ------------------------------------------------------------------ #
    # Partitioning (Algorithm 1, line 1)
    # ------------------------------------------------------------------ #
    def connected_components(self) -> List[List[Operation]]:
        """Partition the op DAG into components connected through *register*
        tensors.

        Shared-memory and global tensors act as cut points: a copy that
        writes shared memory and a copy that later reads it land in
        different components, exactly as in the paper, because the
        register layouts on the two sides need not be related.
        """
        compute_ops = [
            op
            for op in self.operations
            if not isinstance(op, (GlobalView, AllocRegister, AllocShared))
        ]
        parent: Dict[int, int] = {op.op_id: op.op_id for op in compute_ops}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        touching: Dict[int, List[Operation]] = {}
        for op in compute_ops:
            for tensor in op.tensors():
                if tensor.is_register:
                    touching.setdefault(tensor.tensor_id, []).append(op)
        for ops in touching.values():
            for other in ops[1:]:
                union(ops[0].op_id, other.op_id)

        groups: Dict[int, List[Operation]] = {}
        for op in compute_ops:
            groups.setdefault(find(op.op_id), []).append(op)
        # Preserve program order inside and across components.
        components = sorted(groups.values(), key=lambda ops: min(o.op_id for o in ops))
        for component in components:
            component.sort(key=lambda o: o.op_id)
        return components

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> List[List[Operation]]:
        """Check structural invariants before synthesis.

        * every register/shared tensor is produced by an alloc before use;
        * every global tensor comes from a ``global_view``;
        * every component contains at least one copy (otherwise it would be
          dead code, cf. Section IV-B).

        Returns the components it checked (:meth:`connected_components`),
        so synthesis partitions the program once.
        """
        allocated: Set[int] = set()
        for op in self.operations:
            if isinstance(op, (AllocRegister, AllocShared, GlobalView)):
                allocated.add(op.outputs[0].tensor_id)
        for op in self.operations:
            if isinstance(op, (AllocRegister, AllocShared, GlobalView)):
                continue
            for tensor in op.tensors():
                if tensor.tensor_id not in allocated:
                    raise ProgramError(
                        f"tensor {tensor.short_desc()} used by {op.describe()} was never "
                        f"declared via global_view/register_tensor/shared_tensor"
                    )
        components = self.connected_components()
        for component in components:
            if not any(isinstance(op, Copy) for op in component):
                names = ", ".join(op.describe() for op in component)
                raise ProgramError(
                    f"component [{names}] never reads or writes memory; it is dead code"
                )
        return components

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def loc_estimate(self) -> int:
        """A rough "lines of code" count for the kernel body (one line per
        declared tensor or operation), used by the Table II harness."""
        return len(self.operations)

    def __repr__(self) -> str:
        return f"KernelProgram({self.name!r}, ops={len(self.operations)})"
