"""Scalar data types of the Hexcute tile language.

The DSL supports the types listed in the paper's Appendix B: the usual IEEE
floats, bfloat16, the FP8 formats, and sub-byte integers used by
weight-only quantization (``int4``/``uint4`` down to 1-bit).  Every type
carries the name of the numpy dtype used for *storage in the functional
executor* together with its true bit width used for *memory traffic
accounting* in the timing model — a 4-bit weight occupies 4 bits of
simulated DRAM/shared memory even though the executor stores it in an
``int8`` array.  Compiling never touches array data, so this module does
not import numpy: :meth:`DataType.quantize` imports it when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DataType",
    "float64",
    "float32",
    "float16",
    "bfloat16",
    "float8_e4m3",
    "float8_e5m2",
    "int32",
    "uint32",
    "int16",
    "int8",
    "uint8",
    "int4",
    "uint4",
    "int2",
    "uint2",
    "int1",
    "uint1",
    "all_types",
    "from_name",
]


@dataclass(frozen=True)
class DataType:
    """A scalar type: logical bit width plus the name of the numpy dtype
    the functional executor stores it in."""

    name: str
    bits: int
    is_float: bool
    is_signed: bool
    storage: str

    @property
    def is_integer(self) -> bool:
        return not self.is_float

    @property
    def is_subbyte(self) -> bool:
        return self.bits < 8

    def min_value(self) -> float:
        if self.is_float:
            return float("-inf")
        if self.is_signed:
            return -(2 ** (self.bits - 1))
        return 0

    def max_value(self) -> float:
        if self.is_float:
            return float("inf")
        if self.is_signed:
            return 2 ** (self.bits - 1) - 1
        return 2**self.bits - 1

    def quantize(self, array: np.ndarray) -> np.ndarray:
        """Round-trip an array through this type's representable values.

        Used by the functional executor so low-precision casts lose
        precision the way they would on hardware: ints saturate, float16
        overflows to infinity, bfloat16 truncates its mantissa, and the
        FP8 formats round within their exponent range (subnormals below
        the smallest normal value, saturation at the largest finite one,
        as a ``satfinite`` conversion does).
        """
        import numpy as np

        if self.is_float:
            if self.name == "float16":
                with np.errstate(over="ignore"):
                    return array.astype(np.float16).astype(np.float32)
            if self.name == "bfloat16":
                as_int = array.astype(np.float32).view(np.uint32)
                truncated = (as_int & np.uint32(0xFFFF0000)).view(np.float32)
                return truncated
            if self.name in _FP8_FORMATS:
                # Round to the grid of the value's binade, the binade clamped
                # to the format's exponent range: below the smallest normal
                # exponent the grid is the subnormal step.
                mantissa_bits, min_exponent, max_exponent, max_finite = _FP8_FORMATS[self.name]
                with np.errstate(divide="ignore"):
                    exponent = np.floor(np.log2(np.abs(array)))
                step = np.exp2(np.clip(exponent, min_exponent, max_exponent) - mantissa_bits)
                result = np.round(array / step) * step
                return np.clip(result, -max_finite, max_finite).astype(np.float32)
            return array.astype(self.storage)
        clipped = np.clip(np.round(array), self.min_value(), self.max_value())
        return clipped.astype(self.storage)

    def __repr__(self) -> str:
        return self.name


# Mantissa bits, smallest normal exponent, largest exponent and largest
# finite value of each FP8 format (e4m3 has no infinity: 448 = 1.75 * 2**8).
_FP8_FORMATS = {
    "float8_e4m3": (3, -6, 8, 448.0),
    "float8_e5m2": (2, -14, 15, 57344.0),
}

float64 = DataType("float64", 64, True, True, "float64")
float32 = DataType("float32", 32, True, True, "float32")
float16 = DataType("float16", 16, True, True, "float32")
bfloat16 = DataType("bfloat16", 16, True, True, "float32")
float8_e4m3 = DataType("float8_e4m3", 8, True, True, "float32")
float8_e5m2 = DataType("float8_e5m2", 8, True, True, "float32")
int32 = DataType("int32", 32, False, True, "int32")
uint32 = DataType("uint32", 32, False, False, "uint32")
int16 = DataType("int16", 16, False, True, "int16")
int8 = DataType("int8", 8, False, True, "int8")
uint8 = DataType("uint8", 8, False, False, "uint8")
int4 = DataType("int4", 4, False, True, "int8")
uint4 = DataType("uint4", 4, False, False, "uint8")
int2 = DataType("int2", 2, False, True, "int8")
uint2 = DataType("uint2", 2, False, False, "uint8")
int1 = DataType("int1", 1, False, True, "int8")
uint1 = DataType("uint1", 1, False, False, "uint8")

_ALL = [
    float64,
    float32,
    float16,
    bfloat16,
    float8_e4m3,
    float8_e5m2,
    int32,
    uint32,
    int16,
    int8,
    uint8,
    int4,
    uint4,
    int2,
    uint2,
    int1,
    uint1,
]


def all_types() -> list[DataType]:
    """All supported scalar types."""
    return list(_ALL)


def from_name(name: str) -> DataType:
    """Look up a type by name (e.g. ``"float16"``)."""
    for dtype in _ALL:
        if dtype.name == name:
            return dtype
    raise KeyError(f"unknown data type {name!r}")
