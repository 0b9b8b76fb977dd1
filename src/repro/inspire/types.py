"""Type system for the INSPIRE-like kernel intermediate representation.

The paper's compiler translates OpenCL C into the Insieme parallel IR
(INSPIRE).  This module provides the small, OpenCL-flavoured type lattice
used by our IR: scalar types with NumPy dtype mappings, short vector types
(float4 and friends) and buffer (global-pointer) types.

Types are immutable value objects; identity comparisons are by value so
they can be used freely as dict keys and in dataclass fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Type",
    "ScalarType",
    "VectorType",
    "BufferType",
    "BOOL",
    "INT",
    "UINT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "promote",
    "is_floating",
    "is_integer",
]


@dataclass(frozen=True)
class Type:
    """Base class for all IR types."""

    def sizeof(self) -> int:
        """Size of one value of this type in bytes."""
        raise NotImplementedError

    @property
    def cl_name(self) -> str:
        """The OpenCL C spelling of this type."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarType(Type):
    """A scalar OpenCL type (``int``, ``float``, ...).

    Attributes:
        name: OpenCL C spelling.
        dtype_name: the NumPy dtype used to carry values of this type.
        bytes: storage size in bytes.
        floating: True for real-valued types.
        rank: promotion rank; larger rank wins in mixed arithmetic.
    """

    name: str
    dtype_name: str
    bytes: int
    floating: bool
    rank: int

    def sizeof(self) -> int:
        return self.bytes

    @property
    def cl_name(self) -> str:
        return self.name

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.dtype_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarType({self.name})"


BOOL = ScalarType("bool", "bool", 1, floating=False, rank=0)
INT = ScalarType("int", "int32", 4, floating=False, rank=1)
UINT = ScalarType("uint", "uint32", 4, floating=False, rank=2)
LONG = ScalarType("long", "int64", 8, floating=False, rank=3)
FLOAT = ScalarType("float", "float32", 4, floating=True, rank=4)
DOUBLE = ScalarType("double", "float64", 8, floating=True, rank=5)


@dataclass(frozen=True)
class VectorType(Type):
    """An OpenCL short-vector type such as ``float4``.

    Vector operations are a key static feature in the paper: the ATI VLIW
    GPUs in platform mc1 only reach good efficiency on explicitly
    vectorized kernels, so the feature extractor counts vector arithmetic
    separately from scalar arithmetic.
    """

    element: ScalarType
    width: int

    def __post_init__(self) -> None:
        if self.width not in (2, 3, 4, 8, 16):
            raise ValueError(f"invalid OpenCL vector width {self.width}")

    def sizeof(self) -> int:
        return self.element.bytes * self.width

    @property
    def cl_name(self) -> str:
        return f"{self.element.name}{self.width}"

    @property
    def dtype(self) -> np.dtype:
        return self.element.dtype


@dataclass(frozen=True)
class BufferType(Type):
    """A pointer to a global-memory buffer of ``element`` values."""

    element: ScalarType | VectorType

    def sizeof(self) -> int:
        # Size of the pointer itself on a 64-bit host.
        return 8

    @property
    def cl_name(self) -> str:
        return f"__global {self.element.cl_name}*"

    @property
    def dtype(self) -> np.dtype:
        return self.element.dtype


def is_floating(ty: Type) -> bool:
    """True for float/double scalars and vectors thereof."""
    if isinstance(ty, ScalarType):
        return ty.floating
    if isinstance(ty, VectorType):
        return ty.element.floating
    return False


def is_integer(ty: Type) -> bool:
    """True for integral scalars and vectors thereof (bool excluded)."""
    if isinstance(ty, ScalarType):
        return not ty.floating and ty is not BOOL
    if isinstance(ty, VectorType):
        return not ty.element.floating
    return False


def promote(a: Type, b: Type) -> Type:
    """Usual-arithmetic-conversion result type of a binary operation.

    Mirrors OpenCL C promotion closely enough for our kernels: the higher
    promotion rank wins; a vector type absorbs a scalar operand of a
    compatible element type (component-wise broadcast).
    """
    if isinstance(a, VectorType) and isinstance(b, VectorType):
        if a.width != b.width:
            raise TypeError(f"vector width mismatch: {a.cl_name} vs {b.cl_name}")
        elem = promote(a.element, b.element)
        assert isinstance(elem, ScalarType)
        return VectorType(elem, a.width)
    if isinstance(a, VectorType):
        elem = promote(a.element, b)
        assert isinstance(elem, ScalarType)
        return VectorType(elem, a.width)
    if isinstance(b, VectorType):
        return promote(b, a)
    if not isinstance(a, ScalarType) or not isinstance(b, ScalarType):
        raise TypeError(f"cannot promote {a} and {b}")
    return a if a.rank >= b.rank else b
