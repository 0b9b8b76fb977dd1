"""Host buffers that declare their layout and draw their data on first read.

The simulated devices price a launch from buffer sizes, dtypes and
scalars alone; only functional execution reads array values.  So a
problem instance declares each buffer's shape and dtype up front
(:class:`LazyArrays`) and draws the data the first time a value is
read.  The timing paths read :func:`buffer_layout` instead of the
arrays, which answers the same for a plain dict of arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping

import numpy as np
import numpy.typing as npt

__all__ = ["LazyArrays", "buffer_layout"]


def _shape(shape: int | tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(shape, tuple):
        return tuple(int(n) for n in shape)
    return (int(shape),)


class LazyArrays(Mapping[str, np.ndarray]):
    """Named host arrays whose data is drawn once, on the first value read.

    Args:
        layout: ``{name: (shape, dtype)}`` of every buffer, in key order
            (an int shape is one axis).  Iteration, ``len``, ``in``,
            :attr:`layout` and :func:`buffer_layout` answer from it.
        draw: zero-argument callable returning the drawn arrays by
            name.  Declared buffers it does not return are zero-filled
            (the outputs); each array it returns must match its
            declared shape and dtype, or the read raises ``ValueError``.

    The drawn arrays are kept for the life of the mapping, so every read
    sees the same objects and in-place writes persist.
    """

    __slots__ = ("_layout", "_draw", "_arrays")

    def __init__(
        self,
        layout: Mapping[str, tuple[int | tuple[int, ...], npt.DTypeLike]],
        draw: Callable[[], Mapping[str, np.ndarray]],
    ):
        self._layout = {
            name: (_shape(shape), np.dtype(dtype))
            for name, (shape, dtype) in layout.items()
        }
        self._draw = draw
        self._arrays: dict[str, np.ndarray] | None = None

    @property
    def layout(self) -> dict[str, tuple[tuple[int, ...], np.dtype]]:
        """The declared ``{name: (shape, dtype)}``, in key order."""
        return dict(self._layout)

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._layout)

    def __contains__(self, name: object) -> bool:
        return name in self._layout

    def __getitem__(self, name: str) -> np.ndarray:
        if self._arrays is None:
            self._arrays = self._checked(dict(self._draw()))
            self._draw = None
        return self._arrays[name]

    def _checked(self, drawn: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        arrays = {}
        for name, (shape, dtype) in self._layout.items():
            arr = drawn.pop(name, None)
            if arr is None:
                arr = np.zeros(shape, dtype)
            elif arr.shape != shape or arr.dtype != dtype:
                raise ValueError(
                    f"buffer {name!r} drawn as {arr.dtype}{arr.shape}, "
                    f"declared {dtype}{shape}"
                )
            arrays[name] = arr
        if drawn:
            raise ValueError(f"draw returned undeclared buffers: {sorted(drawn)}")
        return arrays


def buffer_layout(arrays: Mapping[str, np.ndarray]) -> dict[str, tuple[int, int]]:
    """``{name: (elements, itemsize)}`` of each buffer, in key order.

    Reads a :class:`LazyArrays` declaration without drawing; a plain
    mapping of arrays answers from the arrays themselves.
    """
    if isinstance(arrays, LazyArrays):
        return {
            name: (math.prod(shape), dtype.itemsize)
            for name, (shape, dtype) in arrays.layout.items()
        }
    return {
        name: (int(np.size(a)), int(np.asarray(a).itemsize))
        for name, a in arrays.items()
    }
