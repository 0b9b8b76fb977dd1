"""The benchmark registry: the paper's 23-program evaluation suite."""

from __future__ import annotations

from .base import Benchmark
from .polybench import Atax, Conv2D, Mvt
from .rodinia import BFS, Backprop, Hotspot, KMeans, NearestNeighbor, Pathfinder, SRAD
from .shoc import MD, Reduction, SpMV, Stencil2D, Triad
from .vendor import (
    BlackScholes,
    DotProduct,
    Histogram,
    Mandelbrot,
    MatMul,
    NBody,
    Saxpy,
    VecAdd,
)

__all__ = [
    "BENCHMARK_CLASSES",
    "all_benchmarks",
    "get_benchmark",
    "benchmark_names",
]

#: All 23 programs, grouped by origin suite as in the paper's §3.
BENCHMARK_CLASSES: tuple[type[Benchmark], ...] = (
    # vendor example codes (8)
    VecAdd,
    Saxpy,
    DotProduct,
    MatMul,
    BlackScholes,
    Mandelbrot,
    NBody,
    Histogram,
    # SHOC (5)
    Reduction,
    Triad,
    SpMV,
    MD,
    Stencil2D,
    # Rodinia (7)
    Hotspot,
    KMeans,
    NearestNeighbor,
    SRAD,
    Pathfinder,
    BFS,
    Backprop,
    # PolyBench (3)
    Conv2D,
    Atax,
    Mvt,
)

_INSTANCES: dict[str, Benchmark] = {}


def all_benchmarks() -> tuple[Benchmark, ...]:
    """Singleton instances of all 23 benchmarks, in registry order."""
    return tuple(get_benchmark(cls.name) for cls in BENCHMARK_CLASSES)


def benchmark_names() -> tuple[str, ...]:
    """Names of all benchmarks in registry order."""
    return tuple(cls.name for cls in BENCHMARK_CLASSES)


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark by name (instances are cached singletons)."""
    if name not in _INSTANCES:
        for cls in BENCHMARK_CLASSES:
            if cls.name == name:
                _INSTANCES[name] = cls()
                break
        else:
            raise KeyError(
                f"unknown benchmark {name!r}; known: {', '.join(benchmark_names())}"
            )
    return _INSTANCES[name]
