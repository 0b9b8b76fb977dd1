"""The 23-program benchmark suite (vendor / SHOC / Rodinia / PolyBench)."""

from .base import Benchmark, ProblemInstance, Suite
from .registry import (
    BENCHMARK_CLASSES,
    all_benchmarks,
    benchmark_names,
    get_benchmark,
)

__all__ = [
    "Benchmark",
    "ProblemInstance",
    "Suite",
    "BENCHMARK_CLASSES",
    "all_benchmarks",
    "benchmark_names",
    "get_benchmark",
]
