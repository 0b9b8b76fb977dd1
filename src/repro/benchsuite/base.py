"""Benchmark abstraction for the 23-program evaluation suite.

Each benchmark bundles everything the paper's pipeline needs from one
OpenCL program:

* the kernel (built in the IR DSL → static features, codegen),
* per-buffer distribution overrides where the automatic analysis is
  too conservative (Insieme's annotation escape hatch),
* a problem-size ladder and input generator: an instance declares
  each buffer's shape and dtype, and draws its data on first read
  (:class:`~repro.runtime.arrays.LazyArrays`), which only functional
  execution does,
* a NumPy *reference* (ground truth for the whole range), and
* a *device executor* — the vectorized implementation the simulated
  devices run over arbitrary sub-ranges ``[offset, offset + count)``.

Conventions:
  * 1-D kernels partition their single axis directly.
  * 2-D kernels always execute the full W×H rectangle, one work item
    per element; the scheduler's chunk granularity equals the row width
    so every device receives whole rows, which keeps proportional
    buffer slices exact.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..compiler.frontend import CompiledKernel, compile_back, compile_front
from ..compiler.splitter import BufferDistribution
from ..inspire import ast as ir
from ..runtime.scheduler import ExecutionRequest
from ..util.rng import rng_for

__all__ = ["Suite", "ProblemInstance", "Benchmark"]


class Suite(enum.Enum):
    """Origin suite, mirroring the paper's benchmark sources."""

    VENDOR = "vendor"
    SHOC = "shoc"
    RODINIA = "rodinia"
    POLYBENCH = "polybench"


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One concrete problem: arrays + scalars + range geometry.

    Instances compare and hash by identity: a field-wise comparison
    would compare their arrays, and so draw them first.

    Attributes:
        size: the nominal problem-size parameter from the ladder.
        arrays: host arrays keyed by buffer parameter name.  From
            :meth:`Benchmark.make_instance` they are a
            :class:`~repro.runtime.arrays.LazyArrays`: the layout is
            known up front and the data is drawn on the first value
            read (timing paths read only
            :func:`~repro.runtime.arrays.buffer_layout`).
        scalars: scalar kernel arguments.
        total_items: ND-range extent (work items along the partition axis).
        granularity: chunk alignment (work-group size / row width).
        output_names: buffer names carrying results (for verification).
        iterations: how many times the application launches this kernel
            per upload/download cycle (e.g. hotspot time steps, k-means
            refinement rounds).  Transfers happen once; iterating with
            more than one active device additionally pays per-iteration
            synchronization transfers (halos, refreshed broadcasts).
    """

    size: int
    arrays: Mapping[str, np.ndarray]
    scalars: Mapping[str, float | int]
    total_items: int
    granularity: int
    output_names: tuple[str, ...]
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def fresh_copy(self) -> "ProblemInstance":
        """Deep-copy the arrays (for independent runs of the same input).

        Reads every array, so a lazy instance draws here if it has not
        yet; the copy holds plain arrays.
        """
        return ProblemInstance(
            size=self.size,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            scalars=dict(self.scalars),
            total_items=self.total_items,
            granularity=self.granularity,
            output_names=self.output_names,
            iterations=self.iterations,
        )


class Benchmark(abc.ABC):
    """Base class of the 23 suite programs."""

    #: unique benchmark name (registry key)
    name: str = ""
    #: origin suite
    suite: Suite = Suite.VENDOR
    #: one-line description
    description: str = ""

    # -- kernel -----------------------------------------------------------

    @abc.abstractmethod
    def build_kernel(self) -> ir.Kernel:
        """Construct the single-device kernel IR."""

    def distribution_overrides(
        self, instance: ProblemInstance | None = None
    ) -> dict[str, BufferDistribution] | None:
        """Buffer distributions the automatic analysis cannot derive.

        May depend on the instance (stencil halos scale with the row
        width).  ``None`` means fully automatic.
        """
        return None

    def compiled(self, instance: ProblemInstance | None = None) -> CompiledKernel:
        """Compile the kernel (cached per distribution signature).

        The override-independent front runs once per benchmark; the
        back runs once per distribution signature, so every size of a
        program shares one optimized kernel and one analysis.
        """
        overrides = self.distribution_overrides(instance)
        key = None
        if overrides is not None:
            key = tuple(sorted((k, v) for k, v in overrides.items()))
        return self._compile_cached(key, overrides)

    def _compile_cached(
        self,
        key: object,
        overrides: dict[str, BufferDistribution] | None,
    ) -> CompiledKernel:
        cache = getattr(self, "_compile_cache", None)
        if cache is None:
            # The cache exists only once its front does: a kernel that
            # fails validation raises again on the next call.
            self._front = compile_front(self.build_kernel())
            cache = self._compile_cache = {}
        if key not in cache:
            cache[key] = compile_back(self._front, overrides)
        return cache[key]

    # -- problems -----------------------------------------------------------

    @abc.abstractmethod
    def problem_sizes(self) -> tuple[int, ...]:
        """The size ladder used for training and evaluation (ascending)."""

    @abc.abstractmethod
    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        """Declare one problem size's inputs (deterministic in seed).

        The arrays are a :class:`~repro.runtime.arrays.LazyArrays`:
        the buffers are declared here, and the inputs are drawn from
        :meth:`rng` on the first value read.
        """

    def rng(self, size: int, seed: int) -> np.random.Generator:
        """Derived RNG, unique per (benchmark, size, seed)."""
        return rng_for("bench", self.name, size, base_seed=seed)

    # -- semantics -----------------------------------------------------------

    @abc.abstractmethod
    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        """Ground-truth outputs for the full range (fresh arrays)."""

    @abc.abstractmethod
    def execute(
        self,
        arrays: dict[str, np.ndarray],
        scalars: Mapping[str, float | int],
        offset: int,
        count: int,
    ) -> None:
        """Vectorized device implementation for one sub-range.

        Must only write outputs attributable to work items in
        ``[offset, offset + count)`` (REDUCED buffers accumulate into
        the private array found in ``arrays``).
        """

    def iteration_refresh_buffers(self) -> tuple[str, ...]:
        """FULL-distributed inputs that must be re-broadcast per iteration.

        Iterative applications whose gathered inputs change every step
        (n-body positions, k-means centroids) pay this re-broadcast on
        every device each iteration when the work is partitioned.
        """
        return ()

    # -- glue -----------------------------------------------------------------

    def request(self, instance: ProblemInstance) -> ExecutionRequest:
        """Wrap an instance into a scheduler request."""
        return ExecutionRequest(
            compiled=self.compiled(instance),
            arrays=instance.arrays,
            scalars=instance.scalars,
            total_items=instance.total_items,
            executor=self.execute,
            granularity=instance.granularity,
            iterations=instance.iterations,
            refresh_buffers=self.iteration_refresh_buffers(),
        )

    def verify(
        self,
        instance: ProblemInstance,
        atol: float = 1e-4,
        rtol: float = 1e-4,
        expected: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Assert the instance's outputs match the reference.

        For benchmarks with INOUT buffers the caller must pass
        ``expected`` computed via :meth:`reference` *before* execution
        (execution overwrites the inputs the reference needs).
        """
        if expected is None:
            expected = self.reference(instance)
        for name in instance.output_names:
            got = instance.arrays[name]
            want = expected[name]
            if not np.allclose(got, want, atol=atol, rtol=rtol, equal_nan=True):
                bad = np.argwhere(
                    ~np.isclose(got, want, atol=atol, rtol=rtol, equal_nan=True)
                )
                raise AssertionError(
                    f"{self.name}: output {name!r} mismatches reference at "
                    f"{len(bad)} positions (first: {bad[:3].tolist()})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Benchmark {self.name} ({self.suite.value})>"
