"""The training phase: exhaustive measurement → training database.

Mirrors §2 of the paper: every training program is compiled, its
features extracted, and the generated multi-device program executed with
various problem sizes under *all* candidate task partitionings; the
measurements land in the database from which the model is trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..benchsuite.base import Benchmark, ProblemInstance
from ..engine import SweepEngine
from ..ocl.platform import Platform
from ..partitioning import Partitioning, partition_space
from ..runtime.measurement import Runner
from .database import TrainingDatabase, TrainingRecord
from .features import combined_features

__all__ = [
    "TrainingConfig",
    "sweep_partitionings",
    "sweep_measurements",
    "build_record",
    "generate_training_data",
]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of a training campaign.

    Attributes:
        step_percent: partition-space discretization (paper: 10%).
        repetitions: measurements per partitioning (median taken), >= 1.
        noise_sigma: lognormal measurement noise (0 = deterministic),
            >= 0 and finite.
        seed: base seed for inputs and noise streams.
        max_sizes: cap on ladder sizes per benchmark, >= 1 (None = all).
        functional_check: execute + verify the first partitioning of
            each sweep functionally (catches semantic regressions during
            long campaigns at modest cost).
    """

    step_percent: int = 10
    repetitions: int = 3
    noise_sigma: float = 0.0
    seed: int = 0
    max_sizes: int | None = None
    functional_check: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}"
            )
        if self.max_sizes is not None and self.max_sizes < 1:
            raise ValueError(f"max_sizes must be >= 1 or None, got {self.max_sizes}")


def sweep_partitionings(
    runner: Runner,
    bench: Benchmark,
    instance: ProblemInstance,
    space: Sequence[Partitioning],
    repetitions: int = 1,
    engine: SweepEngine | None = None,
) -> dict[str, float]:
    """Measure every partitioning; returns label → median seconds.

    Sweeps run through a memoizing :class:`SweepEngine`: across the
    grid the per-device chunks repeat heavily, so each unique chunk is
    simulated once and every further point is composed from cached
    timelines.  The engine's caches are keyed per request object, so
    reuse happens *within* one sweep (and across repeated measurements
    of the same request, as in serving) — a fresh ``bench.request``
    per record shares nothing, which is why the campaign loop resets
    its engine between records instead of accumulating pinned arrays.
    """
    timings, _energies = sweep_measurements(
        runner, bench, instance, space, repetitions=repetitions, engine=engine
    )
    return timings


def sweep_measurements(
    runner: Runner,
    bench: Benchmark,
    instance: ProblemInstance,
    space: Sequence[Partitioning],
    repetitions: int = 1,
    engine: SweepEngine | None = None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Measure every partitioning; returns (label → seconds, label → joules).

    The energy-aware sibling of :func:`sweep_partitionings` — one
    composed measurement prices both axes, so recording energy costs
    the campaign nothing extra.
    """
    if engine is None:
        engine = SweepEngine(runner)
    request = bench.request(instance)
    return engine.sweep_with_energy(request, space, repetitions=repetitions)


def build_record(
    runner: Runner,
    bench: Benchmark,
    instance: ProblemInstance,
    space: Sequence[Partitioning],
    config: TrainingConfig,
    engine: SweepEngine | None = None,
) -> TrainingRecord:
    """One training pattern: features + full partitioning sweep."""
    compiled = bench.compiled(instance)
    features = combined_features(compiled, instance)
    if config.functional_check:
        check = instance.fresh_copy()
        expected = bench.reference(check)
        runner.run(bench.request(check), space[0], functional=True)
        bench.verify(check, atol=1e-2, rtol=1e-2, expected=expected)
    timings, energies = sweep_measurements(
        runner, bench, instance, space, repetitions=config.repetitions, engine=engine
    )
    return TrainingRecord.from_timings(
        machine=runner.platform.name,
        program=bench.name,
        size=instance.size,
        features=features,
        timings=timings,
        energies=energies,
    )


def generate_training_data(
    platform: Platform,
    benchmarks: Iterable[Benchmark],
    config: TrainingConfig = TrainingConfig(),
    progress: Callable[[str], None] | None = None,
) -> TrainingDatabase:
    """Run the full training campaign for one machine.

    For each benchmark and each problem size on its ladder, measures all
    partitionings of the configured space and stores one record.
    """
    runner = Runner(platform, noise_sigma=config.noise_sigma, seed=config.seed)
    engine = SweepEngine(runner)
    space = partition_space(platform.num_devices, config.step_percent)
    db = TrainingDatabase()
    for bench in benchmarks:
        sizes = bench.problem_sizes()
        if config.max_sizes is not None:
            sizes = sizes[: config.max_sizes]
        for size in sizes:
            instance = bench.make_instance(size, seed=config.seed)
            record = build_record(runner, bench, instance, space, config, engine=engine)
            # Tapes are request-scoped; dropping them between records
            # keeps campaign memory flat without losing any cache hits.
            engine.reset()
            db.add(record)
            if progress is not None:
                progress(
                    f"[{platform.name}] {bench.name}@{size}: "
                    f"best={record.best_label} ({record.best_time * 1e3:.3f} ms)"
                )
    return db
