"""End-to-end convenience pipeline: train on a machine, deploy.

Binds the training phase (§2), the prediction model (§2.1) and the
runtime together: :func:`train_system` runs the offline phase, and the
:class:`TrainedSystem` it returns predicts and runs each launch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchsuite.base import Benchmark, ProblemInstance
from ..benchsuite.registry import all_benchmarks
from ..energy.objectives import Objective
from ..ocl.platform import Platform
from ..runtime.measurement import MeasuredRun, Runner
from ..partitioning import Partitioning
from .database import TrainingDatabase
from .predictor import PartitioningPredictor, make_partitioning_model
from .trainer import TrainingConfig, generate_training_data

__all__ = ["TrainedSystem", "train_system"]


@dataclass
class TrainedSystem:
    """A deployed instance of the framework on one machine."""

    platform: Platform
    predictor: PartitioningPredictor
    database: TrainingDatabase
    runner: Runner

    def predict(self, bench: Benchmark, instance: ProblemInstance) -> Partitioning:
        """Predicted best partitioning for a (program, size) launch."""
        return self.predictor.predict(bench, instance)

    def run(
        self,
        bench: Benchmark,
        instance: ProblemInstance,
        repetitions: int = 1,
    ) -> tuple[Partitioning, MeasuredRun]:
        """Predict, then execute with the predicted partitioning."""
        p = self.predict(bench, instance)
        run = self.runner.run(bench.request(instance), p, repetitions=repetitions)
        return p, run


def train_system(
    platform: Platform,
    benchmarks: tuple[Benchmark, ...] | None = None,
    model_kind: str = "mlp",
    config: TrainingConfig = TrainingConfig(),
    exclude_program: str | None = None,
    objective: "Objective | str" = Objective.MAKESPAN,
) -> TrainedSystem:
    """Run the full offline phase and return a deployable system.

    ``exclude_program`` supports the paper's evaluation protocol: train
    on every benchmark except the one you intend to deploy on.
    ``objective`` selects what the model optimizes (makespan, energy or
    EDP) — the campaign measures both axes either way, so switching
    objectives relabels the same sweeps rather than re-measuring.
    """
    if benchmarks is None:
        benchmarks = all_benchmarks()
    if exclude_program is not None:
        benchmarks = tuple(b for b in benchmarks if b.name != exclude_program)
        if not benchmarks:
            raise ValueError("excluding the only benchmark leaves nothing to train on")
    db = generate_training_data(platform, benchmarks, config)
    model = make_partitioning_model(
        model_kind, seed=config.seed, objective=objective
    ).fit(db)
    predictor = PartitioningPredictor(model, platform.name)
    runner = Runner(platform, noise_sigma=config.noise_sigma, seed=config.seed + 1)
    return TrainedSystem(platform, predictor, db, runner)
