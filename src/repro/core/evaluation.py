"""Leave-one-program-out evaluation (the paper's Figure 1 protocol).

For every benchmark, a model is trained on the other 22 programs'
records and asked to predict partitionings for the held-out program at
every problem size.  Because the training sweep already measured *all*
partitionings, the predicted/baseline/oracle times are simple lookups —
exactly how the paper's offline evaluation works.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ocl.costmodel import geometric_mean
from ..ocl.platform import Platform
from ..partitioning import Partitioning
from ..runtime.strategies import cpu_only, gpu_only
from .database import TrainingDatabase, TrainingRecord
from .predictor import make_partitioning_model

__all__ = [
    "SizeResult",
    "ProgramResult",
    "MachineEvaluation",
    "check_lopo",
    "evaluate_lopo",
]


@dataclass(frozen=True)
class SizeResult:
    """Timings for one (program, size) under every strategy."""

    size: int
    predicted: Partitioning
    oracle: Partitioning
    t_predicted_s: float
    t_oracle_s: float
    t_cpu_s: float
    t_gpu_s: float

    @property
    def speedup_vs_cpu(self) -> float:
        return self.t_cpu_s / self.t_predicted_s

    @property
    def speedup_vs_gpu(self) -> float:
        return self.t_gpu_s / self.t_predicted_s

    @property
    def oracle_efficiency(self) -> float:
        """Fraction of oracle performance achieved (1.0 = optimal)."""
        return self.t_oracle_s / self.t_predicted_s

    @property
    def exact_hit(self) -> bool:
        return self.predicted == self.oracle


@dataclass(frozen=True)
class ProgramResult:
    """Per-program aggregation over the problem-size ladder."""

    machine: str
    program: str
    sizes: tuple[SizeResult, ...]

    @property
    def speedup_vs_cpu(self) -> float:
        """Geometric-mean speedup over the CPU-only default."""
        return geometric_mean([s.speedup_vs_cpu for s in self.sizes])

    @property
    def speedup_vs_gpu(self) -> float:
        """Geometric-mean speedup over the GPU-only default."""
        return geometric_mean([s.speedup_vs_gpu for s in self.sizes])

    @property
    def oracle_efficiency(self) -> float:
        return geometric_mean([s.oracle_efficiency for s in self.sizes])

    @property
    def accuracy(self) -> float:
        """Fraction of sizes where the exact oracle label was predicted."""
        return sum(1 for s in self.sizes if s.exact_hit) / len(self.sizes)


@dataclass(frozen=True)
class MachineEvaluation:
    """Figure-1 data for one machine."""

    machine: str
    model_kind: str
    programs: tuple[ProgramResult, ...]

    @property
    def geomean_speedup_vs_cpu(self) -> float:
        return geometric_mean([p.speedup_vs_cpu for p in self.programs])

    @property
    def geomean_speedup_vs_gpu(self) -> float:
        return geometric_mean([p.speedup_vs_gpu for p in self.programs])

    @property
    def max_speedup_vs_cpu(self) -> float:
        return max(s.speedup_vs_cpu for p in self.programs for s in p.sizes)

    @property
    def max_speedup_vs_gpu(self) -> float:
        return max(s.speedup_vs_gpu for p in self.programs for s in p.sizes)

    @property
    def geomean_oracle_efficiency(self) -> float:
        return geometric_mean([p.oracle_efficiency for p in self.programs])

    @property
    def mean_accuracy(self) -> float:
        return sum(p.accuracy for p in self.programs) / len(self.programs)

    @property
    def wins_vs_both_defaults(self) -> int:
        """Programs where the prediction beats both single-device defaults."""
        return sum(
            1
            for p in self.programs
            if p.speedup_vs_cpu > 1.0 and p.speedup_vs_gpu > 1.0
        )


def _size_result(
    record: TrainingRecord,
    predicted: Partitioning,
    cpu_label: str,
    gpu_label: str,
) -> SizeResult:
    t_pred = record.timings.get(predicted.label)
    if t_pred is None:
        raise KeyError(
            f"partitioning {predicted.label} was not measured for "
            f"{record.program}@{record.size}"
        )
    return SizeResult(
        size=record.size,
        predicted=predicted,
        oracle=record.best_partitioning,
        t_predicted_s=t_pred,
        t_oracle_s=record.best_time,
        t_cpu_s=record.timings[cpu_label],
        t_gpu_s=record.timings[gpu_label],
    )


def check_lopo(platform: Platform, db: TrainingDatabase) -> None:
    """Raise a ``ValueError`` naming the machine unless its records
    ``db`` can be evaluated leave-one-program-out.

    They must cover two programs, so every fold trains on another one,
    and sweep the same points, the cpu-only and gpu-only baselines
    among them: every size is scored against those two runs and looked
    up at whatever partitioning the model predicts.
    """
    programs = db.programs()
    if len(programs) < 2:
        raise ValueError(
            f"machine {platform.name!r} has records for {len(programs)} "
            "program(s); leave-one-program-out needs at least 2"
        )
    baselines = (("cpu-only", cpu_only(platform)), ("gpu-only", gpu_only(platform)))
    first = db.records[0]
    for record in db:
        where = f"machine {platform.name!r}: record {record.program}@{record.size}"
        for kind, baseline in baselines:
            if baseline.label not in record.timings:
                raise ValueError(f"{where} lacks the {kind} point {baseline.label}")
        if record.timings.keys() != first.timings.keys():
            raise ValueError(
                f"{where} sweeps other points than {first.program}@{first.size}"
            )


def evaluate_lopo(
    platform: Platform,
    db: TrainingDatabase,
    model_kind: str = "mlp",
    seed: int = 0,
) -> MachineEvaluation:
    """Leave-one-program-out evaluation of one machine's database."""
    machine_db = db.for_machine(platform.name)
    if len(machine_db) == 0:
        raise ValueError(f"no records for machine {platform.name!r}")
    check_lopo(platform, machine_db)
    cpu_label = cpu_only(platform).label
    gpu_label = gpu_only(platform).label
    results: list[ProgramResult] = []
    for program in machine_db.programs():
        train_db = machine_db.excluding_program(program)
        test_db = machine_db.for_program(program)
        model = make_partitioning_model(model_kind, seed=seed).fit(train_db)
        predictions = model.predict_many(test_db)
        sizes = tuple(
            _size_result(rec, pred, cpu_label, gpu_label)
            for rec, pred in zip(test_db.records, predictions)
        )
        results.append(ProgramResult(platform.name, program, sizes))
    return MachineEvaluation(platform.name, model_kind, tuple(results))
