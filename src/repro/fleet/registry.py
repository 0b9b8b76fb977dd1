"""The model registry: train once per machine, deploy fleet-wide.

The paper's deployment story — an offline-generated model the runtime
loads later — scaled to a fleet: one directory per machine holding the
serialized model (:func:`repro.core.save_model`), the training
database (:meth:`TrainingDatabase.save`) and a spec fingerprint.

The fingerprint is what makes *warm starts* possible: when a machine
joins the fleet cold (no training campaign yet), the registry finds
the most spec-similar machine it has seen, relabels that machine's
training records to the new name and fits a model on them.  The
predictions are only as good as the donor's similarity — but the
serving layer's cold-key validation and online adaptation then refine
them from live traffic, which beats serving a brand-new machine from
nothing or blocking on a multi-hour sweep.

Layout::

    <root>/<machine>/model.json      serialized classifier
    <root>/<machine>/database.json   training database
    <root>/<machine>/meta.json       schema version + spec fingerprint
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

from ..core.database import TrainingDatabase
from ..core.pipeline import TrainedSystem
from ..core.predictor import (
    PartitioningPredictor,
    load_model,
    make_partitioning_model,
    save_model,
)
from ..energy.objectives import Objective, coerce_objective
from ..ocl.platform import Platform
from ..runtime.measurement import Runner

__all__ = ["ModelRegistry", "spec_fingerprint"]

_REGISTRY_SCHEMA_VERSION = 1

#: Per-device fingerprint dimensions (log-scaled where spans are wide).
_FINGERPRINT_FIELDS = ("kind", "peak_gflops", "mem_bandwidth_gbs", "pcie_bandwidth_gbs")


def spec_fingerprint(platform: Platform) -> list[float]:
    """A flat spec vector used to rank machine similarity.

    Per device: kind (CPU=0/GPU=1), log2 peak GFLOP/s, log2 memory
    bandwidth, PCIe bandwidth.  Log scaling keeps a 2x compute gap
    comparable to a 2x bandwidth gap; fleets with different device
    counts are compared by zero-padding (a missing device is maximally
    dissimilar to any real one).
    """
    vector: list[float] = []
    for spec in platform.device_specs:
        vector.extend(
            (
                0.0 if spec.kind.value == "cpu" else 1.0,
                math.log2(max(spec.peak_gflops, 1e-9)),
                math.log2(max(spec.mem_bandwidth_gbs, 1e-9)),
                spec.pcie_bandwidth_gbs,
            )
        )
    return vector


def _distance(a: list[float], b: list[float]) -> float:
    width = max(len(a), len(b))
    a = a + [0.0] * (width - len(a))
    b = b + [0.0] * (width - len(b))
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


class ModelRegistry:
    """Persists and restores per-machine trained systems."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _dir(self, machine: str) -> Path:
        return self.root / machine

    def machines(self) -> tuple[str, ...]:
        """Registered machine names, sorted for determinism."""
        if not self.root.is_dir():
            return ()
        return tuple(
            sorted(d.name for d in self.root.iterdir() if (d / "meta.json").is_file())
        )

    def has(self, machine: str) -> bool:
        return (self._dir(machine) / "meta.json").is_file()

    # -- persistence -------------------------------------------------------

    def save(self, system: TrainedSystem) -> Path:
        """Persist one machine's model + database; returns its directory."""
        machine = system.platform.name
        directory = self._dir(machine)
        directory.mkdir(parents=True, exist_ok=True)
        save_model(system.predictor.model, directory / "model.json")
        system.database.save(directory / "database.json")
        (directory / "meta.json").write_text(
            json.dumps(
                {
                    "schema_version": _REGISTRY_SCHEMA_VERSION,
                    "machine": machine,
                    "num_devices": system.platform.num_devices,
                    "fingerprint": spec_fingerprint(system.platform),
                    "records": len(system.database),
                },
                indent=1,
                sort_keys=True,
            )
        )
        return directory

    def _meta(self, machine: str) -> dict:
        meta = json.loads((self._dir(machine) / "meta.json").read_text())
        version = meta.get("schema_version")
        if version != _REGISTRY_SCHEMA_VERSION:
            raise ValueError(
                f"registry schema {version} != supported {_REGISTRY_SCHEMA_VERSION}"
            )
        return meta

    def load_snapshot(
        self,
        platform: Platform,
        objective: "Objective | str" = Objective.MAKESPAN,
    ) -> tuple[PartitioningPredictor, TrainingDatabase]:
        """The registered predictor + database, without a runner.

        The fleet re-warm path rolls a live replica's model and
        database back to this snapshot while keeping the replica's own
        (possibly drifted) runner — building a throwaway runner per
        re-warm would be waste.  The predictor serves ``objective``: a
        model saved for another objective is refit on the saved
        database, with the saved model's kind and seed.
        """
        if not self.has(platform.name):
            raise LookupError(
                f"machine {platform.name!r} is not registered under {self.root}"
            )
        self._meta(platform.name)  # schema check
        directory = self._dir(platform.name)
        model = load_model(directory / "model.json")
        database = TrainingDatabase.load(directory / "database.json")
        objective = coerce_objective(objective)
        if model.objective is not objective:
            model = make_partitioning_model(
                model.kind, seed=model.seed, objective=objective
            ).fit(database)
        return PartitioningPredictor(model, platform.name), database

    def load(
        self,
        platform: Platform,
        noise_sigma: float = 0.0,
        seed: int = 0,
        objective: "Objective | str" = Objective.MAKESPAN,
    ) -> TrainedSystem:
        """Rebuild a deployable system for a registered machine.

        The model serves ``objective``, as in :meth:`load_snapshot`.
        """
        predictor, database = self.load_snapshot(platform, objective)
        runner = Runner(platform, noise_sigma=noise_sigma, seed=seed + 1)
        return TrainedSystem(platform, predictor, database, runner)

    # -- warm starts -------------------------------------------------------

    def most_similar(self, platform: Platform) -> str | None:
        """The registered machine whose specs are closest to ``platform``.

        The platform's own entry is excluded (a warm start is for a
        machine the registry has *not* trained); ties break by name.
        """
        target = spec_fingerprint(platform)
        candidates = [m for m in self.machines() if m != platform.name]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda m: (_distance(target, self._meta(m)["fingerprint"]), m),
        )

    def warm_start(
        self,
        platform: Platform,
        model_kind: str = "knn",
        noise_sigma: float = 0.0,
        seed: int = 0,
        donor: str | None = None,
        objective: "Objective | str" = Objective.MAKESPAN,
    ) -> TrainedSystem:
        """Seed a cold machine from the most spec-similar registered one.

        The donor's training records are relabeled to the cold machine's
        name (features are machine-independent; the timings become a
        transferable prior) and a fresh model is fitted on them.  The
        returned system is immediately servable — online adaptation
        corrects the donor's biases from live traffic.  Callers that
        already ranked the registry (to report the choice) pass the
        ``donor`` explicitly and skip a second fingerprint scan.  The
        model trains on ``objective``, as in :func:`~repro.core.train_system`.
        """
        if donor is None:
            donor = self.most_similar(platform)
        elif not self.has(donor):
            raise LookupError(f"donor machine {donor!r} is not registered")
        if donor is None:
            raise LookupError(
                f"no registered machine to warm-start {platform.name!r} from"
            )
        donor_db = TrainingDatabase.load(self._dir(donor) / "database.json")
        database = TrainingDatabase(
            replace(r, machine=platform.name) for r in donor_db
        )
        model = make_partitioning_model(
            model_kind, seed=seed, objective=objective
        ).fit(database)
        predictor = PartitioningPredictor(model, platform.name)
        runner = Runner(platform, noise_sigma=noise_sigma, seed=seed + 1)
        return TrainedSystem(platform, predictor, database, runner)
