"""The training database.

The paper's training phase stores, for every (program, problem size)
pair: the static features, the runtime features and the measured
execution time of *every* candidate partitioning.  This module provides
that store with JSON persistence and matrix extraction for the ML layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..energy.objectives import (
    Objective,
    best_label as objective_best_label,
    objective_cost,
)
from ..partitioning import Partitioning
from .features import FEATURE_SCHEMA_VERSION, feature_vector

__all__ = ["TrainingRecord", "TrainingDatabase"]


@dataclass(frozen=True)
class TrainingRecord:
    """All measurements for one (machine, program, problem size) triple.

    Attributes:
        machine: platform name (``mc1``/``mc2``).
        program: benchmark name.
        size: problem-size parameter.
        features: combined static + runtime feature dict.
        timings: partitioning label → measured seconds (the full sweep).
        best_label: label of the fastest partitioning (the oracle).
        energies: partitioning label → measured joules (idle power
            included).  Empty on legacy databases recorded before the
            energy subsystem; energy-aware objectives require it.
    """

    machine: str
    program: str
    size: int
    features: dict[str, float]
    timings: dict[str, float]
    best_label: str
    energies: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.best_label not in self.timings:
            raise ValueError(f"best label {self.best_label!r} not among timings")
        if not self.energies.keys() <= self.timings.keys():
            stray = sorted(set(self.energies) - set(self.timings))
            raise ValueError(f"energies name unswept partitionings: {stray}")

    @property
    def best_time(self) -> float:
        return self.timings[self.best_label]

    @property
    def best_partitioning(self) -> Partitioning:
        return Partitioning.from_label(self.best_label)

    def time_of(self, partitioning: Partitioning) -> float:
        """Measured time of one partitioning from the sweep."""
        return self.timings[partitioning.label]

    def best_label_for(
        self, objective: Objective, power_cap_w: float | None = None
    ) -> str:
        """The sweep's oracle label under an objective.

        ``MAKESPAN`` without a power cap is exactly :attr:`best_label`;
        every other combination argmins the objective's scalar cost
        over the sweep (see :func:`repro.energy.objectives.best_label`).
        """
        if objective is Objective.MAKESPAN and power_cap_w is None:
            return self.best_label
        return objective_best_label(
            self.timings, self.energies, objective, power_cap_w=power_cap_w
        )

    def best_cost_for(
        self, objective: Objective, power_cap_w: float | None = None
    ) -> float:
        """Scalar cost of the objective-best label in the sweep."""
        label = self.best_label_for(objective, power_cap_w=power_cap_w)
        return objective_cost(
            objective,
            self.timings[label],
            self.energies.get(label, 0.0),
            power_cap_w=power_cap_w,
        )

    @classmethod
    def from_timings(
        cls,
        machine: str,
        program: str,
        size: int,
        features: dict[str, float],
        timings: dict[str, float],
        energies: dict[str, float] | None = None,
    ) -> "TrainingRecord":
        """Build a record, deriving the oracle label from the sweep."""
        if not timings:
            raise ValueError("empty timing sweep")
        best = min(timings, key=lambda k: timings[k])
        return cls(
            machine,
            program,
            size,
            dict(features),
            dict(timings),
            best,
            dict(energies) if energies else {},
        )


class TrainingDatabase:
    """A collection of training records with matrix extraction."""

    def __init__(self, records: Iterable[TrainingRecord] = ()):
        self.records: list[TrainingRecord] = list(records)
        self._index: dict[tuple[str, str, int], int] = {}
        self._indexed_count = -1
        # Key -> the record merge_timings last stored for it.  Only
        # these are known to carry the label ``min`` picks over their
        # own sweep order, so only these may come back unchanged.  A
        # record from anywhere else is re-derived on its first merge: a
        # loaded JSON file stores its sweep in sorted label order, so
        # its tied best label need not be the one ``min`` picks.
        self._merged_records: dict[tuple[str, str, int], TrainingRecord] = {}

    def _key_index(self) -> dict[tuple[str, str, int], int]:
        """Key → first record position, rebuilt lazily after appends.

        The serving loop looks up and upserts keys on every request;
        a linear scan per lookup would make a replay O(requests ×
        records).  Direct appends to :attr:`records` are detected by
        the length check on the next lookup.
        """
        if self._indexed_count != len(self.records):
            self._index = {}
            for i, r in enumerate(self.records):
                self._index.setdefault((r.machine, r.program, r.size), i)
            self._indexed_count = len(self.records)
        return self._index

    def add(self, record: TrainingRecord) -> None:
        self.records.append(record)

    def record_for(
        self, machine: str, program: str, size: int
    ) -> TrainingRecord | None:
        """The record for one (machine, program, size) key, if present."""
        i = self._key_index().get((machine, program, size))
        return self.records[i] if i is not None else None

    def upsert(self, record: TrainingRecord) -> bool:
        """Insert a record, replacing any existing record with its key.

        Returns ``True`` when an existing record was replaced.  This is
        the serving layer's append path: online measurements refresh the
        key they observed instead of accumulating duplicates.
        """
        index = self._key_index()
        key = (record.machine, record.program, record.size)
        i = index.get(key)
        if i is not None:
            self.records[i] = record
            return True
        self.records.append(record)
        index[key] = len(self.records) - 1
        self._indexed_count = len(self.records)
        return False

    def merge_timings(
        self,
        machine: str,
        program: str,
        size: int,
        features: dict[str, float],
        timings: dict[str, float],
        energies: dict[str, float] | None = None,
    ) -> TrainingRecord:
        """Merge online measurements into the key's sweep (creating it).

        Unlike the offline trainer, an online run measures only a few
        partitionings per launch; merging grows the key's partial sweep
        over time and re-derives the oracle label from everything seen
        so far.  Energy measurements merge alongside the timings when
        provided.  Returns the key's record after the merge.

        When every measured value and the features equal the stored
        ones, the stored record itself comes back, at a cost that
        follows the labels measured.  Otherwise the record is
        re-derived by :meth:`TrainingRecord.from_timings` from the
        merged sweep.  A key whose record did not come from this method
        (added, upserted or loaded) is re-derived on its first merge.
        The caller's dicts are copied, never stored.
        """
        if not timings:
            raise ValueError("empty timing sweep")
        key = (machine, program, size)
        existing = self.record_for(machine, program, size)
        if (
            existing is not None
            and self._merged_records.get(key) is existing
            and timings.items() <= existing.timings.items()
            and (not energies or energies.items() <= existing.energies.items())
            and features == existing.features
        ):
            return existing
        merged = dict(existing.timings) if existing is not None else {}
        merged.update(timings)
        merged_energy = dict(existing.energies) if existing is not None else {}
        if energies:
            merged_energy.update(energies)
        record = TrainingRecord.from_timings(
            machine, program, size, features, merged, energies=merged_energy
        )
        self.upsert(record)
        self._merged_records[key] = record
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TrainingRecord]:
        return iter(self.records)

    # -- queries ---------------------------------------------------------

    def machines(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.machine for r in self.records))

    def programs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.program for r in self.records))

    def for_machine(self, machine: str) -> "TrainingDatabase":
        return TrainingDatabase(r for r in self.records if r.machine == machine)

    def excluding_program(self, program: str) -> "TrainingDatabase":
        """Leave-one-program-out training view."""
        return TrainingDatabase(r for r in self.records if r.program != program)

    def for_program(self, program: str) -> "TrainingDatabase":
        return TrainingDatabase(r for r in self.records if r.program == program)

    def consistent_sweeps(self) -> "TrainingDatabase":
        """The subset of records sharing the *widest* sweep label set.

        Online adaptation appends records with *partial* sweeps (only
        the locally searched partitionings); scorer-style models need
        every record to cover the same candidate set, so they refit on
        this view.  Width wins over count: the full training sweeps
        must keep the candidate space intact even once partial online
        records outnumber them (ties broken by record count).
        """
        by_sweep: dict[tuple[str, ...], list[TrainingRecord]] = {}
        for r in self.records:
            by_sweep.setdefault(tuple(sorted(r.timings)), []).append(r)
        if not by_sweep:
            return TrainingDatabase()
        _, best = max(by_sweep.items(), key=lambda kv: (len(kv[0]), len(kv[1])))
        return TrainingDatabase(best)

    def feature_names(self) -> tuple[str, ...]:
        """Canonical feature order (validated to be uniform)."""
        if not self.records:
            raise ValueError("empty database")
        names = tuple(sorted(self.records[0].features))
        for r in self.records:
            if tuple(sorted(r.features)) != names:
                raise ValueError(
                    f"inconsistent feature keys in record {r.program}@{r.size}"
                )
        return names

    def matrices(
        self,
        names: tuple[str, ...] | None = None,
        objective: Objective = Objective.MAKESPAN,
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """(X, y_labels, groups): features, oracle labels, program names.

        ``y_labels`` are partitioning *labels* (strings) — the encoder in
        the predictor maps them to class indices.  ``objective`` picks
        which oracle each record contributes: the makespan-fastest label
        (the paper's formulation) or the energy/EDP argmin of the same
        sweep — training a per-objective model costs no new
        measurements, only a different labelling.
        """
        if not self.records:
            raise ValueError("empty database")
        if names is None:
            names = self.feature_names()
        X = np.stack([feature_vector(r.features, names) for r in self.records])
        y = np.array([r.best_label_for(objective) for r in self.records])
        groups = [r.program for r in self.records]
        return X, y, groups

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the database as versioned JSON."""
        doc = {
            "schema_version": FEATURE_SCHEMA_VERSION,
            "records": [asdict(r) for r in self.records],
        }
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "TrainingDatabase":
        """Load a database saved by :meth:`save`.

        A document of the wrong shape raises a ``ValueError``; a bad
        record's message names its index and the field.
        """
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(
                f"the top level is a JSON {type(doc).__name__}, not an object"
            )
        version = doc.get("schema_version")
        if version != FEATURE_SCHEMA_VERSION:
            raise ValueError(
                f"database schema {version} != supported {FEATURE_SCHEMA_VERSION}"
            )
        records = doc.get("records")
        if not isinstance(records, list):
            raise ValueError("'records' must be a list")
        return cls([_record_from_json(i, r) for i, r in enumerate(records)])


#: The fields of a saved record and what each must hold.  ``energies``
#: is absent on databases saved before the energy subsystem.
_RECORD_FIELDS = {
    "machine": (str, "a string"),
    "program": (str, "a string"),
    "size": (int, "an integer"),
    "features": (dict, "an object of numbers"),
    "timings": (dict, "an object of numbers"),
    "best_label": (str, "a string"),
    "energies": (dict, "an object of numbers"),
}


def _record_from_json(index: int, raw: object) -> TrainingRecord:
    """One record of a saved database; a ``ValueError`` names the record
    index and the field that is missing or of the wrong type."""
    if not isinstance(raw, dict):
        raise ValueError(
            f"record {index} is a JSON {type(raw).__name__}, not an object"
        )
    fields = {}
    for name, (kind, want) in _RECORD_FIELDS.items():
        if name not in raw:
            if name == "energies":
                continue
            raise ValueError(f"record {index} has no field {name!r}")
        value = raw[name]
        if not isinstance(value, kind) or (
            kind is dict
            and not all(isinstance(v, (int, float)) for v in value.values())
        ):
            raise ValueError(f"record {index}: field {name!r} must be {want}")
        fields[name] = (
            {k: float(v) for k, v in value.items()} if kind is dict else value
        )
    try:
        return TrainingRecord(**fields)
    except ValueError as error:
        raise ValueError(f"record {index}: {error}") from None
