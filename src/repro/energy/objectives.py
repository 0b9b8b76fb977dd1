"""Optimization objectives over (makespan, energy) measurements.

The paper's pipeline minimizes a single objective — makespan.  Energy
is the other first-order cost on heterogeneous systems (Saad et al.,
PAPERS.md): partition choice swings joules independently of seconds,
because adding a device to a launch trades idle watts on the critical
path for dynamic watts on the extra device.  This module names the
objectives the rest of the stack can optimize and provides the
scalarization + Pareto helpers every layer shares.

Objectives:

* ``MAKESPAN`` — seconds (the paper's objective).
* ``ENERGY`` — joules of the whole platform over the launch, idle
  power included (race-to-idle accounting: every device draws at least
  its idle power until the slowest one finishes).
* ``EDP`` — the energy-delay product, the classic single-number
  compromise (Horowitz): joules × seconds.
* ``ENERGY_CAPPED`` — makespan, restricted to choices whose *average
  power* (joules / seconds) stays under a cap; infeasible choices cost
  ``inf``.  This is the serve-under-a-power-budget regime.
"""

from __future__ import annotations

import enum
import math
from typing import Mapping

__all__ = [
    "Objective",
    "MODEL_OBJECTIVES",
    "coerce_objective",
    "training_objective",
    "objective_cost",
    "cap_feasible",
    "best_label",
    "pareto_front",
]


class Objective(enum.Enum):
    """What a partitioning choice is optimized for."""

    MAKESPAN = "makespan"
    ENERGY = "energy"
    EDP = "edp"
    ENERGY_CAPPED = "energy-capped-makespan"


#: Objectives a predictor can be trained on.  ``ENERGY_CAPPED`` is a
#: serve-time constraint (the cap is a deployment knob, not a property
#: of the training sweep), so models train on the unconstrained three.
MODEL_OBJECTIVES = (Objective.MAKESPAN, Objective.ENERGY, Objective.EDP)


def coerce_objective(value: "Objective | str") -> Objective:
    """Accept an :class:`Objective` or its string value (CLI plumbing)."""
    if isinstance(value, Objective):
        return value
    try:
        return Objective(value)
    except ValueError:
        names = ", ".join(o.value for o in Objective)
        raise ValueError(f"unknown objective {value!r}; choose from {names}") from None


def training_objective(objective: "Objective | str") -> Objective:
    """The objective a model serving under ``objective`` trains on.

    A :data:`MODEL_OBJECTIVES` member trains on itself; a serve-time
    constraint (``energy-capped-makespan``) trains on makespan and the
    cap is enforced per request by the service.
    """
    objective = coerce_objective(objective)
    return objective if objective in MODEL_OBJECTIVES else Objective.MAKESPAN


def cap_feasible(time_s: float, energy_j: float, power_cap_w: float) -> bool:
    """Whether one measurement's average power stays under a cap.

    The single source of truth for the feasibility predicate every
    layer applies (sweep labelling, the serve-time cap substitution,
    the local-search winner filter): zero-duration runs draw nothing
    and are always feasible.
    """
    return time_s <= 0 or energy_j / time_s <= power_cap_w


def objective_cost(
    objective: Objective,
    time_s: float,
    energy_j: float,
    power_cap_w: float | None = None,
) -> float:
    """Scalar cost of one measured (time, energy) under an objective.

    Lower is better for every objective.  ``ENERGY_CAPPED`` requires
    ``power_cap_w`` and prices cap violations at ``inf`` so any
    feasible choice beats every infeasible one.
    """
    if objective is Objective.MAKESPAN:
        return time_s
    if objective is Objective.ENERGY:
        return energy_j
    if objective is Objective.EDP:
        return time_s * energy_j
    if objective is Objective.ENERGY_CAPPED:
        if power_cap_w is None:
            raise ValueError("ENERGY_CAPPED needs a power_cap_w")
        if not cap_feasible(time_s, energy_j, power_cap_w):
            return math.inf
        return time_s
    raise ValueError(f"unhandled objective {objective!r}")  # pragma: no cover


def best_label(
    timings: Mapping[str, float],
    energies: Mapping[str, float],
    objective: Objective,
    power_cap_w: float | None = None,
) -> str:
    """The label minimizing an objective over one measured sweep.

    Labels missing from ``energies`` are skipped for energy-aware
    objectives (a partial online sweep may carry timings only).  With a
    ``power_cap_w`` every objective is additionally restricted to the
    cap-feasible labels; when *no* label is feasible the cap is waived
    (the trace must still be served) and the unconstrained best wins.
    Ties break lexicographically so the choice is deterministic.
    """
    if not timings:
        raise ValueError("empty timing sweep")
    needs_energy = objective is not Objective.MAKESPAN or power_cap_w is not None
    candidates = sorted(timings)
    if needs_energy:
        priced = [label for label in candidates if label in energies]
        if not priced:
            raise ValueError(
                f"objective {objective.value!r} needs energy measurements, "
                "but the sweep has none"
            )
        candidates = priced
    if power_cap_w is not None:
        feasible = [
            label
            for label in candidates
            if cap_feasible(timings[label], energies[label], power_cap_w)
        ]
        candidates = feasible or candidates
    return min(
        candidates,
        key=lambda label: (
            objective_cost(
                objective,
                timings[label],
                energies.get(label, math.nan),
                power_cap_w=power_cap_w,
            ),
            label,
        ),
    )


def pareto_front(
    timings: Mapping[str, float], energies: Mapping[str, float]
) -> tuple[str, ...]:
    """Non-dominated labels in the (makespan, energy) plane.

    A label is on the front when no other label is at least as good on
    both axes and strictly better on one.  Only labels present in both
    mappings participate.  Returned sorted by makespan (fast → frugal),
    ties broken by label for determinism.
    """
    labels = [label for label in timings if label in energies]
    front = []
    for label in labels:
        t, e = timings[label], energies[label]
        dominated = any(
            (timings[o] <= t and energies[o] <= e)
            and (timings[o] < t or energies[o] < e)
            for o in labels
            if o != label
        )
        if not dominated:
            front.append(label)
    return tuple(sorted(front, key=lambda label: (timings[label], label)))
