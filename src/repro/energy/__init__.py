"""The energy subsystem: power models, metering and multi-objective search.

The paper optimizes makespan; this package opens the energy axis the
same learned machinery applies to (Saad et al.; HeSP's pluggable-
objective argument).  Three pieces:

* :mod:`repro.energy.power` — per-device power models derived from the
  same :class:`~repro.ocl.costmodel.DeviceSpec` the timing side reads
  (idle/static watts, per-phase dynamic watts, PCIe transfer power,
  DVFS-cube scaling compatible with runtime drift).
* :mod:`repro.energy.meter` — the :class:`EnergyMeter` that converts
  scheduler/engine timelines into per-run joules with race-to-idle
  accounting (idle watts over the makespan on every device).
* :mod:`repro.energy.objectives` — the :class:`Objective` vocabulary
  (makespan / energy / EDP / energy-capped-makespan), scalarization,
  per-objective sweep argmins and the (time, energy) Pareto front.

Everything downstream — training records, predictors, the serving
loop, fleet routing, the CLI — consumes these three modules rather
than reinventing watts.
"""

from .meter import EnergyMeter
from .objectives import (
    MODEL_OBJECTIVES,
    Objective,
    best_label,
    coerce_objective,
    objective_cost,
    pareto_front,
    training_objective,
)
from .power import DVFS_EXPONENT, DevicePowerModel, PowerSpec

__all__ = [
    "EnergyMeter",
    "MODEL_OBJECTIVES",
    "Objective",
    "best_label",
    "coerce_objective",
    "objective_cost",
    "pareto_front",
    "training_objective",
    "DVFS_EXPONENT",
    "DevicePowerModel",
    "PowerSpec",
]
