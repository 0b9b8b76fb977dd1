"""The energy meter: per-device timelines → joules.

The runtime scheduler and the sweep engine both produce per-device
timelines (which commands ran, for how long, at what dynamic watts —
:func:`~repro.runtime.plan.price_command` prices both from the devices'
cost and :class:`~repro.energy.power.DevicePowerModel` models); the
meter folds in idle power over the launch makespan — race-to-idle
accounting, where every device of the platform draws at least its idle
watts until the slowest one finishes.  This is what makes energy a
genuinely different objective from makespan: a partitioning that adds
a device may finish sooner yet cost more joules, because the extra
device's dynamic draw exceeds the idle time it saved everywhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ocl.device import Device

__all__ = ["EnergyMeter"]


class EnergyMeter:
    """Turns per-device dynamic joules and a makespan into launch joules."""

    def __init__(self, devices: Sequence["Device"]):
        self.devices = list(devices)

    def finalize(self, dynamic_j: Sequence[float], makespan_s: float) -> float:
        """Launch joules given per-device dynamic energy and the makespan.

        Every device — active in the launch or not — pays idle watts
        over the full makespan; its dynamic energy rides on top.  The
        sweep engine finalizes every composed point, so each device's
        idle watts are read once and no generator is built.
        """
        if len(dynamic_j) != len(self.devices):
            raise ValueError(
                f"got dynamic energy for {len(dynamic_j)} devices, "
                f"meter covers {len(self.devices)}"
            )
        idle_w = [device.power_model.idle_w for device in self.devices]
        return float(sum(dynamic_j)) + sum(idle_w) * makespan_s

    def platform_idle_w(self) -> float:
        """Floor on average power: every device's idle draw, summed."""
        return sum(d.power_model.idle_w for d in self.devices)
