"""A simulated OpenCL device: a cost model, a power model and a noise hook.

The device keeps no clock.  The runtime replays each device's commands
on a timeline of its own (:func:`~repro.runtime.plan.replay`) and takes
the maximum of the devices' busy seconds — the same makespan a real
host program observes after ``clFinish`` on every queue.
"""

from __future__ import annotations

from typing import Callable

from .costmodel import DeviceCostModel, DeviceKind, DeviceSpec

__all__ = ["Device", "NoiseModel"]

#: Optional measurement-noise hook: (duration_s, label) -> perturbed duration.
NoiseModel = Callable[[float, str], float]


class Device:
    """One simulated OpenCL device.

    Attributes:
        spec: the performance description.
        cost_model: analytic timing model derived from the spec.
    """

    def __init__(self, spec: DeviceSpec, noise: NoiseModel | None = None):
        self.spec = spec
        self.cost_model = DeviceCostModel(spec)
        self.noise = noise
        self.throughput_scale = 1.0
        self.drift_generation = 0
        self._power_model = None

    @property
    def power_model(self):
        """Lazily-built power model (see :mod:`repro.energy.power`).

        Rebuilt after drift: the drifted spec carries the linear clock
        component and ``throughput_scale`` feeds the DVFS voltage term.
        Imported lazily so :mod:`repro.ocl` stays importable without
        the energy package initialized (no import cycle).
        """
        if self._power_model is None:
            from ..energy.power import DevicePowerModel

            self._power_model = DevicePowerModel(
                self.spec, dvfs_scale=self.throughput_scale
            )
        return self._power_model

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> DeviceKind:
        return self.spec.kind

    def apply_drift(self, scale: float) -> None:
        """Rescale this device's effective throughput mid-campaign.

        Models runtime platform drift — thermal throttling, co-tenant
        contention, a frequency-bin change — by rescaling the spec's
        clock and memory bandwidth by ``scale`` (< 1 slows the device
        down, > 1 speeds it up) and rebuilding the cost model.  Scales
        compose multiplicatively across calls; :attr:`drift_generation`
        increments so duration caches layered above (the sweep engine)
        can detect that their cached timings went stale.
        """
        if not scale > 0:
            raise ValueError("drift scale must be positive")
        self.spec = self.spec.scaled(scale, scale)
        self.cost_model = DeviceCostModel(self.spec)
        self.throughput_scale *= scale
        self.drift_generation += 1
        # Watts drift with the clock (DVFS cube law); rebuild lazily.
        self._power_model = None
