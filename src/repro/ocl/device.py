"""A simulated OpenCL device with its own timeline.

Each device advances a private clock as commands execute on it; the
multi-device runtime launches work on several devices "concurrently" by
enqueueing on each and taking the maximum of their completion times —
the same makespan a real host program observes after ``clFinish`` on
every queue.
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
        index: device index within its platform (stable identifier).
        spec: the performance description.
        cost_model: analytic timing model derived from the spec.
    """

    def __init__(self, index: int, spec: DeviceSpec, noise: NoiseModel | None = None):
        self.index = index
        self.spec = spec
        self.cost_model = DeviceCostModel(spec)
        self.noise = noise
        self._clock_s = 0.0
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

    @property
    def clock_s(self) -> float:
        """Current position of this device's timeline."""
        return self._clock_s

    def reset_clock(self, to_s: float = 0.0) -> None:
        """Rewind the timeline (between independent measurements)."""
        self._clock_s = to_s

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

    def occupy(self, duration_s: float, label: str) -> tuple[float, float]:
        """Advance the timeline by ``duration_s``; returns (start, end).

        The optional noise model perturbs the duration, emulating real
        measurement jitter; it must never produce a negative time.
        """
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if self.noise is not None:
            duration_s = self.noise(duration_s, label)
            if duration_s < 0:
                raise ValueError("noise model produced a negative duration")
        start = self._clock_s
        self._clock_s = start + duration_s
        return start, self._clock_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.index}, {self.spec.name!r})"
