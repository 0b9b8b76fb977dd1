"""Platform discovery: the simulated analogue of ``clGetPlatformIDs``.

A :class:`Platform` bundles the device specs of one target machine
(e.g. the paper's mc1 / mc2) and instantiates fresh :class:`Device`
objects — optionally with a measurement-noise model — for each run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.rng import rng_for
from .costmodel import DeviceKind, DeviceSpec
from .device import Device, NoiseModel

__all__ = ["Platform", "make_lognormal_noise"]


def make_lognormal_noise(sigma: float, seed: int) -> NoiseModel:
    """Multiplicative lognormal jitter, deterministic per (seed, label).

    Real measurements vary run to run; the trainer takes medians over
    repetitions exactly like the paper's measurement phase.  The noise
    stream is derived from the label so repeated measurements of the
    same command differ while whole experiments stay reproducible.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    counter = {"n": 0}

    def noise(duration_s: float, label: str) -> float:
        if duration_s == 0.0 or sigma == 0.0:
            return duration_s
        counter["n"] += 1
        rng = rng_for("noise", label, counter["n"], base_seed=seed)
        return float(duration_s * rng.lognormal(mean=0.0, sigma=sigma))

    return noise


@dataclass(frozen=True)
class Platform:
    """A named heterogeneous machine: an ordered list of device specs.

    Device order is significant: partitioning vectors index devices in
    this order (CPU first, then GPUs, matching the paper's machines).
    """

    name: str
    device_specs: tuple[DeviceSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.device_specs:
            raise ValueError("platform must have at least one device")

    @property
    def num_devices(self) -> int:
        return len(self.device_specs)

    @property
    def cpu_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, s in enumerate(self.device_specs) if s.kind is DeviceKind.CPU
        )

    @property
    def gpu_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, s in enumerate(self.device_specs) if s.kind is DeviceKind.GPU
        )

    def create_devices(self, noise: NoiseModel | None = None) -> list[Device]:
        """Instantiate fresh Device objects, one per spec."""
        return [Device(spec, noise) for spec in self.device_specs]
