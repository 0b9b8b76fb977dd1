"""Contexts tie devices and queues together (``cl_context``)."""

from __future__ import annotations

from .device import Device
from .queue import CommandQueue

__all__ = ["Context"]


class Context:
    """A simulated OpenCL context over a set of devices.

    The context is the unit the multi-device runtime works with: it owns
    one command queue per device.
    """

    def __init__(self, devices: list[Device]):
        if not devices:
            raise ValueError("a context needs at least one device")
        self.devices = list(devices)
        self.queues = [CommandQueue(d) for d in devices]

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def queue_for(self, device: Device) -> CommandQueue:
        """The queue bound to ``device``."""
        for q in self.queues:
            if q.device is device:
                return q
        raise KeyError(f"device {device.name!r} not in this context")

    def reset_timelines(self) -> None:
        """Rewind all device clocks."""
        for d in self.devices:
            d.reset_clock()

    def makespan_s(self) -> float:
        """Wall-clock of the slowest device since the last reset."""
        return max(d.clock_s for d in self.devices)
