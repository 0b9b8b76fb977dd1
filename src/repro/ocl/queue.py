"""In-order command queues, mirroring ``cl_command_queue``.

A queue serializes commands on its device's timeline and returns
profiling :class:`~repro.ocl.events.Event` objects.  The runtime plans
and prices each device's commands (``runtime/plan.py``) and replays
them here, so the queue only advances the timeline.
"""

from __future__ import annotations

from .device import Device
from .events import CommandKind, Event

__all__ = ["CommandQueue"]


class CommandQueue:
    """An in-order queue bound to one device."""

    def __init__(self, device: Device):
        self.device = device

    def enqueue_timed(self, kind: CommandKind, label: str, duration_s: float) -> Event:
        """Enqueue a pre-priced command (the planner's replay path).

        The duration must be the *noise-free* modeled time; the device's
        noise model is applied here, as the device occupies its timeline.
        """
        start, end = self.device.occupy(duration_s, label)
        return Event(kind, label, self.device.name, start, end)
