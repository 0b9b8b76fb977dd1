"""Profiling events, mirroring ``cl_event`` timing queries.

Every enqueued command yields an :class:`Event` carrying its simulated
start/end timestamps on the owning device's timeline.  The runtime's
measurement layer aggregates these to a launch makespan, always
*including* transfer events — the paper is explicit (citing Gregg &
Hazelwood) that CPU/GPU comparisons are meaningless without them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["CommandKind", "Event"]


class CommandKind(enum.Enum):
    """The kind of command an event profiles."""

    WRITE_BUFFER = "write_buffer"
    READ_BUFFER = "read_buffer"
    NDRANGE_KERNEL = "ndrange_kernel"


@dataclass(frozen=True)
class Event:
    """A completed simulated command with profiling info."""

    kind: CommandKind
    label: str
    device_name: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError("event ends before it starts")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s
