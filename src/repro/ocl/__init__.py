"""Simulated OpenCL substrate.

Replaces the real OpenCL stack of the paper's testbeds with functional
NumPy execution plus an analytic timing model (see DESIGN.md §2 for the
substitution argument).  The public surface mirrors the OpenCL host API
shape: platforms → devices → context → queues → events.  The runtime
replays planned, pre-priced commands on the queues.
"""

from .context import Context
from .costmodel import (
    DeviceCostModel,
    DeviceKind,
    DeviceSpec,
    KernelCostBreakdown,
    TransferDirection,
    geometric_mean,
)
from .device import Device, NoiseModel
from .events import CommandKind, Event
from .platform import Platform, make_lognormal_noise
from .queue import CommandQueue

__all__ = [
    "Context",
    "DeviceCostModel",
    "DeviceKind",
    "DeviceSpec",
    "KernelCostBreakdown",
    "TransferDirection",
    "geometric_mean",
    "Device",
    "NoiseModel",
    "CommandKind",
    "Event",
    "Platform",
    "make_lognormal_noise",
    "CommandQueue",
]
