"""Simulated OpenCL substrate.

Replaces the real OpenCL stack of the paper's testbeds with functional
NumPy execution plus an analytic timing model (docs/ARCHITECTURE.md,
`ocl/`, argues the substitution).  A platform creates its devices; each
device is a cost model, a power model and an optional noise hook.  The
runtime plans, prices and replays each device's commands
(``runtime/plan.py``); no host-API objects stand in between.
"""

from .costmodel import (
    DeviceCostModel,
    DeviceKind,
    DeviceSpec,
    KernelCostBreakdown,
    TransferDirection,
    geometric_mean,
)
from .device import Device, NoiseModel
from .platform import Platform, make_lognormal_noise

__all__ = [
    "DeviceCostModel",
    "DeviceKind",
    "DeviceSpec",
    "KernelCostBreakdown",
    "TransferDirection",
    "geometric_mean",
    "Device",
    "NoiseModel",
    "Platform",
    "make_lognormal_noise",
]
