"""The multi-device runtime scheduler.

Given a compiled kernel, host buffers and a :class:`Partitioning`, the
scheduler plays the role of the paper's Insieme runtime system: it
computes each device's chunk, enqueues the host→device transfers the
chunk needs, launches the kernel sub-range, reads results back and
merges reduction outputs.  The simulated wall-clock of the whole launch
is the maximum over the per-device timelines — transfers included, per
the paper's measurement methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..compiler.frontend import CompiledKernel
from ..compiler.splitter import DistributionKind
from ..energy.meter import EnergyMeter
from ..inspire.ast import ParamIntent
from ..ocl.device import Device
from ..partitioning import Partitioning, split_items
from .plan import CommandTemplate, plan_device_commands, price_command, replay

__all__ = ["ExecutorFn", "ExecutionRequest", "ExecutionResult", "execute_partitioned"]

#: Functional payload: (arrays, scalars, item_offset, item_count) -> None.
#: Must write only outputs derivable from work items in
#: [item_offset, item_offset + item_count).
ExecutorFn = Callable[
    [dict[str, np.ndarray], Mapping[str, float | int], int, int], None
]


@dataclass(frozen=True)
class ExecutionRequest:
    """Everything needed to run one kernel on one problem instance.

    Attributes:
        compiled: the compiled kernel (analysis + distributions).
        arrays: host arrays keyed by buffer parameter name.
        scalars: scalar kernel arguments keyed by parameter name.
        total_items: ND-range extent along the partition axis.
        executor: vectorized functional implementation.
        granularity: work-group size; chunks align to it.
        iterations: kernel launches per transfer cycle (time steps,
            refinement rounds); functional execution runs once.
        refresh_buffers: FULL-distributed inputs re-broadcast to every
            active device on each iteration after the first, when two or
            more devices are active (multi-device synchronization cost).
            Only an IN or INOUT buffer can be re-broadcast.
    """

    compiled: CompiledKernel
    arrays: Mapping[str, np.ndarray]
    scalars: Mapping[str, float | int]
    total_items: int
    executor: ExecutorFn
    granularity: int = 16
    iterations: int = 1
    refresh_buffers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.total_items <= 0:
            raise ValueError("total_items must be positive")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        intents = {p.name: p.intent for p in self.compiled.kernel.buffer_params}
        unknown = set(self.refresh_buffers) - intents.keys()
        if unknown:
            raise ValueError(f"refresh_buffers name unknown buffers: {sorted(unknown)}")
        for name in self.refresh_buffers:
            if intents[name] is ParamIntent.OUT:
                raise ValueError(
                    f"refresh_buffers names {name!r}, an OUT buffer: only IN "
                    "and INOUT buffers are re-broadcast between iterations"
                )
        missing = intents.keys() - set(self.arrays)
        if missing:
            raise ValueError(f"missing arrays for buffers: {sorted(missing)}")
        param_scalars = {p.name for p in self.compiled.kernel.scalar_params}
        missing_s = param_scalars - set(self.scalars)
        if missing_s:
            raise ValueError(f"missing scalar args: {sorted(missing_s)}")


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one partitioned execution.

    Attributes:
        partitioning: the split that ran.
        makespan_s: wall-clock of the slowest device, transfers included.
        device_busy_s: per-device active seconds.
        energy_j: platform joules of the launch, idle power included.
    """

    partitioning: Partitioning
    makespan_s: float
    device_busy_s: tuple[float, ...]
    energy_j: float = 0.0


_REDUCE_IDENTITY = {
    "sum": lambda dtype: np.zeros(1, dtype=dtype)[0],
    "min": lambda dtype: np.array(
        np.inf if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).max,
        dtype=dtype,
    )[()],
    "max": lambda dtype: np.array(
        -np.inf if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).min,
        dtype=dtype,
    )[()],
}

_REDUCE_MERGE = {
    "sum": lambda host, private: np.add(host, private, out=host),
    "min": lambda host, private: np.minimum(host, private, out=host),
    "max": lambda host, private: np.maximum(host, private, out=host),
}


def execute_partitioned(
    devices: Sequence[Device],
    request: ExecutionRequest,
    partitioning: Partitioning,
    functional: bool = True,
) -> ExecutionResult:
    """Run a kernel split across ``devices``.

    With ``functional=False`` only the timing side runs — the training
    sweep measures dozens of partitionings per problem size and the
    functional result is partition-invariant, so recomputing it would
    only burn host time (the simulated clock is unaffected).
    """
    if partitioning.num_devices != len(devices):
        raise ValueError(
            f"partitioning has {partitioning.num_devices} shares but the "
            f"platform has {len(devices)} devices"
        )
    compiled = request.compiled
    kernel = compiled.kernel
    # Timing reads only the layout; the arrays are read (and drawn) by
    # the functional payload alone.
    template = CommandTemplate.of(request)
    ranges = split_items(request.total_items, partitioning, request.granularity)
    active = [(i, offset, count) for i, (offset, count) in enumerate(ranges) if count]
    multi = len(active) > 1
    scalar_args = {k: float(v) for k, v in request.scalars.items()}

    # Private copies for reduction-merged outputs, one per active device.
    reduced_names = [
        p.name
        for p in kernel.buffer_params
        if compiled.distribution.of(p.name).kind is DistributionKind.REDUCED
        and p.intent is not ParamIntent.IN
    ]
    private_copies: dict[int, dict[str, np.ndarray]] = {}

    busy = [0.0] * len(devices)
    dynamic_j = [0.0] * len(devices)
    for device_index, offset, count in active:
        device = devices[device_index]

        # Functional payload: compute this sub-range's outputs once,
        # independent of the (iterated) timing commands below.
        if functional:
            device_arrays = dict(request.arrays)
            if reduced_names:
                copies: dict[str, np.ndarray] = {}
                for name in reduced_names:
                    host = request.arrays[name]
                    op = compiled.distribution.of(name).reduce_op
                    identity = _REDUCE_IDENTITY[op](host.dtype)
                    copies[name] = np.full_like(host, identity)
                private_copies[device_index] = copies
                device_arrays.update(copies)
            request.executor(device_arrays, request.scalars, offset, count)

        # Timing: price every command of the planned timeline, then
        # replay it on the device, where its noise stretches each one.
        head, sync, tail = plan_device_commands(
            template, count, multi, *template.counts(offset, count)
        )
        commands = [
            (cmd[0], *price_command(device, cmd, compiled.analysis, scalar_args))
            for cmd in head + sync * (request.iterations - 1) + tail
        ]
        busy[device_index], dynamic_j[device_index] = replay(commands, device.noise)

    # 4. Merge reduction outputs into the host arrays.
    if functional and private_copies:
        for name in reduced_names:
            op = compiled.distribution.of(name).reduce_op
            merge = _REDUCE_MERGE[op]
            host = request.arrays[name]
            for copies in private_copies.values():
                merge(host, copies[name])

    makespan = max(busy)
    return ExecutionResult(
        partitioning=partitioning,
        makespan_s=makespan,
        device_busy_s=tuple(busy),
        energy_j=EnergyMeter(devices).finalize(dynamic_j, makespan),
    )
