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

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..compiler.frontend import CompiledKernel
from ..compiler.splitter import DistributionKind, plan_chunks
from ..energy.meter import EnergyMeter
from ..inspire.ast import ParamIntent
from ..ocl.context import Context
from ..ocl.events import Event
from ..partitioning import Partitioning
from .arrays import buffer_layout
from .plan import command_duration_s, plan_device_commands

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
        unknown = set(self.refresh_buffers) - {
            p.name for p in self.compiled.kernel.buffer_params
        }
        if unknown:
            raise ValueError(f"refresh_buffers name unknown buffers: {sorted(unknown)}")
        param_buffers = {p.name for p in self.compiled.kernel.buffer_params}
        missing = param_buffers - set(self.arrays)
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
        device_energy_j: per-device joules (dynamic + that device's idle
            share over the makespan); empty when energy was not metered.
        energy_j: platform joules of the launch, idle power included.
        idle_j: the idle-power portion of :attr:`energy_j`.
        events: profiling events (scheduler path only).
    """

    partitioning: Partitioning
    makespan_s: float
    device_busy_s: tuple[float, ...]
    device_energy_j: tuple[float, ...] = ()
    energy_j: float = 0.0
    idle_j: float = 0.0
    events: tuple[Event, ...] = field(repr=False, default=())

    @property
    def active_device_count(self) -> int:
        return sum(1 for t in self.device_busy_s if t > 0)

    @property
    def device_idle_s(self) -> tuple[float, ...]:
        """Per-device idle seconds: makespan minus that device's busy time."""
        return tuple(self.makespan_s - t for t in self.device_busy_s)

    @property
    def device_spans(self) -> tuple[tuple[float, float], ...]:
        """Per-device (busy_s, idle_s) spans over the launch makespan.

        Energy accounting reads these (idle watts apply to the idle
        span), and utilization telemetry rolls them up standalone.
        """
        return tuple(
            (t, self.makespan_s - t) for t in self.device_busy_s
        )

    @property
    def average_power_w(self) -> float:
        """Platform draw averaged over the launch (0 for a zero span)."""
        return self.energy_j / self.makespan_s if self.makespan_s > 0 else 0.0


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
    context: Context,
    request: ExecutionRequest,
    partitioning: Partitioning,
    functional: bool = True,
) -> ExecutionResult:
    """Run a kernel split across the context's devices.

    With ``functional=False`` only the timing side runs — the training
    sweep measures dozens of partitionings per problem size and the
    functional result is partition-invariant, so recomputing it would
    only burn host time (the simulated clock is unaffected).
    """
    if partitioning.num_devices != context.num_devices:
        raise ValueError(
            f"partitioning has {partitioning.num_devices} shares but the "
            f"context has {context.num_devices} devices"
        )
    compiled = request.compiled
    kernel = compiled.kernel
    # Timing reads only the layout; the arrays are read (and drawn) by
    # the functional payload alone.
    layout = buffer_layout(request.arrays)
    buffer_sizes = {name: elements for name, (elements, _) in layout.items()}
    itemsizes = {name: itemsize for name, (_, itemsize) in layout.items()}
    chunks = plan_chunks(
        request.total_items,
        partitioning,
        compiled.distribution,
        buffer_sizes,
        request.granularity,
    )

    context.reset_timelines()
    scalar_args = {k: float(v) for k, v in request.scalars.items()}

    # Private copies for reduction-merged outputs, one per active device.
    reduced_names = [
        name
        for name in layout
        if compiled.distribution.of(name).kind is DistributionKind.REDUCED
        and kernel.param(name).intent is not ParamIntent.IN
    ]
    private_copies: dict[int, dict[str, np.ndarray]] = {}

    active_devices = sum(1 for c in chunks if not c.is_empty)
    all_events: list[Event] = []
    meter = EnergyMeter(context.devices)
    dynamic_j = [0.0] * context.num_devices
    for chunk in chunks:
        if chunk.is_empty:
            continue
        device = context.devices[chunk.device_index]
        queue = context.queue_for(device)

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
                private_copies[chunk.device_index] = copies
                device_arrays.update(copies)
            request.executor(
                device_arrays, request.scalars, chunk.item_offset, chunk.item_count
            )

        # Timing: replay the planned command sequence on the queue.
        # Energy rides on the same events: watts are noise-free model
        # outputs, the (possibly noise-perturbed) event duration sets
        # how long the device draws them.
        for cmd in plan_device_commands(
            request, chunk, active_devices > 1, buffer_sizes, itemsizes
        ):
            duration = command_duration_s(device, cmd, compiled.analysis, scalar_args)
            watts = meter.command_power_w(device, cmd, compiled.analysis, scalar_args)
            event = queue.enqueue_timed(cmd.kind, cmd.label, duration)
            dynamic_j[chunk.device_index] += watts * event.duration_s
            all_events.append(event)

    # 4. Merge reduction outputs into the host arrays.
    if functional and private_copies:
        for name in reduced_names:
            op = compiled.distribution.of(name).reduce_op
            merge = _REDUCE_MERGE[op]
            host = request.arrays[name]
            for copies in private_copies.values():
                merge(host, copies[name])

    busy = tuple(d.clock_s for d in context.devices)
    makespan = context.makespan_s()
    energy = meter.finalize(dynamic_j, makespan)
    return ExecutionResult(
        partitioning=partitioning,
        makespan_s=makespan,
        device_busy_s=busy,
        device_energy_j=energy.device_energy_j,
        energy_j=energy.total_j,
        idle_j=energy.idle_j,
        events=tuple(all_events),
    )
