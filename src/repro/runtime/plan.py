"""Per-device command planning and replay: the timeline of one execution.

:func:`plan_device_commands` turns (request, chunk) into the exact
sequence of transfer/kernel commands the device would enqueue,
:func:`price_command` prices one command on one device: its noise-free
seconds and its average dynamic watts, from one cost-model call, and
:func:`replay` runs one device's priced commands back to back: its busy
seconds and dynamic joules, the device's noise drawn per command.

Both timing paths run on these three functions: the scheduler plans,
prices and replays every active chunk, and the :mod:`repro.engine`
sweep engine caches each chunk's priced commands per (request, device,
chunk shape) and replays the cached tape — the training sweep's 66
points repeat the same per-device chunks heavily.  Transfers count in
every timeline: the paper (citing Gregg & Hazelwood) holds that CPU/GPU
comparisons mean nothing without them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..compiler.splitter import BufferDistribution, DeviceChunk, DistributionKind
from ..inspire.analysis import KernelAnalysis
from ..inspire.ast import ParamIntent
from ..ocl.costmodel import TransferDirection
from ..ocl.device import Device, NoiseModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import ExecutionRequest

__all__ = [
    "CommandKind",
    "PlannedCommand",
    "plan_device_commands",
    "price_command",
    "readback_count",
    "replay",
]


class CommandKind(enum.Enum):
    """What a planned command does on its device."""

    WRITE_BUFFER = "write_buffer"
    READ_BUFFER = "read_buffer"
    NDRANGE_KERNEL = "ndrange_kernel"


@dataclass(frozen=True)
class PlannedCommand:
    """One device command with its timing inputs (no duration yet).

    Attributes:
        kind: transfer direction or kernel launch.
        label: command label (doubles as the noise-stream key).
        nbytes: payload size for transfers.
        items: work items for kernel launches.
    """

    kind: CommandKind
    label: str
    nbytes: int = 0
    items: int = 0


def readback_count(
    dist: BufferDistribution,
    buffer_elems: int,
    item_offset: int,
    item_count: int,
) -> int:
    """Elements of one output a device reads back after its launches.

    REDUCED and FULL outputs come back whole; a SPLIT or HALO output
    returns the elements its items own, halo excluded, clipped to the
    buffer.
    """
    if dist.kind is DistributionKind.REDUCED or dist.kind is DistributionKind.FULL:
        return buffer_elems
    epi = dist.elements_per_item
    start = int(item_offset * epi)
    stop = min(buffer_elems, int((item_offset + item_count) * epi))
    return max(0, stop - start)


def plan_device_commands(
    request: "ExecutionRequest",
    chunk: DeviceChunk,
    multi_device: bool,
    buffer_sizes: Mapping[str, int],
    itemsizes: Mapping[str, int],
) -> tuple[PlannedCommand, ...]:
    """The exact command sequence one device enqueues for its chunk.

    In the order the device runs them: h2d transfers for the inputs the
    chunk reads, the kernel launch (iterated, with halo / refresh
    re-broadcasts between steps when more than one device is active),
    then d2h read-back of the outputs.  The plan is purely a
    function of (request, chunk, multi_device) — no timeline state.
    Every iteration after the first repeats one sync block of the same
    command objects, so a consumer can price each distinct object once.
    """
    compiled = request.compiled
    kernel = compiled.kernel
    commands: list[PlannedCommand] = []

    # 1. Host→device transfers for inputs this chunk reads.
    for p in kernel.buffer_params:
        if p.intent not in (ParamIntent.IN, ParamIntent.INOUT):
            continue
        off, cnt = chunk.buffer_ranges[p.name]
        if cnt > 0:
            commands.append(
                PlannedCommand(
                    CommandKind.WRITE_BUFFER,
                    f"h2d:{p.name}",
                    nbytes=cnt * itemsizes[p.name],
                )
            )

    # 2. Kernel launches (iterated).
    launch = PlannedCommand(
        CommandKind.NDRANGE_KERNEL, f"kernel:{kernel.name}", items=chunk.item_count
    )
    commands.append(launch)
    if request.iterations > 1:
        # Every later iteration enqueues the same sync block: with more
        # than one device active, shared state is re-synchronized first
        # (halo rows of HALO-distributed inputs, and any declared refresh
        # buffers, cross the bus every step), then the launch repeats.
        sync: list[PlannedCommand] = []
        if multi_device:
            for p in kernel.buffer_params:
                if p.intent is ParamIntent.OUT:
                    continue
                dist = compiled.distribution.of(p.name)
                if dist.kind is DistributionKind.HALO:
                    halo_elems = min(2 * dist.halo, buffer_sizes[p.name])
                    if halo_elems > 0:
                        sync.append(
                            PlannedCommand(
                                CommandKind.WRITE_BUFFER,
                                f"h2d:{p.name}",
                                nbytes=halo_elems * itemsizes[p.name],
                            )
                        )
                elif p.name in request.refresh_buffers:
                    off, cnt = chunk.buffer_ranges[p.name]
                    if cnt > 0:
                        sync.append(
                            PlannedCommand(
                                CommandKind.WRITE_BUFFER,
                                f"h2d:{p.name}",
                                nbytes=cnt * itemsizes[p.name],
                            )
                        )
        sync.append(launch)
        commands.extend(sync * (request.iterations - 1))

    # 3. Device→host read-back of outputs (halo-free written range).
    for p in kernel.buffer_params:
        if p.intent not in (ParamIntent.OUT, ParamIntent.INOUT):
            continue
        cnt = readback_count(
            compiled.distribution.of(p.name),
            buffer_sizes[p.name],
            chunk.item_offset,
            chunk.item_count,
        )
        if cnt > 0:
            commands.append(
                PlannedCommand(
                    CommandKind.READ_BUFFER,
                    f"d2h:{p.name}",
                    nbytes=cnt * itemsizes[p.name],
                )
            )
    return tuple(commands)


def price_command(
    device: Device,
    command: PlannedCommand,
    analysis: KernelAnalysis,
    scalar_args: dict[str, float],
) -> tuple[float, float]:
    """Noise-free (seconds, average dynamic watts) of one command on a device.

    Seconds × watts is the command's dynamic energy, and scaling the
    seconds (measurement noise) scales the energy with it: jitter
    stretches the draw, it does not change the wattage.  A launch's
    seconds and watts come from the same cost breakdown.
    """
    if command.kind is CommandKind.NDRANGE_KERNEL:
        breakdown = device.cost_model.kernel_time(analysis, command.items, scalar_args)
        return breakdown.total_s, device.power_model.kernel_power_w(breakdown)
    if command.kind is CommandKind.WRITE_BUFFER:
        direction = TransferDirection.HOST_TO_DEVICE
    elif command.kind is CommandKind.READ_BUFFER:
        direction = TransferDirection.DEVICE_TO_HOST
    else:
        raise ValueError(f"unplannable command kind {command.kind}")
    return (
        device.cost_model.transfer_time_s(command.nbytes, direction),
        device.power_model.transfer_power_w(),
    )


def replay(
    commands: Sequence[tuple[str, float, float]],
    noise: NoiseModel | None = None,
) -> tuple[float, float]:
    """(busy seconds, dynamic joules) of one device's commands.

    ``commands`` are ``(label, noise-free seconds, watts)`` in enqueue
    order; each runs when the previous one ends.  ``noise``, the
    device's noise hook, perturbs each duration as the command runs, so
    the draws follow enqueue order.  Joules are watts × the duration
    read back off the advancing clock (``clock - start``, not the raw
    duration: the pinned energy digests depend on that rounding).  A
    negative duration, noisy or not, is an error.
    """
    clock = 0.0
    joules = 0.0
    for label, duration, watts in commands:
        if noise is not None:
            duration = noise(duration, label)
        if duration < 0:
            raise ValueError(f"command {label!r} has a negative duration {duration}")
        start = clock
        clock = start + duration
        joules += watts * (clock - start)
    return clock, joules
