"""Per-device command planning and replay: the timeline of one execution.

A :class:`CommandTemplate` holds what every chunk plan of one request
shares: each input's and output's distribution, element count, transfer
label and itemsize, the launch label, the iteration count and the
multi-device sync entries.  :meth:`CommandTemplate.counts` gives a
chunk's element counts (what each input's transfer moves and each
output's read-back returns), and :func:`plan_device_commands` turns
those counts into the chunk's ``(head, sync, tail)``: the device runs
``head + sync × (iterations − 1) + tail``.  A command is a plain
``(label, direction, amount)``: a transfer's direction and bytes, or a
launch's ``None`` and work items.  :func:`price_command` prices one
command on one device: its noise-free seconds and its average dynamic
watts, from one cost-model call, and :func:`replay` runs one device's
priced commands back to back: its busy seconds and dynamic joules, the
device's noise drawn per command.

Both timing paths run on these functions.  The scheduler plans every
active chunk and prices every command it replays; the
:mod:`repro.engine` sweep engine plans a chunk only on a tape miss,
prices each distinct command once and replays the same expansion from
its cached tape — the training sweep's 66 points repeat the same
per-device chunks heavily.  Transfers count in every timeline: the
paper (citing Gregg & Hazelwood) holds that CPU/GPU comparisons mean
nothing without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..compiler.splitter import BufferDistribution, DistributionKind, buffer_range
from ..inspire.analysis import KernelAnalysis
from ..inspire.ast import ParamIntent
from ..ocl.costmodel import TransferDirection
from ..ocl.device import Device, NoiseModel
from .arrays import buffer_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import ExecutionRequest

__all__ = [
    "Command",
    "CommandTemplate",
    "plan_device_commands",
    "price_command",
    "readback_count",
    "replay",
]

#: One device command, ``(label, direction, amount)``: a transfer's
#: direction and bytes, or a kernel launch's ``None`` and work items.
#: The label names the buffer or kernel and keys the noise stream.
Command = tuple[str, TransferDirection | None, int]

_H2D = TransferDirection.HOST_TO_DEVICE
_D2H = TransferDirection.DEVICE_TO_HOST


@dataclass(frozen=True)
class CommandTemplate:
    """What every chunk plan of one request shares.

    Attributes:
        inputs: (distribution, elements, ``h2d:`` label, itemsize) of
            each IN/INOUT buffer param, in declaration order: the
            buffers a chunk transfers host → device.
        outputs: (distribution, elements, ``d2h:`` label, itemsize) of
            each OUT/INOUT buffer param, in declaration order: the
            buffers a chunk reads back.
        launch: the kernel launch's label.
        iterations: kernel launches per transfer cycle.
        sync: what each iteration after the first re-sends while more
            than one device is active, as (input index, elements): a
            HALO input's halo rows, or ``None`` for a refresh buffer,
            which re-sends the chunk's whole input range.
    """

    inputs: tuple[tuple[BufferDistribution, int, str, int], ...]
    outputs: tuple[tuple[BufferDistribution, int, str, int], ...]
    launch: str
    iterations: int
    sync: tuple[tuple[int, int | None], ...]

    @classmethod
    def of(cls, request: "ExecutionRequest") -> "CommandTemplate":
        """The request's template, read off its buffer layout (no data drawn)."""
        compiled = request.compiled
        layout = buffer_layout(request.arrays)
        inputs, outputs, sync = [], [], []
        for p in compiled.kernel.buffer_params:
            dist = compiled.distribution.of(p.name)
            elements, itemsize = layout[p.name]
            if p.intent in (ParamIntent.IN, ParamIntent.INOUT):
                # Halo rows cross the bus every step; a declared refresh
                # buffer re-sends its range (a HALO input only its halo).
                if dist.kind is DistributionKind.HALO:
                    sync.append((len(inputs), min(2 * dist.halo, elements)))
                elif p.name in request.refresh_buffers:
                    sync.append((len(inputs), None))
                inputs.append((dist, elements, f"h2d:{p.name}", itemsize))
            if p.intent in (ParamIntent.OUT, ParamIntent.INOUT):
                outputs.append((dist, elements, f"d2h:{p.name}", itemsize))
        return cls(
            tuple(inputs),
            tuple(outputs),
            f"kernel:{compiled.kernel.name}",
            request.iterations,
            tuple(sync),
        )

    def counts(
        self, offset: int, count: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(input counts, output counts) of the non-empty chunk ``(offset, count)``.

        Each input's count is the element range its host → device
        transfer moves (:func:`~repro.compiler.splitter.buffer_range`),
        each output's the elements it reads back
        (:func:`readback_count`).  With the item count and whether other
        devices are active, they fix the chunk's whole plan.
        """
        return (
            tuple([buffer_range(d, n, offset, count)[1] for d, n, _, _ in self.inputs]),
            tuple([readback_count(d, n, offset, count) for d, n, _, _ in self.outputs]),
        )


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
    template: CommandTemplate,
    items: int,
    multi_device: bool,
    inputs: Sequence[int],
    outputs: Sequence[int],
) -> tuple[tuple[Command, ...], tuple[Command, ...], tuple[Command, ...]]:
    """One device's commands for its chunk, as ``(head, sync, tail)``.

    ``inputs`` and ``outputs`` are the chunk's
    :meth:`CommandTemplate.counts`.  The device runs ``head + sync ×
    (iterations − 1) + tail``: the head is the h2d transfers of the
    inputs the chunk reads and the first launch; each later iteration
    repeats the sync block, which re-sends halo rows and refresh
    buffers first when more than one device is active, then launches
    again; the tail reads the outputs back (halo-free written range).
    A single launch has no sync block.  The plan is purely a function of
    its arguments — no timeline state.
    """
    launch = (template.launch, None, items)
    head = [
        (label, _H2D, count * itemsize)
        for (_, _, label, itemsize), count in zip(template.inputs, inputs)
        if count > 0
    ]
    head.append(launch)
    sync = []
    if template.iterations > 1:
        if multi_device:
            for index, elements in template.sync:
                _, _, label, itemsize = template.inputs[index]
                count = inputs[index] if elements is None else elements
                if count > 0:
                    sync.append((label, _H2D, count * itemsize))
        sync.append(launch)
    tail = [
        (label, _D2H, count * itemsize)
        for (_, _, label, itemsize), count in zip(template.outputs, outputs)
        if count > 0
    ]
    return tuple(head), tuple(sync), tuple(tail)


def price_command(
    device: Device,
    command: Command,
    analysis: KernelAnalysis,
    scalar_args: dict[str, float],
) -> tuple[float, float]:
    """Noise-free (seconds, average dynamic watts) of one command on a device.

    Seconds × watts is the command's dynamic energy, and scaling the
    seconds (measurement noise) scales the energy with it: jitter
    stretches the draw, it does not change the wattage.  A launch's
    seconds and watts come from the same cost breakdown.
    """
    _label, direction, amount = command
    if direction is None:
        breakdown = device.cost_model.kernel_time(analysis, amount, scalar_args)
        return breakdown.total_s, device.power_model.kernel_power_w(breakdown)
    return (
        device.cost_model.transfer_time_s(amount, direction),
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
