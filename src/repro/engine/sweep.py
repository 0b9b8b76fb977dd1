"""Memoizing measurement engine over one :class:`~repro.runtime.measurement.Runner`.

See the package docstring for the memoization model.  The engine is the
timing-only fast path: functional execution (needed once per record for
semantic checks) stays on the unmemoized :meth:`Runner.run`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..compiler.splitter import DeviceChunk, DistributionKind, plan_chunks
from ..energy.meter import EnergyMeter
from ..inspire.ast import ParamIntent
from ..ocl.events import CommandKind
from ..partitioning import Partitioning
from ..runtime.arrays import buffer_layout
from ..runtime.measurement import MeasuredRun, Runner
from ..runtime.plan import command_duration_s, plan_device_commands
from ..runtime.scheduler import ExecutionRequest, ExecutionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.compose import GraphRun
    from ..graphs.graph import TaskGraph
    from ..graphs.planner import GraphPlan

__all__ = ["EngineStats", "SweepEngine"]


@dataclass
class EngineStats:
    """Cache-effectiveness counters of one engine lifetime."""

    compositions: int = 0
    tape_hits: int = 0
    tape_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0

    @property
    def tape_hit_rate(self) -> float:
        total = self.tape_hits + self.tape_misses
        return self.tape_hits / total if total else 0.0


def _median(samples: list[float]) -> float:
    """``statistics.median``, without its sort for the usual one sample."""
    return samples[0] if len(samples) == 1 else statistics.median(samples)


def _replay_timeline(
    commands: "Sequence[tuple[str, float, float]]",
) -> tuple[float, float]:
    """(busy seconds, dynamic joules) of one command sequence.

    Joules are priced as watts × event duration, where the event
    duration is read back off the advancing clock exactly as the
    scheduler reads ``end_s - start_s`` from its profiling events —
    the float round-trip included, so composed energies stay
    bit-identical to the unmemoized path.
    """
    clock = 0.0
    joules = 0.0
    for _label, duration, watts in commands:
        start = clock
        clock = start + duration
        joules += watts * (clock - start)
    return clock, joules


@dataclass(frozen=True)
class _Tape:
    """Noise-free timeline of one device chunk.

    Each command carries its average dynamic watts next to its
    duration, so compositions price energy from the same tape: joules
    are watts × (possibly noise-perturbed) duration, command by
    command, exactly as the unmemoized scheduler accumulates them.
    """

    commands: tuple[tuple[str, float, float], ...]  # (label, duration_s, watts)
    total_s: float
    dynamic_j: float


@dataclass(frozen=True)
class _RequestMeta:
    """Per-request constants the signature/tape computations reuse."""

    buffer_sizes: dict[str, int]
    itemsizes: dict[str, int]
    in_names: tuple[str, ...]  # IN/INOUT buffer params, declaration order
    #: OUT/INOUT buffer params as (name, full_range, elements_per_item)
    out_specs: tuple[tuple[str, bool, float], ...]
    scalar_args: dict[str, float]


class SweepEngine:
    """Composes measurements from memoized per-device chunk timelines.

    One engine serves one :class:`Runner` (one simulated machine) and
    records every composed measurement into the runner's
    :class:`~repro.runtime.measurement.SessionStats`, so serving
    telemetry cannot tell memoized and unmemoized executions apart.

    Cache keys pin the :class:`ExecutionRequest` objects they reference
    (``id()`` stability); callers measuring many distinct requests
    should reuse request objects per (program, size) — as the trainer
    and the serving layer do — and may :meth:`reset` between campaigns.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.stats = EngineStats()
        self._meter = EnergyMeter(runner.devices)
        # With no noise model every composition is deterministic, so the
        # finished ExecutionResult itself can be cached per partitioning.
        self._deterministic = all(d.noise is None for d in runner.devices)
        self._results: dict[tuple, ExecutionResult] = {}
        self._tapes: dict[tuple, _Tape] = {}
        self._chunks: dict[tuple, tuple[tuple[DeviceChunk, ...], bool]] = {}
        self._meta: dict[int, _RequestMeta] = {}
        self._kernel_s: dict[tuple[int, int, int], float] = {}
        self._pinned: dict[int, ExecutionRequest] = {}
        self._drift_generation = runner.drift_generation
        # Graph-node requests, memoized by (program, size, seed) so the
        # same pipeline stage composes from the same cached tapes across
        # graphs and calls (tape keys pin request identity).
        self._graph_requests: dict[tuple[str, int, int], ExecutionRequest] = {}

    def reset(self) -> None:
        """Drop all cached tapes and plans (between campaigns)."""
        self._results.clear()
        self._tapes.clear()
        self._chunks.clear()
        self._meta.clear()
        self._kernel_s.clear()
        self._pinned.clear()
        self._graph_requests.clear()

    # -- memoized planning -------------------------------------------------

    def _request_id(self, request: ExecutionRequest) -> int:
        rid = id(request)
        if rid not in self._pinned:
            self._pinned[rid] = request
            kernel = request.compiled.kernel
            distribution = request.compiled.distribution
            out_specs = []
            for p in kernel.buffer_params:
                if p.intent not in (ParamIntent.OUT, ParamIntent.INOUT):
                    continue
                dist = distribution.of(p.name)
                full = dist.kind in (DistributionKind.REDUCED, DistributionKind.FULL)
                out_specs.append((p.name, full, dist.elements_per_item))
            layout = buffer_layout(request.arrays)
            self._meta[rid] = _RequestMeta(
                buffer_sizes={n: elements for n, (elements, _) in layout.items()},
                itemsizes={n: itemsize for n, (_, itemsize) in layout.items()},
                in_names=tuple(
                    p.name
                    for p in kernel.buffer_params
                    if p.intent in (ParamIntent.IN, ParamIntent.INOUT)
                ),
                out_specs=tuple(out_specs),
                scalar_args={k: float(v) for k, v in request.scalars.items()},
            )
        return rid

    def _signature(self, meta: _RequestMeta, chunk: DeviceChunk, multi: bool) -> tuple:
        """What a chunk's durations actually depend on: sizes, not offsets.

        Two chunks on the same device produce identical tapes whenever
        their kernel item counts and per-buffer transfer counts match —
        the offsets only matter through halo/epilogue clipping, which
        the counts already capture.  Keying tapes by this signature
        instead of (offset, count) roughly halves the unique-tape count
        on a 3-device grid sweep (interior chunks of equal size share).
        """
        ranges = chunk.buffer_ranges
        d2h = []
        for name, full, epi in meta.out_specs:
            if full:
                d2h.append(meta.buffer_sizes[name])
            else:
                off = int(chunk.item_offset * epi)
                stop = min(
                    meta.buffer_sizes[name],
                    int((chunk.item_offset + chunk.item_count) * epi),
                )
                d2h.append(max(0, stop - off))
        return (
            chunk.item_count,
            multi,
            tuple(ranges[name][1] for name in meta.in_names),
            tuple(d2h),
        )

    def _kernel_time(self, rid: int, device_index: int, items: int) -> float:
        """Memoized noise-free kernel duration for one (device, items)."""
        key = (rid, device_index, items)
        hit = self._kernel_s.get(key)
        if hit is None:
            device = self.runner.devices[device_index]
            hit = device.cost_model.kernel_time(
                self._pinned[rid].compiled.analysis, items, self._meta[rid].scalar_args
            ).total_s
            self._kernel_s[key] = hit
        return hit

    def _plan(
        self, request: ExecutionRequest, partitioning: Partitioning
    ) -> tuple[tuple[DeviceChunk, ...], bool]:
        rid = self._request_id(request)
        key = (rid, partitioning.shares)
        hit = self._chunks.get(key)
        if hit is not None:
            self.stats.plan_hits += 1
            return hit
        self.stats.plan_misses += 1
        chunks = plan_chunks(
            request.total_items,
            partitioning,
            request.compiled.distribution,
            self._meta[rid].buffer_sizes,
            request.granularity,
        )
        multi = sum(1 for c in chunks if not c.is_empty) > 1
        self._chunks[key] = (chunks, multi)
        return chunks, multi

    def _tape(self, rid: int, chunk: DeviceChunk, multi: bool) -> _Tape:
        meta = self._meta[rid]
        key = (rid, chunk.device_index, self._signature(meta, chunk, multi))
        hit = self._tapes.get(key)
        if hit is not None:
            self.stats.tape_hits += 1
            return hit
        self.stats.tape_misses += 1
        device = self.runner.devices[chunk.device_index]
        request = self._pinned[rid]
        analysis = request.compiled.analysis
        commands: list[tuple[str, float, float]] = []
        for cmd in plan_device_commands(
            request, chunk, multi, meta.buffer_sizes, meta.itemsizes
        ):
            if cmd.kind is CommandKind.NDRANGE_KERNEL:
                # Launches repeat per iteration and across partitionings
                # sharing an item count — worth a dedicated memo table.
                duration = self._kernel_time(rid, chunk.device_index, cmd.items)
            else:
                duration = command_duration_s(
                    device, cmd, analysis, meta.scalar_args
                )
            watts = self._meter.command_power_w(
                device, cmd, analysis, meta.scalar_args
            )
            commands.append((cmd.label, duration, watts))
        tape = _Tape(tuple(commands), *_replay_timeline(commands))
        self._tapes[key] = tape
        return tape

    # -- composition -------------------------------------------------------

    def _compose(
        self, request: ExecutionRequest, partitioning: Partitioning
    ) -> ExecutionResult:
        """One simulated execution, composed from cached chunk tapes."""
        if partitioning.num_devices != len(self.runner.devices):
            raise ValueError(
                f"partitioning has {partitioning.num_devices} shares but the "
                f"runner has {len(self.runner.devices)} devices"
            )
        self.stats.compositions += 1
        # Platform drift rescales device cost models; every cached
        # duration (tape, kernel time, finished result) is priced on the
        # pre-drift hardware and must be dropped.  Plans and request
        # metadata are duration-free and survive.
        generation = self.runner.drift_generation
        if generation != self._drift_generation:
            self._results.clear()
            self._tapes.clear()
            self._kernel_s.clear()
            self._drift_generation = generation
        rid = self._request_id(request)
        result_key = (rid, partitioning.shares)
        if self._deterministic:
            cached = self._results.get(result_key)
            if cached is not None:
                return cached
        chunks, multi = self._plan(request, partitioning)
        busy = [0.0] * len(self.runner.devices)
        dynamic_j = [0.0] * len(self.runner.devices)
        for chunk in chunks:
            if chunk.is_empty:
                continue
            tape = self._tape(rid, chunk, multi)
            noise = self.runner.devices[chunk.device_index].noise
            if noise is None:
                busy[chunk.device_index] = tape.total_s
                dynamic_j[chunk.device_index] = tape.dynamic_j
            else:
                # Sample the noise stream command by command, in enqueue
                # order — the same draws the unmemoized path would make.
                # Jitter stretches each command's draw with its duration.
                total, joules = _replay_timeline(
                    [
                        (label, noise(duration, label), watts)
                        for label, duration, watts in tape.commands
                    ]
                )
                busy[chunk.device_index] = total
                dynamic_j[chunk.device_index] = joules
        makespan = max(busy)
        energy = self._meter.finalize(dynamic_j, makespan)
        result = ExecutionResult(
            partitioning=partitioning,
            makespan_s=makespan,
            device_busy_s=tuple(busy),
            device_energy_j=energy.device_energy_j,
            energy_j=energy.total_j,
            idle_j=energy.idle_j,
        )
        if self._deterministic:
            self._results[result_key] = result
        return result

    # -- the Runner-shaped measurement API ---------------------------------

    def measure(
        self,
        request: ExecutionRequest,
        partitioning: Partitioning,
        repetitions: int = 1,
    ) -> MeasuredRun:
        """Median-of-repetitions timing, composed from cached tapes."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        samples: list[float] = []
        energy_samples: list[float] = []
        result: ExecutionResult | None = None
        for _ in range(repetitions):
            r = self._compose(request, partitioning)
            if result is None:
                result = r
            samples.append(r.makespan_s)
            energy_samples.append(r.energy_j)
            self.runner.stats.record(r)
        assert result is not None
        # Positional: binding keywords costs as much as building the
        # record, once per measurement.
        return MeasuredRun(
            partitioning,
            _median(samples),
            tuple(samples),
            result,
            _median(energy_samples),
            tuple(energy_samples),
        )

    def time_of(
        self,
        request: ExecutionRequest,
        partitioning: Partitioning,
        repetitions: int = 1,
    ) -> float:
        """Timing-only convenience, mirroring :meth:`Runner.time_of`."""
        return self.measure(request, partitioning, repetitions=repetitions).median_s

    def sweep(
        self,
        request: ExecutionRequest,
        space: Sequence[Partitioning] | Iterable[Partitioning],
        repetitions: int = 1,
    ) -> dict[str, float]:
        """Measure every partitioning; returns label → median seconds."""
        return {
            p.label: self.time_of(request, p, repetitions=repetitions) for p in space
        }

    def graph_requests(
        self, graph: "TaskGraph", instance_seed: int = 0
    ) -> dict[str, ExecutionRequest]:
        """Per-task execution requests, memoized for tape-cache identity.

        The planner composes many trial plans over the same graph; by
        resolving node requests through the engine's memo, every trial
        hits the same cached tapes :meth:`measure_graph` uses.
        """
        from ..graphs.compose import node_requests

        return node_requests(graph, seed=instance_seed, shared=self._graph_requests)

    def measure_graph(
        self,
        graph: "TaskGraph",
        plan: "GraphPlan | Mapping[str, Partitioning]",
        repetitions: int = 1,
        instance_seed: int = 0,
    ) -> "GraphRun":
        """Compose one task-graph execution from memoized per-task tapes.

        Per-task measurements route through :meth:`measure` — the same
        cached tapes, the same noise sampling at composition time — and
        the inter-task transfers are inserted at composition time by
        :func:`~repro.graphs.compose.compose_graph`, so a graph
        measurement is bit-identical to the unmemoized
        :meth:`~repro.runtime.measurement.Runner.run_graph` whenever
        the per-task paths agree (the engine's core guarantee).  A
        single-node graph reproduces :meth:`measure` exactly, time and
        energy.
        """
        from ..graphs.compose import compose_graph, node_requests
        from ..graphs.planner import GraphPlan

        if isinstance(plan, GraphPlan):
            plan = plan.as_dict()
        requests = node_requests(
            graph, seed=instance_seed, shared=self._graph_requests
        )
        return compose_graph(
            graph,
            plan,
            requests,
            self.measure,
            self.runner.devices,
            self._meter.platform_idle_w(),
            repetitions=repetitions,
        )

    def sweep_with_energy(
        self,
        request: ExecutionRequest,
        space: Sequence[Partitioning] | Iterable[Partitioning],
        repetitions: int = 1,
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Measure every partitioning; returns (label → seconds, label → joules).

        One composed measurement yields both numbers, so an energy-aware
        sweep costs exactly what a timing sweep does.
        """
        timings: dict[str, float] = {}
        energies: dict[str, float] = {}
        for p in space:
            run = self.measure(request, p, repetitions=repetitions)
            timings[p.label] = run.median_s
            energies[p.label] = run.energy_j
        return timings, energies
