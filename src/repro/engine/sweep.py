"""Memoizing measurement engine over one :class:`~repro.runtime.measurement.Runner`.

See the package docstring for the memoization model.  The engine is the
timing-only fast path: functional execution (needed once per record for
semantic checks) stays on the unmemoized :meth:`Runner.run`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..energy.meter import EnergyMeter
from ..partitioning import Partitioning, split_items
from ..runtime.measurement import MeasuredRun, Runner
from ..runtime.plan import CommandTemplate, plan_device_commands, price_command, replay
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

    @property
    def tape_hit_rate(self) -> float:
        total = self.tape_hits + self.tape_misses
        return self.tape_hits / total if total else 0.0


def _median(samples: list[float]) -> float:
    """``statistics.median``, without its sort for the usual one sample."""
    return samples[0] if len(samples) == 1 else statistics.median(samples)


@dataclass(frozen=True)
class _Tape:
    """Noise-free timeline of one device chunk.

    Each command carries its average dynamic watts next to its
    duration, so compositions price energy from the same tape through
    the scheduler's own :func:`~repro.runtime.plan.replay`.
    """

    commands: tuple[tuple[str, float, float], ...]  # (label, duration_s, watts)
    total_s: float
    dynamic_j: float


@dataclass(frozen=True, eq=False)
class _RequestMeta:
    """One request's constants, read once and reused by every point.

    Hashed and compared by identity: it stands for its request in every
    cache key, and holding the request keeps that identity stable.
    """

    request: ExecutionRequest
    #: What every chunk plan of the request shares: the content key's
    #: counts and the plan of a tape miss both come from it.
    template: CommandTemplate
    scalar_args: dict[str, float]

    @classmethod
    def of(cls, request: ExecutionRequest) -> "_RequestMeta":
        return cls(
            request,
            CommandTemplate.of(request),
            {k: float(v) for k, v in request.scalars.items()},
        )


class SweepEngine:
    """Composes measurements from memoized per-device chunk timelines.

    One engine serves one :class:`Runner` (one simulated machine) and
    records every composed measurement into the runner's
    :class:`~repro.runtime.measurement.SessionStats`, so serving
    telemetry cannot tell memoized and unmemoized executions apart.
    :meth:`price` composes the same tapes noise-free and records
    nothing: placement prices a machine on the engine that serves it.

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
        #: (meta, device, offset, count, multi) -> tape: the exact chunk,
        #: looked up before the content key is computed.
        self._chunks: dict[tuple, _Tape] = {}
        self._requests: dict[int, _RequestMeta] = {}
        self._prices: dict[tuple, tuple[float, float]] = {}
        self._drift_generation = runner.drift_generation

    def reset(self) -> None:
        """Drop all cached tapes, results and request tables (between campaigns)."""
        self._results.clear()
        self._tapes.clear()
        self._chunks.clear()
        self._requests.clear()
        self._prices.clear()

    def _lookup(self, request: ExecutionRequest) -> _RequestMeta:
        """The request's table, once per call, after the drift check.

        Platform drift rescales device cost models; every cached
        duration (tape, command price, finished result) is priced on
        the pre-drift hardware and is dropped.  Request tables are
        duration-free and survive.
        """
        generation = self.runner.drift_generation
        if generation != self._drift_generation:
            self._results.clear()
            self._tapes.clear()
            self._chunks.clear()
            self._prices.clear()
            self._drift_generation = generation
        rid = id(request)
        if rid not in self._requests:
            self._requests[rid] = _RequestMeta.of(request)
        return self._requests[rid]

    # -- tapes -------------------------------------------------------------

    def _record_tape(
        self,
        meta: _RequestMeta,
        device_index: int,
        count: int,
        multi: bool,
        inputs: tuple[int, ...],
        outputs: tuple[int, ...],
    ) -> _Tape:
        """Plan and price one device's chunk: the tape-miss path.

        Each distinct command of the plan's head, sync block and tail is
        priced once, through a memo keyed on (request, device, label,
        amount): the label names the buffer and direction, or the
        kernel, so an iterated kernel's later steps, and every tape of
        the request whose device runs the same launch or moves the same
        bytes, share one price.  The tape is the scheduler's timeline,
        ``head + sync × (iterations − 1) + tail``.
        """
        head, sync, tail = plan_device_commands(
            meta.template, count, multi, inputs, outputs
        )
        device = self.runner.devices[device_index]
        analysis = meta.request.compiled.analysis
        prices = self._prices

        def priced(command):
            label, _direction, amount = command
            key = (meta, device_index, label, amount)
            price = prices.get(key)
            if price is None:
                price = prices[key] = price_command(
                    device, command, analysis, meta.scalar_args
                )
            return (label, *price)

        commands = (
            tuple(map(priced, head))
            + tuple(map(priced, sync)) * (meta.template.iterations - 1)
            + tuple(map(priced, tail))
        )
        return _Tape(commands, *replay(commands))

    def _content_tape(
        self,
        meta: _RequestMeta,
        device_index: int,
        offset: int,
        count: int,
        multi: bool,
    ) -> _Tape:
        """A chunk's tape by content key: a hit, or recorded on a miss."""
        inputs, outputs = meta.template.counts(offset, count)
        key = (meta, device_index, count, multi, inputs, outputs)
        tape = self._tapes.get(key)
        if tape is None:
            self.stats.tape_misses += 1
            tape = self._tapes[key] = self._record_tape(
                meta, device_index, count, multi, inputs, outputs
            )
        else:
            self.stats.tape_hits += 1
        return tape

    # -- composition -------------------------------------------------------

    def _compose(
        self, meta: _RequestMeta, partitioning: Partitioning, noisy: bool
    ) -> ExecutionResult:
        """One simulated execution, composed from cached chunk tapes.

        Every measurement, price and sweep point goes through here.
        ``noisy=False`` skips the devices' noise streams: the result is
        the noise-free execution, which the result memo serves even on
        a noisy engine.

        A device's tape is keyed by what its durations depend on: its
        item count, whether other devices are active, and the element
        counts it moves — each input's transfer range and each output's
        read-back.  Offsets matter only through halo and edge clipping,
        which the counts already capture, so interior chunks of equal
        size share a tape.  The counts come straight from the device's
        ``(offset, count)`` in :func:`~repro.partitioning.split_items`,
        through the request's command template, and the command plan is
        built from them only on a tape miss.  The content key itself is
        computed only when the exact chunk ``(offset, count)`` has not
        been seen: a sweep meets each distinct chunk about twice.
        """
        devices = self.runner.devices
        if partitioning.num_devices != len(devices):
            raise ValueError(
                f"partitioning has {partitioning.num_devices} shares but the "
                f"runner has {len(devices)} devices"
            )
        self.stats.compositions += 1
        result_key = (meta, partitioning.shares)
        memoize = self._deterministic or not noisy
        if memoize:
            cached = self._results.get(result_key)
            if cached is not None:
                return cached
        request = meta.request
        ranges = split_items(request.total_items, partitioning, request.granularity)
        active = [
            (i, offset, count) for i, (offset, count) in enumerate(ranges) if count
        ]
        multi = len(active) > 1
        busy = [0.0] * len(devices)
        dynamic_j = [0.0] * len(devices)
        chunks = self._chunks
        for device_index, offset, count in active:
            chunk_key = (meta, device_index, offset, count, multi)
            tape = chunks.get(chunk_key)
            if tape is None:
                tape = chunks[chunk_key] = self._content_tape(
                    meta, device_index, offset, count, multi
                )
            else:
                self.stats.tape_hits += 1
            noise = devices[device_index].noise if noisy else None
            if noise is None:
                busy[device_index] = tape.total_s
                dynamic_j[device_index] = tape.dynamic_j
            else:
                # The scheduler's replay, so the noise stream is sampled
                # command by command in the same enqueue order.
                busy[device_index], dynamic_j[device_index] = replay(
                    tape.commands, noise
                )
        makespan = max(busy)
        # Positional: binding keywords costs as much as building the
        # record, once per composed point.
        result = ExecutionResult(
            partitioning,
            makespan,
            tuple(busy),
            self._meter.finalize(dynamic_j, makespan),
        )
        if memoize:
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
        meta = self._lookup(request)
        samples: list[float] = []
        energy_samples: list[float] = []
        result: ExecutionResult | None = None
        for _ in range(repetitions):
            r = self._compose(meta, partitioning, True)
            if result is None:
                result = r
            samples.append(r.makespan_s)
            energy_samples.append(r.energy_j)
            self.runner.stats.record(r)
        assert result is not None
        # Positional: binding keywords costs as much as building the
        # record, once per measurement.
        return MeasuredRun(
            partitioning, _median(samples), result, _median(energy_samples)
        )

    def price(
        self, request: ExecutionRequest, partitioning: Partitioning
    ) -> ExecutionResult:
        """The noise-free execution of one partitioning, from cached tapes.

        What placement prices a request at: it draws no noise and
        records nothing in the runner's session stats, so pricing never
        moves the serving noise streams or telemetry.
        """
        return self._compose(self._lookup(request), partitioning, False)

    def measure_graph(
        self,
        graph: "TaskGraph",
        plan: "GraphPlan | Mapping[str, Partitioning]",
        requests: "Mapping[str, ExecutionRequest]",
        repetitions: int = 1,
    ) -> "GraphRun":
        """Compose one task-graph execution from memoized per-task tapes.

        ``requests`` maps each task to its execution request (tapes key
        on request identity, so reuse one map across measurements).
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
        from ..graphs.compose import compose_graph
        from ..graphs.planner import GraphPlan

        if isinstance(plan, GraphPlan):
            plan = plan.as_dict()
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

        One pass over the space: the drift check and the request lookup
        run once, then every point is composed and recorded directly,
        repetition by repetition, exactly as :meth:`measure` would —
        the same noise draws in the same order, the same session stats.
        One composed measurement yields both numbers, so an energy-aware
        sweep costs exactly what a timing sweep does.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        meta = self._lookup(request)
        compose = self._compose
        record = self.runner.stats.record
        timings: dict[str, float] = {}
        energies: dict[str, float] = {}
        for p in space:
            samples: list[float] = []
            energy_samples: list[float] = []
            for _ in range(repetitions):
                r = compose(meta, p, True)
                samples.append(r.makespan_s)
                energy_samples.append(r.energy_j)
                record(r)
            timings[p.label] = _median(samples)
            energies[p.label] = _median(energy_samples)
        return timings, energies
