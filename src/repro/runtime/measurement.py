"""Measurement harness: repetitions, medians, noise.

The paper's training phase executes every (program, size, partitioning)
combination and stores the measured time.  Real measurements jitter, so
the harness supports repetitions with a median reduction — with the
deterministic noise model of :mod:`repro.ocl.platform` this reproduces
the statistics of a real campaign while staying bit-reproducible.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..ocl.platform import Platform, make_lognormal_noise
from ..partitioning import Partitioning
from .scheduler import ExecutionRequest, ExecutionResult, execute_partitioned

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.compose import GraphRun
    from ..graphs.graph import TaskGraph
    from ..graphs.planner import GraphPlan

__all__ = ["MeasuredRun", "Runner", "SessionStats"]


@dataclass(slots=True)
class MeasuredRun:
    """Median-of-repetitions timing (and energy) for one partitioning.

    One is built per measurement, so it is a slotted plain dataclass:
    a frozen one takes several times as long to build.
    """

    partitioning: Partitioning
    median_s: float
    result: ExecutionResult
    energy_j: float = 0.0


@dataclass
class SessionStats:
    """Accumulated telemetry of one long-lived Runner session.

    A Runner serving many requests (the serving layer's execution
    backend) records every partitioned execution here: execution count,
    total simulated seconds and per-device busy seconds.  Executions
    beyond the served requests are adaptation probes; :meth:`utilization`
    gives the per-device busy share of the *serialized* timeline.  The
    service publishes both as ``service.runner.*`` metrics.
    """

    executions: int = 0
    simulated_s: float = 0.0
    device_busy_s: list[float] = field(default_factory=list)

    def record(self, result: ExecutionResult) -> None:
        if not self.device_busy_s:
            self.device_busy_s = [0.0] * len(result.device_busy_s)
        self.executions += 1
        self.simulated_s += result.makespan_s
        for i, busy in enumerate(result.device_busy_s):
            self.device_busy_s[i] += busy

    def utilization(self) -> tuple[float, ...]:
        """Per-device busy fraction of the serialized simulated time."""
        if self.simulated_s <= 0.0:
            return tuple(0.0 for _ in self.device_busy_s)
        return tuple(t / self.simulated_s for t in self.device_busy_s)


class Runner:
    """Executes kernels on one simulated machine.

    One Runner corresponds to one physical testbed: it owns the device
    instances (and their noise streams) for a whole training or
    evaluation campaign.
    """

    def __init__(
        self,
        platform: Platform,
        noise_sigma: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= noise_sigma < math.inf:
            # Noise is gated on ``noise_sigma > 0``, so a NaN or negative
            # sigma would silently run noise-free.
            raise ValueError(
                f"noise_sigma must be non-negative and finite, got {noise_sigma}"
            )
        noise = make_lognormal_noise(noise_sigma, seed) if noise_sigma > 0 else None
        self.platform = platform
        self.devices = platform.create_devices(noise)
        self.stats = SessionStats()

    def apply_drift(self, scale: float, device_index: int | None = None) -> None:
        """Rescale device throughput mid-session (platform drift).

        ``device_index=None`` drifts every device (machine-wide
        contention); otherwise only the named device drifts, which is
        what shifts the *optimal* partitioning rather than just the
        absolute timings.  Future measurements price against the
        drifted cost models; nothing already measured is rewritten.
        """
        if device_index is None:
            targets = self.devices
        else:
            # Explicit range check: a negative index must not silently
            # wrap around to the wrong device, and an out-of-range one
            # must fail as a validation error, not a bare IndexError.
            if not 0 <= device_index < len(self.devices):
                raise ValueError(
                    f"device_index {device_index} out of range for "
                    f"{self.platform.name} ({len(self.devices)} devices)"
                )
            targets = (self.devices[device_index],)
        for device in targets:
            device.apply_drift(scale)

    @property
    def drift_generation(self) -> tuple[int, ...]:
        """Per-device drift counters (cache-staleness fingerprint)."""
        # A list, not a generator: the engine reads this per measurement.
        return tuple([d.drift_generation for d in self.devices])

    def run(
        self,
        request: ExecutionRequest,
        partitioning: Partitioning,
        functional: bool = True,
        repetitions: int = 1,
    ) -> MeasuredRun:
        """Measure one partitioning; functional execution only on rep 0."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        samples: list[float] = []
        energy_samples: list[float] = []
        result: ExecutionResult | None = None
        for rep in range(repetitions):
            r = execute_partitioned(
                self.devices,
                request,
                partitioning,
                functional=functional and rep == 0,
            )
            if rep == 0:
                result = r
            samples.append(r.makespan_s)
            energy_samples.append(r.energy_j)
            self.stats.record(r)
        assert result is not None
        return MeasuredRun(
            partitioning=partitioning,
            median_s=statistics.median(samples),
            result=result,
            energy_j=statistics.median(energy_samples),
        )

    def time_of(
        self,
        request: ExecutionRequest,
        partitioning: Partitioning,
        repetitions: int = 1,
    ) -> float:
        """Timing-only convenience (no functional execution)."""
        return self.run(
            request, partitioning, functional=False, repetitions=repetitions
        ).median_s

    def run_graph(
        self,
        graph: "TaskGraph",
        plan: "GraphPlan | Mapping[str, Partitioning]",
        requests: "Mapping[str, ExecutionRequest]",
        repetitions: int = 1,
    ) -> "GraphRun":
        """Execute one task graph unmemoized (the reference graph path).

        ``requests`` maps each task to its execution request, as
        :func:`~repro.graphs.compose.node_requests` builds it.  Each
        task runs through :meth:`run` (timing-only) in topological
        order — the same order, and therefore the same per-device noise
        draws, as the memoized
        :meth:`~repro.engine.SweepEngine.measure_graph` — and the
        composed timeline inserts the inter-task transfers identically,
        so the two paths agree bit for bit.  A single-node graph
        reproduces the single-kernel :meth:`run` measurement exactly,
        time and energy.
        """
        from ..energy.meter import EnergyMeter
        from ..graphs.compose import compose_graph
        from ..graphs.planner import GraphPlan

        if isinstance(plan, GraphPlan):
            plan = plan.as_dict()

        def measure(
            request: ExecutionRequest,
            partitioning: Partitioning,
            repetitions: int = 1,
        ) -> MeasuredRun:
            return self.run(
                request, partitioning, functional=False, repetitions=repetitions
            )

        return compose_graph(
            graph,
            plan,
            requests,
            measure,
            self.devices,
            EnergyMeter(self.devices).platform_idle_w(),
            repetitions=repetitions,
        )
