"""Workload specifications: one description, every consumer.

A :class:`WorkloadSpec` names a trace *family* and its knobs; the
generators in :mod:`repro.workloads.generators` turn a spec plus a key
universe into the concrete request stream.  The spec is the unit the
CLI, the benchmarks and the tests all share, so a serving scenario is
reproducible from a handful of numbers.

Families:

* ``stationary`` — the classic fixed-skew Zipf stream (bit-identical
  to :func:`repro.serving.zipf_trace`), the regime where a cached
  prediction never goes stale.
* ``phase-shift`` — the key-to-rank assignment is reshuffled every
  phase: the hot set rotates mid-trace, so yesterday's warm keys go
  cold and a fresh head of traffic arrives unannounced.
* ``flash-crowd`` — a stationary base stream punctuated by bursts in
  which one previously-unpopular key suddenly receives most of the
  traffic (launch-day spikes, viral content).
* ``diurnal`` — the Zipf skew itself ramps sinusoidally between a
  cache-hostile trough (near-uniform traffic) and a concentrated peak,
  modelling day/night popularity cycles.
* ``pipeline`` — the unit of work is a task *graph*, not a kernel: a
  Zipf-skewed stream of stencil→reduce→gemm chains built from the key
  universe (:func:`repro.graphs.chain_universe`), exercising the
  graph-level plan cache and the scheduling–partitioning co-search.

Any family can carry :class:`DriftEvent`\\ s: points in the trace where
a machine's device throughput factors are rescaled mid-serve (thermal
throttling, co-tenant contention, a frequency-bin change), which is the
platform-side non-stationarity HeMT and HeSP argue must be re-estimated
at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ARRIVAL_PROCESSES", "WORKLOAD_FAMILIES", "DriftEvent", "WorkloadSpec"]

#: The supported trace families.
WORKLOAD_FAMILIES = ("stationary", "phase-shift", "flash-crowd", "diurnal", "pipeline")

#: How request timestamps are drawn along the trace.
#:
#: * ``sequential`` — no timestamps: the event loop's closed-loop
#:   process, where each request arrives the instant the previous one
#:   resolved (queueing never happens).
#: * ``uniform`` — a deterministic open-loop clock: one request every
#:   ``1 / rate_rps`` seconds.
#: * ``poisson`` — memoryless open-loop arrivals: exponential gaps with
#:   mean ``1 / rate_rps``, the standard telecom/cloud traffic model.
#:
#: Under ``flash-crowd`` the instantaneous rate multiplies by
#: ``burst_rate`` inside each burst window, and under ``diurnal`` it
#: ramps sinusoidally between 0.5× and 1.5× — load and popularity move
#: together, which is what makes those families tail-latency-hostile.
ARRIVAL_PROCESSES = ("sequential", "uniform", "poisson")


@dataclass(frozen=True)
class DriftEvent:
    """One mid-trace platform drift: a device throughput rescale.

    Attributes:
        at_request: trace position the drift fires at (applied before
            the request with this index is served).
        scale: multiplier on the affected devices' effective throughput
            (< 1 slows them down, > 1 speeds them up).
        machine: platform name the drift targets; ``None`` hits every
            machine consuming the trace (fleet-wide contention).
        device_index: device within the machine; ``None`` drifts all of
            its devices.  Single-device drift is the interesting case —
            it shifts the *optimal* partitioning, not just the clock.
    """

    at_request: int
    scale: float
    machine: str | None = None
    device_index: int | None = None

    def __post_init__(self) -> None:
        if self.at_request < 0:
            raise ValueError("at_request must be non-negative")
        if not self.scale > 0:
            raise ValueError("drift scale must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to regenerate one request stream.

    Attributes:
        family: one of :data:`WORKLOAD_FAMILIES`.
        num_requests: trace length.
        skew: Zipf exponent of the (base) popularity distribution.
        seed: master seed; every random choice derives from it.
        phases: hot-set rotations for ``phase-shift`` (each phase
            reshuffles which keys hold the popular ranks).
        burst_every: requests between consecutive flash-crowd bursts.
        burst_length: requests each burst lasts.
        burst_share: probability a burst-window request hits the burst
            key instead of the base stream.
        period: requests per diurnal cycle.
        skew_min: diurnal trough exponent (0 = uniform traffic).
        skew_max: diurnal peak exponent.
        drift_events: platform drift schedule riding along the trace.
        arrival: one of :data:`ARRIVAL_PROCESSES`; how timestamps are
            assigned to requests on the event-driven serving path.
        rate_rps: mean arrival rate (requests per simulated second)
            for the open-loop processes; ignored by ``sequential``.
        burst_rate: rate multiplier inside flash-crowd burst windows
            (the popularity spike arrives *with* a traffic spike).
    """

    family: str = "stationary"
    num_requests: int = 200
    skew: float = 1.5
    seed: int = 0
    phases: int = 3
    burst_every: int = 50
    burst_length: int = 12
    burst_share: float = 0.8
    period: int = 100
    skew_min: float = 0.3
    skew_max: float = 2.2
    drift_events: tuple[DriftEvent, ...] = field(default=())
    arrival: str = "poisson"
    rate_rps: float = 200.0
    burst_rate: float = 4.0

    def __post_init__(self) -> None:
        if self.family not in WORKLOAD_FAMILIES:
            raise ValueError(
                f"unknown workload family {self.family!r}; "
                f"choose from {WORKLOAD_FAMILIES}"
            )
        if self.num_requests < 0:
            raise ValueError("num_requests must be non-negative")
        if self.skew <= 0:
            raise ValueError("skew must be positive")
        if self.phases < 1:
            raise ValueError("phases must be >= 1")
        if self.burst_every < 1:
            raise ValueError("burst_every must be >= 1")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        if not 0.0 <= self.burst_share <= 1.0:
            raise ValueError("burst_share must be in [0, 1]")
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if self.skew_min < 0:
            raise ValueError("skew_min must be non-negative")
        if self.skew_max < self.skew_min:
            raise ValueError("skew_max must be >= skew_min")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )
        if not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive")
        if not self.burst_rate > 0:
            raise ValueError("burst_rate must be positive")
        # Events are carried sorted so consumers can stream the trace.
        object.__setattr__(
            self,
            "drift_events",
            tuple(sorted(self.drift_events, key=lambda e: e.at_request)),
        )
