"""One way to serve a trace: ``serve_trace(backend, trace, options)``.

A single request goes straight to a serving core: ``submit`` /
``submit_graph`` on a service, ``submit`` on a fleet or cluster
router.  A whole trace — closed-loop or open-loop, on any backend —
goes through this module's two names:

* :class:`ServeOptions` — every serve-time decision in one frozen
  dataclass: the arrival process, SLO targets and shedding, fault
  injection, retries/hedging/failover, speculation and work-stealing,
  the queue discipline, and the telemetry mode.  The objective and
  power cap are build-time knobs of each service
  (:class:`~repro.serving.ServiceConfig`).
* :func:`serve_trace` — one call that routes any trace through any
  backend: a :class:`~repro.serving.PartitioningService`, a
  :class:`~repro.fleet.FleetRouter`, or a
  :class:`~repro.cluster.ClusterRouter`.  It is
  ``EventLoop(backend, options).run(trace)`` and returns the loop.

Every trace runs on the simulated-time
:class:`~repro.serving.EventLoop`.  ``arrival="sequential"`` is its
closed-loop process (each request admitted the instant the previous
one resolved); the open-loop processes (``uniform`` / ``poisson``)
timestamp the trace up front.  Per-request results stream to
``on_complete`` (each :class:`~repro.serving.CompletedRequest` carries
the backend's response), and the loop carries the bounded-memory
stats and the run's telemetry.

The options are built and validated once per trace; every request
then reaches the backend's serving core with no further facade work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from ..faults import FaultSchedule
from ..telemetry import TELEMETRY_MODES
from .slo import SHED_POLICIES, SLOConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.spec import DriftEvent
    from .eventloop import CompletedRequest, EventLoop

__all__ = ["QUEUE_DISCIPLINES", "ServeOptions", "serve_trace"]

#: Per-replica queue service orders the event loop supports.
QUEUE_DISCIPLINES = ("fifo", "weighted-fair")


@dataclass(frozen=True)
class ServeOptions:
    """Every serve-time knob of :func:`serve_trace`, in one place.

    The :class:`~repro.serving.EventLoop` runs on these options
    directly, so a bad combination fails here, at construction.

    Attributes:
        arrival: ``"sequential"`` for the closed-loop process, or an
            open-loop one (``"uniform"`` / ``"poisson"``).
        rate_rps: mean open-loop arrival rate; ignored by sequential.
        seed: seed of the arrival-process draws.
        slo: latency targets, tenant priorities, shedding exemptions.
        shed_policy: one of :data:`~repro.serving.slo.SHED_POLICIES`;
            policies other than ``none`` need an SLO target.
        faults: seeded fault schedule to inject, or ``None`` for a
            fault-free run.
        timeout_factor: fail a request outright once its age exceeds
            ``timeout_factor ×`` its tenant's SLO target; ``None``
            disables timeouts.  Needs an SLO target to derive from.
        max_retries: service attempts a request may consume *beyond*
            its first (and beyond any hedge), each after a transient
            failure.
        retry_backoff_s: base backoff before retry ``n`` fires, doubling
            each time (``retry_backoff_s × 2^(n-1)``).
        retry_budget: retry tokens earned per admitted request; one
            retry spends one token.  0.2 caps retry traffic at ~20% of
            admissions, so a fault storm cannot melt into a retry storm.
        hedge_at: latency quantile (e.g. ``0.95``) of completions so
            far whose value triggers one hedged duplicate for any
            request older than it; ``None`` disables hedging.  The
            trigger waits for
            :data:`~repro.serving.eventloop.TRIGGER_MIN_COMPLETIONS`
            completions (an empty histogram hedges nothing).
        failover: route arrivals and retries around crashed replicas
            and redistribute a crashed replica's queue; ``False`` is
            the availability baseline where work stays stranded.
        speculate_at: latency quantile whose value triggers one
            speculative re-execution of any request older than it;
            ``None`` disables speculation.  Unlike a hedge (which races
            a duplicate on the least-loaded replica anywhere), a
            speculative copy asks the backend where to escape to — on
            a cluster that means a *different pool* than every live
            copy, which is what beats pool-local straggler windows.
            Waits for the same completion count as hedging.
        work_steal: let a replica that just went idle pull the
            tail-most queued attempt from the most backlogged replica
            the backend names as a victim (cross-pool on a cluster);
            off by default — stealing reorders queues, so it must be
            opted into.
        queue_discipline: ``"fifo"`` (arrival order per replica) or
            ``"weighted-fair"`` (start-time fair queueing: each
            tenant's attempts carry virtual finish tags advanced by
            ``est_service / weight``, and the replica serves the
            smallest tag first, so a high-priority tenant's queue
            share tracks its weight instead of its arrival rate).
        telemetry: ``"off"`` (default), ``"metrics"`` (a shared
            :class:`~repro.telemetry.MetricsRegistry` every layer
            publishes into, on the loop's ``telemetry``), or ``"trace"``
            (metrics plus request-scoped spans and the JSONL event
            log).
    """

    arrival: str = "sequential"
    rate_rps: float = 200.0
    seed: int = 0
    slo: SLOConfig = field(default_factory=SLOConfig)
    shed_policy: str = "none"
    faults: FaultSchedule | None = None
    timeout_factor: float | None = None
    max_retries: int = 2
    retry_backoff_s: float = 1e-3
    retry_budget: float = 0.2
    hedge_at: float | None = None
    failover: bool = True
    speculate_at: float | None = None
    work_steal: bool = False
    queue_discipline: str = "fifo"
    telemetry: str = "off"

    def __post_init__(self) -> None:
        from ..workloads.spec import ARRIVAL_PROCESSES

        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )
        if not 0.0 < self.rate_rps < math.inf:
            raise ValueError("rate_rps must be positive and finite")
        if self.telemetry not in TELEMETRY_MODES:
            raise ValueError(
                f"unknown telemetry mode {self.telemetry!r}; "
                f"choose from {TELEMETRY_MODES}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"choose from {SHED_POLICIES}"
            )
        if self.shed_policy != "none" and self.slo.target_s is None:
            raise ValueError(
                f"shed policy {self.shed_policy!r} needs an SLO target to shed "
                "against (slo.target_s)"
            )
        if self.timeout_factor is not None:
            if not 0.0 < self.timeout_factor < math.inf:
                raise ValueError("timeout_factor must be positive and finite")
            if self.slo.target_s is None:
                raise ValueError(
                    "timeout_factor derives timeouts from the SLO target "
                    "(slo.target_s); none is set"
                )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 <= self.retry_backoff_s < math.inf:
            raise ValueError("retry_backoff_s must be non-negative and finite")
        if not 0.0 <= self.retry_budget < math.inf:
            raise ValueError("retry_budget must be non-negative and finite")
        if self.hedge_at is not None and not 0.0 < self.hedge_at < 1.0:
            raise ValueError("hedge_at is a quantile in (0, 1)")
        if self.speculate_at is not None and not 0.0 < self.speculate_at < 1.0:
            raise ValueError("speculate_at is a quantile in (0, 1)")
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {self.queue_discipline!r}; "
                f"choose from {QUEUE_DISCIPLINES}"
            )


def serve_trace(
    backend,
    trace: "Iterable",
    options: ServeOptions = ServeOptions(),
    *,
    on_complete: Callable[[CompletedRequest], None] | None = None,
    drift_handler: "Callable[[DriftEvent], None] | None" = None,
) -> EventLoop:
    """Serve one trace on one backend under one set of options.

    ``trace`` is a sequence of requests (kernel or graph, optionally
    interleaved with :class:`~repro.workloads.DriftEvent` items), or an
    already-timed stream of ``(arrival_s, payload)`` items (e.g.
    :meth:`Workload.timed_items`), in which case the options' arrival
    process is ignored in favour of the stream's own timestamps.  A
    sequential trace is consumed lazily: each item is read once the
    previous one resolved.

    Returns the :class:`~repro.serving.EventLoop` that ran the trace:
    its ``stats`` are the bounded-memory aggregate (per-request results
    stream through ``on_complete`` instead), and its ``telemetry`` is
    the run's collected context when the options asked for one.
    """
    from .eventloop import EventLoop  # it imports this module for ServeOptions

    loop = EventLoop(backend, options)
    loop.run(trace, on_complete=on_complete, drift_handler=drift_handler)
    return loop
