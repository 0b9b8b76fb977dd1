"""One way to serve a trace: ``serve_trace(backend, trace, options)``.

A single request goes straight to a serving core: ``submit`` /
``submit_graph`` on a service, ``submit`` on a fleet or cluster
router.  A whole trace — closed-loop or open-loop, on any backend —
goes through this module's two names:

* :class:`ServeOptions` — every serve-time decision in one frozen
  dataclass: the arrival process, SLO targets and shedding, fault
  injection, retries/hedging/failover, cluster-scope speculation and
  work-stealing, the queue discipline, and the objective/power-cap
  *assertions* (those two are build-time service knobs; naming them
  here makes the facade verify the backend was built the way the
  caller believes).
* :func:`serve_trace` — one call that routes any trace through any
  backend: a :class:`~repro.serving.PartitioningService`, a
  :class:`~repro.fleet.FleetRouter`, or a
  :class:`~repro.cluster.ClusterRouter`.

Every trace runs on the simulated-time
:class:`~repro.serving.EventLoop`.  ``arrival="sequential"`` is its
closed-loop process (each request admitted the instant the previous
one resolved); the open-loop processes (``uniform`` / ``poisson``)
timestamp the trace up front.  Per-request results stream to
``on_complete`` (each :class:`~repro.serving.CompletedRequest` carries
the backend's response) and the result carries the loop's
bounded-memory stats.

The options are built and validated once per trace; every request
then reaches the backend's serving core with no further facade work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable

from ..faults import FaultSchedule
from ..telemetry import TELEMETRY_MODES, Telemetry
from .eventloop import CompletedRequest, EventLoop, EventLoopConfig, EventLoopStats
from .slo import SLOConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.router import ClusterRouter
    from ..fleet.router import FleetRouter
    from ..workloads.spec import DriftEvent
    from .service import PartitioningService

__all__ = ["ServeOptions", "ServeResult", "serve_trace"]


@dataclass(frozen=True)
class ServeOptions:
    """Every serve-time knob of :func:`serve_trace`, in one place.

    Attributes:
        arrival: ``"sequential"`` for the closed-loop process, or an
            open-loop one (``"uniform"`` / ``"poisson"``).
        rate_rps: mean open-loop arrival rate; ignored by sequential.
        seed: seed of the arrival-process draws.
        slo: latency targets, tenant priorities, shedding exemptions.
        shed_policy: one of :data:`~repro.serving.slo.SHED_POLICIES`.
        faults: seeded fault schedule, or ``None``.
        timeout_factor / max_retries / retry_backoff_s / retry_budget /
            hedge_at / hedge_min_completions / failover: the event
            loop's fault-handling knobs, verbatim
            (:class:`~repro.serving.EventLoopConfig`).
        speculate_at / speculate_min_completions / work_steal /
            queue_discipline: the cluster-scope straggler and fairness
            knobs, verbatim.
        objective: when not ``None``, assert the backend's services
            were built under this training/serving objective — the
            facade cannot change a trained objective at serve time, but
            it can refuse to quietly serve under the wrong one.
        power_cap_w: same assertion for the per-launch power cap.
        telemetry: ``"off"`` (default), ``"metrics"`` (a shared
            :class:`~repro.telemetry.MetricsRegistry` every layer
            publishes into, returned on the result), or ``"trace"``
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
    hedge_min_completions: int = 32
    failover: bool = True
    speculate_at: float | None = None
    speculate_min_completions: int = 32
    work_steal: bool = False
    queue_discipline: str = "fifo"
    objective: object | None = None
    power_cap_w: float | None = None
    telemetry: str = "off"

    def __post_init__(self) -> None:
        from ..workloads.spec import ARRIVAL_PROCESSES

        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )
        if not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive")
        if self.telemetry not in TELEMETRY_MODES:
            raise ValueError(
                f"unknown telemetry mode {self.telemetry!r}; "
                f"choose from {TELEMETRY_MODES}"
            )
        # The loop knobs are validated once, eagerly, by building the
        # loop config.
        self.event_config()

    def event_config(self) -> EventLoopConfig:
        """The :class:`EventLoopConfig` these options denote."""
        return EventLoopConfig(
            shed_policy=self.shed_policy,
            slo=self.slo,
            faults=self.faults,
            timeout_factor=self.timeout_factor,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            retry_budget=self.retry_budget,
            hedge_at=self.hedge_at,
            hedge_min_completions=self.hedge_min_completions,
            failover=self.failover,
            speculate_at=self.speculate_at,
            speculate_min_completions=self.speculate_min_completions,
            work_steal=self.work_steal,
            queue_discipline=self.queue_discipline,
        )


@dataclass(frozen=True)
class ServeResult:
    """What one :func:`serve_trace` call produced.

    ``stats`` is the event loop's bounded-memory aggregate; per-request
    results stream through ``on_complete`` instead.  ``telemetry`` is
    the run's :class:`~repro.telemetry.Telemetry` context when the
    options asked for one (``"metrics"`` / ``"trace"``), else ``None``.
    """

    backend_kind: str
    stats: EventLoopStats
    telemetry: Telemetry | None = None


def _backend_kind(backend) -> str:
    from ..cluster.router import ClusterRouter
    from ..fleet.router import FleetRouter
    from .service import PartitioningService

    if isinstance(backend, PartitioningService):
        return "service"
    if isinstance(backend, FleetRouter):
        return "fleet"
    if isinstance(backend, ClusterRouter):
        return "cluster"
    raise TypeError(
        f"serve_trace backends are PartitioningService, FleetRouter or "
        f"ClusterRouter; got {type(backend).__name__}"
    )


def _service_configs(backend, kind: str):
    if kind == "service":
        return [backend.config]
    if kind == "fleet":
        return [r.service.config for r in backend.replicas]
    return [r.service.config for pool in backend.pools for r in pool.replicas]


def _check_build_knobs(backend, kind: str, options: ServeOptions) -> None:
    """Objective/power-cap are baked in at build time; verify, don't mutate."""
    from ..energy.objectives import coerce_objective

    if options.objective is None and options.power_cap_w is None:
        return
    want = (
        coerce_objective(options.objective)
        if options.objective is not None
        else None
    )
    for config in _service_configs(backend, kind):
        if want is not None and config.objective is not want:
            raise ValueError(
                f"options.objective={want.value!r} but the backend was built "
                f"with objective={config.objective.value!r}; rebuild the "
                "service/fleet/cluster under the desired objective"
            )
        if (
            options.power_cap_w is not None
            and config.power_cap_w != options.power_cap_w
        ):
            raise ValueError(
                f"options.power_cap_w={options.power_cap_w!r} but the backend "
                f"was built with power_cap_w={config.power_cap_w!r}"
            )


def serve_trace(
    backend,
    trace: "Iterable",
    options: ServeOptions = ServeOptions(),
    *,
    on_complete: Callable[[CompletedRequest], None] | None = None,
    drift_handler: "Callable[[DriftEvent], None] | None" = None,
) -> ServeResult:
    """Serve one trace on one backend under one set of options.

    ``trace`` is a sequence of requests (kernel or graph, optionally
    interleaved with :class:`~repro.workloads.DriftEvent` items), or an
    already-timed stream of ``(arrival_s, payload)`` items (e.g.
    :meth:`Workload.timed_items`), in which case the options' arrival
    process is ignored in favour of the stream's own timestamps.  A
    sequential trace is consumed lazily: each item is read once the
    previous one resolved.

    On a cluster backend the router's per-tenant isolation meters are
    fed automatically; a caller's ``on_complete`` chains after them.
    """
    kind = _backend_kind(backend)
    _check_build_knobs(backend, kind, options)
    telemetry = Telemetry.from_mode(options.telemetry)
    items = iter(trace)
    first = next(items, None)
    if first is not None:
        items = chain((first,), items)
    if isinstance(first, tuple) or options.arrival == "sequential":
        stream = items
    else:
        from ..workloads.arrivals import arrival_times
        from ..workloads.spec import WorkloadSpec

        items = list(items)
        times = arrival_times(
            WorkloadSpec(
                num_requests=len(items),
                seed=options.seed,
                arrival=options.arrival,
                rate_rps=options.rate_rps,
            ),
            len(items),
        )
        stream = zip(times, items)
    observer = on_complete
    if kind == "cluster":
        cluster_observe = backend.observe_completion
        if on_complete is None:
            observer = cluster_observe
        else:
            user_observe = on_complete

            def observer(completed: CompletedRequest) -> None:
                cluster_observe(completed)
                user_observe(completed)

    config = options.event_config()
    if telemetry is not None:
        config = replace(config, telemetry=telemetry)
    loop = {
        "service": EventLoop.for_service,
        "fleet": EventLoop.for_fleet,
        "cluster": EventLoop.for_cluster,
    }[kind](backend, config)
    stats = loop.run(stream, on_complete=observer, drift_handler=drift_handler)
    if telemetry is not None:
        telemetry.collect(backend, stats=stats)
    return ServeResult(backend_kind=kind, stats=stats, telemetry=telemetry)
