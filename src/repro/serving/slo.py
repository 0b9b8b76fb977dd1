"""Service-level objectives: per-tenant latency targets and shedding.

An SLO is a promise about *end-to-end* latency — queueing included —
so it only becomes meaningful on the event-driven serving path where
requests carry arrival timestamps.  :class:`SLOConfig` names the
target and the per-tenant priorities;
:class:`SLOTracker` counts, per tenant, how often the promise was kept,
broken, or pre-empted by admission control.

Shedding policies (:data:`SHED_POLICIES`):

* ``none`` — admit everything; violations are observed, never avoided.
* ``deadline`` — admission control: a request whose *predicted*
  completion (current backlog plus one expected service time) already
  overshoots its SLO target is shed at arrival instead of wasting
  queue space to miss its deadline anyway.
* ``priority`` — the same deadline test, but only tenants whose
  priority is below :data:`SHED_BELOW_PRIORITY` may be shed; premium
  traffic is always admitted and rides out the queue.

The deadline test itself lives here as :func:`shed_decision` so the
backlog arithmetic is shared (and testable) outside the event loop.
The estimate counts *in-flight duplicates* — retries waiting out their
backoff and hedged copies already queued — alongside the plain queue
depth: under a retry storm the real backlog is larger than the queue,
and ignoring duplicates makes admission control over-admit exactly
when the service is least able to absorb it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SHED_BELOW_PRIORITY",
    "SHED_POLICIES",
    "SLOConfig",
    "ShedDecision",
    "TenantSLOStats",
    "SLOTracker",
    "shed_decision",
]

#: The admission-control policies of the event loop.
SHED_POLICIES = ("none", "deadline", "priority")

#: Under the ``priority`` policy, only requests whose tenant priority
#: is strictly below this may be shed.
SHED_BELOW_PRIORITY = 1


@dataclass(frozen=True)
class SLOConfig:
    """The latency target and the per-tenant priorities.

    Attributes:
        target_s: end-to-end latency target in seconds, the same for
            every tenant; ``None`` disables SLO accounting (and all
            shedding).
        tenant_priorities: per-tenant priorities as (tenant, priority)
            pairs; unlisted tenants have priority 0.  A tenant may be
            listed once.
    """

    target_s: float | None = None
    tenant_priorities: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.target_s is not None and not self.target_s > 0:
            raise ValueError("target_s must be positive")
        priorities = tuple(self.tenant_priorities)
        tenants = [tenant for tenant, _priority in priorities]
        for tenant in tenants:
            if tenants.count(tenant) > 1:
                raise ValueError(
                    f"tenant {tenant!r} is listed twice in tenant_priorities"
                )
        object.__setattr__(self, "tenant_priorities", priorities)

    def priority_for(self, tenant: str) -> int:
        for name, priority in self.tenant_priorities:
            if name == tenant:
                return priority
        return 0

    def weight_for(self, tenant: str) -> float:
        """A tenant's capacity weight: 1 plus its non-negative priority.

        The weighted-fair queue discipline divides a tenant's virtual
        time by it, and the cluster's fairness gap measures realized
        shares against the same weights.
        """
        return 1.0 + max(0, self.priority_for(tenant))


@dataclass(frozen=True)
class ShedDecision:
    """Outcome of one admission test.

    ``predicted_s`` is the completion estimate the test compared
    against the tenant's target, or ``None`` when no estimate was
    needed (policy ``none``, no target, exempt priority, idle server).
    """

    shed: bool
    predicted_s: float | None = None


#: The decision of every admission that needed no estimate; shared,
#: because the test runs once per arrival.
_ADMIT = ShedDecision(shed=False)


def shed_decision(
    policy: str,
    config: SLOConfig,
    tenant: str,
    *,
    idle: bool,
    busy_wait_s: float,
    queue_depth: int,
    duplicate_depth: int,
    est_service_s: float,
) -> ShedDecision:
    """Deadline-aware admission test against one replica's backlog.

    Predicted completion is ``busy_wait_s + (queue_depth +
    duplicate_depth + 1) × est_service_s``: the time the in-service
    request still needs, plus one expected service time for every
    queued request, every in-flight duplicate contending for the same
    capacity (pending retries, hedged copies), and the candidate
    itself.

    ``idle`` short-circuits to admit: shedding into an idle server
    never helps, and admitting keeps the service-time EWMA calibrated
    even when the initial estimate blows the target.
    """
    if policy not in SHED_POLICIES:
        raise ValueError(
            f"unknown shed policy {policy!r}; choose from {SHED_POLICIES}"
        )
    if queue_depth < 0 or duplicate_depth < 0:
        raise ValueError("queue and duplicate depths must be non-negative")
    if policy == "none":
        return _ADMIT
    target = config.target_s
    if target is None:
        return _ADMIT
    if policy == "priority" and config.priority_for(tenant) >= SHED_BELOW_PRIORITY:
        return _ADMIT
    if idle:
        return _ADMIT
    predicted = busy_wait_s + (queue_depth + duplicate_depth + 1) * est_service_s
    return ShedDecision(shed=predicted > target, predicted_s=predicted)


@dataclass
class TenantSLOStats:
    """One tenant's slice of the SLO accounting."""

    completed: int = 0
    violations: int = 0
    shed: int = 0
    #: Requests lost to faults: timed out, crash-stranded, or out of retries.
    failed: int = 0

    @property
    def violation_rate(self) -> float:
        """Violations per *completed* request (shed requests are not
        violations — they were refused, not served late)."""
        return self.violations / self.completed if self.completed else 0.0


@dataclass
class SLOTracker:
    """Streaming per-tenant SLO counters (bounded by the tenant count)."""

    config: SLOConfig = field(default_factory=SLOConfig)
    tenants: dict[str, TenantSLOStats] = field(default_factory=dict)

    def _tenant(self, tenant: str) -> TenantSLOStats:
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = TenantSLOStats()
        return stats

    def record_completion(self, tenant: str, latency_s: float) -> bool:
        """Count one served request; True when it violated its target."""
        stats = self._tenant(tenant)
        stats.completed += 1
        target = self.config.target_s
        violated = target is not None and latency_s > target
        if violated:
            stats.violations += 1
        return violated

    def record_shed(self, tenant: str) -> None:
        self._tenant(tenant).shed += 1

    def record_failed(self, tenant: str) -> None:
        """Count one request lost to a fault (not a latency violation)."""
        self._tenant(tenant).failed += 1

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants.values())

    @property
    def violations(self) -> int:
        return sum(t.violations for t in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tenants.values())

    @property
    def violation_rate(self) -> float:
        completed = self.completed
        return self.violations / completed if completed else 0.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-tenant counters, bit-comparable and JSON-ready."""
        return {
            tenant: {
                "completed": t.completed,
                "violations": t.violations,
                "shed": t.shed,
                "failed": t.failed,
                "violation_rate": t.violation_rate,
            }
            for tenant, t in sorted(self.tenants.items())
        }

    def publish_metrics(self, registry, prefix: str = "slo") -> None:
        """Publish per-tenant counters as ``slo.tenant.<t>.*`` gauges.

        Gauges, not counters: publication is a point-in-time snapshot
        and must stay idempotent under repeated collection.
        """
        for tenant, counters in self.snapshot().items():
            for name, value in counters.items():
                registry.gauge(f"{prefix}.tenant.{tenant}.{name}").set(value)
