"""The fleet router: one request stream, many machines.

The paper trains one model per machine and predicts per (program,
size); a production deployment owns a *fleet* of heterogeneous
machines and must decide, per request, which machine serves it —
HeSP's joint scheduling-partitioning question lifted one level up,
and HeMT's dispatch tier made explicit.  The router owns N replicas
(each one machine with its own :class:`TrainedSystem` and
:class:`PartitioningService`) and places every request via a pluggable
policy:

* ``least-loaded`` — the replica whose backlog clock frees up first
  (:attr:`PartitioningService.backlog_s`), the classic list-scheduling
  greedy.
* ``affinity`` — a stable hash of (program, size): every key always
  lands on the same replica, maximizing that replica's prediction-cache
  and adaptation locality at the price of load balance.
* ``predicted`` — ask each replica's model what partitioning it would
  run and a noise-free cost-model estimate of how long that would take
  on that machine, then place the request where it is predicted to
  *finish* first (device availability + predicted duration).  This is
  the makespan-aware policy: a fast machine that is busy loses to a
  slower idle one.
* ``energy`` — the same peek, but place the request where serving it
  is predicted to cost the fewest *joules* (idle power over the
  launch included), ties broken by predicted finish time.  This is
  the fleet-level energy router: heterogeneous replicas differ in
  watts as much as in speed, and the greenest machine for a small
  launch is rarely the one with the most GPUs.

The router also owns replica *health*: a per-replica EWMA of the
measured/predicted makespan ratio across everything it serves.  A
replica whose smoothed ratio stays degraded — its hardware drifted and
its service could not repair the gap — is **drained** (taken out of
placement for a cooldown) and **re-warmed**: its model and database
roll back to the registry snapshot when one exists, otherwise the
model refits on the full observation history, and every cached
decision restarts cold.

Routing is deterministic given the seed: the same trace over the same
fleet reproduces the same placements, adaptations and stats.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..core.pipeline import train_system
from ..core.trainer import TrainingConfig
from ..energy.objectives import training_objective
from ..ocl.platform import Platform
from ..partitioning import Partitioning
from ..runtime.scheduler import ExecutionRequest
from ..serving.service import (
    GraphServedResponse,
    PartitioningService,
    ServedResponse,
    ServiceConfig,
)
from ..serving.trace import GraphServingRequest, ServingRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.spec import DriftEvent
    from .registry import ModelRegistry

__all__ = [
    "COOLDOWN_TICK_S",
    "DRAIN_COOLDOWN",
    "DRAIN_MIN_OBSERVATIONS",
    "DRAIN_THRESHOLD",
    "HEALTH_ALPHA",
    "ROUTING_POLICIES",
    "FleetReplica",
    "FleetStats",
    "FleetRouter",
]

#: The pluggable placement policies.
ROUTING_POLICIES = ("least-loaded", "affinity", "predicted", "energy")

#: Simulated seconds per drain-cooldown step when the event loop feeds
#: the router time (:meth:`FleetRouter.tick`).  Placements alone are a
#: bad clock — on a quiet fleet a drained replica would sit out forever
#: — so cooldown also decays one step per tick interval.
COOLDOWN_TICK_S = 0.05

#: EWMA smoothing of a replica's measured/estimate cost ratio.
HEALTH_ALPHA = 0.3

#: Sustained relative degradation before a drain (0.5 = smoothed ratio
#: above 1.5).  Deliberately slacker than the service-level drift
#: threshold: the replica gets to repair itself key by key first, and
#: only a gap its own adaptation could not close costs it a drain.
DRAIN_THRESHOLD = 0.5

#: Served responses before a replica may drain.
DRAIN_MIN_OBSERVATIONS = 8

#: Placements a drained replica sits out before rejoining the rotation
#: (and before it may drain again); it also decays one step per
#: :data:`COOLDOWN_TICK_S` of simulated time.
DRAIN_COOLDOWN = 16


@dataclass
class FleetReplica:
    """One machine of the fleet: a service plus its routing and health state.

    Attributes:
        routed: requests placed on this replica.
        rewarms: times the router re-warmed it.
        health: EWMA of the measured/estimate cost ratio of what it
            served (1.0 = on spec).
        health_observations: responses folded into ``health`` since the
            last drain.
        draining: placements/cooldown ticks the replica still sits out;
            0 means it is in rotation.
    """

    index: int
    service: PartitioningService
    routed: int = 0
    rewarms: int = 0
    health: float = 1.0
    health_observations: int = 0
    draining: int = 0

    @property
    def platform(self) -> Platform:
        return self.service.system.platform

    @property
    def name(self) -> str:
        return self.platform.name


@dataclass(frozen=True)
class FleetStats:
    """Cross-fleet telemetry of one routing session.

    Replicas run concurrently, so the fleet makespan is the *maximum*
    over the replicas' backlog clocks and fleet throughput is total
    requests over that span (0.0 when no simulated time elapsed).
    Per-replica numbers live on :attr:`FleetRouter.replicas` and each
    replica's service.
    """

    requests: int
    makespan_s: float
    throughput_rps: float
    adaptations: int
    refits: int
    drift_flags: int = 0
    rewarms: int = 0
    energy_j: float = 0.0
    avg_power_w: float = 0.0


class FleetRouter:
    """Routes a shared request trace across N partitioning services."""

    def __init__(
        self,
        services: Sequence[PartitioningService],
        policy: str = "least-loaded",
        registry: "ModelRegistry | None" = None,
    ):
        if not services:
            raise ValueError("a fleet needs at least one replica")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; choose from {ROUTING_POLICIES}"
            )
        names = [s.system.platform.name for s in services]
        if len(set(names)) != len(names):
            raise ValueError(
                f"replica machine names must be unique, got {names}: cache keys, "
                "database records and registry entries all key on the name"
            )
        self.policy = policy
        self.registry = registry
        self.replicas = tuple(
            FleetReplica(index=i, service=s) for i, s in enumerate(services)
        )
        # Peeked (execution request, partitioning) pairs per key, dropped
        # whenever the replica adapts, refits or substitutes (any can
        # change what it would answer).
        self._peeked: list[dict[tuple[str, int], tuple]] = [{} for _ in self.replicas]
        self._peek_generations: list[tuple[int, ...]] = [() for _ in self.replicas]
        # Simulated-time cooldown decay (see tick()): last clock value
        # seen and elapsed time not yet converted into cooldown steps.
        self._sim_clock_s = 0.0
        self._tick_carry_s = 0.0

    @classmethod
    def build(
        cls,
        platforms: Sequence[Platform],
        benchmarks=None,
        model_kind: str = "knn",
        training: TrainingConfig = TrainingConfig(repetitions=1),
        serving: ServiceConfig = ServiceConfig(),
        policy: str = "least-loaded",
    ) -> "FleetRouter":
        """Train one system per platform and wrap them in a router.

        Each replica's model trains on the serving objective's
        :func:`~repro.energy.training_objective`, so an
        energy-objective fleet predicts energy-optimal partitionings
        end to end.
        """
        objective = training_objective(serving.objective)
        services = [
            PartitioningService(
                train_system(
                    p,
                    benchmarks,
                    model_kind=model_kind,
                    config=training,
                    objective=objective,
                ),
                serving,
            )
            for p in platforms
        ]
        return cls(services, policy=policy)

    # -- placement policies ------------------------------------------------

    def _candidates(self) -> tuple[int, ...]:
        """Replica indices currently in rotation.

        Draining replicas are excluded; when *every* replica is
        draining the traffic must still land somewhere, so the full
        fleet becomes eligible again.
        """
        up = tuple(r.index for r in self.replicas if r.draining == 0)
        return up or tuple(range(len(self.replicas)))

    def _affinity_index(self, request: ServingRequest) -> int:
        """Stable key → replica hash (process-independent, unlike hash())."""
        digest = hashlib.sha256(
            f"{request.program}:{request.size}".encode()
        ).digest()
        base = int.from_bytes(digest[:8], "big")
        candidates = self._candidates()
        # Linear probe from the home slot: while a replica drains its
        # keys spill to the next one, and return home afterwards.
        for offset in range(len(self.replicas)):
            index = (base + offset) % len(self.replicas)
            if index in candidates:
                return index
        return base % len(self.replicas)  # pragma: no cover - candidates never empty

    def _least_loaded_index(self) -> int:
        """The replica in rotation (see :meth:`_candidates`) whose backlog
        clock frees up first, the lowest index on ties."""
        rotation = [r for r in self.replicas if r.draining == 0] or self.replicas
        return min(rotation, key=lambda r: r.service.backlog_s).index

    def _peek(
        self, replica: FleetReplica, request: ServingRequest
    ) -> tuple[ExecutionRequest, Partitioning]:
        """What the replica would run: its own execution request for the
        key and its memoized peek_prediction, re-peeked after it changes.

        An adaptation pins a validated winner, a refit swaps the model
        and a power-cap substitution replaces the answer; each changes
        what the replica would serve, so the memo is keyed to a
        generation of those counters and dropped wholesale when it
        moves.
        """
        i = replica.index
        stats = replica.service.stats
        generation = (
            stats.refits,
            stats.adaptations,
            stats.drift_flags,
            stats.rewarms,
            stats.power_capped,
        )
        if self._peek_generations[i] != generation:
            self._peeked[i].clear()
            self._peek_generations[i] = generation
        memo = self._peeked[i]
        key = (request.program, request.size)
        hit = memo.get(key)
        if hit is None:
            service = replica.service
            hit = memo[key] = (
                service.execution_request((replica.name, *key)),
                service.peek_prediction(request),
            )
        return hit

    def _predicted_index(self, request: ServingRequest) -> int:
        """The replica predicted to finish first, priced on its own serving
        engine (:meth:`~repro.engine.SweepEngine.price`), drift included."""
        candidates = self._candidates()
        best_index, best_finish = candidates[0], float("inf")
        for index in candidates:
            replica = self.replicas[index]
            exec_request, partitioning = self._peek(replica, request)
            engine = replica.service.engine
            duration = engine.price(exec_request, partitioning).makespan_s
            free = replica.service.device_free_s
            start = max(free[d] for d in partitioning.active_devices)
            finish = start + duration
            if finish < best_finish:
                best_index, best_finish = replica.index, finish
        return best_index

    def _energy_index(self, request: ServingRequest) -> int:
        """The replica predicted to serve this request for the fewest joules.

        Same peek-every-model mechanics as the ``predicted`` policy,
        but the score is the estimated *energy* of running the
        replica's predicted partitioning on that machine (idle power
        over the launch included, so a many-GPU machine pays its whole
        board for a small launch).  Ties — identical machines answering
        identically — break by predicted finish time so the energy
        policy still spreads load across twins.
        """
        candidates = self._candidates()
        best_index = candidates[0]
        best_score = (float("inf"), float("inf"))
        for index in candidates:
            replica = self.replicas[index]
            exec_request, partitioning = self._peek(replica, request)
            run = replica.service.engine.price(exec_request, partitioning)
            free = replica.service.device_free_s
            start = max(free[d] for d in partitioning.active_devices)
            score = (run.energy_j, start + run.makespan_s)
            if score < best_score:
                best_index, best_score = replica.index, score
        return best_index

    def _route_index(self, request: ServingRequest) -> int:
        if self.policy == "affinity":
            return self._affinity_index(request)
        if self.policy == "predicted":
            return self._predicted_index(request)
        if self.policy == "energy":
            return self._energy_index(request)
        return self._least_loaded_index()

    # -- replica health ----------------------------------------------------

    def _observe_health(self, replica: FleetReplica, response: ServedResponse) -> None:
        """Fold one served response into the replica's health EWMA.

        Deliberately *one-sided*, unlike the service's two-sided
        per-key :class:`~repro.serving.drift.DriftDetector`: a key
        whose device sped up deserves a re-search (the optimum moved),
        but a replica that got *faster* than predicted must never be
        drained — drains are for machines underdelivering on their
        promises, and the per-key detector already refreshes the fast
        replica's decisions in place.
        """
        estimate = response.estimate_s
        if estimate is None or estimate <= 0:
            return
        if not math.isfinite(estimate):
            return
        # Compare in the service's objective units: ``cost`` is the
        # measured scalar the estimate was produced in (seconds only
        # under the makespan objective — an energy-objective replica
        # must be judged in joules, not joules-vs-seconds).
        ratio = response.cost / estimate
        if not math.isfinite(ratio):
            # Cap-infeasible measurements cost inf; inf/NaN would
            # poison the health EWMA permanently.
            return
        replica.health = HEALTH_ALPHA * ratio + (1.0 - HEALTH_ALPHA) * replica.health
        replica.health_observations += 1
        if (
            replica.draining == 0
            and replica.health_observations >= DRAIN_MIN_OBSERVATIONS
            and replica.health > 1.0 + DRAIN_THRESHOLD
        ):
            self._drain(replica)

    def _drain(self, replica: FleetReplica) -> None:
        """Take a degraded replica out of rotation and re-warm it."""
        replica.draining = DRAIN_COOLDOWN
        replica.health = 1.0
        replica.health_observations = 0
        self.rewarm_replica(replica.index)

    def rewarm_replica(self, index: int) -> None:
        """Re-warm one replica: registry rollback or in-place refit.

        With a registered snapshot the replica's model *and* database
        roll back to the last known-good state (online observations
        made on the pre-drift hardware are discarded wholesale), and
        the model serves the replica's training objective; without one
        the model refits on everything observed so far.
        Either way the replica's serving state restarts cold — see
        :meth:`PartitioningService.rewarm`.
        """
        replica = self.replicas[index]
        if self.registry is not None and self.registry.has(replica.name):
            predictor, database = self.registry.load_snapshot(
                replica.platform, training_objective(replica.service.config.objective)
            )
            replica.service.rewarm(predictor=predictor, database=database)
        else:
            replica.service.rewarm()
        replica.rewarms += 1

    def apply_drift(self, event: "DriftEvent") -> tuple[str, ...]:
        """Apply one platform drift event; returns the machines hit.

        Matches replicas by machine name (``event.machine is None``
        drifts the whole fleet) and rescales each hit replica's serving
        runner; placement prices on the same runner's engine, so it
        sees the post-drift hardware too.
        """
        hit = []
        for replica in self.replicas:
            if event.machine is not None and replica.name != event.machine:
                continue
            replica.service.system.runner.apply_drift(
                event.scale, device_index=event.device_index
            )
            hit.append(replica.name)
        if not hit:
            raise ValueError(
                f"drift event names unknown machine {event.machine!r}; "
                f"fleet has {[r.name for r in self.replicas]}"
            )
        return tuple(hit)

    # -- serving -----------------------------------------------------------

    def place(self, request: "ServingRequest | GraphServingRequest") -> int:
        """Pick (and commit to) a replica for one request.

        This is the routing half of :meth:`submit`, split out so the
        event loop can place at *arrival* time and serve at queue-head
        time — placement must see the fleet as it is when the request
        shows up, not when a queue finally drains.  Calling ``place``
        commits the routing side effects (drain countdown, routed
        counter); follow it with :meth:`serve_on`.

        Graph requests bypass the policies (those interrogate
        per-kernel predictors) and spread deterministically by request
        id; they count as routed but do not step drain cooldowns.
        """
        if isinstance(request, GraphServingRequest):
            index = request.request_id % len(self.replicas)
            self.replicas[index].routed += 1
            return index
        # Each routed request moves every draining replica one step
        # closer to rejoining; tick() adds a simulated-time clock on top
        # so a quiet fleet cannot strand a drained replica.
        for replica in self.replicas:
            if replica.draining > 0:
                replica.draining -= 1
        index = self._route_index(request)
        self.replicas[index].routed += 1
        return index

    def tick(self, now_s: float) -> None:
        """Advance the router's simulated clock to ``now_s``.

        Drain cooldowns decay one step per :data:`COOLDOWN_TICK_S` of
        elapsed simulated time, *in addition to* the per-placement
        decrement in :meth:`place`.  Before this, cooldown counted
        placements only, so on a quiet fleet a drained replica could
        sit out forever waiting for traffic that never came.  The event
        loop calls this whenever its clock moves; fractional intervals
        carry over, so many small ticks decay exactly like one big one.
        """
        if now_s <= self._sim_clock_s:
            return
        elapsed = now_s - self._sim_clock_s
        self._sim_clock_s = now_s
        self._tick_carry_s += elapsed
        steps = int(self._tick_carry_s / COOLDOWN_TICK_S)
        if steps <= 0:
            return
        self._tick_carry_s -= steps * COOLDOWN_TICK_S
        for replica in self.replicas:
            if replica.draining > 0:
                replica.draining = max(0, replica.draining - steps)

    def serve_on(
        self, index: int, request: "ServingRequest | GraphServingRequest"
    ) -> "ServedResponse | GraphServedResponse":
        """Serve one already-placed request on the chosen replica and
        return what its service returned.

        Kernel responses feed the replica's health tracking; graph
        responses do not (health compares kernel-level estimates).
        """
        replica = self.replicas[index]
        if isinstance(request, GraphServingRequest):
            return replica.service.submit_graph(request)
        response = replica.service.submit(request)
        self._observe_health(replica, response)
        return response

    def submit(
        self, request: "ServingRequest | GraphServingRequest"
    ) -> "ServedResponse | GraphServedResponse":
        """Place and serve one request; returns the service's response
        (:meth:`place` then :meth:`serve_on` when the placement matters)."""
        return self.serve_on(self.place(request), request)

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> FleetStats:
        """Cross-fleet counters and throughput, right now."""
        replicas = self.replicas
        requests = sum(r.routed for r in replicas)
        makespan = max((r.service.backlog_s for r in replicas), default=0.0)
        throughput = requests / makespan if makespan > 0 else 0.0
        energy = sum(r.service.stats.energy_j for r in replicas)
        return FleetStats(
            requests=requests,
            makespan_s=makespan,
            throughput_rps=throughput,
            adaptations=sum(r.service.stats.adaptations for r in replicas),
            refits=sum(r.service.stats.refits for r in replicas),
            drift_flags=sum(r.service.stats.drift_flags for r in replicas),
            rewarms=sum(r.rewarms for r in replicas),
            energy_j=energy,
            # Fleet draw averaged over the concurrent span (replicas
            # run side by side, so joules sum but seconds do not).
            avg_power_w=energy / makespan if makespan > 0 else 0.0,
        )

    def publish_metrics(self, registry, prefix: str = "fleet") -> None:
        """Publish fleet aggregates and per-replica slices as gauges.

        ``fleet.*`` carries the cross-fleet numbers;
        ``fleet.replica.<name>.*`` the per-replica routing/health view;
        each member service publishes its own counters under
        ``fleet.replica.<name>.service.*``.
        """
        stats = self.stats()
        registry.gauge(f"{prefix}.requests").set(stats.requests)
        registry.gauge(f"{prefix}.makespan_s").set(stats.makespan_s)
        registry.gauge(f"{prefix}.throughput_rps").set(stats.throughput_rps)
        registry.gauge(f"{prefix}.adaptations").set(stats.adaptations)
        registry.gauge(f"{prefix}.refits").set(stats.refits)
        registry.gauge(f"{prefix}.drift_flags").set(stats.drift_flags)
        registry.gauge(f"{prefix}.rewarms").set(stats.rewarms)
        registry.gauge(f"{prefix}.energy_j").set(stats.energy_j)
        registry.gauge(f"{prefix}.avg_power_w").set(stats.avg_power_w)
        for replica in self.replicas:
            base = f"{prefix}.replica.{replica.name}"
            registry.gauge(f"{base}.routed").set(replica.routed)
            registry.gauge(f"{base}.health").set(replica.health)
            registry.gauge(f"{base}.draining").set(int(replica.draining > 0))
            replica.service.publish_metrics(registry, prefix=f"{base}.service")
