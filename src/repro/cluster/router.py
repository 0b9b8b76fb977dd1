"""The cluster router: many machine pools, many tenants, one stream.

One :class:`ClusterRouter` owns P pools — each a full
:class:`~repro.fleet.FleetRouter` with its own replicas, policies and
health tracking — behind a :class:`~repro.cluster.NetworkSpec` that
prices every cross-pool handoff in seconds and joules, exactly as PCIe
transfers are priced inside one machine by
:func:`repro.graphs.compose.edge_transfer`.

Tenancy is the organizing principle: every tenant hashes to a stable
*home pool* where its data is resident, so serving a request in its
home pool ships zero bytes (free, like a resident PCIe buffer) while
serving it anywhere else pays the interconnect for the request's input
arrays.  Placement weighs that price against load: a lightly-loaded
remote pool wins only when its head start exceeds the network toll —
the same finish-time greedy the fleet's ``predicted`` policy runs, one
level up.

The router also feeds the event loop's cluster-scope fault handling:
:meth:`speculative_index` places a speculative re-execution in a pool
*not* already running a copy (a straggler window hits one pool; the
duplicate must not land inside it), and :meth:`steal_candidates`
names the replicas an idle machine may steal queued work from —
cross-pool only, since intra-pool balance is the FleetRouter's job.

Per-tenant isolation is reported, not enforced by fiat:
:meth:`observe_completion` folds every finished request into bounded
per-tenant histograms and busy-second meters, and :meth:`stats`
reports each tenant's p99, share of cluster capacity, and the fairness
gap — how far the realized shares sit from the priority-weighted ideal
the weighted-fair queue aims at.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from ..benchsuite.registry import get_benchmark
from ..core.trainer import TrainingConfig
from ..fleet.router import FleetRouter
from ..machines.fleet import cluster_platforms
from ..runtime.arrays import buffer_layout
from ..serving.histogram import LatencyHistogram
from ..serving.service import ServiceConfig
from ..serving.slo import SLOConfig
from ..serving.trace import GraphServingRequest, ServingRequest
from .network import NetworkSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.eventloop import CompletedRequest
    from ..serving.service import GraphServedResponse, ServedResponse
    from ..workloads.spec import DriftEvent

__all__ = [
    "ClusterResponse",
    "ClusterRouter",
    "ClusterStats",
    "TenantStats",
    "with_tenants",
]


def with_tenants(
    trace: Sequence[ServingRequest], tenants: Sequence[str]
) -> tuple[ServingRequest, ...]:
    """Assign tenants round-robin over a single-tenant trace.

    Deterministic by request id, so the same trace always produces the
    same multi-tenant stream regardless of iteration order.
    """
    if not tenants:
        raise ValueError("tenants must name at least one tenant")
    n = len(tenants)
    # A kernel request is built positionally: ``replace`` costs about
    # three times as much, once per request of a long trace.
    return tuple(
        ServingRequest(r.request_id, r.program, r.size, tenants[r.request_id % n])
        if type(r) is ServingRequest
        else replace(r, tenant=tenants[r.request_id % n])
        for r in trace
    )


@dataclass(frozen=True)
class ClusterResponse:
    """A served request (kernel or graph) plus where the cluster placed
    it and what the network charged.

    ``measured_s`` is the end-to-end execution span *including* the
    interconnect handoff when the request was served away from its
    tenant's home pool — the event loop accrues it into latency exactly
    like the PCIe-priced spans inside one machine.
    """

    pool_index: int
    home_pool: int
    replica_index: int
    replica_name: str
    network_s: float
    network_j: float
    #: What the replica's service returned.
    response: "ServedResponse | GraphServedResponse"

    @property
    def cross_pool(self) -> bool:
        return self.pool_index != self.home_pool

    @property
    def cache_hit(self) -> bool:
        return self.response.cache_hit

    @property
    def measured_s(self) -> float:
        return self.response.measured_s + self.network_s


@dataclass(frozen=True)
class TenantStats:
    """One tenant's isolation slice of the cluster telemetry."""

    tenant: str
    completed: int
    busy_s: float
    #: Realized fraction of total cluster busy seconds.
    share: float
    #: Priority-derived weight the fair-share target is computed from.
    weight: float
    #: Weight over the sum of observed tenants' weights.
    fair_share: float
    p50_s: float
    p99_s: float

    @property
    def share_gap(self) -> float:
        """How far the realized share sits from the fair target."""
        return abs(self.share - self.fair_share)


@dataclass(frozen=True)
class ClusterStats:
    """Cross-cluster telemetry: pool count, network toll, isolation.

    Each pool's own numbers come from its :meth:`FleetRouter.stats`.
    """

    pools: int
    served: int
    local: int
    cross_pool: int
    network_s: float
    network_j: float
    tenants: tuple[TenantStats, ...]

    @property
    def fairness_gap(self) -> float:
        """Largest per-tenant deviation from the weighted fair share.

        0 means every tenant got exactly its priority-weighted slice of
        cluster busy time; 1 is maximal capture by one tenant.  Single-
        tenant (or idle) runs report 0 by construction.
        """
        return max((t.share_gap for t in self.tenants), default=0.0)

    def to_dict(self) -> dict:
        return {
            "pools": self.pools,
            "served": self.served,
            "local": self.local,
            "cross_pool": self.cross_pool,
            "network_s": self.network_s,
            "network_j": self.network_j,
            "fairness_gap": self.fairness_gap,
            "tenants": {
                t.tenant: {
                    "completed": t.completed,
                    "busy_s": t.busy_s,
                    "share": t.share,
                    "fair_share": t.fair_share,
                    "weight": t.weight,
                    "p50_s": t.p50_s,
                    "p99_s": t.p99_s,
                }
                for t in self.tenants
            },
        }


@dataclass
class _TenantMeter:
    """Streaming per-tenant isolation state (bounded memory)."""

    completed: int = 0
    busy_s: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)


class ClusterRouter:
    """Routes a multi-tenant stream across P machine pools."""

    def __init__(
        self,
        pools: Sequence[FleetRouter],
        network: NetworkSpec = NetworkSpec(),
        slo: SLOConfig = SLOConfig(),
    ):
        if not pools:
            raise ValueError("a cluster needs at least one pool")
        names = [r.name for pool in pools for r in pool.replicas]
        if len(set(names)) != len(names):
            raise ValueError(
                f"replica machine names must be unique cluster-wide, got {names}"
            )
        self.pools = tuple(pools)
        self.network = network
        self.slo = slo
        # The pools never change, so their maps are built once, here.
        #: Flat replica index of each pool's first replica.
        self._offsets: list[int] = []
        pool_of: list[int] = []
        for p, pool in enumerate(self.pools):
            self._offsets.append(len(pool_of))
            pool_of.extend(p for _ in pool.replicas)
        #: Pool of each flat replica index.
        self._pool_of = tuple(pool_of)
        self._num_replicas = len(pool_of)
        #: Cross-pool steal victims per pool.
        self._victims = tuple(
            tuple(i for i, q in enumerate(pool_of) if q != p)
            for p in range(len(self.pools))
        )
        #: Home pool per tenant, filled by :meth:`home_pool` on first use.
        self._homes: dict[str, int] = {}
        #: Memoized request payload bytes per (program, size), read off
        #: one instance's declared buffer layout (nothing is drawn).
        self._bytes: dict[tuple[str, int], int] = {}
        #: Memoized per-pool handoff prices per (tenant, program, size):
        #: placement, serving and speculation all read them per request.
        self._handoffs: dict[tuple, tuple[tuple[float, float], ...]] = {}
        self._meters: dict[str, _TenantMeter] = {}
        self.served = 0
        self.cross_pool = 0
        self.network_s = 0.0
        self.network_j = 0.0

    @classmethod
    def build(
        cls,
        pools: int,
        machines_per_pool: int,
        benchmarks=None,
        model_kind: str = "knn",
        training: TrainingConfig = TrainingConfig(repetitions=1),
        serving: ServiceConfig = ServiceConfig(),
        network: NetworkSpec = NetworkSpec(),
        slo: SLOConfig = SLOConfig(),
    ) -> "ClusterRouter":
        """Train ``pools × machines_per_pool`` systems and wrap them.

        Pool p gets the p-th chunk of the deterministic
        :func:`~repro.machines.cluster_platforms` derivation, so the
        same shape always trains the same cluster and a P-pool cluster
        is a prefix of every wider one.  Every pool routes
        ``least-loaded``.
        """
        platform_pools = cluster_platforms(pools, machines_per_pool)
        routers = [
            FleetRouter.build(
                chunk,
                benchmarks,
                model_kind=model_kind,
                training=training,
                serving=serving,
            )
            for chunk in platform_pools
        ]
        return cls(routers, network=network, slo=slo)

    # -- flat <-> (pool, local) indexing -------------------------------------

    @property
    def num_replicas(self) -> int:
        return self._num_replicas

    @property
    def services(self):
        """Flat replica services across pools (event-loop backend order)."""
        return [r.service for pool in self.pools for r in pool.replicas]

    def pool_of(self, flat_index: int) -> int:
        if not 0 <= flat_index < self._num_replicas:
            raise IndexError(f"flat replica index {flat_index} out of range")
        return self._pool_of[flat_index]

    # -- tenancy and pricing -------------------------------------------------

    def home_pool(self, tenant: str) -> int:
        """The pool a tenant's data lives in: a stable, process-
        independent hash (same construction as the fleet's affinity
        policy), so the same tenant always resolves to the same home.
        Hashed once per tenant: placement asks on every request."""
        home = self._homes.get(tenant)
        if home is None:
            digest = hashlib.sha256(tenant.encode()).digest()
            home = int.from_bytes(digest[:8], "big") % len(self.pools)
            self._homes[tenant] = home
        return home

    def request_bytes(self, request: "ServingRequest | GraphServingRequest") -> int:
        """Input payload bytes a cross-pool handoff of ``request`` ships.

        Kernel requests ship their problem arrays (the exact buffers
        the PCIe model prices inside the machine); a graph ships every
        node's arrays — the whole pipeline migrates or none of it does.
        """
        if isinstance(request, GraphServingRequest):
            return sum(
                self._key_bytes(node.program, node.size)
                for node in request.graph.nodes
            )
        return self._key_bytes(request.program, request.size)

    def _key_bytes(self, program: str, size: int) -> int:
        key = (program, size)
        nbytes = self._bytes.get(key)
        if nbytes is None:
            seed = self.pools[0].replicas[0].service.config.instance_seed
            instance = get_benchmark(program).make_instance(size, seed=seed)
            nbytes = sum(
                elements * itemsize
                for elements, itemsize in buffer_layout(instance.arrays).values()
            )
            self._bytes[key] = nbytes
        return nbytes

    def handoff_cost(
        self, request: "ServingRequest | GraphServingRequest", pool_index: int
    ) -> tuple[float, float]:
        """(seconds, joules) the network charges for serving ``request``
        in ``pool_index``; zero in the tenant's home pool."""
        if pool_index == self.home_pool(request.tenant):
            return 0.0, 0.0
        return self.network.handoff(self.request_bytes(request))

    def _pool_handoffs(
        self, request: "ServingRequest | GraphServingRequest"
    ) -> tuple[tuple[float, float], ...]:
        """:meth:`handoff_cost` of ``request`` in every pool, in pool
        order; priced once per (tenant, program, size) key.  A graph
        request ships every node's arrays, so it is priced afresh."""
        if isinstance(request, GraphServingRequest):
            return tuple(
                self.handoff_cost(request, p) for p in range(len(self.pools))
            )
        key = (request.tenant, request.program, request.size)
        costs = self._handoffs.get(key)
        if costs is None:
            costs = self._handoffs[key] = tuple(
                self.handoff_cost(request, p) for p in range(len(self.pools))
            )
        return costs

    def _pool_load_s(self, pool_index: int) -> float:
        """Mean backlog clock across the pool's replicas."""
        pool = self.pools[pool_index]
        return sum(r.service.backlog_s for r in pool.replicas) / len(pool.replicas)

    # -- placement -----------------------------------------------------------

    def place(self, request: "ServingRequest | GraphServingRequest") -> int:
        """Pick (and commit to) a flat replica index for one request.

        Pool choice is finish-time greedy with the network priced in:
        ``load(pool) + handoff_seconds(request, pool)``, so a remote
        pool wins only when its head start beats the interconnect toll
        — the cluster-level analogue of PCIe-aware partitioning.  Ties
        break toward the home pool, then by pool index.  Within the
        chosen pool the pool's own :meth:`FleetRouter.place` picks the
        replica.
        """
        home = self.home_pool(request.tenant)
        best_pool, best_score = home, (math.inf, 1, home)
        for p, (net_s, _net_j) in enumerate(self._pool_handoffs(request)):
            score = (self._pool_load_s(p) + net_s, 0 if p == home else 1, p)
            if score < best_score:
                best_pool, best_score = p, score
        return self._offsets[best_pool] + self.pools[best_pool].place(request)

    def speculative_index(
        self,
        request: "ServingRequest | GraphServingRequest",
        exclude: set[int],
    ) -> int | None:
        """Where a speculative re-execution of ``request`` should land.

        Pools already running a copy (any flat index in ``exclude``)
        are avoided — a straggler window is a *pool-local* condition,
        so the duplicate must escape the pool, not just the replica.
        Falls back to any non-excluded replica when every pool is
        tainted, and to ``None`` when ``exclude`` covers the cluster.
        """
        excluded_pools = {self.pool_of(i) for i in exclude}
        candidates = [
            p for p in range(len(self.pools)) if p not in excluded_pools
        ]
        if candidates:
            costs = self._pool_handoffs(request)
            best = min(
                candidates, key=lambda p: (self._pool_load_s(p) + costs[p][0], p)
            )
            pool = self.pools[best]
            local = min(
                range(len(pool.replicas)),
                key=lambda i: (pool.replicas[i].service.backlog_s, i),
            )
            return self._offsets[best] + local
        flat = [i for i in range(self._num_replicas) if i not in exclude]
        return flat[0] if flat else None

    def steal_candidates(self, thief_flat: int) -> tuple[int, ...]:
        """Flat indices an idle replica may steal queued work from.

        Cross-pool only: intra-pool balance is the pool router's
        business, and the point of cluster-level stealing is draining a
        backlogged pool (straggler or crash fallout) onto idle capacity
        elsewhere.
        """
        return self._victims[self.pool_of(thief_flat)]

    # -- serving --------------------------------------------------------------

    def tick(self, now_s: float) -> None:
        for pool in self.pools:
            pool.tick(now_s)

    def serve_on(
        self, flat_index: int, request: "ServingRequest | GraphServingRequest"
    ) -> ClusterResponse:
        """Serve one placed request; the network bill rides the response.

        A request served outside its tenant's home pool pays the
        interconnect for its input arrays — the handoff seconds join
        ``measured_s`` (the event loop accrues them into latency) and
        the joules join the cluster's network meter.
        """
        pool_index = self.pool_of(flat_index)
        local = flat_index - self._offsets[pool_index]
        home = self.home_pool(request.tenant)
        net_s, net_j = self._pool_handoffs(request)[pool_index]
        self.served += 1
        if pool_index != home:
            self.cross_pool += 1
            self.network_s += net_s
            self.network_j += net_j
        pool = self.pools[pool_index]
        # Positional: binding seven keywords per request costs as much
        # as building the response.
        return ClusterResponse(
            pool_index,
            home,
            flat_index,
            pool.replicas[local].name,
            net_s,
            net_j,
            pool.serve_on(local, request),
        )

    def submit(
        self, request: "ServingRequest | GraphServingRequest"
    ) -> ClusterResponse:
        """Place and serve one request directly (no event loop)."""
        return self.serve_on(self.place(request), request)

    def apply_drift(self, event: "DriftEvent") -> tuple[str, ...]:
        """Apply one drift event across pools; returns machines hit.

        ``event.machine is None`` drifts the whole cluster; a named
        machine lives in exactly one pool (names are cluster-unique).
        """
        hit: list[str] = []
        for pool in self.pools:
            if event.machine is not None and not any(
                r.name == event.machine for r in pool.replicas
            ):
                continue
            hit.extend(pool.apply_drift(event))
        if not hit:
            raise ValueError(
                f"drift event names unknown machine {event.machine!r}"
            )
        return tuple(hit)

    # -- isolation telemetry ---------------------------------------------------

    def observe_completion(self, completed: "CompletedRequest") -> None:
        """Fold one finished request into the per-tenant isolation meters.

        Designed to chain as (or inside) the event loop's
        ``on_complete`` callback; memory stays bounded per tenant
        (one histogram + two scalars), never per request.
        """
        meter = self._meters.get(completed.request.tenant)
        if meter is None:
            meter = self._meters[completed.request.tenant] = _TenantMeter()
        meter.completed += 1
        meter.busy_s += completed.service_s
        meter.latency.record(completed.latency_s)

    def stats(self) -> ClusterStats:
        """Pool stats, network toll and per-tenant isolation, right now."""
        total_busy = sum(m.busy_s for m in self._meters.values())
        observed = sorted(self._meters)
        weights = {t: self.slo.weight_for(t) for t in observed}
        weight_sum = sum(weights.values())
        tenants = tuple(
            TenantStats(
                tenant=t,
                completed=self._meters[t].completed,
                busy_s=self._meters[t].busy_s,
                share=(
                    self._meters[t].busy_s / total_busy if total_busy > 0 else 0.0
                ),
                weight=weights[t],
                fair_share=weights[t] / weight_sum if weight_sum > 0 else 0.0,
                p50_s=self._meters[t].latency.quantile(0.50),
                p99_s=self._meters[t].latency.quantile(0.99),
            )
            for t in observed
        )
        return ClusterStats(
            pools=len(self.pools),
            served=self.served,
            local=self.served - self.cross_pool,
            cross_pool=self.cross_pool,
            network_s=self.network_s,
            network_j=self.network_j,
            tenants=tenants,
        )

    def publish_metrics(self, registry, prefix: str = "cluster") -> None:
        """Publish cluster aggregates, per-tenant isolation, and pools.

        ``cluster.*`` carries the routing/network toll,
        ``cluster.tenant.<t>.*`` the isolation meters, and each pool
        republishes its whole fleet view under ``cluster.pool.<i>.*``.
        """
        stats = self.stats()
        registry.gauge(f"{prefix}.served").set(stats.served)
        registry.gauge(f"{prefix}.local").set(stats.local)
        registry.gauge(f"{prefix}.cross_pool").set(stats.cross_pool)
        registry.gauge(f"{prefix}.network_s").set(stats.network_s)
        registry.gauge(f"{prefix}.network_j").set(stats.network_j)
        registry.gauge(f"{prefix}.fairness_gap").set(stats.fairness_gap)
        for tenant in stats.tenants:
            base = f"{prefix}.tenant.{tenant.tenant}"
            registry.gauge(f"{base}.completed").set(tenant.completed)
            registry.gauge(f"{base}.busy_s").set(tenant.busy_s)
            registry.gauge(f"{base}.weight").set(tenant.weight)
            registry.gauge(f"{base}.share").set(tenant.share)
            registry.gauge(f"{base}.fair_share").set(tenant.fair_share)
            registry.gauge(f"{base}.p50_s").set(tenant.p50_s)
            registry.gauge(f"{base}.p99_s").set(tenant.p99_s)
        for index, pool in enumerate(self.pools):
            pool.publish_metrics(registry, prefix=f"{prefix}.pool.{index}")
