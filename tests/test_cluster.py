"""Tests for the cluster tier: network pricing, tenancy, the unified API.

Covers the :mod:`repro.cluster` subsystem (NetworkSpec, ClusterRouter,
multi-tenant isolation, cluster-scope speculation and work stealing)
and the :func:`repro.serving.serve_trace` facade the whole serving
surface now routes through.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.cluster import (
    ClusterRouter,
    NetworkSpec,
    tenant_weight,
    with_tenants,
)
from repro.core import TrainingConfig, train_system
from repro.faults import FaultSchedule, FaultSpec
from repro.fleet import FleetRouter
from repro.graphs import pipeline_chain
from repro.machines import cluster_platforms, fleet_platforms
from repro.telemetry import CriticalPathAnalyzer
from repro.serving import (
    EventLoopStats,
    GraphServingRequest,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    SLOConfig,
    key_universe,
    serve_trace,
    zipf_trace,
)

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)


def _service(platform=None, **config_kwargs):
    platform = platform if platform is not None else fleet_platforms(1)[0]
    system = train_system(platform, BENCHMARKS, model_kind="knn", config=TRAIN)
    return PartitioningService(system, ServiceConfig(**config_kwargs))


def _fleet(machines=2):
    services = [_service(p) for p in fleet_platforms(machines)]
    return FleetRouter(services, policy="least-loaded")


def _cluster(pools=2, machines_per_pool=1, **kwargs):
    return ClusterRouter.build(
        pools,
        machines_per_pool,
        benchmarks=BENCHMARKS,
        model_kind="knn",
        training=TRAIN,
        **kwargs,
    )


def _trace(n=40, seed=5, tenants=("premium", "batch")):
    keys = key_universe(list(BENCHMARKS), max_sizes=2)
    trace = zipf_trace(keys, n, skew=1.2, seed=seed)
    return with_tenants(trace, tenants)


def _conserved(stats):
    """The extended conservation identity every run must satisfy."""
    return (
        stats.arrivals + stats.speculations
        == stats.completed
        + stats.shed
        + stats.failed
        + stats.cancelled_speculative
    )


# -- cluster platform derivation ---------------------------------------------


class TestClusterPlatforms:
    def test_shape_and_unique_names(self):
        pools = cluster_platforms(3, 2)
        assert len(pools) == 3
        assert all(len(chunk) == 2 for chunk in pools)
        names = [p.name for chunk in pools for p in chunk]
        assert len(set(names)) == len(names) == 6

    def test_prefix_property(self):
        # A 2-pool cluster is a prefix of a 3-pool one: scaling runs
        # compare like with like, exactly as fleet_platforms promises.
        small = cluster_platforms(2, 2)
        large = cluster_platforms(3, 2)
        small_names = [p.name for chunk in small for p in chunk]
        large_names = [p.name for chunk in large for p in chunk]
        assert large_names[: len(small_names)] == small_names

    def test_flattens_to_fleet_platforms(self):
        flat = [p.name for chunk in cluster_platforms(2, 3) for p in chunk]
        assert flat == [p.name for p in fleet_platforms(6)]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            cluster_platforms(0, 2)
        with pytest.raises(ValueError):
            cluster_platforms(2, 0)


# -- the interconnect cost model ---------------------------------------------


class TestNetworkSpec:
    def test_zero_bytes_are_free(self):
        assert NetworkSpec().transfer_time_s(0) == 0.0

    def test_transfer_prices_bandwidth_plus_latency(self):
        net = NetworkSpec(bandwidth_gbs=10.0, latency_s=50e-6)
        nbytes = 10**9  # one GB at 10 GB/s -> 0.1 s + latency
        assert net.transfer_time_s(nbytes) == pytest.approx(0.1 + 50e-6)

    def test_handoff_serializes_directions_and_meters_joules(self):
        net = NetworkSpec(bandwidth_gbs=1.0, latency_s=1e-3, link_watts=8.0)
        seconds, joules = net.handoff(10**6, 2 * 10**6)
        expected = net.transfer_time_s(10**6) + net.transfer_time_s(2 * 10**6)
        assert seconds == pytest.approx(expected)
        assert joules == pytest.approx(seconds * 8.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(bandwidth_gbs=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(latency_s=-1.0)
        with pytest.raises(ValueError):
            NetworkSpec(link_watts=-1.0)
        with pytest.raises(ValueError):
            NetworkSpec().transfer_time_s(-1)


# -- tenancy helpers ----------------------------------------------------------


class TestTenancy:
    def test_with_tenants_round_robin_by_request_id(self):
        trace = _trace(6, tenants=("a", "b", "c"))
        assert [r.tenant for r in trace] == ["a", "b", "c", "a", "b", "c"]
        # Deterministic: driven by request_id, not iteration order.
        again = with_tenants(trace, ("a", "b", "c"))
        assert [r.tenant for r in again] == [r.tenant for r in trace]

    def test_with_tenants_rejects_empty(self):
        with pytest.raises(ValueError):
            with_tenants(_trace(2), ())

    def test_tenant_weight_is_one_plus_priority(self):
        slo = SLOConfig(tenant_priorities=(("premium", 2), ("spot", -3)))
        assert tenant_weight(slo, "premium") == 3.0
        assert tenant_weight(slo, "batch") == 1.0
        # Negative priorities never push a weight below the baseline.
        assert tenant_weight(slo, "spot") == 1.0


# -- the cluster router -------------------------------------------------------


@pytest.fixture(scope="module")
def quad_cluster():
    """A 2-pool x 2-machine cluster for structural (read-only) tests."""
    return _cluster(pools=2, machines_per_pool=2)


class TestClusterRouter:
    def test_flat_indexing_round_trips(self, quad_cluster):
        assert quad_cluster.num_replicas == 4
        assert [quad_cluster.pool_of(i) for i in range(4)] == [0, 0, 1, 1]
        with pytest.raises(IndexError):
            quad_cluster.pool_of(4)

    def test_services_are_flat_in_pool_order(self, quad_cluster):
        names = [s.system.platform.name for s in quad_cluster.services]
        assert names == [
            r.name for pool in quad_cluster.pools for r in pool.replicas
        ]

    def test_home_pool_is_stable_and_in_range(self, quad_cluster):
        for tenant in ("premium", "batch", "default"):
            home = quad_cluster.home_pool(tenant)
            assert 0 <= home < 2
            assert quad_cluster.home_pool(tenant) == home

    def test_home_pool_serving_is_free(self, quad_cluster):
        request = _trace(1, tenants=("premium",))[0]
        home = quad_cluster.home_pool("premium")
        assert quad_cluster.handoff_cost(request, home) == (0.0, 0.0)

    def test_cross_pool_serving_pays_the_interconnect(self, quad_cluster):
        request = _trace(1, tenants=("premium",))[0]
        away = 1 - quad_cluster.home_pool("premium")
        seconds, joules = quad_cluster.handoff_cost(request, away)
        nbytes = quad_cluster.request_bytes(request)
        assert nbytes > 0
        expected_s, expected_j = quad_cluster.network.handoff(nbytes)
        assert (seconds, joules) == (expected_s, expected_j)

    def test_request_bytes_memoized_per_key(self, quad_cluster):
        request = _trace(1)[0]
        first = quad_cluster.request_bytes(request)
        assert quad_cluster.request_bytes(request) == first
        assert (request.program, request.size) in quad_cluster._bytes

    def test_graph_request_ships_every_node(self, quad_cluster):
        chain = pipeline_chain([("vec_add", 4096), ("mat_mul", 64)])
        request = GraphServingRequest(0, chain)
        expected = sum(
            quad_cluster._key_bytes(n.program, n.size) for n in chain.nodes
        )
        assert quad_cluster.request_bytes(request) == expected

    def test_speculative_index_escapes_the_excluded_pool(self, quad_cluster):
        request = _trace(1)[0]
        # Both replicas of pool 0 are running a copy: the duplicate
        # must land in pool 1.
        flat = quad_cluster.speculative_index(request, exclude={0, 1})
        assert flat is not None and quad_cluster.pool_of(flat) == 1
        # Every pool tainted: fall back to any non-excluded replica.
        flat = quad_cluster.speculative_index(request, exclude={0, 2})
        assert flat in (1, 3)
        assert quad_cluster.speculative_index(request, {0, 1, 2, 3}) is None

    def test_steal_candidates_are_cross_pool_only(self, quad_cluster):
        assert quad_cluster.steal_candidates(0) == (2, 3)
        assert quad_cluster.steal_candidates(3) == (0, 1)

    def test_duplicate_names_across_pools_rejected(self):
        pool = _fleet(1)
        with pytest.raises(ValueError, match="unique"):
            ClusterRouter([pool, pool])

    def test_network_bill_rides_the_response(self):
        cluster = _cluster(pools=2, machines_per_pool=1)
        request = _trace(1, tenants=("premium",))[0]
        away_pool = 1 - cluster.home_pool("premium")
        flat = cluster._offsets[away_pool]
        response = cluster.serve_on(flat, request)
        assert response.cross_pool
        assert response.network_s > 0.0
        assert response.measured_s == pytest.approx(
            response.response.response.measured_s + response.network_s
        )
        assert cluster.cross_pool == 1
        assert cluster.network_s == pytest.approx(response.network_s)


# -- the public replica-health accessor ---------------------------------------


class TestReplicaHealthAccessor:
    def test_snapshot_of_fresh_replica(self):
        router = _fleet(1)
        view = router.replica_health(0)
        assert view.index == 0
        assert view.draining_steps == 0 and not view.draining
        assert view.observations == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            _fleet(1).replica_health(5)


# -- the unified serving facade ----------------------------------------------


class TestServeOptions:
    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            ServeOptions(arrival="bursty")

    def test_bad_event_knobs_fail_eagerly(self):
        with pytest.raises(ValueError):
            ServeOptions(queue_discipline="lifo")
        with pytest.raises(ValueError):
            ServeOptions(speculate_at=1.5)

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="serve_trace backends"):
            serve_trace(object(), _trace(1))


def _responses(backend, trace, options=ServeOptions()):
    """Serve ``trace``; return the winning responses in completion order."""
    completed = []
    serve_trace(backend, trace, options, on_complete=completed.append)
    return [c.response for c in completed]


class TestDirectCoresMatchServeTrace:
    """``submit*`` call the serving cores directly; a sequential
    ``serve_trace`` on a twin service must answer field for field."""

    @staticmethod
    def _pin(response):
        return (
            response.request.key,
            response.partitioning.label,
            response.measured_s,
            response.cache_hit,
            response.adapted,
        )

    def test_submit_many_matches_serve_trace(self):
        trace = list(_trace(16))
        direct = [self._pin(r) for r in _service().submit_many(trace)]
        traced = _responses(_service(), trace)
        assert direct == [self._pin(r) for r in traced]

    def test_submit_matches_serve_trace(self):
        trace = list(_trace(16))
        a, b = _service(), _service()
        direct = [self._pin(a.submit(r)) for r in trace]
        one_by_one = [self._pin(_responses(b, [r])[0]) for r in trace]
        whole = _responses(_service(), trace)
        assert direct == one_by_one == [self._pin(r) for r in whole]

    def test_submit_graph_matches_serve_trace(self):
        chain = pipeline_chain([("vec_add", 4096), ("mat_mul", 64)])
        requests = [GraphServingRequest(i, chain) for i in range(3)]
        a, b = _service(), _service()
        direct = [a.submit_graph(r) for r in requests]
        traced = _responses(b, requests)
        assert [(r.measured_s, r.cache_hit, r.plan) for r in direct] == [
            (r.measured_s, r.cache_hit, r.plan) for r in traced
        ]


class TestServeOptionsBuiltOncePerTrace:
    """Options are validated per trace, never per request: the event
    loop reaches the serving cores without re-entering the facade."""

    @pytest.mark.parametrize("kind", ["service", "cluster"])
    def test_post_init_runs_once_per_serve_trace(self, monkeypatch, kind):
        backend = _service() if kind == "service" else _cluster(2, 1)
        calls = []
        post_init = ServeOptions.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(ServeOptions, "__post_init__", counting)
        for seed in (1, 2):
            options = ServeOptions(arrival="poisson", rate_rps=500.0, seed=seed)
            stats = serve_trace(backend, _trace(30, seed=seed), options).stats
            assert stats.completed == 30
        assert len(calls) == 2


class TestFleetCountsGraphRequests:
    @pytest.mark.parametrize("arrival", ["sequential", "poisson"])
    def test_graph_requests_count_as_routed(self, arrival):
        router = _fleet(2)
        chain = pipeline_chain([("vec_add", 4096), ("mat_mul", 64)])
        requests = [GraphServingRequest(i, chain) for i in range(6)]
        serve_trace(router, requests, ServeOptions(arrival=arrival, rate_rps=500.0))
        stats = router.stats()
        assert sum(r.service.stats.graph_requests for r in router.replicas) == 6
        assert [r.routed for r in stats.replicas] == [3, 3]
        assert stats.requests == 6

    def test_graph_placement_leaves_drain_cooldowns_alone(self):
        router = _fleet(2)
        router._health[0].draining = 4
        chain = pipeline_chain([("vec_add", 4096)])
        assert router.place(GraphServingRequest(2, chain)) == 0
        assert router.replica_health(0).draining_steps == 4


# -- the backend x arrival x shedding matrix ----------------------------------


@pytest.fixture(scope="module")
def matrix_backends():
    """One backend of each kind, reused across the event-path matrix
    (event runs only read schedules and append; conservation holds
    regardless of accumulated serving state)."""
    return {
        "service": _service(),
        "fleet": _fleet(2),
        "cluster": _cluster(pools=2, machines_per_pool=1),
    }


STRAGGLER_FAULTS = FaultSchedule(
    specs=(FaultSpec(kind="straggler", at_s=0.0, duration_s=0.05, magnitude=8.0, replica=0),),
    seed=7,
)


class TestServeTraceMatrix:
    @pytest.mark.parametrize("kind", ["service", "fleet", "cluster"])
    @pytest.mark.parametrize("arrival", ["uniform", "poisson"])
    @pytest.mark.parametrize("shed_policy", ["none", "deadline"])
    def test_conservation_across_the_matrix(
        self, matrix_backends, kind, arrival, shed_policy
    ):
        backend = matrix_backends[kind]
        options = ServeOptions(
            arrival=arrival,
            rate_rps=500.0,
            shed_policy=shed_policy,
            slo=SLOConfig(target_s=5e-3),
            faults=STRAGGLER_FAULTS,
            speculate_at=0.9,
            speculate_min_completions=8,
            work_steal=(kind != "service"),
        )
        result = serve_trace(backend, _trace(40), options)
        stats = result.stats
        assert result.backend_kind == kind
        assert stats is not None and stats.arrivals == 40
        assert _conserved(stats)
        # Every speculative launch is retired exactly once.
        assert stats.cancelled_speculative == stats.speculations
        assert stats.spec_wins <= stats.speculations

    def test_speculation_off_reduces_to_classic_identity(self, matrix_backends):
        result = serve_trace(
            matrix_backends["cluster"],
            _trace(30, seed=9),
            ServeOptions(arrival="poisson", rate_rps=500.0),
        )
        stats = result.stats
        assert stats.speculations == 0 and stats.cancelled_speculative == 0
        assert stats.arrivals == stats.completed + stats.shed + stats.failed


#: Crash, straggler and error windows inside a short closed-loop trace's
#: simulated span (each request takes well under a millisecond).
CLOSED_LOOP_FAULTS = FaultSchedule(
    specs=(
        FaultSpec(
            kind="straggler", at_s=0.0, duration_s=0.05, magnitude=4.0, replica=0
        ),
        FaultSpec(kind="error", at_s=0.0, duration_s=1.0, magnitude=0.15),
        FaultSpec(kind="crash", at_s=0.002, duration_s=0.002, replica=0),
    ),
    seed=3,
)

_BACKENDS = {
    "service": _service,
    "fleet": lambda: _fleet(2),
    "cluster": lambda: _cluster(pools=2, machines_per_pool=1),
}


class TestClosedLoop:
    """``arrival="sequential"`` is the event loop's closed-loop process:
    one request in flight, each admitted when the previous resolved."""

    @staticmethod
    def _run(kind, faults):
        completed = []
        options = ServeOptions(faults=faults, max_retries=3, telemetry="trace")
        result = serve_trace(
            _BACKENDS[kind](), _trace(30), options, on_complete=completed.append
        )
        return result, completed

    @pytest.mark.parametrize("kind", ["service", "fleet", "cluster"])
    @pytest.mark.parametrize("faults", [None, CLOSED_LOOP_FAULTS])
    def test_closed_loop_matrix(self, kind, faults):
        result, completed = self._run(kind, faults)
        stats = result.stats
        assert isinstance(stats, EventLoopStats)
        assert stats.arrivals == 30 and stats.in_flight == 0
        assert _conserved(stats)
        if faults is not None:
            assert stats.exec_errors > 0 and stats.crashes == 1
        # Completions come back in arrival order.
        ids = [c.request.request_id for c in completed]
        assert ids == sorted(ids) and len(ids) == stats.completed
        # Every request arrives at the instant the previous one resolved
        # (completed or failed): the request root spans chain end to end.
        tracer = result.telemetry.tracer
        roots = sorted(
            (s for s in tracer.spans if s.kind == "request"),
            key=lambda s: s.trace_id,
        )
        assert len(roots) == stats.arrivals
        assert roots[0].start_s == 0.0
        for previous, current in zip(roots, roots[1:]):
            assert current.start_s == previous.end_s
        analyzer = CriticalPathAnalyzer(tracer.spans)
        assert len(analyzer.completed_ids()) == stats.completed
        for tid in analyzer.completed_ids():
            analyzer.check(tid)
        again, _ = self._run(kind, faults)
        assert tracer.export_lines() == again.telemetry.tracer.export_lines()

    def test_sequential_cluster_trace_feeds_tenant_meters(self):
        # Regression: a closed-loop cluster trace skipped the isolation
        # meters, so the tenant report came back empty.
        cluster = _cluster(pools=2, machines_per_pool=1)
        serve_trace(cluster, _trace(20, tenants=("a", "b")))
        assert cluster.tenant_meters() == {"a": 10, "b": 10}
        assert {t.tenant for t in cluster.stats().tenants} == {"a", "b"}


class TestClusterEventPath:
    def test_deterministic_replay_under_cluster_faults(self):
        def run():
            cluster = _cluster(pools=2, machines_per_pool=1)
            options = ServeOptions(
                arrival="poisson",
                rate_rps=800.0,
                seed=3,
                faults=STRAGGLER_FAULTS,
                speculate_at=0.85,
                speculate_min_completions=8,
                work_steal=True,
                queue_discipline="weighted-fair",
                slo=SLOConfig(tenant_priorities=(("premium", 2),)),
            )
            result = serve_trace(cluster, _trace(50, seed=3), options)
            return result.stats.to_dict(), cluster.stats().to_dict()

        assert run() == run()

    def test_isolation_meters_feed_automatically(self):
        cluster = _cluster(pools=2, machines_per_pool=1)
        seen = []
        result = serve_trace(
            cluster,
            _trace(24),
            ServeOptions(arrival="uniform", rate_rps=500.0),
            on_complete=lambda completed: seen.append(completed.request.tenant),
        )
        stats = cluster.stats()
        assert result.stats.completed == 24
        # The router's meters were chained before the user callback.
        assert len(seen) == 24
        assert {t.tenant for t in stats.tenants} == {"premium", "batch"}
        assert sum(t.completed for t in stats.tenants) == 24
        assert sum(t.share for t in stats.tenants) == pytest.approx(1.0)
        assert 0.0 <= stats.fairness_gap <= 1.0

    # gold homes to pool 0, silver to pool 1, so a simultaneous burst
    # splits the backlog across both pools; a straggler window then
    # pins pool 0's only replica.
    STRAGGLER_PIN = FaultSchedule(
        specs=(
            FaultSpec(
                kind="straggler",
                at_s=0.0,
                duration_s=1.0,
                magnitude=20.0,
                replica=0,
            ),
        ),
        seed=11,
    )

    def _split_burst(self, n=60):
        trace = _trace(n, seed=2, tenants=("gold", "silver"))
        warmup = [(i * 1e-3, r) for i, r in enumerate(trace[:8])]
        return warmup + [(9e-3, r) for r in trace[8:]]

    def test_straggler_triggers_speculative_reexecution(self):
        cluster = _cluster(pools=2, machines_per_pool=1)
        # Requests queued behind the pinned replica age past the
        # speculation quantile (seeded by the warm-up completions); the
        # duplicates land in pool 1 and most finish first.
        options = ServeOptions(
            arrival="uniform",
            rate_rps=1000.0,
            faults=self.STRAGGLER_PIN,
            speculate_at=0.7,
            speculate_min_completions=4,
        )
        stats = serve_trace(cluster, self._split_burst(), options).stats
        assert _conserved(stats)
        assert stats.speculations > 0
        assert stats.spec_wins > 0
        assert stats.completed == 60

    def test_straggler_backlog_is_stolen_cross_pool(self):
        cluster = _cluster(pools=2, machines_per_pool=1)
        # A t=0 burst guarantees each pool one in-flight attempt before
        # any load signal exists, with the remaining backlog queued
        # behind them; a straggler window opening just after pins
        # replica 0.  With speculation off, the backlog can only move
        # by work stealing: whichever replica goes idle first pulls
        # queued requests out of the other pool.
        faults = FaultSchedule(
            specs=(
                FaultSpec(
                    kind="straggler",
                    at_s=1e-3,
                    duration_s=1.0,
                    magnitude=50.0,
                    replica=0,
                ),
            ),
            seed=11,
        )
        options = ServeOptions(
            arrival="uniform",
            rate_rps=1000.0,
            faults=faults,
            work_steal=True,
        )
        trace = _trace(60, seed=2, tenants=("gold", "silver"))
        burst = [(0.0, r) for r in trace]
        stats = serve_trace(cluster, burst, options).stats
        assert _conserved(stats)
        assert stats.speculations == 0
        assert stats.steals > 0
        assert stats.completed == 60

    def test_weighted_fair_queue_prefers_priority_tenants(self):
        # One replica, a burst of simultaneous arrivals: under the
        # weighted-fair discipline premium (weight 3) drains ~3x faster
        # than batch (weight 1), so premium dominates early completions.
        service = _service()
        order = []
        serve_trace(
            service,
            [(0.0, r) for r in _trace(24, seed=4)],
            ServeOptions(
                arrival="uniform",
                rate_rps=500.0,
                queue_discipline="weighted-fair",
                slo=SLOConfig(tenant_priorities=(("premium", 2),)),
            ),
            on_complete=lambda completed: order.append(
                completed.request.tenant
            ),
        )
        assert len(order) == 24
        first_half = order[:12]
        assert first_half.count("premium") > first_half.count("batch")

    def test_fifo_unaffected_by_priorities(self):
        # Priorities without the weighted-fair discipline change nothing
        # about ordering: FIFO completes in arrival order.
        service = _service()
        order = []
        serve_trace(
            service,
            [(0.0, r) for r in _trace(10, seed=4)],
            ServeOptions(
                arrival="uniform",
                slo=SLOConfig(tenant_priorities=(("premium", 2),)),
            ),
            on_complete=lambda completed: order.append(
                completed.request.request_id
            ),
        )
        assert order == sorted(order)
