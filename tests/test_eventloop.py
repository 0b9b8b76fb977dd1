"""The event-driven serving core: queueing invariants, SLOs, histograms.

The property tests here are the harness the tentpole is gated on: for
every workload family the simulated-time loop must conserve requests
(arrivals == completions + shed + in-flight at drain), never serve a
request faster than its service time, preserve FIFO order within a
replica queue, and keep the simulated clock monotone.  The determinism
golden test extends the repo's memoized-vs-unmemoized bit-identity
guarantee from energy totals to the full latency histograms and SLO
counters: a service measuring through its sweep engine against one
whose engine is a stand-in that runs every measurement on the Runner.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.energy.meter import EnergyMeter
from repro.fleet import FleetRouter
from repro.machines import MC1, fleet_platforms
from repro.partitioning import Partitioning
from repro.runtime.measurement import MeasuredRun, SessionStats
from repro.runtime.scheduler import ExecutionResult
from repro.serving import (
    DEFAULT_TENANT,
    CompletedRequest,
    EventLoop,
    LatencyHistogram,
    PartitioningService,
    QUANTILE_RELATIVE_ERROR,
    SHED_POLICIES,
    ServedResponse,
    ServeOptions,
    ServiceConfig,
    ServingRequest,
    SLOConfig,
    key_universe,
)
import repro.serving.eventloop as eventloop
from repro.serving.eventloop import PREDICT_HIT_S, PREDICT_MISS_S
from repro.serving.histogram import (
    GAMMA,
    MAX_TRACKED_S,
    MIN_TRACKED_S,
    NUM_BUCKETS,
)
from repro.workloads import (
    WORKLOAD_FAMILIES,
    WorkloadSpec,
    arrival_times,
    make_workload,
    rate_factors,
    stream_requests,
    stream_timed_items,
)

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)
KEYS = key_universe(BENCHMARKS, max_sizes=2)


@pytest.fixture(scope="module")
def system():
    """One noise-free trained system shared by every loop in the module.

    With zero measurement noise an execution's timing depends only on
    (request, partitioning, drift state), so services built over the
    shared system behave identically to services over private ones —
    and the module avoids retraining per test.
    """
    return train_system(MC1, BENCHMARKS, model_kind="knn", config=TRAIN)


class _RunnerEngine:
    """Stands in for a service's sweep engine: every measurement is a
    fresh unmemoized ``Runner.run``, the reference path."""

    def __init__(self, runner):
        self.runner = runner

    def measure(self, request, partitioning, repetitions=1):
        return self.runner.run(
            request, partitioning, functional=False, repetitions=repetitions
        )


def _loop(system, runner_backed=False, **options):
    service = PartitioningService(system, ServiceConfig())
    if runner_backed:
        service.engine = _RunnerEngine(system.runner)
    return EventLoop(service, ServeOptions(**options))


def _spec(family, seed, num_requests=80, **kwargs):
    return WorkloadSpec(
        family=family,
        num_requests=num_requests,
        skew=1.2,
        seed=seed,
        rate_rps=kwargs.pop("rate_rps", 2000.0),
        **kwargs,
    )


def _check_invariants(stats, records):
    """The four queueing invariants, over one drained run."""
    # Conservation: at drain nothing is in flight and every arrival is
    # accounted for as a completion or a shed.
    assert stats.in_flight == 0
    assert stats.arrivals == stats.completed + stats.shed
    assert stats.completed == len(records)
    # Per-request causality and the latency >= service-time bound.
    last_finish = 0.0
    for r in records:
        assert r.arrival_s <= r.start_s <= r.finish_s
        assert r.queue_s >= 0.0
        assert r.latency_s >= r.service_s or math.isclose(
            r.latency_s, r.service_s, rel_tol=1e-12
        )
        # Monotone simulated clock: completions are observed in
        # non-decreasing finish order.
        assert r.finish_s >= last_finish
        last_finish = r.finish_s
    assert stats.clock_s >= last_finish
    # FIFO within each replica: a single-server queue starts requests
    # in arrival order, so per replica both start times and arrival
    # times are non-decreasing along the completion sequence.
    by_replica = {}
    for r in records:
        by_replica.setdefault(r.replica_index, []).append(r)
    for rs in by_replica.values():
        starts = [r.start_s for r in rs]
        arrivals = [r.arrival_s for r in rs]
        assert starts == sorted(starts)
        assert arrivals == sorted(arrivals)


@pytest.mark.slow
@pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
@pytest.mark.parametrize("seed", [3, 11])
class TestQueueingInvariants:
    def test_invariants_hold(self, system, family, seed):
        spec = _spec(family, seed)
        loop = _loop(system)
        records = []
        stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
        assert stats.arrivals == spec.num_requests
        assert stats.shed == 0  # no shedding configured
        _check_invariants(stats, records)

    def test_invariants_hold_under_shedding(self, system, family, seed):
        # Arrivals far above capacity force the deadline policy to
        # shed; conservation must account for every refused request.
        spec = _spec(family, seed, rate_rps=50_000.0)
        loop = _loop(
            system, shed_policy="deadline", slo=SLOConfig(target_s=0.002)
        )
        records = []
        stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
        assert stats.arrivals == spec.num_requests
        assert stats.shed > 0
        assert stats.slo.shed == stats.shed
        _check_invariants(stats, records)


@pytest.mark.slow
def test_fleet_invariants_and_per_replica_fifo(system):
    # Two replicas, least-loaded placement: the invariants must hold
    # per replica queue, not just for the single-service loop.
    services = [
        PartitioningService(
            train_system(p, BENCHMARKS, model_kind="knn", config=TRAIN),
            ServiceConfig(),
        )
        for p in fleet_platforms(2)
    ]
    router = FleetRouter(services, policy="least-loaded")
    loop = EventLoop(router, ServeOptions())
    spec = _spec("flash-crowd", seed=7, rate_rps=20_000.0)
    records = []
    stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
    _check_invariants(stats, records)
    assert len({r.replica_index for r in records}) == 2
    assert sum(stats.replica_completed) == stats.completed
    assert router.stats().requests == spec.num_requests


class TestDeterminismGolden:
    """Same trace + seed ⇒ bit-identical accounting, memoized or not."""

    @pytest.mark.slow
    def test_memoized_matches_unmemoized(self, system):
        spec = _spec("phase-shift", seed=5)
        slo = SLOConfig(target_s=0.001)
        results = []
        for runner_backed in (False, True):
            loop = _loop(system, runner_backed=runner_backed, slo=slo)
            results.append(loop.run(stream_timed_items(spec, KEYS)))
        a, b = results
        # Histograms are integer counters over identical latencies:
        # equality must be exact, not approximate.
        for hist_a, hist_b in (
            (a.latency, b.latency),
            (a.queue_wait, b.queue_wait),
            (a.service, b.service),
        ):
            assert hist_a.counts == hist_b.counts
            assert hist_a.zeros == hist_b.zeros
            assert hist_a.count == hist_b.count
            assert hist_a.sum_s == hist_b.sum_s
            assert hist_a.min_s == hist_b.min_s
            assert hist_a.max_s == hist_b.max_s
        assert a.slo.snapshot() == b.slo.snapshot()
        assert a.clock_s == b.clock_s
        assert a.idle_energy_j == b.idle_energy_j

    @pytest.mark.slow
    def test_same_seed_reproduces_run(self, system):
        spec = _spec("diurnal", seed=9)
        runs = [
            _loop(system).run(stream_timed_items(spec, KEYS)) for _ in range(2)
        ]
        assert runs[0].latency.counts == runs[1].latency.counts
        assert runs[0].latency.sum_s == runs[1].latency.sum_s
        assert runs[0].clock_s == runs[1].clock_s


def _scan_quantile(hist, q):
    """Reference: the scan from bucket 0 that the quantile walk replaced."""
    if hist.count == 0:
        return 0.0
    if q == 0.0:
        return hist.min_s
    if q == 1.0:
        return hist.max_s
    rank = max(1, math.ceil(q * hist.count))
    if rank <= hist.zeros:
        return 0.0
    seen = hist.zeros
    for i, bucket_count in enumerate(hist.counts):
        seen += bucket_count
        if seen >= rank:
            estimate = MIN_TRACKED_S * GAMMA ** (i + 0.5)
            return min(max(estimate, hist.min_s), hist.max_s)
    raise AssertionError("bucket counts do not sum to count")


#: Latencies that exercise every bucket kind: exact zeros, the tracked
#: range, and values that clamp into either edge bucket.
_LATENCIES = st.one_of(
    st.just(0.0),
    st.floats(min_value=MIN_TRACKED_S, max_value=MAX_TRACKED_S),
    st.floats(min_value=1e-12, max_value=MIN_TRACKED_S, exclude_max=True),
    st.floats(min_value=MAX_TRACKED_S, max_value=1e9, exclude_min=True),
)

_HISTOGRAM_OPS = st.one_of(
    st.tuples(st.just("record"), _LATENCIES),
    st.tuples(st.just("merge"), st.lists(_LATENCIES, max_size=8)),
    st.tuples(
        st.just("query"),
        st.lists(
            st.one_of(
                st.sampled_from((0.0, 0.5, 0.95, 0.99, 1.0)),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=4,
        ),
    ),
)


class TestStreamingQuantileAccuracy:
    def test_quantiles_within_documented_bound(self):
        rng = np.random.default_rng(42)
        values = rng.lognormal(mean=-6.0, sigma=1.5, size=2000)
        hist = LatencyHistogram()
        for v in values:
            hist.record(float(v))
        ordered = np.sort(values)
        for q in (0.50, 0.95, 0.99):
            exact = float(ordered[math.ceil(q * len(values)) - 1])
            estimate = hist.quantile(q)
            assert abs(estimate - exact) <= QUANTILE_RELATIVE_ERROR * exact

    def test_exact_zeros_and_extrema(self):
        hist = LatencyHistogram()
        for v in (0.0, 0.0, 0.0, 1e-3):
            hist.record(v)
        assert hist.zeros == 3
        assert hist.quantile(0.5) == 0.0
        assert hist.min_s == 0.0
        assert hist.max_s == 1e-3
        assert hist.quantile(1.0) == pytest.approx(1e-3, rel=QUANTILE_RELATIVE_ERROR)

    def test_merge_matches_single_stream(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(1e-3, size=400)
        whole = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for i, v in enumerate(values):
            whole.record(float(v))
            (left if i % 2 == 0 else right).record(float(v))
        left.merge(right)
        assert left.counts == whole.counts
        assert left.count == whole.count
        assert left.min_s == whole.min_s
        assert left.max_s == whole.max_s

    def test_out_of_range_values_land_in_the_edge_buckets(self):
        hist = LatencyHistogram()
        for v in (MIN_TRACKED_S / 10, MIN_TRACKED_S, MAX_TRACKED_S * 10):
            hist.record(v)
        counts = hist.counts
        assert len(counts) == NUM_BUCKETS
        assert counts[0] == 2
        assert counts[-1] == 1
        assert sum(counts) == hist.count == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1e-9)

    def test_quantile_edges_are_exact(self):
        hist = LatencyHistogram()
        for v in (3e-4, 1e-3, 7e-3):
            hist.record(v)
        # q=0 is the exact observed minimum, q=1 clamps to the exact
        # observed maximum — neither smears into a bucket midpoint.
        assert hist.quantile(0.0) == 3e-4
        assert hist.quantile(1.0) == 7e-3

    def test_empty_histogram_reports_zero_everywhere(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 0.0
        assert hist.mean_s == 0.0
        d = hist.to_dict()
        assert d["count"] == 0 and d["min_s"] == 0.0 and d["max_s"] == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = LatencyHistogram()
        hist.record(1e-3)
        for q in (-0.01, 1.01):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                hist.quantile(q)

    def test_merge_disjoint_ranges_roundtrips_through_to_dict(self):
        # Two histograms whose observations occupy disjoint bucket
        # ranges (sub-millisecond vs multi-second): the merge must
        # report exactly what one stream over the union would, all the
        # way through the JSON summary.
        small = [2e-6 * (1 + i) for i in range(50)]
        large = [2.0 * (1 + i) for i in range(50)]
        left, right, whole = (
            LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        )
        for v in small:
            left.record(v)
            whole.record(v)
        for v in large:
            right.record(v)
            whole.record(v)
        assert not any(
            lc and rc for lc, rc in zip(left.counts, right.counts)
        )
        left.merge(right)
        assert left.counts == whole.counts
        assert left.to_dict() == whole.to_dict()
        assert left.min_s == whole.min_s
        assert left.max_s == whole.max_s

    def test_non_finite_rejected_before_any_counter_moves(self):
        hist = LatencyHistogram()
        for v in (0.0, 1e-3, 2e-3):
            hist.record(v)
        fields = ("zeros", "counts", "count", "sum_s", "min_s", "max_s")
        before = [getattr(hist, f) for f in fields]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                hist.record(bad)
            assert [getattr(hist, f) for f in fields] == before

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_HISTOGRAM_OPS, max_size=40))
    def test_quantile_walk_matches_the_bucket_scan(self, ops):
        hist = LatencyHistogram()
        for op, arg in ops:
            if op == "record":
                hist.record(arg)
            elif op == "merge":
                other = LatencyHistogram()
                for v in arg:
                    other.record(v)
                hist.merge(other)
            else:
                # Each q twice, forward then back: the walk starts from
                # the previous answer, above, below or on the new one.
                for q in arg + arg[::-1]:
                    assert hist.quantile(q) == _scan_quantile(hist, q)


class TestStatsDictConservation:
    def test_to_dict_roundtrip_preserves_conservation(self, system, monkeypatch):
        """Conservation must hold on the serialized dict form too."""
        import json

        monkeypatch.setattr(eventloop, "TRIGGER_MIN_COMPLETIONS", 8)

        from repro.faults import FaultSchedule, FaultSpec

        services = [
            PartitioningService(
                train_system(p, BENCHMARKS, model_kind="knn", config=TRAIN),
                ServiceConfig(),
            )
            for p in fleet_platforms(2)
        ]
        router = FleetRouter(services, policy="least-loaded")
        loop = EventLoop(
            router,
            ServeOptions(
                faults=FaultSchedule(
                    specs=(
                        FaultSpec(kind="straggler", at_s=0.0, duration_s=0.05,
                                  magnitude=6.0, replica=0),
                        FaultSpec(kind="error", at_s=0.0, duration_s=1.0,
                                  magnitude=0.1),
                    ),
                    seed=3,
                ),
                max_retries=2,
                speculate_at=0.9,
                slo=SLOConfig(target_s=0.05),
                shed_policy="deadline",
            ),
        )
        spec = _spec("flash-crowd", seed=7, rate_rps=20_000.0)
        stats = loop.run(stream_timed_items(spec, KEYS))
        # Round-trip the summary through JSON and reconstruct the
        # accounting table from the dict alone.
        d = json.loads(json.dumps(stats.to_dict()))
        faults = d["faults"]
        assert d["arrivals"] + faults["speculations"] == (
            d["completed"] + d["shed"] + d["failed"]
            + faults["cancelled_speculative"]
        )
        assert d["arrivals"] == stats.arrivals
        assert faults["speculations"] == stats.speculations
        assert d["latency"]["count"] == d["completed"]
        assert sum(t["completed"] for t in d["tenants"].values()) == (
            d["completed"]
        )


class TestPerRequestRecords:
    def test_loop_counters_are_the_registry_cells(self, system):
        loop = _loop(system)
        stats = loop.run(stream_timed_items(_spec("stationary", seed=2), KEYS))
        assert stats.completed == stats.arrivals == stats.admitted == 80
        for attr in ("arrivals", "admitted", "completed", "service_time_s"):
            name = f"loop.{attr}"
            assert stats.cell(attr) is stats.registry.counter(name)
            assert getattr(stats, attr) == stats.registry.value(name)
        assert stats.service_time_s > stats.execute_time_s > 0.0

    def test_service_span_is_the_predict_cost_plus_execution(self, system):
        # Fault-free, an attempt's service span is the fixed predict
        # cost of its cache outcome plus the measured execution, exactly.
        assert (PREDICT_HIT_S, PREDICT_MISS_S) == (2e-6, 5e-5)
        done = []
        _loop(system).run(
            stream_timed_items(_spec("stationary", seed=2), KEYS),
            on_complete=done.append,
        )
        assert {c.response.cache_hit for c in done} == {True, False}
        for c in done:
            predict_s = PREDICT_HIT_S if c.response.cache_hit else PREDICT_MISS_S
            assert c.service_s == predict_s + c.response.measured_s

    def test_records_are_slotted_value_objects(self, system):
        # One of each is built per request or per measurement, so they
        # carry no per-object dict; equality and replace() still hold.
        done = []
        loop = _loop(system)
        loop.run(
            stream_timed_items(_spec("stationary", seed=2, num_requests=4), KEYS),
            on_complete=done.append,
        )
        completed = done[0]
        assert isinstance(completed, CompletedRequest)
        assert isinstance(completed.response, ServedResponse)
        service = loop.backend
        key = service._key(completed.request)
        run = service.engine.measure(
            service.execution_request(key), completed.response.partitioning
        )
        assert isinstance(run, MeasuredRun)
        for record in (completed, completed.response, run):
            assert not hasattr(record, "__dict__")
            assert dataclasses.replace(record) == record
        assert run.median_s == completed.response.measured_s

    def test_session_record_splits_each_launch_into_busy_and_idle(self):
        result = ExecutionResult(
            partitioning=Partitioning((50, 50, 0)),
            makespan_s=0.5,
            device_busy_s=(0.5, 0.25, 0.0),
        )
        stats = SessionStats()
        stats.record(result)
        stats.record(result)
        assert stats.device_busy_s == [1.0, 0.5, 0.0]
        # Busy share of the serialized time; each device idles the rest.
        assert stats.utilization() == (1.0, 0.5, 0.0)
        assert stats.executions == 2
        assert stats.simulated_s == 1.0


class TestSheddingPolicies:
    def test_tenant_listed_twice_rejected(self):
        # Regression: the first entry won silently, so gold:1 then
        # gold:5 served gold at priority 1.
        with pytest.raises(ValueError, match="'gold' is listed twice"):
            SLOConfig(tenant_priorities=(("gold", 1), ("silver", 0), ("gold", 5)))

    def test_priority_protects_premium_tenant(self, system):
        requests = [
            ServingRequest(
                request_id=i,
                program="vec_add",
                size=BENCHMARKS[0].problem_sizes()[0],
                tenant="premium" if i % 2 == 0 else "batch",
            )
            for i in range(60)
        ]
        times = [i * 1e-6 for i in range(60)]  # far above capacity
        loop = _loop(
            system,
            shed_policy="priority",
            slo=SLOConfig(
                target_s=0.002,
                tenant_priorities=(("premium", 1),),
            ),
        )
        stats = loop.run(zip(times, requests))
        tenants = stats.slo.snapshot()
        assert tenants["premium"]["shed"] == 0
        assert tenants["batch"]["shed"] > 0
        assert stats.arrivals == stats.completed + stats.shed

    def test_idle_replica_always_admits(self, system):
        """A tight SLO must not shed everything before the EWMA calibrates.

        With an SLO below the (pessimistic) initial service estimate, a
        non-work-conserving policy would shed every arrival forever —
        nothing completes, so the estimate never corrects.  Admitting
        into an idle replica bootstraps the estimator and lets sparse
        traffic through.
        """
        requests = [
            ServingRequest(
                request_id=i,
                program="vec_add",
                size=BENCHMARKS[0].problem_sizes()[0],
            )
            for i in range(20)
        ]
        times = [i * 0.1 for i in range(20)]  # sparse: replica idle each time
        loop = _loop(system, shed_policy="deadline", slo=SLOConfig(target_s=5e-4))
        stats = loop.run(zip(times, requests))
        assert stats.shed == 0
        assert stats.completed == 20

    def test_none_policy_never_sheds(self, system):
        spec = _spec("stationary", seed=1, num_requests=30, rate_rps=100_000.0)
        stats = _loop(system).run(stream_timed_items(spec, KEYS))
        assert stats.shed == 0
        assert stats.completed == 30

    def test_policies_constant_is_exhaustive(self):
        assert set(SHED_POLICIES) == {"none", "deadline", "priority"}

    def test_shed_policy_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            ServeOptions(shed_policy="deadline")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="shed policy"):
            ServeOptions(shed_policy="drop-everything")


class TestLoopContract:
    def test_loop_is_single_use(self, system):
        spec = _spec("stationary", seed=2, num_requests=5)
        loop = _loop(system)
        loop.run(stream_timed_items(spec, KEYS))
        with pytest.raises(RuntimeError, match="single-use"):
            loop.run(stream_timed_items(spec, KEYS))

    def test_decreasing_timestamps_rejected(self, system):
        request = ServingRequest(
            request_id=0,
            program="vec_add",
            size=BENCHMARKS[0].problem_sizes()[0],
        )
        loop = _loop(system)
        with pytest.raises(ValueError, match="non-decreasing"):
            loop.run([(1.0, request), (0.5, request)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_timestamps_rejected(self, system, bad):
        # NaN compares false both ways, so a plain order check lets it
        # through and it then disables the check for the next item; an
        # infinite instant overflows the idle meter.
        request = ServingRequest(
            request_id=0,
            program="vec_add",
            size=BENCHMARKS[0].problem_sizes()[0],
        )
        loop = _loop(system)
        with pytest.raises(ValueError, match=f"got {bad} after 0.5"):
            loop.run([(0.5, request), (bad, request), (0.1, request)])

    def test_drift_without_handler_rejected(self, system):
        spec = _spec("stationary", seed=2, num_requests=4)
        spec = WorkloadSpec(
            family="stationary",
            num_requests=4,
            seed=2,
            drift_events=(
                __import__("repro.workloads", fromlist=["DriftEvent"]).DriftEvent(
                    at_request=1, scale=0.5
                ),
            ),
        )
        loop = _loop(system)
        with pytest.raises(ValueError, match="drift_handler"):
            loop.run(stream_timed_items(spec, KEYS))

    def test_tenant_defaults_on_requests(self):
        request = ServingRequest(request_id=0, program="vec_add", size=64)
        assert request.tenant == DEFAULT_TENANT


class TestSimulatedTimeEnergy:
    def test_idle_spans_follow_simulated_time(self, system):
        # A sparse arrival stream is almost all idle: the loop must
        # price (clock - busy) seconds at the platform's idle draw.
        spec = _spec("stationary", seed=4, num_requests=20, rate_rps=50.0)
        service = PartitioningService(system, ServiceConfig())
        loop = EventLoop(service, ServeOptions())
        stats = loop.run(stream_timed_items(spec, KEYS))
        idle_w = EnergyMeter(service.system.runner.devices).platform_idle_w()
        idle_s = stats.clock_s - sum(stats.replica_busy_s)
        assert stats.idle_energy_j == pytest.approx(idle_s * idle_w)
        assert stats.idle_energy_j > 0.0
        assert math.isfinite(stats.idle_energy_j)

    def test_record_idle_accumulates_and_validates(self, system):
        loop = _loop(system)
        replica = loop._replicas[0]
        loop._record_idle(replica, 2.0)
        loop._record_idle(replica, 1.0)
        assert loop.stats.idle_energy_j == pytest.approx(3.0 * replica.idle_w)
        with pytest.raises(ValueError, match="non-negative"):
            loop._record_idle(replica, -1.0)


class TestArrivalProcesses:
    def test_sequential_has_no_timestamps(self):
        spec = WorkloadSpec(num_requests=10, arrival="sequential")
        with pytest.raises(ValueError, match="sequential"):
            arrival_times(spec)

    def test_uniform_spacing_matches_rate(self):
        spec = WorkloadSpec(num_requests=8, arrival="uniform", rate_rps=100.0)
        times = arrival_times(spec)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert np.allclose(gaps, 0.01)

    def test_poisson_is_seeded_and_monotone(self):
        spec = WorkloadSpec(num_requests=200, arrival="poisson", seed=13)
        a, b = arrival_times(spec), arrival_times(spec)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        other = arrival_times(
            WorkloadSpec(num_requests=200, arrival="poisson", seed=14)
        )
        assert not np.array_equal(a, other)

    def test_flash_crowd_bursts_arrive_faster(self):
        spec = WorkloadSpec(
            family="flash-crowd",
            num_requests=100,
            burst_every=20,
            burst_length=5,
            burst_rate=4.0,
        )
        factors = rate_factors(spec)
        assert factors[20] == 4.0 and factors[24] == 4.0
        assert factors[0] == 1.0 and factors[25] == 1.0

    def test_diurnal_rate_breathes_with_the_skew_cycle(self):
        spec = WorkloadSpec(family="diurnal", num_requests=100, period=100)
        factors = rate_factors(spec)
        assert factors[0] == pytest.approx(0.5)  # trough
        assert factors[50] == pytest.approx(1.5)  # peak
        assert factors.min() >= 0.5 and factors.max() <= 1.5

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            WorkloadSpec(arrival="bursty")


@pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
def test_streamed_requests_match_materialized(family):
    spec = _spec(family, seed=21, num_requests=60)
    workload = make_workload(spec, KEYS)
    assert tuple(stream_requests(spec, KEYS)) == workload.requests


def test_stream_timed_items_interleaves_drift():
    from repro.workloads import DriftEvent

    spec = WorkloadSpec(
        family="stationary",
        num_requests=6,
        seed=3,
        arrival="uniform",
        rate_rps=100.0,
        drift_events=(
            DriftEvent(at_request=2, scale=0.5),
            DriftEvent(at_request=99, scale=2.0),
        ),
    )
    items = list(stream_timed_items(spec, KEYS))
    assert len(items) == 8
    times = [t for t, _ in items]
    assert times == sorted(times)
    kinds = [type(payload).__name__ for _, payload in items]
    assert kinds[2] == "DriftEvent"  # fires before request index 2
    assert kinds[-1] == "DriftEvent"  # trailing event after the trace
    # Workload.timed_items agrees with the streamed feed.
    workload = make_workload(spec, KEYS)
    assert [
        (t, p) for t, p in workload.timed_items()
    ] == items
