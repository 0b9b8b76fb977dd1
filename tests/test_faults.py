"""Fault injection, hedging, retries, failover: the chaos harness.

Three layers of coverage:

* **Unit** — :class:`FaultSpec` validation, schedule canonicalisation,
  and the injector's merged crash windows, compounding slowdowns, and
  interleaving-independent hash draws.
* **Regression** — the two bug fixes riding along with the fault work:
  drain cooldowns now decay on simulated-time ticks (not just
  placements), and :func:`shed_decision` now counts in-flight
  duplicates (pending retries, hedged copies) in its backlog estimate.
* **Property sweep** — a seeded chaos matrix over fault schedules ×
  workload families × shedding policies asserting the relaxed serving
  invariants (conservation now includes ``failed``; per-replica FIFO
  is over *start* times, because failover and hedging legitimately
  move old arrivals onto new replicas) and bit-identical re-runs.
"""

import math

import pytest

import repro.serving.eventloop as eventloop
from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.faults import FAULT_KINDS, FaultInjector, FaultSchedule, FaultSpec
from repro.fleet import FleetRouter
from repro.fleet.router import COOLDOWN_TICK_S, DRAIN_COOLDOWN
from repro.machines import MC1, fleet_platforms
from repro.serving import (
    DEFAULT_TENANT,
    EventLoop,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    SLOConfig,
    key_universe,
    shed_decision,
)
from repro.workloads import WORKLOAD_FAMILIES, WorkloadSpec, stream_timed_items

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)
KEYS = key_universe(BENCHMARKS, max_sizes=2)


@pytest.fixture(scope="module")
def system():
    """One noise-free trained system shared by every single-replica loop."""
    return train_system(MC1, BENCHMARKS, model_kind="knn", config=TRAIN)


@pytest.fixture(scope="module")
def fleet_systems():
    """Two trained systems over distinct fleet platforms, shared per module."""
    return tuple(
        train_system(p, BENCHMARKS, model_kind="knn", config=TRAIN)
        for p in fleet_platforms(2)
    )


def _loop(system, **options):
    service = PartitioningService(system, ServiceConfig())
    return EventLoop(service, ServeOptions(**options))


def _fleet_loop(fleet_systems, **options):
    services = [PartitioningService(s, ServiceConfig()) for s in fleet_systems]
    router = FleetRouter(services, policy="least-loaded")
    return EventLoop(router, ServeOptions(**options))


def _spec(family, seed, num_requests=80, **kwargs):
    return WorkloadSpec(
        family=family,
        num_requests=num_requests,
        skew=1.2,
        seed=seed,
        rate_rps=kwargs.pop("rate_rps", 2000.0),
        **kwargs,
    )


def _check_chaos_invariants(stats, records):
    """The queueing invariants, relaxed for faulted runs.

    Conservation gains the ``failed`` term, and per-replica FIFO is
    asserted over start times only: a failover or a hedge legitimately
    lands an *old* arrival on a replica after newer ones, but a
    single-server queue still starts work in non-decreasing order.
    """
    assert stats.in_flight == 0
    assert stats.arrivals == stats.completed + stats.shed + stats.failed
    assert stats.completed == len(records)
    last_finish = 0.0
    for r in records:
        assert r.arrival_s <= r.start_s <= r.finish_s
        assert r.queue_s >= 0.0
        assert r.latency_s >= r.service_s or math.isclose(
            r.latency_s, r.service_s, rel_tol=1e-12
        )
        assert r.finish_s >= last_finish
        last_finish = r.finish_s
    assert stats.clock_s >= last_finish
    by_replica = {}
    for r in records:
        by_replica.setdefault(r.replica_index, []).append(r)
    for rs in by_replica.values():
        starts = [r.start_s for r in rs]
        assert starts == sorted(starts)


# -- the fault layer itself ------------------------------------------------


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", at_s=0.0, duration_s=1.0)

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError, match="at_s"):
            FaultSpec(kind="crash", at_s=-1.0, duration_s=1.0)
        # NaN passes a plain ``at_s < 0`` check.
        with pytest.raises(ValueError, match="at_s"):
            FaultSpec(kind="crash", at_s=math.nan, duration_s=1e-3, replica=0)
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec(kind="crash", at_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError, match="replica index"):
            FaultSpec(kind="crash", at_s=0.0, duration_s=1.0, replica=-1)

    def test_magnitude_validated_per_kind(self):
        with pytest.raises(ValueError, match="straggler magnitude"):
            FaultSpec(kind="straggler", at_s=0.0, duration_s=1.0, magnitude=0.0)
        for kind in ("error", "predict-error"):
            with pytest.raises(ValueError, match="probability"):
                FaultSpec(kind=kind, at_s=0.0, duration_s=1.0, magnitude=1.5)

    def test_window_is_half_open(self):
        spec = FaultSpec(kind="straggler", at_s=1.0, duration_s=0.5, magnitude=2.0)
        assert spec.end_s == 1.5
        assert not spec.active(0.999)
        assert spec.active(1.0)
        assert spec.active(1.4999)
        assert not spec.active(1.5)


class TestFaultSchedule:
    def test_specs_sorted_by_start(self):
        late = FaultSpec(kind="error", at_s=2.0, duration_s=1.0, magnitude=0.5)
        early = FaultSpec(kind="crash", at_s=0.5, duration_s=1.0)
        schedule = FaultSchedule(specs=(late, early))
        assert schedule.specs == (early, late)

    def test_bool_and_kind_filter(self):
        assert not FaultSchedule()
        crash = FaultSpec(kind="crash", at_s=0.0, duration_s=1.0)
        slow = FaultSpec(kind="straggler", at_s=0.0, duration_s=1.0, magnitude=2.0)
        schedule = FaultSchedule(specs=(crash, slow))
        assert schedule

    def test_horizon_covers_latest_window(self):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="crash", at_s=0.0, duration_s=3.0),
                FaultSpec(kind="error", at_s=1.0, duration_s=1.0, magnitude=0.1),
            )
        )
        assert schedule.horizon_s == 3.0

    def test_kinds_constant_is_exhaustive(self):
        assert FAULT_KINDS == ("crash", "straggler", "error", "predict-error")


class TestFaultInjector:
    def test_out_of_range_replica_rejected(self):
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="crash", at_s=0.0, duration_s=1.0, replica=3),)
        )
        with pytest.raises(ValueError, match="replica 3"):
            FaultInjector(schedule, num_replicas=2)

    def test_overlapping_crash_windows_merge(self):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="crash", at_s=0.0, duration_s=1.0, replica=0),
                FaultSpec(kind="crash", at_s=0.5, duration_s=1.0, replica=0),
                FaultSpec(kind="crash", at_s=3.0, duration_s=1.0, replica=0),
            )
        )
        injector = FaultInjector(schedule, num_replicas=1)
        assert injector.crash_windows(0) == ((0.0, 1.5), (3.0, 4.0))
        assert injector.crashed(0, 1.0)
        assert not injector.crashed(0, 2.0)
        assert injector.crashed(0, 3.0)

    def test_replica_none_hits_every_replica(self):
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="crash", at_s=0.0, duration_s=1.0),)
        )
        injector = FaultInjector(schedule, num_replicas=3)
        for replica in range(3):
            assert injector.crash_windows(replica) == ((0.0, 1.0),)

    def test_straggler_slowdowns_compound(self):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    kind="straggler", at_s=0.0, duration_s=2.0, magnitude=3.0
                ),
                FaultSpec(
                    kind="straggler", at_s=1.0, duration_s=2.0, magnitude=2.0
                ),
            )
        )
        injector = FaultInjector(schedule, num_replicas=1)
        assert injector.slowdown(0, 0.5) == 3.0
        assert injector.slowdown(0, 1.5) == 6.0
        assert injector.slowdown(0, 2.5) == 2.0
        assert injector.slowdown(0, 5.0) == 1.0

    def test_error_draws_deterministic_and_window_scoped(self):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="error", at_s=0.0, duration_s=1.0, magnitude=0.5),
            ),
            seed=42,
        )
        injector = FaultInjector(schedule, num_replicas=1)
        outcomes = [injector.exec_error(0, rid, 0, 0.5) for rid in range(200)]
        # Same (seed, request, attempt) → same outcome, every time.
        assert outcomes == [injector.exec_error(0, rid, 0, 0.5) for rid in range(200)]
        # A p=0.5 window fails roughly half the attempts.
        assert 60 < sum(outcomes) < 140
        # Outside the window nothing fails, whatever the draw says.
        assert not any(injector.exec_error(0, rid, 0, 1.5) for rid in range(200))

    def test_error_probability_extremes(self):
        always = FaultInjector(
            FaultSchedule(
                specs=(
                    FaultSpec(
                        kind="predict-error", at_s=0.0, duration_s=1.0, magnitude=1.0
                    ),
                )
            ),
            num_replicas=1,
        )
        never = FaultInjector(
            FaultSchedule(
                specs=(
                    FaultSpec(
                        kind="predict-error", at_s=0.0, duration_s=1.0, magnitude=0.0
                    ),
                )
            ),
            num_replicas=1,
        )
        assert all(always.predict_error(0, rid, 0, 0.5) for rid in range(50))
        assert not any(never.predict_error(0, rid, 0, 0.5) for rid in range(50))

    def test_draws_independent_of_attempt_number(self):
        # Retry draws must differ from first-attempt draws — otherwise a
        # request doomed on attempt 0 is doomed forever under p < 1.
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="error", at_s=0.0, duration_s=1.0, magnitude=0.5),
            ),
            seed=7,
        )
        injector = FaultInjector(schedule, num_replicas=1)
        first = [injector.exec_error(0, rid, 0, 0.5) for rid in range(200)]
        second = [injector.exec_error(0, rid, 1, 0.5) for rid in range(200)]
        assert first != second


# -- satellite regressions -------------------------------------------------


class TestShedDecisionDuplicates:
    """Backlog estimates must count in-flight duplicates (the bug fix)."""

    CONFIG = SLOConfig(target_s=0.010)

    def _decide(self, *, queue_depth=0, duplicate_depth=0, policy="deadline"):
        return shed_decision(
            policy,
            self.CONFIG,
            DEFAULT_TENANT,
            idle=False,
            busy_wait_s=0.0,
            queue_depth=queue_depth,
            duplicate_depth=duplicate_depth,
            est_service_s=0.004,
        )

    def test_duplicates_flip_admit_into_shed(self):
        # Queue alone predicts 2 × 4 ms = 8 ms < 10 ms: admit.  Two
        # in-flight duplicates push it to 16 ms: shed.  Before the fix
        # duplicate_depth was invisible and both cases admitted.
        admit = self._decide(queue_depth=1)
        shed = self._decide(queue_depth=1, duplicate_depth=2)
        assert not admit.shed
        assert admit.predicted_s == pytest.approx(0.008)
        assert shed.shed
        assert shed.predicted_s == pytest.approx(0.016)

    def test_policy_none_never_sheds(self):
        decision = self._decide(queue_depth=100, duplicate_depth=100, policy="none")
        assert not decision.shed
        assert decision.predicted_s is None

    def test_idle_always_admits(self):
        decision = shed_decision(
            "deadline",
            self.CONFIG,
            DEFAULT_TENANT,
            idle=True,
            busy_wait_s=0.0,
            queue_depth=50,
            duplicate_depth=50,
            est_service_s=1.0,
        )
        assert not decision.shed

    def test_priority_exemption_survives_duplicates(self):
        config = SLOConfig(
            target_s=0.010,
            tenant_priorities=(("gold", 5),),
        )
        decision = shed_decision(
            "priority",
            config,
            "gold",
            idle=False,
            busy_wait_s=1.0,
            queue_depth=10,
            duplicate_depth=10,
            est_service_s=1.0,
        )
        assert not decision.shed

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown shed policy"):
            self._decide(policy="coinflip")
        with pytest.raises(ValueError, match="non-negative"):
            self._decide(duplicate_depth=-1)


class TestRouterCooldownTick:
    """Drain cooldowns decay with simulated time, not just placements."""

    def test_quiet_fleet_cooldown_expires_on_ticks(self, fleet_systems):
        services = [PartitioningService(s, ServiceConfig()) for s in fleet_systems]
        router = FleetRouter(services, policy="least-loaded")
        router.replicas[0].draining = DRAIN_COOLDOWN
        # Zero placements, only simulated time: before the fix the
        # replica sat out forever waiting for traffic to count down.
        router.tick(DRAIN_COOLDOWN * COOLDOWN_TICK_S)
        assert router.replicas[0].draining == 0

    def test_fractional_ticks_carry_over(self, fleet_systems):
        services = [PartitioningService(s, ServiceConfig()) for s in fleet_systems]
        router = FleetRouter(services, policy="least-loaded")
        router.replicas[0].draining = 4
        step = COOLDOWN_TICK_S
        # Half a step: no decay yet, but the elapsed time is banked.
        router.tick(0.5 * step)
        assert router.replicas[0].draining == 4
        # The other half completes one step.
        router.tick(1.0 * step)
        assert router.replicas[0].draining == 3
        # Many tiny ticks decay exactly like one big tick.
        clock = 1.0 * step
        for _ in range(30):
            clock += 0.1 * step
            router.tick(clock)
        assert router.replicas[0].draining == 0

    def test_clock_never_runs_backwards(self, fleet_systems):
        services = [PartitioningService(s, ServiceConfig()) for s in fleet_systems]
        router = FleetRouter(services, policy="least-loaded")
        router.replicas[0].draining = 2
        router.tick(10.0)
        assert router.replicas[0].draining == 0
        before = router._sim_clock_s
        router.tick(5.0)  # stale timestamp: ignored
        assert router._sim_clock_s == before


# -- event-loop behaviour under faults -------------------------------------


def _window(kind, magnitude=1.0, replica=None, at_s=0.0, duration_s=60.0):
    return FaultSpec(
        kind=kind,
        at_s=at_s,
        duration_s=duration_s,
        magnitude=magnitude,
        replica=replica,
    )


class TestLoopUnderErrors:
    def test_predict_errors_fail_without_retries(self, system):
        spec = _spec("stationary", seed=3)
        loop = _loop(
            system,
            faults=FaultSchedule(specs=(_window("predict-error", 1.0),), seed=1),
            max_retries=0,
            retry_budget=0.0,
        )
        records = []
        stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
        assert stats.completed == 0
        assert not records
        assert stats.failed == stats.arrivals == stats.predict_errors
        assert stats.arrivals == stats.completed + stats.shed + stats.failed
        assert stats.availability == 0.0
        assert stats.slo.failed == stats.failed

    def test_transient_errors_recovered_by_retry(self, system):
        spec = _spec("stationary", seed=3)
        loop = _loop(
            system,
            faults=FaultSchedule(specs=(_window("error", 0.3),), seed=5),
            max_retries=4,
            retry_budget=4.0,
        )
        records = []
        stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
        assert stats.exec_errors > 0
        assert stats.retries > 0
        assert stats.arrivals == stats.completed + stats.shed + stats.failed
        # With p=0.3 and four retries a request dies with p ≈ 0.3^5.
        assert stats.completed >= 0.9 * stats.arrivals
        assert any(r.attempts > 1 for r in records)
        _check_chaos_invariants(stats, records)

    def test_retry_budget_bounds_retry_traffic(self, system):
        spec = _spec("stationary", seed=3)
        loop = _loop(
            system,
            faults=FaultSchedule(specs=(_window("error", 1.0),), seed=5),
            max_retries=5,
            retry_budget=0.25,
        )
        stats = loop.run(stream_timed_items(spec, KEYS))
        # Every attempt fails, so retries are capped by earned tokens:
        # 0.25 per admitted request, one token per retry.
        assert stats.completed == 0
        assert stats.failed == stats.admitted
        assert stats.retries <= math.floor(0.25 * stats.admitted)
        assert stats.retries > 0


class TestLoopUnderTimeouts:
    def test_timeouts_fail_requests_beyond_budget(self, system):
        spec = _spec("stationary", seed=3)
        loop = _loop(
            system,
            faults=FaultSchedule(specs=(_window("straggler", 50.0),), seed=1),
            slo=SLOConfig(target_s=0.002),
            timeout_factor=2.0,
        )
        records = []
        stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
        assert stats.timeouts > 0
        assert stats.failed == stats.timeouts
        assert stats.slo.failed == stats.failed
        _check_chaos_invariants(stats, records)


class TestLoopUnderCrashes:
    CRASH = FaultSchedule(
        specs=(
            FaultSpec(kind="crash", at_s=0.005, duration_s=0.015, replica=0),
        ),
        seed=9,
    )

    def test_failover_preserves_every_request(self, fleet_systems):
        spec = _spec("stationary", seed=7)
        loop = _fleet_loop(fleet_systems, faults=self.CRASH)
        records = []
        stats = loop.run(stream_timed_items(spec, KEYS), on_complete=records.append)
        assert stats.crashes == 1
        assert stats.recoveries == 1
        assert stats.failovers > 0
        # No timeouts configured: with failover on, nothing is lost.
        assert stats.failed == 0
        assert stats.availability == 1.0
        _check_chaos_invariants(stats, records)

    def test_no_failover_strands_work_on_the_crashed_replica(self, fleet_systems):
        spec = _spec("stationary", seed=7)
        availability = {}
        for failover in (True, False):
            loop = _fleet_loop(
                fleet_systems,
                faults=self.CRASH,
                failover=failover,
                slo=SLOConfig(target_s=0.002),
                timeout_factor=4.0,
            )
            records = []
            stats = loop.run(
                stream_timed_items(spec, KEYS), on_complete=records.append
            )
            availability[failover] = stats.availability
            _check_chaos_invariants(stats, records)
            if not failover:
                assert stats.failovers == 0
                assert stats.failed > 0
        assert availability[True] > availability[False]


class TestLoopUnderStragglers:
    def test_hedging_cuts_the_straggler_tail(self, fleet_systems, monkeypatch):
        monkeypatch.setattr(eventloop, "TRIGGER_MIN_COMPLETIONS", 8)
        spec = _spec("stationary", seed=11, num_requests=150)
        faults = FaultSchedule(
            specs=(_window("straggler", 20.0, replica=0),), seed=3
        )
        p99 = {}
        for hedge_at in (None, 0.9):
            loop = _fleet_loop(
                fleet_systems,
                faults=faults,
                hedge_at=hedge_at,
            )
            records = []
            stats = loop.run(
                stream_timed_items(spec, KEYS), on_complete=records.append
            )
            p99[hedge_at] = stats.latency.quantile(0.99)
            _check_chaos_invariants(stats, records)
            if hedge_at is None:
                assert stats.hedges == 0
            else:
                assert stats.hedges > 0
                assert stats.hedge_wins > 0
                assert stats.hedge_cancels >= stats.hedge_wins
                assert stats.cancelled_busy_s > 0.0
                assert any(r.hedged for r in records)
        assert p99[0.9] < p99[None]


class TestFaultedDeterminism:
    CHAOS = FaultSchedule(
        specs=(
            FaultSpec(kind="straggler", at_s=0.005, duration_s=0.01, magnitude=6.0),
            FaultSpec(kind="error", at_s=0.0, duration_s=60.0, magnitude=0.1),
            FaultSpec(
                kind="predict-error", at_s=0.0, duration_s=60.0, magnitude=0.05
            ),
        ),
        seed=17,
    )

    def test_faulted_run_is_bit_identical(self, system):
        spec = _spec("flash-crowd", seed=5)
        results = []
        for _ in range(2):
            loop = _loop(
                system,
                faults=self.CHAOS,
                slo=SLOConfig(target_s=0.005),
                timeout_factor=16.0,
                hedge_at=0.95,
                max_retries=3,
                retry_budget=1.0,
            )
            results.append(loop.run(stream_timed_items(spec, KEYS)))
        a, b = results
        assert a.to_dict() == b.to_dict()
        assert a.latency.counts == b.latency.counts
        assert a.latency.zeros == b.latency.zeros
        assert a.queue_wait.counts == b.queue_wait.counts
        assert a.slo.snapshot() == b.slo.snapshot()


# -- the chaos property sweep ----------------------------------------------


def _chaos_schedule(seed):
    return FaultSchedule(
        specs=(
            FaultSpec(kind="crash", at_s=0.008, duration_s=0.01, replica=0),
            FaultSpec(
                kind="straggler", at_s=0.02, duration_s=0.015, magnitude=8.0
            ),
            FaultSpec(kind="error", at_s=0.0, duration_s=60.0, magnitude=0.08),
            FaultSpec(
                kind="predict-error", at_s=0.0, duration_s=60.0, magnitude=0.04
            ),
        ),
        seed=seed,
    )


@pytest.mark.slow
@pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
@pytest.mark.parametrize("shed_policy", ["none", "deadline"])
class TestChaosSweep:
    """Conservation, causality, FIFO, and replay under every schedule."""

    def test_invariants_and_bit_identity(
        self, system, family, shed_policy, monkeypatch
    ):
        monkeypatch.setattr(eventloop, "TRIGGER_MIN_COMPLETIONS", 16)
        spec = _spec(family, seed=13)
        runs = []
        for _ in range(2):
            loop = _loop(
                system,
                faults=_chaos_schedule(seed=21),
                shed_policy=shed_policy,
                slo=SLOConfig(target_s=0.005),
                timeout_factor=16.0,
                hedge_at=0.95,
                max_retries=3,
                retry_budget=1.0,
            )
            records = []
            stats = loop.run(
                stream_timed_items(spec, KEYS), on_complete=records.append
            )
            assert stats.arrivals == spec.num_requests
            _check_chaos_invariants(stats, records)
            if shed_policy == "none":
                assert stats.shed == 0
            runs.append(stats)
        a, b = runs
        assert a.to_dict() == b.to_dict()
        assert a.latency.counts == b.latency.counts
        assert a.service.counts == b.service.counts
