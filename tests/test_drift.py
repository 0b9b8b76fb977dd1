"""Tests for platform drift: hardware rescaling, detection, fleet repair."""

import pytest

import repro.fleet.router as fleet_router
import repro.serving.service as service_module
from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.core.predictor import make_partitioning_model
from repro.energy import Objective
from repro.fleet import FleetRouter, ModelRegistry
from repro.machines import MC2, fleet_platforms
from repro.ocl.costmodel import DeviceKind, DeviceSpec
from repro.partitioning import Partitioning
from repro.runtime import Runner
from repro.engine import SweepEngine
from repro.serving import (
    DriftDetector,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    ServingRequest,
    key_universe,
    serve_trace,
)
from repro.workloads import DriftEvent, WorkloadSpec, make_workload

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)

#: A serving config with every self-repair mechanism off: what a
#: deployment frozen at training time serves.
FROZEN = ServiceConfig(
    detect_drift=False, max_adaptations_per_key=0, validate_cold_keys=False
)

#: Above the detector's 32-flag window: patched in, escalation never fires.
NO_ESCALATION = 33


def _train(platform=MC2):
    return train_system(platform, BENCHMARKS, model_kind="knn", config=TRAIN)


def _request(i, program="vec_add", size=None):
    if size is None:
        size = get_benchmark(program).problem_sizes()[0]
    return ServingRequest(request_id=i, program=program, size=size)


class TestDeviceDrift:
    def test_scaled_spec_rescales_throughput_factors(self):
        spec = DeviceSpec(
            "d", DeviceKind.GPU, compute_units=8, clock_ghz=1.0, lanes_per_unit=16
        )
        slow = spec.scaled(0.5, 0.25)
        assert slow.clock_ghz == pytest.approx(0.5)
        assert slow.mem_bandwidth_gbs == pytest.approx(spec.mem_bandwidth_gbs * 0.25)
        assert slow.launch_overhead_us == spec.launch_overhead_us  # overheads stay
        with pytest.raises(ValueError):
            spec.scaled(0.0, 1.0)

    def test_apply_drift_composes_and_bumps_generation(self):
        runner = Runner(MC2)
        device = runner.devices[0]
        clock = device.spec.clock_ghz
        device.apply_drift(0.5)
        device.apply_drift(0.5)
        assert device.spec.clock_ghz == pytest.approx(clock * 0.25)
        assert device.throughput_scale == pytest.approx(0.25)
        assert device.drift_generation == 2
        with pytest.raises(ValueError):
            device.apply_drift(-1.0)

    def test_runner_drift_slows_measured_time(self):
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(bench.problem_sizes()[0], seed=0))
        cpu_only = Partitioning((100, 0, 0))
        runner = Runner(MC2)
        before = runner.time_of(request, cpu_only)
        runner.apply_drift(0.5, device_index=0)
        after = runner.time_of(request, cpu_only)
        assert after > before

    def test_runner_drift_single_device_leaves_others_alone(self):
        runner = Runner(MC2)
        runner.apply_drift(0.5, device_index=1)
        assert runner.drift_generation == (0, 1, 0)
        runner.apply_drift(0.5)
        assert runner.drift_generation == (1, 2, 1)

    def test_runner_drift_rejects_out_of_range_device_index(self):
        # Regression: a negative index silently wrapped to the wrong
        # device and an oversized one raised a bare IndexError.
        runner = Runner(MC2)
        with pytest.raises(ValueError, match="out of range"):
            runner.apply_drift(0.5, device_index=-1)
        with pytest.raises(ValueError, match="out of range"):
            runner.apply_drift(0.5, device_index=3)
        assert runner.drift_generation == (0, 0, 0)  # nothing drifted

    def test_engine_invalidates_memoized_durations_on_drift(self):
        # Regression guard: cached tapes priced on pre-drift hardware
        # must not answer post-drift measurements.
        bench = get_benchmark("mat_mul")
        request = bench.request(bench.make_instance(bench.problem_sizes()[0], seed=0))
        p = Partitioning((40, 30, 30))
        runner = Runner(MC2)
        engine = SweepEngine(runner)
        engine.measure(request, p)  # warm the tape caches
        runner.apply_drift(0.4, device_index=0)
        memoized = engine.measure(request, p).median_s
        fresh = Runner(MC2)
        fresh.apply_drift(0.4, device_index=0)
        assert memoized == fresh.time_of(request, p)


class TestDriftDetector:
    def test_no_flag_below_min_observations(self):
        detector = DriftDetector(min_observations=3, threshold=0.2, alpha=1.0)
        assert not detector.observe("k", 2.0, 1.0)
        assert not detector.observe("k", 2.0, 1.0)
        assert detector.observe("k", 2.0, 1.0)
        assert detector.flags_in_window() == 1

    def test_single_outlier_does_not_flag(self):
        detector = DriftDetector(min_observations=3, threshold=0.3, alpha=0.3)
        for _ in range(10):
            assert not detector.observe("k", 1.0, 1.0)
        # One 2x run barely moves the smoothed ratio.
        assert not detector.observe("k", 2.0, 1.0)

    def test_cooldown_suppresses_flag_storms(self):
        detector = DriftDetector(
            min_observations=1, threshold=0.2, alpha=1.0, cooldown=3
        )
        assert detector.observe("k", 2.0, 1.0)
        flags = [detector.observe("k", 2.0, 1.0) for _ in range(3)]
        assert flags == [False, False, False]
        assert detector.observe("k", 2.0, 1.0)  # cooled down, still degraded

    def test_window_counts_flags_across_keys(self):
        detector = DriftDetector(window=8, min_observations=1, threshold=0.2, alpha=1.0)
        for key in ("a", "b", "c"):
            assert detector.observe(key, 3.0, 1.0)
        assert detector.flags_in_window() == 3
        detector.reset()
        assert detector.flags_in_window() == 0

    def test_zero_estimate_ignored(self):
        detector = DriftDetector(min_observations=1)
        assert not detector.observe("k", 5.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(window=0)
        with pytest.raises(ValueError):
            DriftDetector(alpha=0.0)
        with pytest.raises(ValueError):
            DriftDetector(min_observations=0)


class TestServiceDriftHandling:
    def _drifting_scenario(self, config):
        """Serve a hot key, throttle the CPU 4x, keep serving it."""
        service = PartitioningService(_train(), config)
        for i in range(5):
            service.submit(_request(i))
        service.system.runner.apply_drift(0.25, device_index=0)
        for i in range(5, 25):
            service.submit(_request(i))
        return service

    def test_sustained_drift_flags_and_researches(self, monkeypatch):
        monkeypatch.setattr(service_module, "DRIFT_ESCALATION", NO_ESCALATION)
        service = self._drifting_scenario(ServiceConfig())
        assert service.stats.drift_flags >= 1
        # The flag re-opened the adaptation budget and re-searched.
        assert service.system.runner.stats.executions > 25

    def test_drift_rebaselines_the_estimate(self, monkeypatch):
        monkeypatch.setattr(service_module, "DRIFT_ESCALATION", NO_ESCALATION)
        service = PartitioningService(_train(), ServiceConfig())
        key = ("mc2", "vec_add", get_benchmark("vec_add").problem_sizes()[0])
        for i in range(5):
            service.submit(_request(i))
        pre_drift_best = service._estimate(key)
        service.system.runner.apply_drift(0.25, device_index=0)
        for i in range(5, 25):
            service.submit(_request(i))
        # The live estimate tracks the drifted hardware, not the stale
        # pre-drift minimum — so the detector stops re-flagging.
        estimate = service._estimate(key)
        assert estimate > 1.5 * pre_drift_best
        assert key in service._drift_estimates
        response = service.submit(_request(99))
        assert response.measured_s <= (1.0 + service.detector.threshold) * estimate

    def test_frozen_config_never_flags(self):
        service = self._drifting_scenario(FROZEN)
        assert service.detector is None
        assert service.stats.drift_flags == 0
        assert service.stats.adaptations == 0

    def test_escalation_flushes_and_refits(self, monkeypatch):
        # Many keys drift at once → platform-level escalation, under a
        # touchier detector than the defaults, escalating at 3 flags.
        monkeypatch.setattr(service_module, "DRIFT_ESCALATION", 3)
        benchmarks = tuple(
            get_benchmark(n) for n in ("vec_add", "mat_mul", "saxpy", "triad")
        )
        system = train_system(MC2, benchmarks, model_kind="knn", config=TRAIN)
        service = PartitioningService(system, ServiceConfig())
        service.detector = DriftDetector(min_observations=2, cooldown=2)
        keys = key_universe(benchmarks, max_sizes=2)
        trace = make_workload(
            WorkloadSpec(family="stationary", num_requests=120, skew=0.8, seed=0), keys
        ).requests
        for r in trace[:40]:
            service.submit(r)
        service.system.runner.apply_drift(0.25)  # whole machine throttles
        for r in trace[40:]:
            service.submit(r)
        assert service.stats.drift_escalations >= 1
        assert service.stats.refits >= 1

    def test_batched_matches_sequential_under_drift(self):
        # submit_many and serve must stay bit-identical with the
        # detector in the loop.
        keys = key_universe(BENCHMARKS, max_sizes=2)
        trace = make_workload(
            WorkloadSpec(family="phase-shift", num_requests=60, phases=2, seed=5), keys
        ).requests
        sequential = PartitioningService(_train(), ServiceConfig())
        batched = PartitioningService(_train(), ServiceConfig())
        sequential.system.runner.apply_drift(0.5, device_index=0)
        batched.system.runner.apply_drift(0.5, device_index=0)
        r_seq = sequential.serve(trace)
        r_bat = batched.submit_many(list(trace))
        assert [r.partitioning for r in r_bat] == [r.partitioning for r in r_seq]
        assert [r.measured_s for r in r_bat] == [r.measured_s for r in r_seq]
        assert batched.stats == sequential.stats

    def _drift_workload(self):
        keys = key_universe(BENCHMARKS, max_sizes=2)
        spec = WorkloadSpec(
            num_requests=20,
            seed=5,
            drift_events=(DriftEvent(10, 0.25, device_index=0),),
        )
        return make_workload(spec, keys)

    def test_sequential_serve_trace_applies_drift_events(self):
        # Regression: a closed-loop trace carrying DriftEvents crashed
        # with AttributeError.  The loop now hands each event to the
        # drift handler once the previous request resolved, so the run
        # matches direct submits with the drift applied in place.
        workload = self._drift_workload()
        service = PartitioningService(_train(), ServiceConfig())
        applied, served = [], []

        def on_drift(event):
            applied.append(service.stats.requests)
            service.system.runner.apply_drift(
                event.scale, device_index=event.device_index
            )

        result = serve_trace(
            service,
            workload.items(),
            ServeOptions(),
            on_complete=served.append,
            drift_handler=on_drift,
        )
        assert applied == [10]
        assert result.stats.completed == 20
        twin = PartitioningService(_train(), ServiceConfig())
        direct = []
        for item in workload.items():
            if isinstance(item, DriftEvent):
                twin.system.runner.apply_drift(
                    item.scale, device_index=item.device_index
                )
            else:
                direct.append(twin.submit(item).measured_s)
        assert [c.response.measured_s for c in served] == direct
        assert service.stats == twin.stats

    def test_sequential_drift_without_handler_rejected(self):
        service = PartitioningService(_train(), ServiceConfig())
        with pytest.raises(ValueError, match="drift_handler"):
            serve_trace(service, self._drift_workload().items(), ServeOptions())

    def test_rewarm_resets_online_state_but_keeps_drift_baselines(self, monkeypatch):
        monkeypatch.setattr(service_module, "DRIFT_ESCALATION", NO_ESCALATION)
        service = self._drifting_scenario(ServiceConfig())
        assert len(service.cache) > 0
        baselines = dict(service._drift_estimates)
        assert baselines  # the scenario re-baselined the hot key
        service.rewarm()
        assert service.stats.rewarms == 1
        assert len(service._validated) == 0
        # Post-drift baselines survive: a model rollback does not roll
        # back the hardware.  Reverting to pre-drift estimates would
        # re-trip detection and thrash the drain/re-warm loop.
        assert service._drift_estimates == baselines
        response = service.submit(_request(1000))
        assert not response.cache_hit  # cache restarted cold

    def test_rewarm_with_database_refits_on_the_new_database(self):
        # Regression: rewarm(database=db) used to refit the model on
        # the OLD database before swapping, leaving model and records
        # mutually inconsistent.
        service = PartitioningService(_train(), ServiceConfig())
        snapshot = service.system.database
        grown = _train().database
        size = get_benchmark("saxpy").problem_sizes()[0]
        service.submit(ServingRequest(0, "saxpy", size))  # mutates live db
        service.rewarm(database=snapshot)
        assert service.system.database is snapshot
        assert grown is not snapshot

    def test_recovery_drift_is_detected_and_rebaselined_downward(self, monkeypatch):
        # Slow-down then recovery: the slow-down re-baselines the
        # estimate *up* (the database minimum is unreachable); when the
        # device recovers, only the detector's low side can pull the
        # stale-high override back down — the database's min-tracking
        # never raises, and the served label's merge path cannot lower
        # an override.
        monkeypatch.setattr(service_module, "DRIFT_ESCALATION", NO_ESCALATION)
        service = PartitioningService(_train(), ServiceConfig())
        key = ("mc2", "vec_add", get_benchmark("vec_add").problem_sizes()[0])
        for i in range(5):
            service.submit(_request(i))
        healthy_estimate = service._estimate(key)
        service.system.runner.apply_drift(0.25, device_index=0)  # throttle
        for i in range(5, 25):
            service.submit(_request(i))
        throttled_estimate = service._estimate(key)
        assert throttled_estimate > healthy_estimate
        flags_after_throttle = service.stats.drift_flags
        service.system.runner.apply_drift(4.0, device_index=0)  # recover
        for i in range(25, 60):
            service.submit(_request(i))
        assert service.stats.drift_flags > flags_after_throttle
        assert service._estimate(key) < throttled_estimate
        assert service._estimate(key) == pytest.approx(healthy_estimate, rel=0.3)


class TestFleetDriftRepair:
    @pytest.fixture(autouse=True)
    def _touchy_drain(self, monkeypatch):
        # Drain sooner than the router's constants, so short traces
        # exercise drain and re-warm.
        monkeypatch.setattr(fleet_router, "DRAIN_MIN_OBSERVATIONS", 4)
        monkeypatch.setattr(fleet_router, "DRAIN_THRESHOLD", 0.3)
        monkeypatch.setattr(fleet_router, "DRAIN_COOLDOWN", 6)

    def _fleet(self, tmp_path, service_config=FROZEN):
        platforms = fleet_platforms(2)
        registry = ModelRegistry(tmp_path)
        services = []
        for platform in platforms:
            system = train_system(platform, BENCHMARKS, model_kind="knn", config=TRAIN)
            registry.save(system)
            services.append(PartitioningService(system, service_config))
        router = FleetRouter(services, policy="least-loaded", registry=registry)
        return router, platforms

    def _trace(self, n=60):
        keys = key_universe(BENCHMARKS, max_sizes=2)
        return make_workload(
            WorkloadSpec(family="stationary", num_requests=n, seed=0), keys
        ).requests

    def test_apply_drift_targets_one_machine(self, tmp_path):
        router, platforms = self._fleet(tmp_path)
        hit = router.apply_drift(
            DriftEvent(at_request=0, scale=0.5, machine=platforms[0].name)
        )
        assert hit == (platforms[0].name,)
        assert router.replicas[0].service.system.runner.drift_generation == (1, 1, 1)
        assert router.replicas[1].service.system.runner.drift_generation == (0, 0, 0)
        with pytest.raises(ValueError, match="unknown machine"):
            router.apply_drift(DriftEvent(at_request=0, scale=0.5, machine="nope"))

    def test_drift_before_first_predicted_placement_reaches_placement(self):
        # Regression: a drift event firing before the predicted policy
        # ever routed was once lost on placement's lazily-created private
        # runners, so placement priced pre-drift hardware for the whole
        # trace.  Placement now prices on each replica's serving engine.
        platforms = fleet_platforms(2)

        def predicted_fleet():
            services = [PartitioningService(_train(p), FROZEN) for p in platforms]
            return FleetRouter(services, policy="predicted")

        request = _request(0, "mat_mul")
        assert predicted_fleet().place(request) == 1  # mc2 finishes first
        router = predicted_fleet()
        router.apply_drift(
            DriftEvent(at_request=0, scale=0.25, machine=platforms[1].name)
        )
        # The throttled mc2 now finishes later than the idle mc1.
        assert router.place(request) == 0
        replica = router.replicas[1]
        exec_request, partitioning = router._peek(replica, request)
        reference = Runner(platforms[1])
        reference.apply_drift(0.25)
        expected = SweepEngine(reference).measure(exec_request, partitioning)
        price = replica.service.engine.price(exec_request, partitioning)
        assert price.makespan_s == expected.median_s

    def test_degraded_replica_drains_and_rewarms(self, tmp_path):
        router, platforms = self._fleet(tmp_path)
        trace = self._trace(80)
        for r in trace[:30]:
            router.submit(r)
        router.apply_drift(
            DriftEvent(at_request=30, scale=0.25, machine=platforms[0].name)
        )
        for r in trace[30:]:
            router.submit(r)
        assert router.stats().rewarms >= 1
        assert router.replicas[0].rewarms >= 1
        assert router.replicas[1].rewarms == 0  # the healthy replica is untouched

    def test_draining_replica_is_excluded_until_cooldown(self, tmp_path):
        router, _platforms = self._fleet(tmp_path)
        router.replicas[0].draining = 3
        placements = []
        for request in self._trace(3):
            placements.append(router.place(request))
            router.serve_on(placements[-1], request)
        # Two requests route around the draining replica; the drain
        # clock then runs out and the third rejoins it (least-loaded
        # prefers the idle machine).
        assert placements == [1, 1, 0]
        assert router.replicas[0].draining == 0

    def test_all_draining_falls_back_to_whole_fleet(self, tmp_path):
        router, _platforms = self._fleet(tmp_path)
        for replica in router.replicas:
            replica.draining = 10
        request = self._trace(1)[0]
        index = router.place(request)
        router.serve_on(index, request)
        assert index in (0, 1)

    def test_rewarm_from_a_makespan_registry_serves_the_fleets_objective(
        self, tmp_path
    ):
        # Regression: the registry rollback restored the makespan model
        # saved at training time on a fleet serving the energy objective.
        energy = ServiceConfig(
            detect_drift=False,
            max_adaptations_per_key=0,
            validate_cold_keys=False,
            objective="energy",
        )
        router, platforms = self._fleet(tmp_path, energy)
        saved, database = router.registry.load_snapshot(platforms[0])
        assert saved.objective is Objective.MAKESPAN
        router.rewarm_replica(0)
        predictor = router.replicas[0].service.system.predictor
        assert predictor.objective is Objective.ENERGY
        # Refit on the saved database, with the saved model's kind and seed.
        refit = make_partitioning_model(
            saved.model.kind, seed=saved.model.seed, objective=Objective.ENERGY
        ).fit(database)
        assert predictor.model.predict_many(database) == refit.predict_many(database)

    def test_rewarm_from_registry_rolls_back_database(self, tmp_path):
        router, _platforms = self._fleet(tmp_path)
        replica = router.replicas[0]
        baseline_records = len(replica.service.system.database)
        # Serve a cold key so the online database grows past the snapshot.
        size = get_benchmark("saxpy").problem_sizes()[0]
        replica.service.submit(ServingRequest(0, "saxpy", size))
        assert len(replica.service.system.database) == baseline_records + 1
        router.rewarm_replica(0)
        assert len(replica.service.system.database) == baseline_records
        assert replica.service.stats.rewarms == 1
