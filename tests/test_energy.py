"""Tests for the energy subsystem: power models, metering, objectives,
per-objective training, power-capped serving and fleet energy routing."""

import math

import pytest

import repro.serving.service as service_module
from repro.benchsuite import all_benchmarks, get_benchmark
from repro.core import TrainingConfig, TrainingDatabase, TrainingRecord, train_system
from repro.energy import (
    DVFS_EXPONENT,
    DevicePowerModel,
    EnergyMeter,
    Objective,
    PowerSpec,
    coerce_objective,
    objective_cost,
    pareto_front,
)
from repro.energy.objectives import best_label
from repro.fleet import FleetRouter
from repro.machines import MC1, MC2, fleet_platforms
from repro.core.predictor import make_partitioning_model
from repro.engine import SweepEngine
from repro.partitioning import Partitioning, partition_space
from repro.runtime import Runner
from repro.serving import (
    PartitioningService,
    ServiceConfig,
    ServingRequest,
    key_universe,
    zipf_trace,
)

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)


def _request(i, program="vec_add", size=None):
    if size is None:
        size = get_benchmark(program).problem_sizes()[0]
    return ServingRequest(request_id=i, program=program, size=size)


class TestPowerModel:
    def test_spec_derivation_is_positive_and_kind_aware(self):
        cpu = MC2.device_specs[0]
        gpu = MC2.device_specs[1]
        p_cpu = PowerSpec.from_device_spec(cpu)
        p_gpu = PowerSpec.from_device_spec(gpu)
        for spec in (p_cpu, p_gpu):
            assert spec.idle_w > 0
            assert spec.compute_w > 0
            assert spec.memory_w > 0
        # Host-resident CPUs never pay PCIe watts; discrete GPUs do.
        assert p_cpu.transfer_w == 0.0
        assert p_gpu.transfer_w > 0.0
        # 2012-era CPUs burn more energy per flop than GPUs.
        cpu_j_per_flop = p_cpu.compute_w / cpu.peak_gflops
        gpu_j_per_flop = p_gpu.compute_w / gpu.peak_gflops
        assert cpu_j_per_flop > gpu_j_per_flop

    def test_negative_watts_rejected(self):
        with pytest.raises(ValueError):
            PowerSpec(idle_w=-1, compute_w=1, memory_w=1, transfer_w=1)

    def test_dvfs_scaling_follows_cube_law_for_transfers(self):
        # Drift rescales the clock (linear, through the spec) and the
        # voltage term (quadratic, through dvfs_scale).  Transfer watts
        # have no clock component, so they expose the pure dvfs factor.
        device = Runner(MC2).devices[1]
        base = device.power_model.transfer_power_w()
        device.apply_drift(0.5)
        assert device.power_model.transfer_power_w() == pytest.approx(
            base * 0.5 ** (DVFS_EXPONENT - 1.0)
        )

    def test_idle_watts_do_not_drift(self):
        device = Runner(MC2).devices[1]
        idle = device.power_model.idle_w
        device.apply_drift(0.5)
        assert device.power_model.idle_w == pytest.approx(idle)

    def test_drift_rebuilds_power_model(self):
        device = Runner(MC2).devices[0]
        before = device.power_model
        device.apply_drift(2.0)
        assert device.power_model is not before

    def test_dvfs_scale_validated(self):
        with pytest.raises(ValueError):
            DevicePowerModel(MC2.device_specs[0], dvfs_scale=0.0)


class TestEnergyMeter:
    def test_finalize_accounts_idle_over_makespan(self):
        runner = Runner(MC2)
        meter = EnergyMeter(runner.devices)
        makespan = 2.0
        joules = meter.finalize([1.0, 0.5, 0.0], makespan)
        assert joules == pytest.approx(1.5 + meter.platform_idle_w() * makespan)

    def test_finalize_rejects_wrong_device_count(self):
        meter = EnergyMeter(Runner(MC2).devices)
        with pytest.raises(ValueError):
            meter.finalize([1.0], 1.0)


class TestExecutionEnergy:
    def _run(self, platform=MC2, p=Partitioning((40, 30, 30))):
        bench = get_benchmark("mat_mul")
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        return Runner(platform).run(bench.request(inst), p, functional=False)

    def test_result_carries_energy_and_spans(self):
        run = self._run()
        result = run.result
        assert result.energy_j > 0
        assert run.energy_j == result.energy_j
        # Every device's busy span fits inside the makespan.
        assert all(0.0 <= busy <= result.makespan_s for busy in result.device_busy_s)

    def test_single_device_run_still_pays_platform_idle(self):
        # Race-to-idle accounting: the CPU-only run's joules include
        # the two idle GPUs' static draw over the makespan.
        result = self._run(p=Partitioning((100, 0, 0))).result
        meter = EnergyMeter(Runner(MC2).devices)
        assert result.energy_j >= meter.platform_idle_w() * result.makespan_s

    def test_engine_energy_matches_runner_bit_for_bit(self):
        bench = get_benchmark("black_scholes")
        inst = bench.make_instance(bench.problem_sizes()[1], seed=0)
        request = bench.request(inst)
        raw = Runner(MC1)
        engine = SweepEngine(Runner(MC1))
        for p in partition_space(3, 20):
            expected = raw.run(request, p, functional=False)
            composed = engine.measure(request, p)
            assert composed.energy_j == expected.energy_j

    def test_engine_energy_matches_runner_under_noise(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        request = bench.request(inst)
        raw = Runner(MC2, noise_sigma=0.3, seed=11)
        engine = SweepEngine(Runner(MC2, noise_sigma=0.3, seed=11))
        p = Partitioning((40, 30, 30))
        assert engine.measure(request, p).energy_j == raw.run(
            request, p, functional=False
        ).energy_j

    def test_drift_changes_energy_not_just_time(self):
        bench = get_benchmark("mat_mul")
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        request = bench.request(inst)
        p = Partitioning((0, 50, 50))
        runner = Runner(MC2)
        before = runner.run(request, p, functional=False).energy_j
        runner.apply_drift(0.5, device_index=1)
        after = runner.run(request, p, functional=False).energy_j
        assert after != before


class TestObjectives:
    TIMINGS = {"a": 1.0, "b": 2.0, "c": 3.0}
    ENERGIES = {"a": 30.0, "b": 10.0, "c": 9.0}

    def test_objective_costs(self):
        assert objective_cost(Objective.MAKESPAN, 2.0, 10.0) == 2.0
        assert objective_cost(Objective.ENERGY, 2.0, 10.0) == 10.0
        assert objective_cost(Objective.EDP, 2.0, 10.0) == 20.0
        assert objective_cost(
            Objective.ENERGY_CAPPED, 2.0, 10.0, power_cap_w=6.0
        ) == 2.0
        assert math.isinf(
            objective_cost(Objective.ENERGY_CAPPED, 2.0, 100.0, power_cap_w=6.0)
        )
        with pytest.raises(ValueError):
            objective_cost(Objective.ENERGY_CAPPED, 2.0, 10.0)

    def test_coerce_objective(self):
        assert coerce_objective("energy") is Objective.ENERGY
        assert coerce_objective(Objective.EDP) is Objective.EDP
        with pytest.raises(ValueError, match="unknown objective"):
            coerce_objective("speed")

    def test_best_label_per_objective(self):
        assert best_label(self.TIMINGS, self.ENERGIES, Objective.MAKESPAN) == "a"
        assert best_label(self.TIMINGS, self.ENERGIES, Objective.ENERGY) == "c"
        # EDP: a=30, b=20, c=27.
        assert best_label(self.TIMINGS, self.ENERGIES, Objective.EDP) == "b"

    def test_best_label_respects_power_cap_with_fallback(self):
        # Powers: a=30, b=5, c=3.  Cap 6 → fastest feasible is b.
        assert (
            best_label(
                self.TIMINGS, self.ENERGIES, Objective.MAKESPAN, power_cap_w=6.0
            )
            == "b"
        )
        # Unsatisfiable cap: waived, unconstrained best serves.
        assert (
            best_label(
                self.TIMINGS, self.ENERGIES, Objective.MAKESPAN, power_cap_w=1.0
            )
            == "a"
        )

    def test_best_label_needs_energies_for_energy_objectives(self):
        with pytest.raises(ValueError, match="energy measurements"):
            best_label(self.TIMINGS, {}, Objective.ENERGY)

    def test_pareto_front(self):
        front = pareto_front(self.TIMINGS, self.ENERGIES)
        # a (fastest) and c (most frugal) survive; b is NOT dominated
        # by either (faster than c, frugaler than a).
        assert front == ("a", "b", "c")
        dominated = pareto_front({"x": 1.0, "y": 2.0}, {"x": 1.0, "y": 2.0})
        assert dominated == ("x",)

    def test_pareto_ignores_unpriced_labels(self):
        assert pareto_front({"a": 1.0, "b": 2.0}, {"b": 1.0}) == ("b",)


class TestTrainingRecordEnergies:
    def _record(self):
        return TrainingRecord.from_timings(
            "mc2",
            "p",
            64,
            {"f": 1.0},
            {"100/0/0": 1.0, "0/100/0": 2.0},
            energies={"100/0/0": 9.0, "0/100/0": 4.0},
        )

    def test_objective_labels_and_costs(self):
        r = self._record()
        assert r.best_label_for(Objective.MAKESPAN) == "100/0/0"
        assert r.best_label_for(Objective.ENERGY) == "0/100/0"
        assert r.best_cost_for(Objective.ENERGY) == 4.0

    def test_stray_energy_labels_rejected(self):
        with pytest.raises(ValueError, match="unswept"):
            TrainingRecord.from_timings(
                "m", "p", 1, {}, {"100/0": 1.0}, energies={"0/100": 2.0}
            )

    def test_energies_survive_save_load(self, tmp_path):
        db = TrainingDatabase([self._record()])
        path = tmp_path / "db.json"
        db.save(path)
        loaded = TrainingDatabase.load(path)
        assert loaded.records[0].energies == self._record().energies

    def test_legacy_databases_load_without_energies(self, tmp_path):
        db = TrainingDatabase([self._record()])
        path = tmp_path / "db.json"
        db.save(path)
        import json

        doc = json.loads(path.read_text())
        for r in doc["records"]:
            del r["energies"]
        path.write_text(json.dumps(doc))
        loaded = TrainingDatabase.load(path)
        assert loaded.records[0].energies == {}
        with pytest.raises(ValueError, match="energy measurements"):
            loaded.records[0].best_label_for(Objective.ENERGY)

    def test_merge_timings_merges_energies(self):
        db = TrainingDatabase()
        db.merge_timings(
            "m", "p", 1, {"f": 1.0}, {"100/0": 2.0}, energies={"100/0": 5.0}
        )
        record = db.merge_timings(
            "m", "p", 1, {"f": 1.0}, {"0/100": 1.0}, energies={"0/100": 9.0}
        )
        assert record.energies == {"100/0": 5.0, "0/100": 9.0}
        assert record.best_label_for(Objective.ENERGY) == "100/0"

    def test_matrices_labels_follow_objective(self):
        db = TrainingDatabase([self._record()])
        _X, y_time, _g = db.matrices(objective=Objective.MAKESPAN)
        _X, y_energy, _g = db.matrices(objective=Objective.ENERGY)
        assert y_time[0] == "100/0/0"
        assert y_energy[0] == "0/100/0"


class TestPerObjectiveModels:
    def test_campaign_records_carry_energies(self):
        system = train_system(MC2, BENCHMARKS, model_kind="knn", config=TRAIN)
        for record in system.database:
            assert set(record.energies) == set(record.timings)
            assert all(e > 0 for e in record.energies.values())

    def test_energy_objective_system_predicts_energy_labels(self):
        system = train_system(
            MC2, BENCHMARKS, model_kind="knn", config=TRAIN, objective="energy"
        )
        assert system.predictor.objective is Objective.ENERGY
        bench = get_benchmark("mat_mul")
        size = bench.problem_sizes()[0]
        predicted = system.predict(bench, bench.make_instance(size, seed=0))
        record = system.database.record_for("mc2", "mat_mul", size)
        # A kNN model answering a training key reproduces its oracle.
        assert predicted.label == record.best_label_for(Objective.ENERGY)

    def test_capped_objective_is_not_trainable(self):
        with pytest.raises(ValueError, match="serve-time"):
            make_partitioning_model("knn", objective=Objective.ENERGY_CAPPED)
        with pytest.raises(ValueError, match="serve-time"):
            make_partitioning_model("knn-scorer", objective="energy-capped-makespan")

    def test_scorer_fits_per_objective(self):
        from repro.core.predictor import PartitioningScorerModel

        system = train_system(MC2, BENCHMARKS, model_kind="knn", config=TRAIN)
        # k=1: each training row's nearest neighbour is itself, so the
        # scorer must reproduce the per-objective oracle exactly.
        scorer = PartitioningScorerModel("knn-scorer", k=1, objective="energy")
        scorer.fit(system.database)
        assert scorer.accuracy_on(system.database) == 1.0
        # And the energy labelling genuinely differs from makespan's.
        makespan = PartitioningScorerModel("knn-scorer", k=1).fit(system.database)
        energy_preds = [p.label for p in scorer.predict_many(system.database)]
        time_preds = [p.label for p in makespan.predict_many(system.database)]
        assert energy_preds != time_preds

    def test_model_persistence_keeps_objective(self, tmp_path):
        from repro.core.predictor import load_model, save_model

        system = train_system(
            MC2, BENCHMARKS, model_kind="knn", config=TRAIN, objective="edp"
        )
        path = tmp_path / "model.json"
        save_model(system.predictor.model, path)
        loaded = load_model(path)
        assert loaded.objective is Objective.EDP


class TestEnergyAwareService:
    def test_config_coerces_and_validates(self):
        assert ServiceConfig(objective="energy").objective is Objective.ENERGY
        with pytest.raises(ValueError, match="power_cap_w"):
            ServiceConfig(power_cap_w=0.0)
        with pytest.raises(ValueError, match="needs a power_cap_w"):
            ServiceConfig(objective="energy-capped-makespan")

    def test_cap_below_idle_floor_rejected(self):
        system = train_system(MC2, BENCHMARKS, model_kind="knn", config=TRAIN)
        floor = EnergyMeter(system.runner.devices).platform_idle_w()
        with pytest.raises(ValueError, match="idle floor"):
            PartitioningService(system, ServiceConfig(power_cap_w=floor))

    def test_energy_objective_serves_and_accumulates_energy(self):
        system = train_system(
            MC2, BENCHMARKS, model_kind="knn", config=TRAIN, objective="energy"
        )
        service = PartitioningService(system, ServiceConfig(objective="energy"))
        responses = [service.submit(_request(i)) for i in range(5)]
        assert all(r.energy_j > 0 for r in responses)
        assert all(r.power_w > 0 for r in responses)
        assert service.stats.energy_j == pytest.approx(
            sum(r.energy_j for r in responses)
        )

    def test_energy_objective_adapts_on_energy_regressions(self, monkeypatch):
        # Throttle the GPUs: GPU-heavy splits get *slower* but their
        # joules drop with the DVFS cube, while the estimate (priced in
        # joules) tracks the energy axis — the detector and the local
        # search both operate on energy costs.
        system = train_system(
            MC2, BENCHMARKS, model_kind="knn", config=TRAIN, objective="energy"
        )
        # Escalation off: the constant sits above the detector's
        # 32-flag window.
        monkeypatch.setattr(service_module, "DRIFT_ESCALATION", 33)
        service = PartitioningService(system, ServiceConfig(objective="energy"))
        for i in range(5):
            service.submit(_request(i))
        service.system.runner.apply_drift(3.0, device_index=0)  # CPU heats up
        for i in range(5, 25):
            service.submit(_request(i))
        assert service.stats.drift_flags >= 1

    def test_power_cap_never_exceeded_on_a_trace(self):
        system = train_system(MC2, BENCHMARKS, model_kind="knn", config=TRAIN)
        floor = EnergyMeter(system.runner.devices).platform_idle_w()
        cap = floor + 60.0
        service = PartitioningService(system, ServiceConfig(power_cap_w=cap))
        keys = key_universe(BENCHMARKS, max_sizes=2)
        responses = service.submit_many(list(zipf_trace(keys, 40, seed=3)))
        assert max(r.power_w for r in responses) <= cap * (1 + 1e-9)
        assert service.stats.power_cap_violations == 0
        # The cap actually bound: some answers were substituted.
        assert service.stats.power_capped > 0
        assert any(r.capped for r in responses)

    def test_capped_makespan_objective_serves_end_to_end(self):
        system = train_system(MC2, BENCHMARKS, model_kind="knn", config=TRAIN)
        floor = EnergyMeter(system.runner.devices).platform_idle_w()
        service = PartitioningService(
            system,
            ServiceConfig(
                objective="energy-capped-makespan", power_cap_w=floor + 60.0
            ),
        )
        responses = [service.submit(_request(i)) for i in range(5)]
        assert all(
            r.power_w <= service.config.power_cap_w * (1 + 1e-9) for r in responses
        )

    def test_infinite_costs_do_not_poison_detectors(self):
        # Regression: a cap above the idle floor that no grid point
        # satisfies makes every measured cost inf under the capped
        # objective; inf/inf used to park NaN in the drift detector's
        # EWMA forever (and inf - inf = NaN in improvement_s).
        from repro.serving import DriftDetector

        detector = DriftDetector(min_observations=1)
        assert detector.observe("k", math.inf, math.inf) is False
        assert detector.observe("k", 1.0, math.inf) is False
        state = detector._keys.get("k")
        assert state is None or math.isfinite(state.ewma)

        system = train_system(MC2, BENCHMARKS, model_kind="knn", config=TRAIN)
        floor = EnergyMeter(system.runner.devices).platform_idle_w()
        service = PartitioningService(
            system,
            ServiceConfig(
                objective="energy-capped-makespan", power_cap_w=floor + 0.5
            ),
        )
        keys = key_universe(BENCHMARKS, max_sizes=2)
        service.submit_many(list(zipf_trace(keys, 30, seed=3)))
        assert math.isfinite(service.stats.improvement_s)
        for key in keys:
            state = service.detector._keys.get(("mc2",) + key)
            assert state is None or math.isfinite(state.ewma)

    def test_legacy_database_rejected_for_energy_objectives(self):
        # A database recorded before the energy subsystem must fail at
        # service construction, not on the first request mid-trace.
        system = train_system(
            MC2, BENCHMARKS, model_kind="knn", config=TRAIN
        )
        stripped = TrainingDatabase(
            TrainingRecord(
                machine=r.machine,
                program=r.program,
                size=r.size,
                features=r.features,
                timings=r.timings,
                best_label=r.best_label,
            )
            for r in system.database
        )
        system.database = stripped
        with pytest.raises(ValueError, match="energy sweeps"):
            PartitioningService(system, ServiceConfig(objective="energy"))
        with pytest.raises(ValueError, match="energy sweeps"):
            PartitioningService(system, ServiceConfig(power_cap_w=1000.0))
        # Makespan serving of the same legacy database still works.
        PartitioningService(system, ServiceConfig())

    def test_batched_matches_sequential_under_energy_objective(self):
        def fresh():
            return PartitioningService(
                train_system(
                    MC2, BENCHMARKS, model_kind="knn", config=TRAIN, objective="energy"
                ),
                ServiceConfig(objective="energy"),
            )

        keys = key_universe(BENCHMARKS, max_sizes=2)
        trace = list(zipf_trace(keys, 30, seed=7))
        r_seq = fresh().serve(trace)
        r_bat = fresh().submit_many(trace)
        assert [r.partitioning for r in r_bat] == [r.partitioning for r in r_seq]
        assert [r.energy_j for r in r_bat] == [r.energy_j for r in r_seq]


class TestFleetEnergy:
    def _router(self, policy="energy", objective="energy"):
        return FleetRouter.build(
            fleet_platforms(2),
            BENCHMARKS,
            model_kind="knn",
            training=TRAIN,
            serving=ServiceConfig(objective=objective),
            policy=policy,
        )

    def test_energy_policy_places_on_the_frugal_replica(self):
        router = self._router()
        responses = [router.submit(_request(i)) for i in range(6)]
        # Every request is placed; every response carries energy.
        assert sum(r.routed for r in router.replicas) == 6
        assert all(r.energy_j > 0 for r in responses)

    def test_fleet_stats_report_power_telemetry(self):
        router = self._router()
        for i in range(6):
            router.submit(_request(i))
        stats = router.stats()
        assert stats.energy_j > 0
        assert stats.avg_power_w > 0
        assert stats.energy_j == pytest.approx(
            sum(r.service.stats.energy_j for r in router.replicas)
        )
        served = [r.service for r in router.replicas if r.routed > 0]
        assert all(s.stats.energy_j / s.backlog_s > 0 for s in served)

    def test_energy_policy_is_deterministic(self):
        a = self._router()
        b = self._router()
        trace = [_request(i) for i in range(8)]

        def placements(router):
            indices = []
            for request in trace:
                indices.append(router.place(request))
                router.serve_on(indices[-1], request)
            return indices

        assert placements(a) == placements(b)

    def test_capped_fleet_objective_trains_makespan_models(self):
        router = FleetRouter.build(
            fleet_platforms(2),
            BENCHMARKS,
            model_kind="knn",
            training=TRAIN,
            serving=ServiceConfig(
                objective="energy-capped-makespan", power_cap_w=1000.0
            ),
            policy="energy",
        )
        for replica in router.replicas:
            assert (
                replica.service.system.predictor.objective is Objective.MAKESPAN
            )

    def test_capped_fleet_peeks_the_substitute_each_replica_serves(self):
        # Regression: a key's power-cap substitute replaces the cached or
        # model answer when the replica serves, but peek_prediction (and
        # so the energy policy's pricing) still answered the cache or the
        # model: on this trace 4 of the 10 keys holding one disagreed.
        programs = all_benchmarks()[:6]
        router = FleetRouter.build(
            fleet_platforms(2),
            programs,
            training=TRAIN,
            serving=ServiceConfig(power_cap_w=140.0),
            policy="energy",
        )
        keys = key_universe(programs, max_sizes=2)
        for request in zipf_trace(keys, 60, skew=1.0, seed=1):
            router.submit(request)
        # What each replica serves per key once a substitute is memoized.
        serves = {
            (replica.index, program, size): partitioning
            for replica in router.replicas
            for (_, program, size), partitioning in replica.service._capped.items()
        }
        assert sum(r.service.stats.power_capped for r in router.replicas) > 0
        peeked = {
            (i, p, n): router.replicas[i].service.peek_prediction(
                ServingRequest(0, p, n)
            )
            for i, p, n in serves
        }
        assert peeked == serves
        placed = {
            (i, p, n): router._peek(router.replicas[i], ServingRequest(0, p, n))[1]
            for i, p, n in serves
        }
        assert placed == serves
