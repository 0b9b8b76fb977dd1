"""Integration tests for the trainer, predictor and pipeline.

These use a reduced suite (few programs, truncated size ladders) so the
exhaustive 66-point sweeps stay fast.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.core import (
    PartitioningModel,
    TrainingConfig,
    deploy_and_run,
    evaluate_lopo,
    generate_training_data,
    train_system,
)
from repro.core.predictor import MODEL_KINDS, make_classifier
from repro.machines import MC1, MC2
from repro.partitioning import Partitioning, partition_space

SMALL_SUITE = tuple(
    get_benchmark(n)
    for n in ("vec_add", "mat_mul", "black_scholes", "spmv", "kmeans")
)
FAST_CONFIG = TrainingConfig(repetitions=1, max_sizes=3)


@pytest.fixture(scope="module")
def small_db():
    return generate_training_data(MC2, SMALL_SUITE, FAST_CONFIG)


class TestTrainer:
    def test_one_record_per_program_size(self, small_db):
        assert len(small_db) == len(SMALL_SUITE) * 3

    def test_every_partitioning_measured(self, small_db):
        space = partition_space(3, 10)
        for r in small_db:
            assert len(r.timings) == len(space)
            assert all(t > 0 for t in r.timings.values())

    def test_best_label_is_minimum(self, small_db):
        for r in small_db:
            assert r.best_time == min(r.timings.values())

    def test_deterministic_regeneration(self):
        db1 = generate_training_data(MC2, SMALL_SUITE[:2], FAST_CONFIG)
        db2 = generate_training_data(MC2, SMALL_SUITE[:2], FAST_CONFIG)
        for r1, r2 in zip(db1, db2):
            assert r1 == r2

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("repetitions", 0),
            ("noise_sigma", -0.1),
            ("max_sizes", 0),
            ("max_sizes", -1),
        ],
    )
    def test_bad_knobs_fail_at_construction(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            TrainingConfig(**{knob: value})

    def test_functional_check_mode(self):
        cfg = TrainingConfig(repetitions=1, max_sizes=1, functional_check=True)
        db = generate_training_data(MC2, SMALL_SUITE[:1], cfg)
        assert len(db) == 1

    def test_progress_callback(self):
        lines = []
        generate_training_data(
            MC2, SMALL_SUITE[:1], TrainingConfig(max_sizes=2), progress=lines.append
        )
        assert len(lines) == 2
        assert "vec_add" in lines[0]

    def test_noise_changes_timings_but_not_structure(self):
        cfg = TrainingConfig(repetitions=3, max_sizes=1, noise_sigma=0.05, seed=5)
        db = generate_training_data(MC2, SMALL_SUITE[:1], cfg)
        clean = generate_training_data(
            MC2, SMALL_SUITE[:1], TrainingConfig(max_sizes=1)
        )
        assert db.records[0].timings != clean.records[0].timings


class TestPartitioningModel:
    def test_fit_predict_round_trip(self, small_db):
        model = PartitioningModel("tree").fit(small_db)
        for r in small_db.records[:3]:
            p = model.predict_features(r.features)
            assert isinstance(p, Partitioning)
            assert p.label in r.timings

    def test_training_set_accuracy_high(self, small_db):
        model = PartitioningModel("knn").fit(small_db)
        assert model.accuracy_on(small_db) > 0.8

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            PartitioningModel("tree").predict_features({"a": 1.0})

    def test_all_model_kinds_construct(self):
        from repro.core import make_partitioning_model

        for kind in MODEL_KINDS:
            make_partitioning_model(kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_classifier("svm9000")

    def test_incremental_refit_warm_starts_mlp(self, small_db):
        model = PartitioningModel("mlp").fit(small_db)
        classifier_before = model.classifier
        # Merge one new observation under a label the model has seen.
        seen = model.classifier.classes_[0]
        r = small_db.records[0]
        small_db.merge_timings(
            r.machine, "online_prog", 999, dict(r.features), {str(seen): 1.0}
        )
        try:
            model.refit(small_db, incremental=True)
            # Warm start keeps the same classifier instance (weights
            # continued, not re-initialized).
            assert model.classifier is classifier_before
            for rec in small_db.records[:3]:
                assert isinstance(model.predict_features(rec.features), Partitioning)
        finally:
            small_db.records.pop()  # module-scoped fixture: restore

    def test_incremental_refit_with_new_label_refits_fully(self, small_db):
        model = PartitioningModel("mlp").fit(small_db)
        classifier_before = model.classifier
        r = small_db.records[0]
        unseen = "10/10/80"
        assert unseen not in set(map(str, model.classifier.classes_))
        small_db.merge_timings(
            r.machine, "online_prog", 999, dict(r.features), {unseen: 1e-9}
        )
        try:
            model.refit(small_db, incremental=True)
            assert model.classifier is not classifier_before
            assert unseen in set(map(str, model.classifier.classes_))
        finally:
            small_db.records.pop()


class TestEvaluation:
    def test_lopo_covers_all_programs(self, small_db):
        ev = evaluate_lopo(MC2, small_db, model_kind="tree")
        assert {p.program for p in ev.programs} == {b.name for b in SMALL_SUITE}

    def test_speedups_positive_and_oracle_bounded(self, small_db):
        ev = evaluate_lopo(MC2, small_db, model_kind="tree")
        for prog in ev.programs:
            for s in prog.sizes:
                assert s.t_predicted_s > 0
                assert s.oracle_efficiency <= 1.0 + 1e-9
                assert s.speedup_vs_cpu > 0
                assert s.speedup_vs_gpu > 0

    def test_oracle_efficiency_one_when_exact(self, small_db):
        ev = evaluate_lopo(MC2, small_db, model_kind="tree")
        for prog in ev.programs:
            for s in prog.sizes:
                if s.exact_hit:
                    assert s.oracle_efficiency == pytest.approx(1.0)

    def test_wrong_machine_rejected(self, small_db):
        with pytest.raises(ValueError):
            evaluate_lopo(MC1, small_db)


class TestPipeline:
    def test_train_and_deploy(self):
        system = train_system(
            MC2, SMALL_SUITE, model_kind="tree", config=FAST_CONFIG,
            exclude_program="mat_mul",
        )
        bench = get_benchmark("mat_mul")
        p, seconds = deploy_and_run(system, bench, size=64, verify=True)
        assert isinstance(p, Partitioning)
        assert seconds > 0

    def test_exclude_everything_rejected(self):
        with pytest.raises(ValueError):
            train_system(MC2, SMALL_SUITE[:1], config=FAST_CONFIG,
                         exclude_program=SMALL_SUITE[0].name)

    def test_system_prediction_in_space(self):
        system = train_system(
            MC2, SMALL_SUITE[:3], model_kind="knn", config=FAST_CONFIG
        )
        bench = SMALL_SUITE[0]
        inst = bench.make_instance(bench.problem_sizes()[1], seed=0)
        p = system.predict(bench, inst)
        assert p in partition_space(3, 10)
