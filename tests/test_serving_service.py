"""Tests for the serving layer: traces, the backlog clock and the service loop."""

import pytest

from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.machines import MC2
from repro.partitioning import Partitioning, partition_space
from repro.serving import (
    PartitioningService,
    ServiceConfig,
    ServingRequest,
    key_universe,
    zipf_trace,
)


class TestTrace:
    def _keys(self):
        return key_universe(
            tuple(get_benchmark(n) for n in ("vec_add", "mat_mul")), max_sizes=2
        )

    def test_key_universe_caps_ladders(self):
        keys = self._keys()
        assert len(keys) == 4
        assert all(name in ("vec_add", "mat_mul") for name, _size in keys)

    def test_trace_is_deterministic(self):
        keys = self._keys()
        assert zipf_trace(keys, 50, seed=7) == zipf_trace(keys, 50, seed=7)
        assert zipf_trace(keys, 50, seed=7) != zipf_trace(keys, 50, seed=8)

    def test_trace_is_skewed(self):
        keys = key_universe(
            tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "saxpy")),
            max_sizes=3,
        )
        trace = zipf_trace(keys, 500, skew=1.5, seed=0)
        counts: dict[tuple[str, int], int] = {}
        for r in trace:
            counts[r.key] = counts.get(r.key, 0) + 1
        top = max(counts.values())
        assert top > 500 / len(keys) * 2  # the head dominates a uniform share

    def test_bad_arguments_rejected(self):
        keys = self._keys()
        with pytest.raises(ValueError):
            zipf_trace(keys, -1)
        with pytest.raises(ValueError):
            zipf_trace(keys, 10, skew=0.0)
        with pytest.raises(ValueError):
            key_universe(())
        for max_sizes in (0, -1):
            with pytest.raises(ValueError, match="max_sizes"):
                key_universe((get_benchmark("vec_add"),), max_sizes=max_sizes)


@pytest.fixture(scope="module")
def small_system():
    """A system trained on two programs; everything else arrives cold."""
    benchmarks = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
    return train_system(
        MC2,
        benchmarks,
        model_kind="knn",
        config=TrainingConfig(repetitions=1, max_sizes=2),
    )


def _request(i, program, size):
    return ServingRequest(request_id=i, program=program, size=size)


class TestBacklogClock:
    """The service's per-device free clock: a launch starts once every
    one of its active devices is free, so disjoint launches overlap."""

    def _serve_pinned(self, system, partitionings):
        # No adaptation budget: each request is served with exactly the
        # partitioning pinned in the cache for its key.
        service = PartitioningService(
            system, ServiceConfig(max_adaptations_per_key=0)
        )
        sizes = get_benchmark("vec_add").problem_sizes()
        responses = []
        for i, partitioning in enumerate(partitionings):
            request = _request(i, "vec_add", sizes[i])
            service.cache.put(service._key(request), partitioning)
            responses.append(service.submit(request))
        assert [r.partitioning for r in responses] == list(partitionings)
        return service, [r.measured_s for r in responses]

    def test_idle_service_backlog_is_zero(self, small_system):
        service = PartitioningService(small_system, ServiceConfig())
        assert service.device_free_s == [0.0, 0.0, 0.0]
        assert service.backlog_s == 0.0

    def test_disjoint_devices_overlap(self, small_system):
        service, (a, b) = self._serve_pinned(
            small_system, (Partitioning((100, 0, 0)), Partitioning((0, 50, 50)))
        )
        assert a > 0 and b > 0
        # Both launches start at 0: they run concurrently.
        assert service.device_free_s == [a, b, b]
        assert service.backlog_s == max(a, b)

    def test_shared_device_serializes(self, small_system):
        service, (a, b) = self._serve_pinned(
            small_system, (Partitioning((50, 50, 0)), Partitioning((0, 100, 0)))
        )
        # The second launch waits for device 1 to free up.
        assert service.device_free_s == [a, a + b, 0.0]
        assert service.backlog_s == a + b


class TestPartitioningService:
    def test_repeat_key_hits_cache(self, small_system):
        service = PartitioningService(small_system, ServiceConfig())
        size = get_benchmark("vec_add").problem_sizes()[0]
        first = service.submit(_request(0, "vec_add", size))
        second = service.submit(_request(1, "vec_add", size))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.partitioning == first.partitioning
        assert service.cache.stats.hits == 1

    def test_every_run_lands_in_database(self, small_system):
        service = PartitioningService(small_system, ServiceConfig())
        db = small_system.database
        size = get_benchmark("saxpy").problem_sizes()[0]
        assert db.record_for("mc2", "saxpy", size) is None
        service.submit(_request(0, "saxpy", size))
        record = db.record_for("mc2", "saxpy", size)
        assert record is not None
        assert record.best_label in record.timings

    def test_cold_key_triggers_local_search(self, small_system):
        service = PartitioningService(
            small_system, ServiceConfig(validate_cold_keys=True)
        )
        size = get_benchmark("triad").problem_sizes()[0]
        response = service.submit(_request(0, "triad", size))
        # The search measured the predicted point plus its neighbours.
        record = small_system.database.record_for("mc2", "triad", size)
        assert record is not None
        assert len(record.timings) > 1
        assert service.stats.cold_validations == 1
        # Whatever won the local search is what the service answers with.
        assert response.partitioning.label == record.best_label

    def test_adaptation_refits_and_invalidates_cache(self, small_system):
        # mandelbrot at a large size is far outside the (vec_add, mat_mul)
        # training distribution, so the cold-key search finds a better
        # partitioning than the misprediction and the model refits.
        service = PartitioningService(
            small_system,
            ServiceConfig(refit_interval=1, validate_cold_keys=True),
        )
        warm_size = get_benchmark("vec_add").problem_sizes()[0]
        service.submit(_request(0, "vec_add", warm_size))
        assert ("mc2", "vec_add", warm_size) in service.cache

        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        response = service.submit(_request(1, "mandelbrot", size))
        assert response.adapted
        assert response.improvement_s > 0
        assert service.stats.refits >= 1
        # The refit invalidated the warm key but pinned the validated one.
        assert ("mc2", "vec_add", warm_size) not in service.cache
        assert ("mc2", "mandelbrot", size) in service.cache
        assert service.cache.get(("mc2", "mandelbrot", size)) == response.partitioning

    def test_off_grid_adaptation_step_rejected(self, small_system):
        # Regression: an off-grid adaptation_step let _adapt pin a
        # neighborhood() winner outside partition_space, whose label
        # could never match a model class after a refit.
        with pytest.raises(ValueError, match="off the trained"):
            PartitioningService(small_system, ServiceConfig(adaptation_step=15))
        with pytest.raises(ValueError, match="off the trained"):
            PartitioningService(small_system, ServiceConfig(adaptation_step=7))

    def test_grid_multiple_adaptation_step_accepted(self, small_system):
        # A multiple of the trained step keeps every local-search move
        # on the trained grid.
        service = PartitioningService(
            small_system, ServiceConfig(adaptation_step=20, refit_interval=100)
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        service.submit(_request(0, "mandelbrot", size))
        grid = {p.label for p in partition_space(3, 10)}
        record = service.system.database.record_for("mc2", "mandelbrot", size)
        assert record is not None
        assert set(record.timings) <= grid

    def test_adaptation_step_range_validated_by_config(self):
        with pytest.raises(ValueError, match="adaptation_step"):
            ServiceConfig(adaptation_step=0)
        with pytest.raises(ValueError, match="adaptation_step"):
            ServiceConfig(adaptation_step=101)

    def test_validated_winner_survives_eviction(self):
        # An adapted key that falls out of the LRU cache must come back
        # from the validated store, not from the (wrong) model.  Uses a
        # private system: the shared fixture's model may already have
        # been refit on mandelbrot by other tests.
        system = train_system(
            MC2,
            tuple(get_benchmark(n) for n in ("vec_add", "mat_mul")),
            model_kind="knn",
            config=TrainingConfig(repetitions=1, max_sizes=2),
        )
        service = PartitioningService(
            system,
            ServiceConfig(cache_capacity=1, refit_interval=100),
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        adapted = service.submit(_request(0, "mandelbrot", size))
        assert adapted.adapted
        warm_size = get_benchmark("vec_add").problem_sizes()[0]
        service.submit(_request(1, "vec_add", warm_size))  # evicts mandelbrot
        again = service.submit(_request(2, "mandelbrot", size))
        assert not again.cache_hit
        assert again.partitioning == adapted.partitioning

    def test_validated_restore_refills_cache_after_eviction(self):
        # The _validated restore path must also *re-insert* the winner,
        # so the key goes back to being a plain cache hit afterwards.
        system = train_system(
            MC2,
            tuple(get_benchmark(n) for n in ("vec_add", "mat_mul")),
            model_kind="knn",
            config=TrainingConfig(repetitions=1, max_sizes=2),
        )
        service = PartitioningService(
            system, ServiceConfig(cache_capacity=1, refit_interval=100)
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        adapted = service.submit(_request(0, "mandelbrot", size))
        assert adapted.adapted
        warm_size = get_benchmark("vec_add").problem_sizes()[0]
        service.submit(_request(1, "vec_add", warm_size))  # evicts mandelbrot
        evictions_before = service.cache.stats.evictions
        assert evictions_before >= 1
        restored = service.submit(_request(2, "mandelbrot", size))
        assert not restored.cache_hit
        assert restored.partitioning == adapted.partitioning
        # The restore put the key back (evicting vec_add in turn) ...
        assert ("mc2", "mandelbrot", size) in service.cache
        assert service.cache.stats.evictions == evictions_before + 1
        # ... so the next request is an ordinary hit on the winner.
        again = service.submit(_request(3, "mandelbrot", size))
        assert again.cache_hit
        assert again.partitioning == adapted.partitioning

    def test_adaptations_bounded_per_key(self, small_system):
        service = PartitioningService(
            small_system,
            ServiceConfig(max_adaptations_per_key=1, refit_interval=100),
        )
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        service.submit(_request(0, "mandelbrot", size))
        searches_after_first = service.system.runner.stats.executions
        service.submit(_request(1, "mandelbrot", size))
        # The second submit measures exactly once: no second search.
        assert service.system.runner.stats.executions == searches_after_first + 1

    def test_serve_trace_reports_responses(self, small_system):
        service = PartitioningService(small_system, ServiceConfig())
        keys = key_universe(
            [get_benchmark(n) for n in ("vec_add", "mat_mul")], max_sizes=2
        )
        # serve accepts any Sequence, not just tuples.
        trace = list(zipf_trace(keys, 30, seed=3))
        responses = service.serve(trace)
        assert len(responses) == 30
        assert service.stats.requests == 30
        assert service.backlog_s > 0
        assert service.cache.stats.hit_rate > 0.5  # 4 keys, 30 requests


class TestSubmitMany:
    def _fresh_system(self):
        # Private trained system per service: serving mutates the
        # database, so equivalence runs need independent twins.
        return train_system(
            MC2,
            tuple(get_benchmark(n) for n in ("vec_add", "mat_mul")),
            model_kind="knn",
            config=TrainingConfig(repetitions=1, max_sizes=2),
        )

    def _trace(self, n=60):
        keys = key_universe(
            [get_benchmark(p) for p in ("vec_add", "mat_mul", "saxpy", "mandelbrot")],
            max_sizes=2,
        )
        return zipf_trace(keys, n, skew=1.2, seed=5)

    def test_batched_matches_sequential(self):
        """submit_many ≡ serve at noise_sigma=0: same decisions, same
        measurements, same cache accounting — only cheaper."""
        trace = self._trace()
        sequential = PartitioningService(self._fresh_system(), ServiceConfig())
        batched = PartitioningService(self._fresh_system(), ServiceConfig())
        r_seq = sequential.serve(trace)
        r_bat = batched.submit_many(list(trace))
        assert len(r_bat) == len(r_seq)
        for a, b in zip(r_seq, r_bat):
            assert a.partitioning == b.partitioning
            assert a.cache_hit == b.cache_hit
            assert a.measured_s == b.measured_s
            assert a.adapted == b.adapted
        assert batched.stats == sequential.stats
        assert batched.cache.stats == sequential.cache.stats

    def test_batched_matches_sequential_across_refits(self):
        """Mid-trace refits invalidate prefetched predictions."""
        trace = self._trace(40)
        config = ServiceConfig(refit_interval=1)  # refit on every adaptation
        sequential = PartitioningService(self._fresh_system(), config)
        batched = PartitioningService(self._fresh_system(), config)
        r_seq = sequential.serve(trace)
        r_bat = batched.submit_many(trace)
        assert sequential.stats.refits >= 1  # the scenario actually refits
        assert [r.partitioning for r in r_bat] == [r.partitioning for r in r_seq]
        assert batched.stats == sequential.stats

    def test_unmemoized_config_still_serves(self):
        service = PartitioningService(
            self._fresh_system(), ServiceConfig(memoize=False)
        )
        assert service.engine is None
        responses = service.submit_many(self._trace(10))
        assert len(responses) == 10
        assert service.system.runner.stats.executions >= 10


class TestRunnerSessionStats:
    def test_stats_accumulate_and_reset(self, small_system):
        runner = small_system.runner
        before = runner.stats.executions
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
        runner.run(bench.request(inst), Partitioning((100, 0, 0)), functional=False)
        assert runner.stats.executions == before + 1
        assert runner.stats.simulated_s > 0
        assert len(runner.stats.device_busy_s) == 3
        closed = runner.reset_stats()
        assert closed.executions == before + 1
        assert runner.stats.executions == 0
