"""E7 — serving-layer throughput and cache behaviour.

Measures the online serving path on a Zipf-skewed trace: end-to-end
requests/s through the event-driven serving loop (open-loop poisson
arrivals, per-replica queueing, streaming latency histograms — the
number later PRs track), the steady-state cost of a cache hit versus a
cold prediction, and the price of one online adaptation (local search +
incremental refit).
"""

import pytest

from repro.benchsuite import all_benchmarks, get_benchmark
from repro.core import TrainingConfig, train_system
from repro.machines import MC2
from repro.serving import (
    EventLoop,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    ServingRequest,
    key_universe,
)
from repro.workloads import WorkloadSpec, stream_timed_items

#: Trace shape shared by the throughput benchmarks.
TRACE_REQUESTS = 200
TRACE_SKEW = 1.5


def _system(train_programs: int = 16, max_sizes: int = 2):
    benchmarks = all_benchmarks()[:train_programs]
    return train_system(
        MC2,
        benchmarks,
        model_kind="knn",
        config=TrainingConfig(repetitions=1, max_sizes=max_sizes),
    )


@pytest.fixture(scope="module")
def trained_system():
    return _system()


def test_serving_throughput(benchmark, trained_system):
    """Requests/s through the event-driven loop on a skewed trace.

    Open-loop poisson arrivals through the simulated-time event loop:
    what the benchmark times is the full serve path — placement,
    queueing, prediction, execution, histogram accounting — and the
    latency percentiles ride along in ``extra_info``.
    """
    keys = key_universe(all_benchmarks(), max_sizes=2)
    spec = WorkloadSpec(
        family="stationary",
        num_requests=TRACE_REQUESTS,
        skew=TRACE_SKEW,
        seed=0,
        arrival="poisson",
        rate_rps=2000.0,
    )

    def replay():
        service = PartitioningService(trained_system, ServiceConfig())
        loop = EventLoop(service, ServeOptions())
        stats = loop.run(stream_timed_items(spec, keys))
        return service, stats

    service, loop_stats = benchmark.pedantic(replay, rounds=3, iterations=1)
    stats = service.cache.stats
    benchmark.extra_info["requests"] = TRACE_REQUESTS
    benchmark.extra_info["requests_per_s"] = TRACE_REQUESTS / benchmark.stats.stats.mean
    benchmark.extra_info["cache_hit_rate"] = stats.hit_rate
    benchmark.extra_info["refits"] = service.stats.refits
    benchmark.extra_info["latency_p99_s"] = loop_stats.latency.quantile(0.99)
    benchmark.extra_info["queue_p99_s"] = loop_stats.queue_wait.quantile(0.99)
    assert stats.hit_rate > 0.5
    assert service.stats.requests == TRACE_REQUESTS
    assert loop_stats.completed == TRACE_REQUESTS
    assert loop_stats.in_flight == 0


def test_cache_hit_path(benchmark, trained_system):
    """Steady state: repeated key answered from the LRU cache."""
    service = PartitioningService(trained_system, ServiceConfig())
    size = get_benchmark("mat_mul").problem_sizes()[0]
    service.submit(ServingRequest(request_id=0, program="mat_mul", size=size))

    counter = iter(range(1, 1_000_000))
    benchmark(
        lambda: service.submit(
            ServingRequest(request_id=next(counter), program="mat_mul", size=size)
        )
    )
    assert service.cache.stats.hit_rate > 0.9


def test_online_adaptation_cost(benchmark, trained_system):
    """One cold out-of-distribution key: local search + refit."""
    size = get_benchmark("mandelbrot").problem_sizes()[-1]

    def adapt_once():
        service = PartitioningService(
            trained_system, ServiceConfig(refit_interval=1)
        )
        return service.submit(
            ServingRequest(request_id=0, program="mandelbrot", size=size)
        )

    response = benchmark.pedantic(adapt_once, rounds=3, iterations=1)
    assert response.measured_s > 0
