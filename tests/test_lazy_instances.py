"""Problem instances draw their arrays only when a kernel executes.

Timing paths (training sweeps, features, serving, handoff pricing and
the ``run`` command) read buffer layouts, never arrays.  Every draw
makes exactly one ``Benchmark.rng`` call and ``make_instance`` makes
none, so counting those calls counts draws (mandelbrot's draw is empty:
it has no inputs).
"""

from __future__ import annotations

import pytest

from repro.benchsuite import Benchmark, all_benchmarks, get_benchmark
from repro.cli import main
from repro.cluster import ClusterRouter
from repro.core import TrainingConfig, generate_training_data, train_system
from repro.core.features import combined_features
from repro.graphs.builders import handoff_nbytes
from repro.machines import MC2
from repro.serving import (
    PartitioningService,
    ServiceConfig,
    ServingRequest,
    key_universe,
    zipf_trace,
)

TRAIN = TrainingConfig(repetitions=1, max_sizes=1)


@pytest.fixture
def draws(monkeypatch):
    """(program, size, seed) of every draw made while the test runs."""
    calls = []
    rng = Benchmark.rng

    def counting(self, size, seed):
        calls.append((self.name, size, seed))
        return rng(self, size, seed)

    monkeypatch.setattr(Benchmark, "rng", counting)
    return calls


def test_instances_compare_and_hash_by_identity(draws):
    bench = get_benchmark("vec_add")
    a = bench.make_instance(4096)
    b = bench.make_instance(4096)
    assert a == a
    assert a != b
    assert len({a, b}) == 2
    assert draws == []


def test_training_campaign_draws_nothing(draws):
    db = generate_training_data(MC2, all_benchmarks(), TRAIN)
    assert len(db) == len(all_benchmarks())
    assert draws == []


def test_features_draw_nothing(draws):
    featured = []
    for bench in all_benchmarks():
        instance = bench.make_instance(bench.problem_sizes()[0])
        features = combined_features(bench.compiled(instance), instance)
        featured.append((bench, instance, features))
    assert draws == []
    # The declared layout prices exactly what the drawn arrays hold.
    for bench, instance, features in featured:
        drawn = instance.fresh_copy()
        assert combined_features(bench.compiled(drawn), drawn) == features


def test_serving_draws_nothing(draws):
    system = train_system(
        MC2,
        tuple(get_benchmark(n) for n in ("vec_add", "mat_mul")),
        model_kind="knn",
        config=TRAIN,
    )
    service = PartitioningService(
        system, ServiceConfig(refit_interval=1, validate_cold_keys=True)
    )
    keys = key_universe(
        [get_benchmark(n) for n in ("vec_add", "mat_mul", "triad", "mandelbrot")],
        max_sizes=2,
    )
    service.serve(list(zipf_trace(keys, 20, skew=1.2, seed=5)))
    # A large mandelbrot is far outside the training data: re-searched.
    size = get_benchmark("mandelbrot").problem_sizes()[-1]
    response = service.submit(
        ServingRequest(request_id=99, program="mandelbrot", size=size)
    )
    assert response.adapted
    assert service.stats.cold_validations >= 2
    assert draws == []


def test_cluster_request_bytes_draw_nothing(draws):
    cluster = ClusterRouter.build(
        2, 1, benchmarks=(get_benchmark("vec_add"),), training=TRAIN
    )
    size = get_benchmark("backprop").problem_sizes()[0]
    nbytes = cluster.request_bytes(
        ServingRequest(request_id=0, program="backprop", size=size)
    )
    assert draws == []
    instance = get_benchmark("backprop").make_instance(size)
    assert nbytes == sum(a.nbytes for a in instance.arrays.values())


def test_handoff_nbytes_draws_nothing(draws):
    assert handoff_nbytes.__wrapped__("mat_mul", 1024) == 1024 * 1024 * 4
    assert draws == []


def test_run_command_draws_nothing(draws, capsys):
    assert main(["run", "backprop"]) == 0
    assert "oracle" in capsys.readouterr().out
    assert draws == []


def test_functional_check_draws_once_per_record(draws):
    benchmarks = tuple(get_benchmark(n) for n in ("vec_add", "dot_product", "md"))
    config = TrainingConfig(repetitions=1, max_sizes=2, functional_check=True)
    db = generate_training_data(MC2, benchmarks, config)
    assert len(draws) == len(db) == 6
    assert len(set(draws)) == 6
