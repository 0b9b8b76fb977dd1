"""The four workloads of the perf benchmark.

Each workload is a ``setup(seed, quick)`` that builds fresh inputs and
state (timed as set-up) and a ``run(state, windows)`` that plays one
fixed pass of work, ticking ``windows`` at a public hook.  A pass
returns its op count, its failed ops, a correctness report, the
simulated fingerprint (everything here is simulated time, so it must
not move when the code gets faster) and a few ratios read from the
public stats objects.

``quick`` shrinks every pass to about a tenth of its length.

What ``--seed`` draws: the problem data of every instance, the arrival
times of the open-loop traces, the fault outcomes, and the mlp
initialisation of the training campaign.  The key sequence of each
serving trace and the serving systems' models are pinned by
:data:`TRACE_SEED` as part of the workload definition: request order
drives the serving layers' adaptation cascades and queue build-up, so
a seeded key sequence makes host time a function of the seed (on
service-learn, six trace seeds gave 121 to 260 adaptations and pass
times 40% apart).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.benchsuite import all_benchmarks
from repro.cluster import ClusterRouter, with_tenants
from repro.core import TrainingConfig, generate_training_data, train_system
from repro.core.predictor import make_partitioning_model
from repro.faults import FaultSchedule, FaultSpec
from repro.machines import MC2, cluster_platforms
from repro.partitioning import partition_space
from repro.serving import (
    LatencyHistogram,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    SLOConfig,
    key_universe,
    serve_trace,
)
from repro.workloads import DriftEvent, WorkloadSpec, arrival_times, make_workload

from harness import Windows

#: Seeds the key sequences and trained models of the serving workloads.
TRACE_SEED = 0

#: Training of every serving system: two ladder sizes per program.
_PINNED = TrainingConfig(repetitions=1, max_sizes=2, seed=TRACE_SEED)


@dataclass
class PassResult:
    ops: int
    failed: int
    fingerprint: dict
    errors: list[str] = field(default_factory=list)
    ratios: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        text = json.dumps(self.fingerprint, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Scenario:
    setup: Callable[[int, bool], object]
    run: Callable[[object, Windows], PassResult]


# -- shared pieces --------------------------------------------------------


def _labels(database) -> list:
    return sorted((r.program, r.size, r.best_label) for r in database)


def _service_print(service: PartitioningService) -> dict:
    cache = service.cache.stats
    return {
        "stats": dataclasses.asdict(service.stats),
        "cache": [cache.hits, cache.misses, cache.evictions, cache.invalidations],
        "labels": _labels(service.system.database),
    }


def _loop_print(stats) -> dict:
    doc = stats.to_dict()
    return {
        "latency": [stats.latency.zeros, *stats.latency.counts],
        "queue": [stats.queue_wait.zeros, *stats.queue_wait.counts],
        "slo": stats.slo.snapshot(),
        "faults": doc["faults"],
        "counts": [stats.arrivals, stats.completed, stats.shed, stats.failed],
    }


def _service_ratios(services, completions: int) -> dict[str, float]:
    hits = sum(s.cache.stats.hits for s in services)
    lookups = sum(s.cache.stats.lookups for s in services)
    tape_hits = sum(s.engine.stats.tape_hits for s in services)
    tapes = tape_hits + sum(s.engine.stats.tape_misses for s in services)
    calls = sum(s.stats.requests for s in services)
    return {
        "serving.cache.hit_rate": hits / lookups if lookups else 0.0,
        "engine.tape_hit_rate": tape_hits / tapes if tapes else 0.0,
        "serving.service.calls_per_completion": calls / completions,
        "serving.service.adaptations": sum(s.stats.adaptations for s in services),
        "ml.refits": sum(s.stats.refits for s in services),
    }


def _loop_ratios(stats) -> dict[str, float]:
    busy = stats.service_time_s
    return {
        "serving.eventloop.cancelled_busy_frac": (
            stats.cancelled_busy_s / busy if busy else 0.0
        ),
        "cluster.spec_win_rate": (
            stats.spec_wins / stats.speculations if stats.speculations else 0.0
        ),
    }


def _loop_errors(stats, expected: int, ticks: int) -> list[str]:
    errors = []
    if stats.arrivals != expected:
        errors.append(f"{stats.arrivals} arrivals, expected {expected}")
    if stats.arrivals + stats.speculations != (
        stats.completed + stats.shed + stats.failed + stats.cancelled_speculative
    ):
        errors.append(f"request conservation broken: {stats.to_dict()}")
    if ticks != stats.completed:
        errors.append(f"{ticks} on_complete calls for {stats.completed} completions")
    return errors


def _pilot_mean_s(platform, programs, requests) -> float:
    """Mean simulated service time of the trace's first requests.

    A closed-loop replay on a throwaway system, so the served system's
    database never sees the pilot's observations.
    """
    pilot = PartitioningService(
        train_system(platform, programs, model_kind="knn", config=_PINNED),
        ServiceConfig(instance_seed=TRACE_SEED),
    )
    responses = pilot.serve(list(requests[:200]))
    return sum(r.measured_s for r in responses) / len(responses)


def _poisson_items(requests, rate: float, seed: int) -> list:
    times = arrival_times(
        WorkloadSpec(
            num_requests=len(requests), seed=seed, arrival="poisson", rate_rps=rate
        )
    )
    return list(zip(times.tolist(), requests))


# -- train-campaign -------------------------------------------------------

_TRAIN_QUICK_PROGRAMS = 8


def _train_setup(seed: int, quick: bool):
    # Fresh suite objects, so the pass compiles nothing a previous pass
    # compiled; set-up builds and compiles every kernel, as the paper's
    # compiler does before the offline sweep.
    suite = tuple(type(b)() for b in all_benchmarks())
    if quick:
        suite = suite[:_TRAIN_QUICK_PROGRAMS]
    for bench in suite:
        bench.compiled()
    max_sizes = 2 if quick else None
    return suite, TrainingConfig(repetitions=1, seed=seed, max_sizes=max_sizes)


def _train_run(state, windows: Windows) -> PassResult:
    suite, config = state
    points = len(partition_space(MC2.num_devices, config.step_percent))
    windows.start()
    database = generate_training_data(
        MC2, suite, config, progress=lambda _msg: windows.tick(points)
    )
    model = make_partitioning_model("mlp", seed=config.seed).fit(database)
    windows.finish()

    errors = []
    expected = sum(len(b.problem_sizes()[: config.max_sizes]) for b in suite)
    if len(database) != expected:
        errors.append(f"{len(database)} records, expected {expected}")
    for record in database:
        if len(record.timings) != points:
            errors.append(f"{record.program}@{record.size}: partial sweep")
        if record.timings[record.best_label] != min(record.timings.values()):
            errors.append(f"{record.program}@{record.size}: best label not the min")
    valid = {p.label for p in partition_space(MC2.num_devices, config.step_percent)}
    if not {p.label for p in model.predict_many(database)} <= valid:
        errors.append("model predicts partitionings outside the space")
    return PassResult(
        ops=sum(len(r.timings) for r in database),
        failed=0,
        fingerprint={"labels": _labels(database)},
        errors=errors,
    )


# -- service-hot ----------------------------------------------------------

_HOT_REQUESTS = (120_000, 12_000)


def _hot_setup(seed: int, quick: bool):
    programs = all_benchmarks()[:4]
    spec = WorkloadSpec(
        family="stationary",
        num_requests=_HOT_REQUESTS[1] if quick else _HOT_REQUESTS[0],
        skew=1.3,
        seed=TRACE_SEED,
    )
    requests = make_workload(spec, key_universe(programs, max_sizes=2)).requests
    mean_s = _pilot_mean_s(MC2, programs, requests)
    rate = 0.7 / mean_s
    service = PartitioningService(
        train_system(MC2, programs, model_kind="knn", config=_PINNED),
        ServiceConfig(instance_seed=seed),
    )
    options = ServeOptions(
        arrival="poisson",
        rate_rps=rate,
        seed=seed,
        slo=SLOConfig(target_s=4 * mean_s),
    )
    return service, _poisson_items(requests, rate, seed), options


def _hot_run(state, windows: Windows) -> PassResult:
    service, items, options = state
    windows.start()
    stats = serve_trace(
        service, items, options, on_complete=lambda _done: windows.tick()
    ).stats
    windows.finish()
    return PassResult(
        ops=stats.arrivals,
        failed=stats.shed + stats.failed,
        fingerprint={"loop": _loop_print(stats), "service": _service_print(service)},
        errors=_loop_errors(stats, len(items), windows.total_ops),
        ratios={**_service_ratios([service], stats.completed), **_loop_ratios(stats)},
    )


# -- service-learn --------------------------------------------------------

_LEARN_REQUESTS = (12_000, 1_200)


def _learn_setup(seed: int, quick: bool):
    system = train_system(MC2, all_benchmarks()[:8], model_kind="mlp", config=_PINNED)
    n = _LEARN_REQUESTS[1] if quick else _LEARN_REQUESTS[0]
    # The CPU throttles to 0.35x and recovers, then the GPU halves and
    # recovers: each shift moves the optimal partitioning, not just time.
    drift = (
        DriftEvent(n // 5, 0.35, machine=MC2.name, device_index=0),
        DriftEvent(2 * n // 5, 1 / 0.35, machine=MC2.name, device_index=0),
        DriftEvent(3 * n // 5, 0.5, machine=MC2.name, device_index=1),
        DriftEvent(4 * n // 5, 2.0, machine=MC2.name, device_index=1),
    )
    spec = WorkloadSpec(
        family="phase-shift",
        num_requests=n,
        phases=6,
        skew=0.8,
        seed=TRACE_SEED,
        drift_events=drift,
    )
    # Cold keys dominate this workload, so quick also shrinks the instances.
    keys = key_universe(all_benchmarks(), max_sizes=2 if quick else 5)
    items = list(make_workload(spec, keys).items())
    return PartitioningService(system, ServiceConfig(instance_seed=seed)), items


def _learn_run(state, windows: Windows) -> PassResult:
    service, items = state
    runner = service.system.runner
    simulated = LatencyHistogram()
    served = 0
    errors = []
    windows.start()
    for item in items:
        if isinstance(item, DriftEvent):
            runner.apply_drift(item.scale, device_index=item.device_index)
            continue
        response = service.submit(item)
        windows.tick()
        simulated.record(response.measured_s)
        served += 1
        if not response.measured_s > 0:
            errors.append(f"request {item.request_id}: non-positive latency")
    windows.finish()
    return PassResult(
        ops=served,
        failed=0,
        fingerprint={
            "latency": [simulated.zeros, *simulated.counts],
            "service": _service_print(service),
        },
        errors=errors,
        ratios=_service_ratios([service], served),
    )


# -- cluster-faults -------------------------------------------------------

_CLUSTER_REQUESTS = (50_000, 5_000)
#: Hashed to opposite home pools, so the straggler pins one tenant's home.
_TENANTS = ("gold", "silver")
_SLO_PRIORITIES = (("gold", 1),)


def _cluster_setup(seed: int, quick: bool):
    programs = all_benchmarks()[:4]
    n = _CLUSTER_REQUESTS[1] if quick else _CLUSTER_REQUESTS[0]
    spec = WorkloadSpec(family="flash-crowd", num_requests=n, skew=1.3, seed=TRACE_SEED)
    requests = with_tenants(
        make_workload(spec, key_universe(programs, max_sizes=2)).requests, _TENANTS
    )
    mean_s = _pilot_mean_s(cluster_platforms(2, 2)[0][0], programs, requests)
    # 15% nominal utilization per replica: an 8x straggler overloads its
    # replica only mildly, so stealing drains the backlog each time.  At
    # 25% the backlog depth, and with it the weighted-fair queues'
    # O(queue) cost, depended on the arrival draw: host time varied 3x
    # across seeds.
    rate = 4 * 0.15 / mean_s
    horizon = n / rate
    faults = tuple(
        FaultSpec(
            "straggler",
            at_s=start * horizon,
            duration_s=0.15 * horizon,
            magnitude=8.0,
            replica=0,
        )
        for start in (0.1, 0.4, 0.7)
    ) + (
        FaultSpec(
            "error", at_s=0.55 * horizon, duration_s=0.1 * horizon, magnitude=0.05
        ),
    )
    cluster = ClusterRouter.build(
        2,
        2,
        programs,
        model_kind="knn",
        training=_PINNED,
        serving=ServiceConfig(instance_seed=seed),
        slo=SLOConfig(tenant_priorities=_SLO_PRIORITIES),
    )
    options = ServeOptions(
        arrival="poisson",
        rate_rps=rate,
        seed=seed,
        slo=SLOConfig(target_s=4 * mean_s, tenant_priorities=_SLO_PRIORITIES),
        faults=FaultSchedule(specs=faults, seed=seed),
        # Deep enough that the error window never exhausts a request.
        max_retries=5,
        # At 0.95 a third of the requests launched speculative copies,
        # enough duplicate load to make the backlog seed-dependent too.
        speculate_at=0.99,
        work_steal=True,
        queue_discipline="weighted-fair",
        telemetry="trace",
    )
    return cluster, _poisson_items(requests, rate, seed), options


def _cluster_run(state, windows: Windows) -> PassResult:
    cluster, items, options = state
    windows.start()
    result = serve_trace(
        cluster, items, options, on_complete=lambda _done: windows.tick()
    )
    windows.finish()
    stats = result.stats
    tracer = result.telemetry.tracer
    services = cluster.services
    return PassResult(
        ops=stats.arrivals,
        failed=stats.shed + stats.failed,
        fingerprint={
            "loop": _loop_print(stats),
            "cluster": cluster.stats().to_dict(),
            "services": [_service_print(s) for s in services],
            "spans": [len(tracer.spans), len(tracer.events), tracer.traces_completed],
        },
        errors=_loop_errors(stats, len(items), windows.total_ops),
        ratios={**_service_ratios(services, stats.completed), **_loop_ratios(stats)},
    )


#: Why each workload exists is in BENCHMARK.json and README.md.
SCENARIOS: dict[str, Scenario] = {
    "train-campaign": Scenario(_train_setup, _train_run),
    "service-hot": Scenario(_hot_setup, _hot_run),
    "service-learn": Scenario(_learn_setup, _learn_run),
    "cluster-faults": Scenario(_cluster_setup, _cluster_run),
}
