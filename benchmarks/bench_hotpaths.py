#!/usr/bin/env python
"""Before/after benchmark for the two serving hot paths.

Measures, inside one process and against the same simulator:

1. **sweep** — a full 66-point partition-space sweep per program,
   unmemoized (``Runner.time_of`` per point, the pre-engine trainer
   loop) versus the memoizing :class:`repro.engine.SweepEngine`.
2. **serve** — a Zipf-skewed request trace through the
   :class:`PartitioningService`, sequential + unmemoized (``serve``
   with a :class:`RunnerEngine` stand-in for the sweep engine, the
   pre-engine serving loop) versus memoized + batched (``submit_many``).
3. **predict** — scorer-model inference per-row
   (``predict_features`` in a loop) versus the vectorized
   ``predict_many`` single pass.

Every comparison asserts the outputs are identical before reporting a
speedup, so the numbers cannot be bought with wrong answers.  Results
land in a JSON document (default ``BENCH_hotpaths.json``); with
``--check-against`` the measured *speedups* are compared to a committed
baseline and the run fails on a >2x regression — wall-clock seconds
vary with hardware, speedup ratios mostly do not.

Usage:
    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick]
        [--output BENCH_hotpaths.json]
        [--check-against benchmarks/BENCH_hotpaths_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.benchsuite import all_benchmarks, get_benchmark
from repro.core import TrainingConfig, train_system
from repro.core.predictor import PartitioningScorerModel
from repro.engine import SweepEngine
from repro.machines import MC2
from repro.partitioning import partition_space
from repro.runtime import Runner
from repro.serving import PartitioningService, ServiceConfig, key_universe
from repro.workloads import WorkloadSpec, make_workload

#: Sweep subjects: a streaming kernel, a stencil and an iterated solver —
#: the chunk-shape mix the training campaign actually sees.
SWEEP_PROGRAMS = ("vec_add", "stencil2d", "hotspot")
QUICK_SWEEP_PROGRAMS = ("stencil2d", "hotspot")


def bench_sweep(quick: bool) -> dict:
    """Full 66-point sweep: unmemoized Runner loop vs SweepEngine."""
    programs = QUICK_SWEEP_PROGRAMS if quick else SWEEP_PROGRAMS
    space = partition_space(MC2.num_devices, 10)
    requests = []
    for name in programs:
        bench = get_benchmark(name)
        sizes = bench.problem_sizes()
        size = sizes[0] if quick else sizes[min(1, len(sizes) - 1)]
        requests.append(bench.request(bench.make_instance(size, seed=0)))

    runner = Runner(MC2)
    t0 = time.perf_counter()
    baseline = [
        {p.label: runner.time_of(req, p) for p in space} for req in requests
    ]
    baseline_s = time.perf_counter() - t0

    runner = Runner(MC2)
    engine = SweepEngine(runner)
    t0 = time.perf_counter()
    memoized = [engine.sweep_with_energy(req, space)[0] for req in requests]
    memoized_s = time.perf_counter() - t0

    if baseline != memoized:
        raise AssertionError("memoized sweep diverged from the unmemoized path")
    return {
        "programs": list(programs),
        "points": len(space),
        "baseline_s": baseline_s,
        "memoized_s": memoized_s,
        "speedup": baseline_s / memoized_s,
        "tape_hit_rate": engine.stats.tape_hit_rate,
    }


class RunnerEngine:
    """Stands in for a service's sweep engine: every measurement is a
    fresh unmemoized ``Runner.run``, as before the engine existed."""

    def __init__(self, runner: Runner):
        self.runner = runner

    def measure(self, request, partitioning, repetitions=1):
        return self.runner.run(
            request, partitioning, functional=False, repetitions=repetitions
        )


def bench_serve(quick: bool) -> dict:
    """Zipf trace through the service: pre-engine loop vs memoized+batched."""
    num_requests = 150 if quick else 500
    train_programs = 4 if quick else 8

    def make_system():
        return train_system(
            MC2,
            all_benchmarks()[:train_programs],
            model_kind="knn",
            config=TrainingConfig(repetitions=1, max_sizes=2),
        )

    keys = key_universe(all_benchmarks(), max_sizes=2)
    trace = make_workload(
        WorkloadSpec(family="stationary", num_requests=num_requests, skew=1.5, seed=0),
        keys,
    ).requests

    service = PartitioningService(make_system(), ServiceConfig())
    service.engine = RunnerEngine(service.system.runner)
    t0 = time.perf_counter()
    baseline = service.serve(trace)
    baseline_s = time.perf_counter() - t0

    service = PartitioningService(make_system(), ServiceConfig())
    t0 = time.perf_counter()
    batched = service.submit_many(trace)
    batched_s = time.perf_counter() - t0

    mismatched = [
        a.request.request_id
        for a, b in zip(baseline, batched)
        if a.partitioning != b.partitioning or a.measured_s != b.measured_s
    ]
    if mismatched:
        raise AssertionError(f"serve outputs diverged at requests {mismatched[:5]}")
    return {
        "requests": num_requests,
        "keys": len(keys),
        "baseline_s": baseline_s,
        "memoized_s": batched_s,
        "speedup": baseline_s / batched_s,
        "cache_hit_rate": service.cache.stats.hit_rate,
    }


def bench_predict(quick: bool) -> dict:
    """Scorer inference: per-row predict_features loop vs predict_many."""
    from repro.core import generate_training_data

    db = generate_training_data(
        MC2,
        all_benchmarks()[: 4 if quick else 12],
        TrainingConfig(repetitions=1, max_sizes=2 if quick else 3),
    )
    rounds = 10 if quick else 25
    out = {}
    for kind in ("knn-scorer", "mlp-scorer"):
        model = PartitioningScorerModel(kind, seed=0).fit(db)
        t0 = time.perf_counter()
        for _ in range(rounds):
            per_row = [model.predict_features(r.features) for r in db.records]
        per_row_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(rounds):
            vectorized = model.predict_many(db)
        vectorized_s = time.perf_counter() - t0
        if per_row != vectorized:
            raise AssertionError(f"{kind}: vectorized predictions diverged")
        out[kind] = {
            "rows": len(db.records),
            "baseline_s": per_row_s,
            "memoized_s": vectorized_s,
            "speedup": per_row_s / vectorized_s,
        }
    return out


def check_against(results: dict, baseline_path: Path, max_regression: float) -> int:
    """Fail when any measured speedup regressed >max_regression vs baseline."""
    baseline = json.loads(baseline_path.read_text())
    failures = []

    def compare(name: str, current: float, reference: float) -> None:
        if current < reference / max_regression:
            failures.append(
                f"{name}: speedup {current:.2f}x < baseline "
                f"{reference:.2f}x / {max_regression:g}"
            )

    compare("sweep", results["sweep"]["speedup"], baseline["sweep"]["speedup"])
    compare("serve", results["serve"]["speedup"], baseline["serve"]["speedup"])
    for kind, entry in results["predict"].items():
        ref = baseline["predict"].get(kind)
        if ref is not None:
            compare(f"predict[{kind}]", entry["speedup"], ref["speedup"])
    if failures:
        print("PERF REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"perf check ok against {baseline_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--output", default="BENCH_hotpaths.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression slowdown",
    )
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    results = {"quick": args.quick}
    stages = (
        ("sweep", bench_sweep),
        ("serve", bench_serve),
        ("predict", bench_predict),
    )
    for name, fn in stages:
        t0 = time.perf_counter()
        results[name] = fn(args.quick)
        print(f"[{name}] done in {time.perf_counter() - t0:.1f}s wall")

    print(
        f"sweep:   {results['sweep']['speedup']:.1f}x "
        f"over {results['sweep']['points']} points"
    )
    print(
        f"serve:   {results['serve']['speedup']:.1f}x "
        f"over {results['serve']['requests']} requests"
    )
    for kind, entry in results["predict"].items():
        print(f"predict: {entry['speedup']:.1f}x ({kind}, {entry['rows']} rows)")

    Path(args.output).write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"wrote {args.output}")

    if args.check_against:
        return check_against(results, Path(args.check_against), args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
