#!/usr/bin/env python
"""Tail latency under open-loop arrivals: flash-crowd vs stationary.

The event-driven serving core's acceptance gate.  Two scenarios share
one key universe, one training recipe and one poisson arrival rate
(calibrated to ~70% utilization of the measured mean service time):

* ``stationary`` — flat load, the baseline queueing regime;
* ``flash-crowd`` — the same mean load punctuated by bursts that
  arrive ``burst_rate`` times faster while traffic concentrates on a
  cold key.  Bursts push past capacity, queues build, and the p99
  inflates — the number this benchmark exists to watch.

Every request streams through the simulated-time event loop into
bounded-memory latency histograms: the full run plays a **1M-request**
trace without ever materializing a per-request response list (the quick
run is CI-sized).  The script fails if the flash-crowd p99 does not
exceed the stationary p99, if request conservation breaks, or if a
re-run of the stationary scenario is not bit-identical (histogram
bucket counts and SLO counters compared exactly).  With
``--check-against`` the per-scenario quantiles are compared to a
committed baseline (simulated time is hardware-independent) and the
run fails on a >``--max-regression`` latency increase.

Usage:
    PYTHONPATH=src python benchmarks/bench_latency.py [--quick]
        [--output BENCH_latency.json]
        [--check-against benchmarks/BENCH_latency_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.benchsuite import all_benchmarks
from repro.core import TrainingConfig, train_system
from repro.machines import MC2
from repro.serving import (
    EventLoop,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    SLOConfig,
    key_universe,
)
from repro.workloads import WorkloadSpec, make_workload, stream_timed_items

#: Target utilization of the poisson arrival process: high enough that
#: queueing exists, low enough that the stationary queue stays stable.
UTILIZATION = 0.7


def _train(train_programs: int, seed: int):
    return train_system(
        MC2,
        all_benchmarks()[:train_programs],
        model_kind="knn",
        config=TrainingConfig(repetitions=1, max_sizes=2, seed=seed),
    )


def calibrate_rate(keys, train_programs: int, seed: int) -> float:
    """Measured mean service time → arrival rate at ``UTILIZATION``.

    A small closed-loop stationary replay on a throwaway service: the
    simulated mean is deterministic given the seed, so the calibrated
    rate (and therefore every scenario) reproduces bit for bit.
    """
    service = PartitioningService(
        _train(train_programs, seed), ServiceConfig(instance_seed=seed)
    )
    trace = make_workload(
        WorkloadSpec(family="stationary", num_requests=100, skew=1.3, seed=seed),
        keys,
    ).requests
    responses = service.serve(list(trace))
    mean_s = sum(r.measured_s for r in responses) / len(responses)
    return UTILIZATION / mean_s


def run_scenario(
    family: str,
    keys,
    num_requests: int,
    rate_rps: float,
    slo_s: float,
    train_programs: int,
    seed: int,
) -> dict:
    """One freshly-trained service, one open-loop trace, one histogram."""
    service = PartitioningService(
        _train(train_programs, seed), ServiceConfig(instance_seed=seed)
    )
    spec = WorkloadSpec(
        family=family,
        num_requests=num_requests,
        skew=1.3,
        seed=seed,
        arrival="poisson",
        rate_rps=rate_rps,
        burst_rate=4.0,
    )
    loop = EventLoop(service, ServeOptions(slo=SLOConfig(target_s=slo_s)))
    t0 = time.perf_counter()
    stats = loop.run(stream_timed_items(spec, keys))
    wall_s = time.perf_counter() - t0
    doc = stats.to_dict()
    doc["family"] = family
    doc["serve_wall_s"] = wall_s
    doc["wall_rps"] = num_requests / wall_s if wall_s > 0 else 0.0
    # Bit-comparable fingerprint of the whole run for the determinism
    # gate: integer bucket counts, exact zero counter, per-tenant SLOs.
    doc["fingerprint"] = {
        "latency_counts": list(stats.latency.counts),
        "latency_zeros": stats.latency.zeros,
        "queue_counts": list(stats.queue_wait.counts),
        "slo": stats.slo.snapshot(),
    }
    return doc


def check_against(doc: dict, baseline_path: Path, max_regression: float) -> list[str]:
    """Failures when a latency quantile regressed vs the baseline.

    Latency is lower-is-better: a scenario fails when its p50/p95/p99
    exceeds the baseline's by more than ``max_regression``.  Scenarios
    present in only one document are skipped.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for family, result in doc["scenarios"].items():
        ref = baseline["scenarios"].get(family)
        if ref is None:
            continue
        for q in ("p50_s", "p95_s", "p99_s"):
            measured = result["latency"][q]
            reference = ref["latency"][q]
            if measured > reference * max_regression:
                failures.append(
                    f"{family} latency {q}: {measured * 1e3:.3f} ms > baseline "
                    f"{reference * 1e3:.3f} ms x {max_regression:g}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="trace length (default: 1,000,000; quick: 20,000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_latency.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression latency increase",
    )
    parser.add_argument("--max-regression", type=float, default=1.5)
    args = parser.parse_args(argv)

    num_requests = args.requests or (20_000 if args.quick else 1_000_000)
    train_programs = 4 if args.quick else 8
    keys = key_universe(all_benchmarks(), max_sizes=2)

    rate_rps = calibrate_rate(keys, train_programs, args.seed)
    print(f"calibrated arrival rate: {rate_rps:.1f} req/s ({UTILIZATION:.0%} load)")
    slo_s = 4.0 * UTILIZATION / rate_rps  # 4x the mean service time
    print(f"SLO target: {slo_s * 1e3:.3f} ms")

    scenarios = {}
    for family in ("stationary", "flash-crowd"):
        result = run_scenario(
            family, keys, num_requests, rate_rps, slo_s, train_programs, args.seed
        )
        scenarios[family] = result
        lat = result["latency"]
        print(
            f"{family}: p50 {lat['p50_s'] * 1e3:.3f} ms, "
            f"p95 {lat['p95_s'] * 1e3:.3f} ms, p99 {lat['p99_s'] * 1e3:.3f} ms, "
            f"violations {result['violation_rate']:.1%}, "
            f"{result['wall_rps']:.0f} req/s wall"
        )

    failures = []
    for family, result in scenarios.items():
        if result["arrivals"] != result["completed"] + result["shed"]:
            failures.append(f"{family}: request conservation broken: {result}")

    p99_ratio = (
        scenarios["flash-crowd"]["latency"]["p99_s"]
        / scenarios["stationary"]["latency"]["p99_s"]
    )
    print(f"flash-crowd / stationary p99: {p99_ratio:.2f}x")
    if p99_ratio <= 1.0:
        failures.append(
            f"flash-crowd bursts did not inflate the tail: p99 ratio {p99_ratio:.3f}"
        )

    # Determinism gate: the stationary scenario re-run must reproduce
    # its histograms and SLO counters bit for bit.
    rerun = run_scenario(
        "stationary", keys, num_requests, rate_rps, slo_s, train_programs, args.seed
    )
    deterministic = rerun["fingerprint"] == scenarios["stationary"]["fingerprint"]
    if not deterministic:
        failures.append("stationary re-run is not bit-identical")

    doc = {
        "benchmark": "tail-latency",
        "quick": args.quick,
        "seed": args.seed,
        "num_requests": num_requests,
        "train_programs": train_programs,
        "rate_rps": rate_rps,
        "slo_s": slo_s,
        "utilization": UTILIZATION,
        "scenarios": scenarios,
        "p99_ratio": p99_ratio,
        "deterministic": deterministic,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {args.output}")
    if args.check_against:
        baseline_failures = check_against(
            doc, Path(args.check_against), args.max_regression
        )
        if not baseline_failures:
            print(f"perf check ok against {args.check_against}")
        failures.extend(baseline_failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
