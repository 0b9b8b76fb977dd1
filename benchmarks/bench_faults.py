#!/usr/bin/env python
"""Serving under injected faults: hedging, failover, chaos determinism.

The robustness acceptance gate of the event-driven serving path.  One
two-replica fleet, one key universe, one calibrated poisson rate —
three fault scenarios on top:

* ``straggler`` — replica 0 is slowed 8x inside three windows covering
  ~45% of the trace.  Served twice, with and without hedged requests
  (``hedge_at=0.95``): the p99 with hedging must come out *below* the
  unhedged p99, or speculative duplicates are not earning their keep.
* ``crash`` — each replica goes down once (~25% of the trace each),
  with SLO-derived timeouts so stranded work actually fails.  Served
  with and without failover: the completed fraction (availability)
  with failover must beat the no-failover baseline, or routing around
  dead replicas is not working.
* ``chaos`` — crashes, stragglers, transient exec errors and
  prediction errors together, retries on.  Conservation
  (``arrivals == completed + shed + failed``) must hold and a re-run
  must be bit-identical (histogram bucket counts, SLO counters and
  fault meters compared exactly) — fault injection must not cost the
  simulator its determinism.

The full run plays 100k-request traces; ``--quick`` is CI-sized.  With
``--check-against`` the hedged p99 (lower-is-better) and the failover
availability (higher-is-better) are compared against the committed
baseline and the run fails on a >``--max-regression`` change.

Usage:
    PYTHONPATH=src python benchmarks/bench_faults.py [--quick]
        [--output BENCH_faults.json]
        [--check-against benchmarks/BENCH_faults_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.benchsuite import all_benchmarks
from repro.core import TrainingConfig, train_system
from repro.faults import FaultSchedule, FaultSpec
from repro.fleet import FleetRouter
from repro.machines import fleet_platforms
from repro.serving import (
    EventLoop,
    EventLoopConfig,
    PartitioningService,
    ServiceConfig,
    SLOConfig,
    key_universe,
)
from repro.workloads import WorkloadSpec, make_workload, stream_timed_items

#: Replicas in the fleet every scenario serves on.
NUM_REPLICAS = 2

#: Target per-replica utilization of the poisson arrival process: high
#: enough that queueing exists, low enough that the fault-free fleet is
#: stable — the tail inflation measured here must come from the
#: injected faults, not from a saturated baseline.
UTILIZATION = 0.6


def _training(train_programs: int, seed: int) -> TrainingConfig:
    return TrainingConfig(repetitions=1, max_sizes=2, seed=seed)


def _build_fleet(train_programs: int, seed: int) -> FleetRouter:
    return FleetRouter.build(
        fleet_platforms(NUM_REPLICAS),
        all_benchmarks()[:train_programs],
        model_kind="knn",
        training=_training(train_programs, seed),
        serving=ServiceConfig(instance_seed=seed),
    )


def calibrate_rate(keys, train_programs: int, seed: int) -> float:
    """Measured mean service time → fleet arrival rate at ``UTILIZATION``.

    A small closed-loop stationary replay on a throwaway single-machine
    service; the fleet absorbs ``NUM_REPLICAS`` times the per-replica
    rate.  Deterministic given the seed, so the calibrated rate (and
    every scenario built on it) reproduces bit for bit.
    """
    service = PartitioningService(
        train_system(
            fleet_platforms(NUM_REPLICAS)[0],
            all_benchmarks()[:train_programs],
            model_kind="knn",
            config=_training(train_programs, seed),
        ),
        ServiceConfig(instance_seed=seed),
    )
    trace = make_workload(
        WorkloadSpec(family="stationary", num_requests=100, skew=1.3, seed=seed),
        keys,
    ).requests
    responses = service.serve(list(trace))
    mean_s = sum(r.measured_s for r in responses) / len(responses)
    return NUM_REPLICAS * UTILIZATION / mean_s


def straggler_schedule(horizon_s: float) -> tuple[FaultSpec, ...]:
    """Three 8x slowdown windows on replica 0, ~45% of the trace."""
    return tuple(
        FaultSpec(
            kind="straggler",
            at_s=start * horizon_s,
            duration_s=0.15 * horizon_s,
            magnitude=8.0,
            replica=0,
        )
        for start in (0.1, 0.4, 0.7)
    )


def crash_schedule(horizon_s: float) -> tuple[FaultSpec, ...]:
    """One downtime per replica, staggered so the fleet never fully dies."""
    return (
        FaultSpec(
            kind="crash", at_s=0.15 * horizon_s, duration_s=0.25 * horizon_s, replica=0
        ),
        FaultSpec(
            kind="crash", at_s=0.55 * horizon_s, duration_s=0.25 * horizon_s, replica=1
        ),
    )


def chaos_schedule(horizon_s: float) -> tuple[FaultSpec, ...]:
    """Everything at once: the determinism stress schedule."""
    return (
        FaultSpec(
            kind="crash", at_s=0.2 * horizon_s, duration_s=0.1 * horizon_s, replica=0
        ),
        FaultSpec(
            kind="straggler",
            at_s=0.35 * horizon_s,
            duration_s=0.2 * horizon_s,
            magnitude=6.0,
            replica=1,
        ),
        FaultSpec(kind="error", at_s=0.0, duration_s=horizon_s, magnitude=0.05),
        FaultSpec(
            kind="predict-error",
            at_s=0.5 * horizon_s,
            duration_s=0.3 * horizon_s,
            magnitude=0.03,
        ),
    )


def run_scenario(
    name: str,
    keys,
    num_requests: int,
    rate_rps: float,
    train_programs: int,
    seed: int,
    config: EventLoopConfig,
) -> dict:
    """One freshly-trained fleet, one open-loop trace, one histogram."""
    router = _build_fleet(train_programs, seed)
    spec = WorkloadSpec(
        family="stationary",
        num_requests=num_requests,
        skew=1.3,
        seed=seed,
        arrival="poisson",
        rate_rps=rate_rps,
    )
    loop = EventLoop.for_fleet(router, config)
    t0 = time.perf_counter()
    stats = loop.run(stream_timed_items(spec, keys), drift_handler=router.apply_drift)
    wall_s = time.perf_counter() - t0
    doc = stats.to_dict()
    doc["scenario"] = name
    doc["serve_wall_s"] = wall_s
    doc["wall_rps"] = num_requests / wall_s if wall_s > 0 else 0.0
    # Bit-comparable fingerprint for the determinism gate: integer
    # bucket counts, SLO counters, and every fault/handling meter.
    doc["fingerprint"] = {
        "latency_counts": list(stats.latency.counts),
        "latency_zeros": stats.latency.zeros,
        "queue_counts": list(stats.queue_wait.counts),
        "slo": stats.slo.snapshot(),
        "faults": doc["faults"],
        "completed": stats.completed,
        "failed": stats.failed,
        "shed": stats.shed,
    }
    return doc


def check_against(doc: dict, baseline_path: Path, max_regression: float) -> list[str]:
    """Failures versus the committed baseline.

    The hedged straggler p99 is lower-is-better (fails above baseline
    × ``max_regression``); the failover availability is
    higher-is-better (fails below baseline ÷ ``max_regression``).
    Scenarios present in only one document are skipped.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name in ("straggler-hedged", "straggler-unhedged", "chaos"):
        result = doc["scenarios"].get(name)
        ref = baseline["scenarios"].get(name)
        if result is None or ref is None:
            continue
        measured = result["latency"]["p99_s"]
        reference = ref["latency"]["p99_s"]
        if measured > reference * max_regression:
            failures.append(
                f"{name} latency p99: {measured * 1e3:.3f} ms > baseline "
                f"{reference * 1e3:.3f} ms x {max_regression:g}"
            )
    for name in ("crash-failover", "crash-no-failover"):
        result = doc["scenarios"].get(name)
        ref = baseline["scenarios"].get(name)
        if result is None or ref is None:
            continue
        measured = result["availability"]
        reference = ref["availability"]
        if measured < reference / max_regression:
            failures.append(
                f"{name} availability: {measured:.4f} < baseline "
                f"{reference:.4f} / {max_regression:g}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="trace length per scenario (default: 100,000; quick: 8,000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_faults.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression change",
    )
    parser.add_argument("--max-regression", type=float, default=1.5)
    args = parser.parse_args(argv)

    num_requests = args.requests or (8_000 if args.quick else 100_000)
    train_programs = 2 if args.quick else 4
    keys = key_universe(all_benchmarks()[:train_programs], max_sizes=2)

    rate_rps = calibrate_rate(keys, train_programs, args.seed)
    horizon_s = num_requests / rate_rps
    slo_s = 4.0 * NUM_REPLICAS * UTILIZATION / rate_rps  # 4x the mean service
    print(
        f"calibrated arrival rate: {rate_rps:.1f} req/s "
        f"({UTILIZATION:.0%} load per replica, horizon {horizon_s:.2f} s)"
    )
    print(f"SLO target: {slo_s * 1e3:.3f} ms")

    scenarios = {}

    def run(name: str, config: EventLoopConfig) -> dict:
        result = run_scenario(
            name, keys, num_requests, rate_rps, train_programs, args.seed, config
        )
        scenarios[name] = result
        lat = result["latency"]
        print(
            f"{name}: p99 {lat['p99_s'] * 1e3:.3f} ms, "
            f"availability {result['availability']:.4f}, "
            f"{result['failed']} failed, "
            f"{result['faults']['hedges']} hedges, "
            f"{result['faults']['retries']} retries, "
            f"{result['wall_rps']:.0f} req/s wall"
        )
        return result

    straggler = FaultSchedule(specs=straggler_schedule(horizon_s), seed=args.seed)
    run(
        "straggler-unhedged",
        EventLoopConfig(slo=SLOConfig(target_s=slo_s), faults=straggler),
    )
    run(
        "straggler-hedged",
        EventLoopConfig(
            slo=SLOConfig(target_s=slo_s), faults=straggler, hedge_at=0.95
        ),
    )

    crashes = FaultSchedule(specs=crash_schedule(horizon_s), seed=args.seed)
    timeout = EventLoopConfig(
        slo=SLOConfig(target_s=slo_s), faults=crashes, timeout_factor=8.0
    )
    run("crash-failover", timeout)
    run(
        "crash-no-failover",
        EventLoopConfig(
            slo=SLOConfig(target_s=slo_s),
            faults=crashes,
            timeout_factor=8.0,
            failover=False,
        ),
    )

    chaos = FaultSchedule(specs=chaos_schedule(horizon_s), seed=args.seed)
    chaos_config = EventLoopConfig(
        slo=SLOConfig(target_s=slo_s),
        faults=chaos,
        timeout_factor=16.0,
        hedge_at=0.95,
    )
    run("chaos", chaos_config)

    failures = []
    for name, result in scenarios.items():
        conserved = (
            result["arrivals"]
            == result["completed"] + result["shed"] + result["failed"]
        )
        if not conserved:
            failures.append(f"{name}: request conservation broken: {result}")

    hedged_p99 = scenarios["straggler-hedged"]["latency"]["p99_s"]
    unhedged_p99 = scenarios["straggler-unhedged"]["latency"]["p99_s"]
    print(f"hedged / unhedged straggler p99: {hedged_p99 / unhedged_p99:.3f}x")
    if not hedged_p99 < unhedged_p99:
        failures.append(
            f"hedging did not cut the straggler tail: hedged p99 "
            f"{hedged_p99 * 1e3:.3f} ms >= unhedged {unhedged_p99 * 1e3:.3f} ms"
        )

    with_failover = scenarios["crash-failover"]["availability"]
    without = scenarios["crash-no-failover"]["availability"]
    print(f"availability: failover {with_failover:.4f} vs baseline {without:.4f}")
    if not with_failover > without:
        failures.append(
            f"failover did not improve availability: {with_failover:.4f} "
            f"<= {without:.4f}"
        )

    # Determinism gate: the chaos scenario re-run must reproduce every
    # histogram bucket and fault meter bit for bit.
    rerun = run_scenario(
        "chaos", keys, num_requests, rate_rps, train_programs, args.seed, chaos_config
    )
    deterministic = rerun["fingerprint"] == scenarios["chaos"]["fingerprint"]
    if not deterministic:
        failures.append("chaos re-run is not bit-identical")

    doc = {
        "benchmark": "fault-injection",
        "quick": args.quick,
        "seed": args.seed,
        "num_requests": num_requests,
        "train_programs": train_programs,
        "num_replicas": NUM_REPLICAS,
        "rate_rps": rate_rps,
        "slo_s": slo_s,
        "utilization": UTILIZATION,
        "scenarios": scenarios,
        "hedged_p99_ratio": hedged_p99 / unhedged_p99,
        "availability_gain": with_failover - without,
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
