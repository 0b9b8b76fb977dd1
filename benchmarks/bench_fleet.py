#!/usr/bin/env python
"""Fleet throughput scaling: one Zipf trace across 1 → N machines.

Routes the *same* Zipf-skewed request trace through fleets of growing
size (machines generated by :func:`repro.machines.fleet_platforms`,
placement by the least-loaded policy unless overridden) and reports the
fleet throughput in requests per *simulated* second — replicas run
concurrently, so the fleet span is the max over replica timelines.

Everything is deterministic given ``--seed``: the script re-runs the
single-machine fleet and fails if the two throughputs differ, and it
fails if throughput does not scale monotonically from 1 to N machines
(the acceptance gate for the fleet layer).  Per-replica utilization and
routing counts land in the JSON document next to the totals.  With
``--check-against`` the measured throughputs are compared to a
committed baseline (simulated time is hardware-independent, so the
numbers are stable across CI runners) and the run fails on a
>``--max-regression`` slowdown.

Usage:
    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
        [--machines 4] [--policy least-loaded]
        [--output BENCH_fleet.json]
        [--check-against benchmarks/BENCH_fleet_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.benchsuite import all_benchmarks
from repro.core import TrainingConfig
from repro.fleet import ROUTING_POLICIES, FleetRouter
from repro.machines import fleet_platforms
from repro.serving import ServiceConfig, key_universe
from repro.workloads import WorkloadSpec, make_workload


def run_fleet(fleet_size: int, trace, policy: str, train_programs: int, seed: int):
    """Train a fleet of ``fleet_size`` machines and route the trace."""
    t0 = time.perf_counter()
    router = FleetRouter.build(
        fleet_platforms(fleet_size),
        all_benchmarks()[:train_programs],
        model_kind="knn",
        training=TrainingConfig(repetitions=1, max_sizes=2, seed=seed),
        serving=ServiceConfig(instance_seed=seed),
        policy=policy,
    )
    train_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for request in trace:
        router.submit(request)
    serve_wall_s = time.perf_counter() - t0
    stats = router.stats()
    return {
        "machines": fleet_size,
        "policy": policy,
        "requests": stats.requests,
        "fleet_makespan_s": stats.makespan_s,
        "throughput_rps": stats.throughput_rps,
        "adaptations": stats.adaptations,
        "refits": stats.refits,
        "train_wall_s": train_s,
        "serve_wall_s": serve_wall_s,
        "replicas": [
            {
                "name": replica.name,
                "routed": replica.routed,
                "cache_hit_rate": replica.service.cache.stats.hit_rate,
                "makespan_s": replica.service.backlog_s,
                # Busy share of each device over the replica's serialized
                # served time (runner session stats).
                "utilization": list(
                    replica.service.system.runner.stats.utilization()
                ),
            }
            for replica in router.replicas
        ],
    }


def check_against(doc: dict, baseline_path: Path, max_regression: float) -> list[str]:
    """Failures when throughput regressed >max_regression vs the baseline.

    Compares per-fleet-size simulated throughput and the 1→N speedup.
    Fleet sizes present in only one document are skipped (growing the
    benchmark must not invalidate the committed baseline).
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    reference = {r["machines"]: r["throughput_rps"] for r in baseline["scaling"]}
    for result in doc["scaling"]:
        ref = reference.get(result["machines"])
        if ref is None:
            continue
        if result["throughput_rps"] < ref / max_regression:
            failures.append(
                f"machines={result['machines']}: throughput "
                f"{result['throughput_rps']:.1f} req/s < baseline "
                f"{ref:.1f} / {max_regression:g}"
            )
    if doc["speedup_1_to_n"] < baseline["speedup_1_to_n"] / max_regression:
        failures.append(
            f"fleet speedup {doc['speedup_1_to_n']:.2f}x < baseline "
            f"{baseline['speedup_1_to_n']:.2f}x / {max_regression:g}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--machines", type=int, default=4, help="largest fleet")
    parser.add_argument("--policy", default="least-loaded", choices=ROUTING_POLICIES)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_fleet.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression slowdown",
    )
    parser.add_argument("--max-regression", type=float, default=1.5)
    args = parser.parse_args(argv)

    num_requests = args.requests or (120 if args.quick else 400)
    train_programs = 4 if args.quick else 8
    keys = key_universe(all_benchmarks(), max_sizes=2)
    trace = make_workload(
        WorkloadSpec(
            family="stationary", num_requests=num_requests, skew=1.5, seed=args.seed
        ),
        keys,
    ).requests

    results = []
    for fleet_size in range(1, args.machines + 1):
        result = run_fleet(
            fleet_size, trace, args.policy, train_programs, args.seed
        )
        results.append(result)
        print(
            f"machines={fleet_size}: {result['throughput_rps']:.1f} req/s "
            f"(fleet makespan {result['fleet_makespan_s'] * 1e3:.3f} ms, "
            f"routed {[r['routed'] for r in result['replicas']]}, "
            f"util "
            f"{[round(u, 2) for r in result['replicas'] for u in r['utilization']]})"
        )

    failures = []
    throughputs = [r["throughput_rps"] for r in results]
    for smaller, larger in zip(throughputs, throughputs[1:]):
        if larger < smaller:
            failures.append(
                f"throughput regressed when growing the fleet: {throughputs}"
            )
            break

    rerun = run_fleet(1, trace, args.policy, train_programs, args.seed)
    if rerun["throughput_rps"] != throughputs[0]:
        failures.append(
            f"non-deterministic run: {rerun['throughput_rps']} != {throughputs[0]}"
        )

    doc = {
        "benchmark": "fleet-scaling",
        "quick": args.quick,
        "seed": args.seed,
        "num_requests": num_requests,
        "train_programs": train_programs,
        "scaling": results,
        "monotonic": not any("regressed" in f for f in failures),
        "deterministic": not any("deterministic" in f for f in failures),
        "speedup_1_to_n": throughputs[-1] / throughputs[0],
    }
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {args.output}")
    print(
        f"fleet speedup 1→{args.machines} machines: "
        f"{doc['speedup_1_to_n']:.2f}x"
    )
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
