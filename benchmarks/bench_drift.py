#!/usr/bin/env python
"""Drift-adaptive serving vs. a frozen-cache baseline on drifting traces.

The whole point of online adaptation is the *non-stationary* regime:
the hot set rotates (phase-shift workload) and the platform itself
drifts mid-serve (a device throughput rescale).  This benchmark plays
the identical drifting trace through two services over twin trained
systems:

* **frozen** — drift detection off, adaptation budget zero, cold keys
  unvalidated: the model + cache exactly as deployed, never revisited.
* **adaptive** — the default serving config: cold-key validation,
  single-run regression checks, and the sliding-window EWMA drift
  detector that invalidates stale decisions and re-searches.

Both runners drift identically (the hardware does not care how smart
the service is), so the only difference is decision quality.  The gate:
the adaptive service must achieve a *lower mean measured makespan* than
the frozen one over the post-drift portion of the trace — adaptation
has to pay for itself in served latency, not just in counters.
Everything is deterministic given ``--seed``.

With ``--check-against`` the measured gains are compared to a committed
baseline (simulated time is hardware-independent, so the numbers are
stable across CI runners) and the run fails on a >``--max-regression``
drop — the same regression guard ``bench_fleet.py`` applies.

Usage:
    PYTHONPATH=src python benchmarks/bench_drift.py [--quick]
        [--output BENCH_drift.json] [--min-gain 1.0]
        [--check-against benchmarks/BENCH_drift_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.benchsuite import all_benchmarks
from repro.core import TrainingConfig, train_system
from repro.machines import MC2
from repro.serving import PartitioningService, ServiceConfig, key_universe
from repro.workloads import DriftEvent, WorkloadSpec, make_workload

#: The frozen baseline: what a deployment without online adaptation
#: serves — model answers, cached forever, never re-measured.
FROZEN = ServiceConfig(
    detect_drift=False, max_adaptations_per_key=0, validate_cold_keys=False
)


def build_service(config: ServiceConfig, train_programs: int, seed: int):
    system = train_system(
        MC2,
        all_benchmarks()[:train_programs],
        model_kind="knn",
        config=TrainingConfig(repetitions=1, max_sizes=2, seed=seed),
    )
    return PartitioningService(system, config)


def serve_workload(service: PartitioningService, workload) -> list:
    """Play the trace, applying drift events to the service's runner."""
    responses = []
    for item in workload.items():
        if isinstance(item, DriftEvent):
            service.system.runner.apply_drift(
                item.scale, device_index=item.device_index
            )
        else:
            responses.append(service.submit(item))
    return responses


def run_pair(args) -> dict:
    num_requests = 150 if args.quick else 300
    train_programs = 4 if args.quick else 6
    trace_programs = 8 if args.quick else 10
    drift_at = num_requests // 2

    keys = key_universe(all_benchmarks()[:trace_programs], max_sizes=2)
    workload = make_workload(
        WorkloadSpec(
            family="phase-shift",
            num_requests=num_requests,
            phases=3,
            seed=args.seed,
            drift_events=(
                # The CPU throttles to 35%: every CPU-heavy split the
                # model learned offline is suddenly mispriced.
                DriftEvent(
                    at_request=drift_at,
                    scale=args.drift_scale,
                    machine=MC2.name,
                    device_index=0,
                ),
            ),
        ),
        keys,
    )

    results = {}
    for name, config in (("frozen", FROZEN), ("adaptive", ServiceConfig())):
        service = build_service(config, train_programs, args.seed)
        t0 = time.perf_counter()
        responses = serve_workload(service, workload)
        wall_s = time.perf_counter() - t0
        stats = service.stats
        results[name] = {
            "mean_measured_s": statistics.fmean(r.measured_s for r in responses),
            "post_drift_mean_s": statistics.fmean(
                r.measured_s for r in responses[drift_at:]
            ),
            "adaptations": stats.adaptations,
            "drift_flags": stats.drift_flags,
            "drift_escalations": stats.drift_escalations,
            "refits": stats.refits,
            # Each served request is measured once; the rest are probes.
            "probe_executions": service.system.runner.stats.executions
            - stats.requests,
            "wall_s": wall_s,
        }
    return {
        "benchmark": "drift-adaptive-serving",
        "quick": args.quick,
        "seed": args.seed,
        "num_requests": num_requests,
        "drift_at": drift_at,
        "drift_scale": args.drift_scale,
        "train_programs": train_programs,
        "keys": len(keys),
        "frozen": results["frozen"],
        "adaptive": results["adaptive"],
        "post_drift_gain": (
            results["frozen"]["post_drift_mean_s"]
            / results["adaptive"]["post_drift_mean_s"]
        ),
        "overall_gain": (
            results["frozen"]["mean_measured_s"]
            / results["adaptive"]["mean_measured_s"]
        ),
    }


def check_against(doc: dict, baseline_path: Path, max_regression: float) -> list[str]:
    """Failures when the adaptive gains regressed vs the committed baseline.

    Gains are ratios (frozen/adaptive), so the check divides rather
    than subtracts: a gain below ``baseline / max_regression`` fails.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for metric in ("post_drift_gain", "overall_gain"):
        ref = baseline.get(metric)
        if ref is None:
            continue
        if doc[metric] < ref / max_regression:
            failures.append(
                f"{metric} {doc[metric]:.3f}x < baseline "
                f"{ref:.3f}x / {max_regression:g}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--drift-scale",
        type=float,
        default=0.35,
        help="CPU throughput multiplier at the mid-trace drift",
    )
    parser.add_argument(
        "--min-gain",
        type=float,
        default=1.0,
        help="required frozen/adaptive post-drift makespan ratio",
    )
    parser.add_argument("--output", default="BENCH_drift.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression gain drop",
    )
    parser.add_argument("--max-regression", type=float, default=1.5)
    args = parser.parse_args(argv)

    doc = run_pair(args)
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {args.output}")
    print(
        f"post-drift mean makespan: frozen "
        f"{doc['frozen']['post_drift_mean_s'] * 1e3:.3f} ms, adaptive "
        f"{doc['adaptive']['post_drift_mean_s'] * 1e3:.3f} ms "
        f"({doc['post_drift_gain']:.2f}x gain; "
        f"{doc['adaptive']['drift_flags']} flags, "
        f"{doc['adaptive']['adaptations']} adaptations, "
        f"{doc['adaptive']['probe_executions']} probes)"
    )
    print(f"overall gain: {doc['overall_gain']:.2f}x")

    failures = []
    if doc["post_drift_gain"] <= args.min_gain:
        failures.append(
            f"adaptive serving did not beat the frozen cache "
            f"post-drift ({doc['post_drift_gain']:.3f}x <= {args.min_gain:g}x)"
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
