#!/usr/bin/env python
"""Task-graph co-search vs the greedy partition-each-task baseline.

The graphs refactor's claim is twofold and this benchmark gates both:

* **co-search wins** — `GraphPlanner` (placement × partitioning decided
  together over the composed makespan) must strictly beat the greedy
  baseline (each task at its best standalone grid point, transfer-blind)
  on at least one chain shape, and must never be worse on any — the
  planner starts *from* greedy and keeps only strict improvements, so a
  loss would be a composition bug, not a tuning matter.
* **composition is deterministic** — re-measuring the same graph under
  the same plan reproduces the makespan and the joules bit for bit, on
  the memoized engine path and on the unmemoized `Runner.run_graph`
  path alike.  Tape composition inserts transfers at composition time;
  if the two paths ever disagree, the plan cache is serving lies.

Shapes: a linear stencil→reduce→gemm chain (the transfer-coupling
case) and a fork/join diamond (the overlap-scheduling case).  All
simulated, so numbers are hardware-independent and stable across CI
runners; ``--check-against`` fails the run when a speedup drops more
than ``--max-regression``× below the committed baseline.

Usage:
    PYTHONPATH=src python benchmarks/bench_pipeline.py [--quick]
        [--output BENCH_pipeline.json]
        [--check-against benchmarks/BENCH_pipeline_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.energy import EnergyMeter
from repro.engine import SweepEngine
from repro.graphs import (
    GraphPlanner,
    diamond_graph,
    greedy_plan,
    node_requests,
    pipeline_chain,
)
from repro.machines import MC1, MC2
from repro.runtime import Runner


def shapes(quick: bool):
    """(name, graph, platform) cases; quick trims the large diamond."""
    cases = [
        (
            "chain-3",
            pipeline_chain(
                [("stencil2d", 256), ("reduction", 65536), ("mat_mul", 160)],
                scale_bytes=64.0,
            ),
            MC2,
        ),
        (
            "diamond-2",
            diamond_graph(
                ("stencil2d", 256),
                [("reduction", 65536), ("dot_product", 65536)],
                ("mat_mul", 160),
                scale_bytes=64.0,
            ),
            MC2,
        ),
    ]
    if not quick:
        cases.append(
            (
                "chain-4",
                pipeline_chain(
                    [
                        ("hotspot", 256),
                        ("stencil2d", 256),
                        ("reduction", 262144),
                        ("mat_mul", 224),
                    ],
                    scale_bytes=64.0,
                ),
                MC1,
            )
        )
    return cases


def run_case(name, graph, platform, seed: int) -> dict:
    runner = Runner(platform, seed=seed)
    engine = SweepEngine(runner)
    requests = node_requests(graph, seed=seed)
    idle_w = EnergyMeter(runner.devices).platform_idle_w()
    planner = GraphPlanner(engine.measure, runner.devices, idle_w)

    greedy, _ = greedy_plan(graph, requests, engine.measure, planner.space)
    greedy_run = engine.measure_graph(graph, greedy, requests)
    t0 = time.perf_counter()
    plan, run = planner.search(graph, requests)
    search_wall_s = time.perf_counter() - t0

    # Determinism gate 1: the memoized path reproduces itself exactly.
    rerun = engine.measure_graph(graph, plan, requests)
    memo_identical = (
        rerun.median_s == run.median_s and rerun.energy_j == run.energy_j
    )
    # Determinism gate 2: the unmemoized path lands on the same bits.
    raw = Runner(platform, seed=seed).run_graph(
        graph, plan, node_requests(graph, seed=seed)
    )
    paths_identical = (
        raw.median_s == run.median_s and raw.energy_j == run.energy_j
    )

    stats = planner.stats
    return {
        "graph": graph.name,
        "machine": platform.name,
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "greedy_ms": greedy_run.median_s * 1e3,
        "cosearch_ms": run.median_s * 1e3,
        "speedup": greedy_run.median_s / run.median_s,
        "greedy_transfer_ms": greedy_run.transfer_s * 1e3,
        "cosearch_transfer_ms": run.transfer_s * 1e3,
        "greedy_energy_j": greedy_run.energy_j,
        "cosearch_energy_j": run.energy_j,
        "compositions": stats.evaluated,
        "pruned": stats.pruned,
        "passes": stats.passes,
        "memo_identical": memo_identical,
        "paths_identical": paths_identical,
        "search_wall_s": search_wall_s,
    }


def run_all(args) -> dict:
    cases = {}
    for name, graph, platform in shapes(args.quick):
        cases[name] = run_case(name, graph, platform, args.seed)
    return {
        "benchmark": "graph-cosearch",
        "quick": args.quick,
        "seed": args.seed,
        "cases": cases,
        "best_speedup": max(c["speedup"] for c in cases.values()),
    }


def check_against(doc: dict, baseline_path: Path, max_regression: float) -> list[str]:
    """Failures when a case's co-search speedup regressed vs the baseline."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, case in doc["cases"].items():
        ref = baseline.get("cases", {}).get(name, {}).get("speedup")
        if ref is None:
            continue
        if case["speedup"] < ref / max_regression:
            failures.append(
                f"{name} speedup {case['speedup']:.3f}x < baseline "
                f"{ref:.3f}x / {max_regression:g}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_pipeline.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression speedup drop",
    )
    parser.add_argument("--max-regression", type=float, default=1.5)
    args = parser.parse_args(argv)

    doc = run_all(args)
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {args.output}")

    failures = []
    for name, case in doc["cases"].items():
        print(
            f"{name} ({case['machine']}, {case['nodes']} nodes): greedy "
            f"{case['greedy_ms']:.3f} ms -> co-search {case['cosearch_ms']:.3f} ms "
            f"({case['speedup']:.2f}x; {case['compositions']} compositions, "
            f"{case['pruned']} pruned)"
        )
        if case["cosearch_ms"] > case["greedy_ms"]:
            failures.append(f"{name}: co-search worse than greedy")
        if not case["memo_identical"]:
            failures.append(f"{name}: memoized re-run not bit-identical")
        if not case["paths_identical"]:
            failures.append(
                f"{name}: memoized and unmemoized paths disagree"
            )
    if doc["best_speedup"] <= 1.0:
        failures.append(
            f"co-search never strictly beat greedy "
            f"(best {doc['best_speedup']:.3f}x)"
        )
    else:
        print(f"best speedup over greedy: {doc['best_speedup']:.2f}x")

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
