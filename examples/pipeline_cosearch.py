#!/usr/bin/env python
"""Task-graph co-search: schedule a 3-stage pipeline, beat greedy.

Builds a stencil2d -> reduction -> mat_mul chain whose edges carry the
producer's output tensors over PCIe, then partitions it two ways:

* greedy — each task gets its best *standalone* grid point, exactly
  what chaining today's single-kernel predictions would do.  It is
  transfer-blind: adjacent stages individually fastest on different
  devices pay the full tensor handoff between them.
* co-search — `GraphPlanner` coordinate-descends over the *composed*
  makespan, re-deciding one task at a time along the critical path, so
  placement and partitioning are decided together.

The co-searched plan is never worse than greedy (the search starts
there and keeps only strict improvements) and wins outright whenever
transfers matter — the scheduling-partitioning coupling this example
exists to show.
"""

from repro import MC2, Runner, SweepEngine
from repro.energy import EnergyMeter
from repro.graphs import GraphPlanner, greedy_plan, node_requests, pipeline_chain


def main() -> None:
    graph = pipeline_chain(
        [("stencil2d", 256), ("reduction", 65536), ("mat_mul", 160)],
        scale_bytes=64.0,
    )
    runner = Runner(MC2)
    engine = SweepEngine(runner)
    requests = node_requests(graph)
    idle_w = EnergyMeter(runner.devices).platform_idle_w()
    planner = GraphPlanner(engine.measure, runner.devices, idle_w)

    greedy, _ = greedy_plan(graph, requests, engine.measure, planner.space)
    greedy_run = engine.measure_graph(graph, greedy, requests)
    plan, run = planner.search(graph, requests)

    print(f"{graph.name} on {MC2.name} ({len(graph.nodes)} stages)")
    print("\n  task            greedy      co-search   start -> finish")
    for sched in run.schedule:
        node = graph.node(sched.node)
        print(
            f"  {node.program:>9}@{node.size:<6} "
            f"{greedy.partitioning_for(sched.node).label:>9}  "
            f"{sched.partitioning.label:>9}   "
            f"{sched.start_s * 1e3:7.3f} -> {sched.finish_s * 1e3:7.3f} ms"
        )
    print(f"\n  critical path: {' > '.join(run.critical_path)}")
    print(
        f"  greedy makespan:      {greedy_run.median_s * 1e3:8.3f} ms "
        f"({greedy_run.transfer_s * 1e3:.3f} ms in transfers)"
    )
    print(
        f"  co-searched makespan: {run.median_s * 1e3:8.3f} ms "
        f"({run.transfer_s * 1e3:.3f} ms in transfers)"
    )
    print(f"  speedup over greedy:  {greedy_run.median_s / run.median_s:8.2f}x")
    stats = planner.stats
    print(
        f"  search effort: {stats.evaluated} compositions "
        f"({stats.pruned} pruned, {stats.passes} passes)"
    )


if __name__ == "__main__":
    main()
