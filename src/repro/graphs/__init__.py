"""Task graphs: DAGs of kernels as the unit of work.

The single-kernel layers answer "how should *this launch* be split";
this package lifts the question to HeSP's level — "how should a *DAG
of dependent launches* be scheduled and split, together".  It holds:

* the validated graph model (:mod:`repro.graphs.graph`),
* the composition that turns per-task measurements plus priced tensor
  handoffs into one graph-level run (:mod:`repro.graphs.compose`),
* the scheduling × partitioning co-search and its greedy
  partition-each-task baseline (:mod:`repro.graphs.planner`), and
* pipeline builders deriving realistic chains (and their handoff byte
  counts) from the benchsuite (:mod:`repro.graphs.builders`).

The engine and runner gained graph-shaped entry points
(:meth:`~repro.engine.SweepEngine.measure_graph`,
:meth:`~repro.runtime.measurement.Runner.run_graph`, each over a task →
request map from :func:`~repro.graphs.compose.node_requests` or a
service's per-key memo) that route through
:func:`~repro.graphs.compose.compose_graph`, so a single-node graph is
bit-identical — time and energy, memoized and not — to the
single-kernel path it refactors.
"""

from .builders import (
    STAGE_ROLES,
    chain_universe,
    diamond_graph,
    handoff_nbytes,
    pipeline_chain,
)
from .compose import EdgeTransfer, GraphRun, TaskSchedule, compose_graph
from .compose import edge_transfer, node_requests
from .graph import TaskEdge, TaskGraph, TaskNode
from .planner import GraphPlan, GraphPlanner, PlannerStats, greedy_plan

__all__ = [
    "TaskNode",
    "TaskEdge",
    "TaskGraph",
    "EdgeTransfer",
    "TaskSchedule",
    "GraphRun",
    "compose_graph",
    "edge_transfer",
    "node_requests",
    "GraphPlan",
    "GraphPlanner",
    "PlannerStats",
    "greedy_plan",
    "STAGE_ROLES",
    "chain_universe",
    "diamond_graph",
    "handoff_nbytes",
    "pipeline_chain",
]
