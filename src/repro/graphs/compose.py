"""Graph composition: per-task measurements + edge transfers → one run.

One composed execution of a :class:`~repro.graphs.graph.TaskGraph` is a
deterministic list schedule over the machine's devices:

* each task is measured with its planned partitioning through the
  *caller-supplied* measure function — the memoizing
  :meth:`~repro.engine.SweepEngine.measure` or the unmemoized
  :meth:`~repro.runtime.measurement.Runner.run` — so the composed
  timeline is bit-identical on both paths whenever the per-task
  measurements are (which is the engine's own guarantee);
* each edge pays an inter-task transfer priced with the *same* PCIe
  cost model single-kernel buffer copies use today
  (:meth:`~repro.ocl.costmodel.DeviceCostModel.transfer_time_s`):
  bytes resident on a device under both the producer's and the
  consumer's partitioning stay put for free, surplus producer bytes
  pay a device-to-host copy, missing consumer bytes pay a
  host-to-device copy, and host-resident devices never pay at all —
  co-locating a producer/consumer pair is exactly as profitable as
  skipping the equivalent PCIe copy;
* a task starts when its predecessors have finished *and* their
  handoffs have landed *and* every device its partitioning activates
  is free — independent tasks whose partitionings touch disjoint
  device sets overlap, which is the scheduling dimension the planner
  co-searches with the per-task partitionings.

Energy follows the same composition: each task's measured joules
already price race-to-idle over its own span; edge transfers add their
dynamic joules (transfer watts × copy seconds per participating
device); and stretches of the composed timeline where *no* task is
running add platform idle joules, so a graph serialized by transfers
is charged for the silicon it keeps waiting.  Tasks that overlap in
time each keep their full race-to-idle charge — a deliberately
conservative double-count documented in docs/PIPELINES.md.  A
single-node graph has no edges and no stalls: its makespan *and*
energy are bit-identical to the single-kernel measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..ocl.costmodel import TransferDirection
from ..partitioning import Partitioning
from .graph import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ocl.device import Device
    from ..runtime.measurement import MeasuredRun
    from ..runtime.scheduler import ExecutionRequest

__all__ = [
    "EdgeTransfer",
    "TaskSchedule",
    "GraphRun",
    "compose_graph",
    "edge_transfer",
    "node_requests",
]

#: A per-task measure function: (request, partitioning, repetitions) →
#: MeasuredRun.  Both `SweepEngine.measure` and a `functional=False`
#: `Runner.run` satisfy it.
MeasureFn = Callable[..., "MeasuredRun"]


@dataclass(frozen=True)
class EdgeTransfer:
    """One priced tensor handoff: seconds on the link, dynamic joules."""

    src: str
    dst: str
    nbytes: int
    seconds: float
    joules: float


@dataclass(frozen=True)
class TaskSchedule:
    """Where one task landed on the composed timeline."""

    node: str
    partitioning: Partitioning
    #: Instant every input handoff has landed (transfers included).
    ready_s: float
    start_s: float
    finish_s: float

    @property
    def queue_s(self) -> float:
        """Device contention: time spent ready but waiting for devices."""
        return self.start_s - self.ready_s


@dataclass(frozen=True)
class GraphRun:
    """One composed graph execution — the graph-level `MeasuredRun`.

    ``median_s`` / ``energy_j`` mirror the single-kernel
    :class:`~repro.runtime.measurement.MeasuredRun` fields so graph and
    kernel measurements flow through the same serving plumbing; for a
    single-node graph they are bit-identical to it.
    """

    graph: TaskGraph
    plan: tuple[tuple[str, Partitioning], ...]
    median_s: float
    energy_j: float
    schedule: tuple[TaskSchedule, ...]
    transfers: tuple[EdgeTransfer, ...]
    critical_path: tuple[str, ...]
    node_runs: "Mapping[str, MeasuredRun]"
    #: Joules the composed timeline adds on top of the per-task runs:
    #: transfer dynamics plus platform idle over stalled stretches.
    transfer_j: float = 0.0
    stall_j: float = 0.0

    @property
    def makespan_s(self) -> float:
        return self.median_s

    @property
    def transfer_s(self) -> float:
        return sum(t.seconds for t in self.transfers)

    def partitioning_for(self, node: str) -> Partitioning:
        for name, p in self.plan:
            if name == node:
                return p
        raise KeyError(f"no plan entry for task {node!r}")


def node_requests(graph: TaskGraph, seed: int = 0) -> "dict[str, ExecutionRequest]":
    """One execution request per task, shared across same-key tasks.

    Nodes with the same ``(program, size)`` receive the *same* request
    object — the sweep engine memoizes tapes by request identity, so
    sharing turns repeated pipeline stages into cache hits.  Reusing the
    returned map across measurements of the graph extends that identity
    across calls.
    """
    from ..benchsuite.registry import get_benchmark

    memo: "dict[tuple[str, int], ExecutionRequest]" = {}
    out: "dict[str, ExecutionRequest]" = {}
    for node in graph.nodes:
        key = (node.program, node.size)
        request = memo.get(key)
        if request is None:
            bench = get_benchmark(node.program)
            request = bench.request(bench.make_instance(node.size, seed=seed))
            memo[key] = request
        out[node.name] = request
    return out


def edge_transfer(
    devices: "Sequence[Device]",
    nbytes: int,
    producer: Partitioning,
    consumer: Partitioning,
) -> tuple[float, float]:
    """Price one tensor handoff; returns (seconds, dynamic joules).

    Bytes are apportioned to devices by integer share (``nbytes × share
    // 100``, deterministic), and ``min(producer, consumer)`` bytes per
    device are resident — already where the consumer needs them.  The
    producer's surplus streams device-to-host first, then the
    consumer's deficit streams host-to-device; each phase is as slow as
    its slowest device (copies within a phase overlap across devices,
    the two phases serialize through host memory).  Host-resident
    devices price every copy at zero, exactly like today's single-kernel
    transfers.
    """
    if producer.num_devices != consumer.num_devices:
        raise ValueError(
            f"producer has {producer.num_devices} device shares, "
            f"consumer has {consumer.num_devices}"
        )
    if len(devices) != producer.num_devices:
        raise ValueError(
            f"partitionings cover {producer.num_devices} devices, "
            f"machine has {len(devices)}"
        )
    d2h = 0.0
    h2d = 0.0
    joules = 0.0
    for index, device in enumerate(devices):
        produced = nbytes * producer.shares[index] // 100
        consumed = nbytes * consumer.shares[index] // 100
        resident = min(produced, consumed)
        up_s = device.cost_model.transfer_time_s(
            produced - resident, TransferDirection.DEVICE_TO_HOST
        )
        down_s = device.cost_model.transfer_time_s(
            consumed - resident, TransferDirection.HOST_TO_DEVICE
        )
        d2h = max(d2h, up_s)
        h2d = max(h2d, down_s)
        joules += device.power_model.transfer_power_w() * (up_s + down_s)
    return d2h + h2d, joules


def _stall_seconds(spans: list[tuple[float, float]], makespan: float) -> float:
    """Seconds of the composed timeline covered by no task execution."""
    if makespan <= 0.0:
        return 0.0
    covered = 0.0
    cursor = 0.0
    for start, finish in sorted(spans):
        start = max(start, cursor)
        if finish > start:
            covered += finish - start
            cursor = finish
    return makespan - covered


def compose_graph(
    graph: TaskGraph,
    plan: Mapping[str, Partitioning],
    requests: "Mapping[str, ExecutionRequest]",
    measure: MeasureFn,
    devices: "Sequence[Device]",
    platform_idle_w: float,
    repetitions: int = 1,
) -> GraphRun:
    """Compose one graph execution from per-task measurements.

    ``measure`` is called once per node in topological order — the
    deterministic order noise streams are sampled in, shared by the
    memoized and unmemoized paths.  ``plan`` and ``requests`` must
    cover every node.
    """
    for node in graph.nodes:
        if node.name not in plan:
            raise ValueError(f"plan misses task {node.name!r}")
        if node.name not in requests:
            raise ValueError(f"no execution request for task {node.name!r}")

    node_runs: dict[str, "MeasuredRun"] = {}
    finish: dict[str, float] = {}
    schedule: list[TaskSchedule] = []
    transfers: list[EdgeTransfer] = []
    transfer_j = 0.0
    device_free = [0.0] * len(devices)
    spans: list[tuple[float, float]] = []
    #: Predecessor that gated each task's start (critical-path walkback);
    #: None means the task started unconstrained (or device-gated).
    gate: dict[str, str | None] = {}

    for name in graph.topological_order():
        partitioning = plan[name]
        run = measure(requests[name], partitioning, repetitions=repetitions)
        node_runs[name] = run
        ready = 0.0
        gating: str | None = None
        for edge in graph.in_edges(name):
            seconds, joules = edge_transfer(
                devices, edge.nbytes, plan[edge.src], partitioning
            )
            transfers.append(
                EdgeTransfer(
                    src=edge.src,
                    dst=edge.dst,
                    nbytes=edge.nbytes,
                    seconds=seconds,
                    joules=joules,
                )
            )
            transfer_j += joules
            landed = finish[edge.src] + seconds
            if landed > ready:
                ready = landed
                gating = edge.src
        active = partitioning.active_devices
        start = ready
        for index in active:
            if device_free[index] > start:
                start = device_free[index]
        end = start + run.median_s
        for index in active:
            device_free[index] = end
        finish[name] = end
        spans.append((start, end))
        gate[name] = gating
        schedule.append(
            TaskSchedule(
                node=name,
                partitioning=partitioning,
                ready_s=ready,
                start_s=start,
                finish_s=end,
            )
        )

    makespan = max(finish.values())
    # Walk the gating predecessors back from the task that set the
    # makespan: the critical path the planner prunes against.
    tail = max(finish, key=lambda n: (finish[n], n))
    path = [tail]
    while gate[path[-1]] is not None:
        path.append(gate[path[-1]])
    path.reverse()

    stall_s = _stall_seconds(spans, makespan)
    stall_j = platform_idle_w * stall_s
    energy = sum(node_runs[n].energy_j for n in graph.topological_order())
    energy += transfer_j + stall_j

    return GraphRun(
        graph=graph,
        plan=tuple((name, plan[name]) for name in graph.topological_order()),
        median_s=makespan,
        energy_j=energy,
        schedule=tuple(schedule),
        transfers=tuple(transfers),
        critical_path=tuple(path),
        node_runs=node_runs,
        transfer_j=transfer_j,
        stall_j=stall_j,
    )
