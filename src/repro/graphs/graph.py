"""The task-graph model: DAGs of benchsuite kernels with tensor handoffs.

HeSP (PAPERS.md) frames heterogeneous execution as a *task
scheduling-partitioning* problem: the unit of work is not one kernel
launch but a DAG of dependent kernels, and the interesting decisions —
where each task runs, how it is split, which producer/consumer pairs
co-locate to dodge PCIe traffic — are only visible at the graph level.

A :class:`TaskGraph` is a validated DAG whose nodes name benchsuite
kernels (``(program, size)`` exactly as the serving layer keys them)
and whose edges carry the tensor-handoff byte count of the dependency.
Edges are *priced* with the same analytic PCIe model single-kernel
transfers use today (:meth:`repro.ocl.costmodel.DeviceCostModel.transfer_time_s`);
the pricing itself lives in :mod:`repro.graphs.compose`.

Validation happens at construction: a graph is non-empty, edge
endpoints exist, and the edge set is acyclic — :meth:`topological_order`
is computed once (Kahn's algorithm, declaration order breaking ties so
schedules are deterministic) and cached on the instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["TaskNode", "TaskEdge", "TaskGraph"]


@dataclass(frozen=True)
class TaskNode:
    """One task: a benchsuite kernel at a problem size.

    ``name`` is the node's identity inside the graph (edges reference
    it); several nodes may share the same ``(program, size)`` — a
    pipeline can invoke the same kernel twice.
    """

    name: str
    program: str
    size: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a task node needs a non-empty name")
        if not self.program:
            raise ValueError(f"task {self.name!r} needs a benchmark program")
        if self.size <= 0:
            raise ValueError(f"task {self.name!r} needs a positive size")

    @property
    def key(self) -> tuple[str, int]:
        """The serving-layer cache key this node's kernel lives under."""
        return (self.program, self.size)


@dataclass(frozen=True)
class TaskEdge:
    """One dependency: ``dst`` consumes ``nbytes`` produced by ``src``.

    ``nbytes`` is the tensor-handoff size; it prices the inter-task
    transfer exactly as a PCIe buffer copy of that many bytes would be
    priced today, split across devices by the producer's and consumer's
    partitionings (see :func:`repro.graphs.compose.edge_transfer`).
    """

    src: str
    dst: str
    nbytes: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-edge on task {self.src!r}")
        if self.nbytes < 0:
            raise ValueError(
                f"edge {self.src!r}->{self.dst!r} carries negative bytes"
            )


@dataclass(frozen=True)
class TaskGraph:
    """A validated DAG of tasks; the unit of work above the kernel.

    Construction validates the whole structure — non-empty node set,
    unique node names, known edge endpoints, no duplicate edges, no
    cycles — so every consumer downstream (composition, planning,
    serving) can assume a well-formed DAG.
    """

    nodes: tuple[TaskNode, ...]
    edges: tuple[TaskEdge, ...] = ()
    name: str = "graph"
    _topo: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a task graph needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate task names: {dupes}")
        known = set(names)
        seen: set[tuple[str, str]] = set()
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in known:
                    raise ValueError(
                        f"edge {edge.src!r}->{edge.dst!r} references "
                        f"unknown task {endpoint!r}"
                    )
            if (edge.src, edge.dst) in seen:
                raise ValueError(f"duplicate edge {edge.src!r}->{edge.dst!r}")
            seen.add((edge.src, edge.dst))
        object.__setattr__(self, "_topo", self._kahn_order())

    # -- construction helpers ----------------------------------------------

    @classmethod
    def chain(
        cls,
        stages: "list[tuple[str, int]] | tuple[tuple[str, int], ...]",
        handoff_nbytes: "int | list[int] | tuple[int, ...]",
        name: str | None = None,
    ) -> "TaskGraph":
        """A linear pipeline: stage i feeds stage i+1.

        ``handoff_nbytes`` is either one byte count for every edge or a
        per-edge sequence of ``len(stages) - 1`` counts.
        """
        if not stages:
            raise ValueError("a chain needs at least one stage")
        if isinstance(handoff_nbytes, int):
            per_edge: list[int] = [handoff_nbytes] * (len(stages) - 1)
        else:
            per_edge = list(handoff_nbytes)
            if len(per_edge) != len(stages) - 1:
                raise ValueError(
                    f"chain of {len(stages)} stages needs {len(stages) - 1} "
                    f"handoff byte counts, got {len(per_edge)}"
                )
        nodes = tuple(
            TaskNode(name=f"t{i}", program=program, size=size)
            for i, (program, size) in enumerate(stages)
        )
        edges = tuple(
            TaskEdge(src=f"t{i}", dst=f"t{i + 1}", nbytes=per_edge[i])
            for i in range(len(stages) - 1)
        )
        return cls(
            nodes=nodes,
            edges=edges,
            name=name or ">".join(p for p, _ in stages),
        )

    def _kahn_order(self) -> tuple[str, ...]:
        """Topological order, or raise on a cycle.

        Kahn's algorithm with the ready set kept in node declaration
        order: the order is a pure function of the graph, so composed
        schedules and cache signatures are deterministic.
        """
        indegree = {n.name: 0 for n in self.nodes}
        for edge in self.edges:
            indegree[edge.dst] += 1
        order: list[str] = []
        ready = [n.name for n in self.nodes if indegree[n.name] == 0]
        position = {n.name: i for i, n in enumerate(self.nodes)}
        while ready:
            ready.sort(key=position.__getitem__)
            current = ready.pop(0)
            order.append(current)
            for edge in self.edges:
                if edge.src != current:
                    continue
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.nodes):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise ValueError(f"task graph has a cycle through {stuck}")
        return tuple(order)

    # -- structure queries --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> TaskNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no task named {name!r}")

    def topological_order(self) -> tuple[str, ...]:
        """Node names in a deterministic dependency-respecting order."""
        return self._topo

    def in_edges(self, name: str) -> tuple[TaskEdge, ...]:
        return tuple(e for e in self.edges if e.dst == name)

    def out_edges(self, name: str) -> tuple[TaskEdge, ...]:
        return tuple(e for e in self.edges if e.src == name)

    # -- identity -----------------------------------------------------------

    @property
    def signature(self) -> tuple:
        """Structural identity: everything the composed timing depends on.

        Two graphs with equal signatures produce identical composed
        measurements under identical plans — node names are included
        because plans address nodes by name.
        """
        return (
            tuple((n.name, n.program, n.size) for n in self.nodes),
            tuple((e.src, e.dst, e.nbytes) for e in self.edges),
        )

    @property
    def signature_label(self) -> str:
        """Compact string form of :attr:`signature` for cache keys.

        The serving layer keys its prediction cache by
        ``(machine, program, size)``; graph requests reuse the same
        key shape with this label in the ``program`` slot (and the
        node count in the ``size`` slot), so one LRU holds both kinds
        of entries without collisions.
        """
        digest = hashlib.sha1(repr(self.signature).encode()).hexdigest()[:12]
        stages = ">".join(f"{n.program}@{n.size}" for n in self.nodes[:4])
        if len(self.nodes) > 4:
            stages += f">+{len(self.nodes) - 4}"
        return f"graph:{stages}#{digest}"

    @property
    def total_size(self) -> int:
        """Sum of node problem sizes (the ``size`` slot of cache keys)."""
        return sum(n.size for n in self.nodes)

    def __str__(self) -> str:
        return f"{self.name}({self.num_nodes} tasks, {len(self.edges)} edges)"
