"""Pipeline builders: stencil→reduce→gemm chains from benchsuite kernels.

The ``pipeline`` workload family and the graph CLI/benchmarks need
realistic chains without hand-writing byte counts: the handoff size of
an edge is derived from what its producer actually *outputs* — the
summed bytes of the producer benchmark's output arrays at its problem
size, the tensor a real pipeline would ship to the next stage.

Stage roles mirror the classic HPC pipeline shape the ISSUE names:
a stencil-ish producer (structured grid), a reduce-ish middle
(bandwidth-bound contraction) and a gemm-ish consumer (compute-bound
dense kernel).  Chains are built from whatever subset of those roles
the caller's key universe actually contains, falling back to plain
consecutive keys so any universe yields *some* pipeline.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .graph import TaskGraph

__all__ = [
    "STAGE_ROLES",
    "handoff_nbytes",
    "pipeline_chain",
    "diamond_graph",
    "chain_universe",
]

#: Programs eligible for each pipeline stage role, in preference order.
STAGE_ROLES: dict[str, tuple[str, ...]] = {
    "stencil": ("stencil2d", "hotspot", "srad", "conv2d", "pathfinder"),
    "reduce": ("reduction", "dot_product", "histogram", "spmv"),
    "gemm": ("mat_mul", "atax", "mvt", "black_scholes"),
}


@lru_cache(maxsize=512)
def handoff_nbytes(program: str, size: int) -> int:
    """Bytes one task hands to its consumer: its output arrays' size.

    Sums the declared bytes of every output buffer of one problem
    instance (memoized per key; nothing is drawn); a zero-output
    kernel still hands over at least one element so edges never price
    to exactly nothing by accident.
    """
    from ..benchsuite.registry import get_benchmark
    from ..runtime.arrays import buffer_layout

    instance = get_benchmark(program).make_instance(size, seed=0)
    layout = buffer_layout(instance.arrays)
    total = sum(
        elements * itemsize
        for elements, itemsize in (layout[name] for name in instance.output_names)
    )
    return max(total, 4)


def pipeline_chain(
    stages: Sequence[tuple[str, int]],
    name: str | None = None,
    scale_bytes: float = 1.0,
) -> TaskGraph:
    """A linear pipeline whose edges carry the producers' output bytes.

    ``scale_bytes`` inflates (or deflates) every handoff — pipelines
    shipping batched tensors between stages move more than one
    kernel-output's worth of data per dependency.
    """
    if not 0 < scale_bytes < math.inf:
        raise ValueError("scale_bytes must be positive and finite")
    per_edge = [
        int(handoff_nbytes(program, size) * scale_bytes)
        for program, size in stages[:-1]
    ]
    return TaskGraph.chain(list(stages), per_edge, name=name)


def diamond_graph(
    source: tuple[str, int],
    branches: Sequence[tuple[str, int]],
    sink: tuple[str, int],
    name: str | None = None,
    scale_bytes: float = 1.0,
) -> TaskGraph:
    """A fork/join: source feeds every branch, every branch feeds the sink.

    The shape that exercises the *scheduling* half of the co-search —
    branches with disjoint device placements overlap, branches piled
    onto the same devices serialize.
    """
    if not 0 < scale_bytes < math.inf:
        raise ValueError("scale_bytes must be positive and finite")
    if not branches:
        raise ValueError("a diamond needs at least one branch")
    from .graph import TaskEdge, TaskNode

    nodes = [TaskNode(name="src", program=source[0], size=source[1])]
    edges = []
    src_bytes = int(handoff_nbytes(*source) * scale_bytes)
    for i, (program, size) in enumerate(branches):
        branch_name = f"b{i}"
        nodes.append(TaskNode(name=branch_name, program=program, size=size))
        edges.append(TaskEdge(src="src", dst=branch_name, nbytes=src_bytes))
        edges.append(
            TaskEdge(
                src=branch_name,
                dst="sink",
                nbytes=int(handoff_nbytes(program, size) * scale_bytes),
            )
        )
    nodes.append(TaskNode(name="sink", program=sink[0], size=sink[1]))
    return TaskGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        name=name or f"{source[0]}<>{sink[0]}",
    )


def chain_universe(
    keys: Sequence[tuple[str, int]],
    max_chains: int = 8,
    scale_bytes: float = 1.0,
) -> tuple[TaskGraph, ...]:
    """The pipeline-family key universe: chains drawn from serving keys.

    Each chain picks one key per stage role present in ``keys``
    (smallest size per program, preference order of
    :data:`STAGE_ROLES`); successive chains rotate through the
    per-role candidates so the universe holds distinct pipelines.
    When fewer than two roles are represented, consecutive key triples
    form the chains instead — any universe pipelines *somehow*.
    """
    if max_chains < 1:
        raise ValueError("max_chains must be >= 1")
    if not keys:
        raise ValueError("empty key universe")
    by_program: dict[str, list[int]] = {}
    for program, size in keys:
        by_program.setdefault(program, []).append(size)
    role_candidates: list[list[tuple[str, int]]] = []
    for role_programs in STAGE_ROLES.values():
        candidates = [
            (program, min(by_program[program]))
            for program in role_programs
            if program in by_program
        ]
        if candidates:
            role_candidates.append(candidates)
    chains: list[TaskGraph] = []
    if len(role_candidates) >= 2:
        for i in range(max_chains):
            stages = [
                candidates[i % len(candidates)] for candidates in role_candidates
            ]
            graph = pipeline_chain(
                stages,
                name="|".join(p for p, _ in stages),
                scale_bytes=scale_bytes,
            )
            if not any(g.signature == graph.signature for g in chains):
                chains.append(graph)
    else:
        ordered = sorted(set(keys))
        width = min(3, len(ordered))
        for i in range(min(max_chains, len(ordered))):
            stages = [ordered[(i + j) % len(ordered)] for j in range(width)]
            graph = pipeline_chain(
                stages,
                name="|".join(p for p, _ in stages),
                scale_bytes=scale_bytes,
            )
            if not any(g.signature == graph.signature for g in chains):
                chains.append(graph)
    return tuple(chains)
