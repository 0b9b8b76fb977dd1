"""Synthetic request traces for the serving layer.

Production launch streams are heavily skewed: a few hot (program, size)
configurations dominate while a long tail of rare launches keeps
appearing.  The generator models that with a Zipf distribution over the
key universe — the standard assumption for cache workloads — with the
key-to-rank assignment shuffled deterministically per seed so the hot
set is not always the same benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..benchsuite.base import Benchmark
from ..graphs.graph import TaskGraph
from ..util.rng import rng_for

__all__ = [
    "DEFAULT_TENANT",
    "GraphServingRequest",
    "ServingRequest",
    "key_universe",
    "zipf_draws",
    "zipf_trace",
]

#: Tenant of requests that never named one (single-tenant traffic).
DEFAULT_TENANT = "default"


@dataclass(frozen=True, slots=True)
class ServingRequest:
    """One launch request arriving at the service.

    ``tenant`` identifies who submitted it — the unit SLO targets,
    priorities and violation rates are tracked by on the event-driven
    serving path.  Single-tenant traffic leaves the default.  Slotted,
    because a trace holds one per arrival: without a per-object dict a
    request takes about 40 bytes less on CPython 3.11 (4.8 MB over a
    120k-request trace).
    """

    request_id: int
    program: str
    size: int
    tenant: str = DEFAULT_TENANT

    @property
    def key(self) -> tuple[str, int]:
        return (self.program, self.size)


@dataclass(frozen=True)
class GraphServingRequest:
    """One task-graph request arriving at the service.

    The graph — not a kernel — is the unit of work: the service
    resolves (or co-searches) a full per-task plan, measures the
    composed critical path, and caches the plan under a graph-level
    key.  ``program``/``size`` mirror the single-kernel request shape
    (the graph's signature label and node count) so placement policies
    and SLO accounting treat both kinds uniformly.
    """

    request_id: int
    graph: TaskGraph
    tenant: str = DEFAULT_TENANT

    @property
    def program(self) -> str:
        return self.graph.signature_label

    @property
    def size(self) -> int:
        return self.graph.total_size

    @property
    def key(self) -> tuple[str, int]:
        return (self.program, self.size)


def key_universe(
    benchmarks: Sequence[Benchmark],
    max_sizes: int | None = None,
) -> tuple[tuple[str, int], ...]:
    """Every (program, size) configuration the trace can request.

    ``max_sizes`` caps each benchmark's ladder from the small end, which
    bounds instance-generation cost during a replay.
    """
    keys: list[tuple[str, int]] = []
    for bench in benchmarks:
        sizes = bench.problem_sizes()
        if max_sizes is not None:
            sizes = sizes[:max_sizes]
        keys.extend((bench.name, size) for size in sizes)
    if not keys:
        raise ValueError("empty key universe")
    return tuple(keys)


def zipf_draws(
    keys: Sequence[tuple[str, int]],
    num_requests: int,
    skew: float = 1.5,
    seed: int = 0,
) -> tuple[list[tuple[str, int]], np.ndarray]:
    """The (ranked keys, per-request rank draws) behind :func:`zipf_trace`.

    Split out so the workload generators and the streaming serving path
    can share the exact rng call sequence without materializing request
    objects — a million-request trace is one integer array here.
    """
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    if skew <= 0:
        raise ValueError("skew must be positive")
    rng = rng_for("serving-trace", len(keys), skew, base_seed=seed)
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = 1.0 / np.arange(1, len(ranked) + 1, dtype=np.float64) ** skew
    weights /= weights.sum()
    draws = rng.choice(len(ranked), size=num_requests, p=weights)
    return ranked, draws


def zipf_trace(
    keys: Sequence[tuple[str, int]],
    num_requests: int,
    skew: float = 1.5,
    seed: int = 0,
) -> tuple[ServingRequest, ...]:
    """A Zipf-skewed request trace over a key universe.

    ``p(rank r) ∝ 1 / r^skew`` with ranks assigned by a seeded shuffle
    of the keys.  ``skew`` ≈ 1.0 is a classic web-style workload; higher
    values concentrate traffic on fewer keys (better cache behaviour).
    """
    ranked, draws = zipf_draws(keys, num_requests, skew=skew, seed=seed)
    return tuple(
        ServingRequest(request_id=i, program=ranked[j][0], size=ranked[j][1])
        for i, j in enumerate(draws)
    )
