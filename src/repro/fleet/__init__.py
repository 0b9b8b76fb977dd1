"""The fleet layer: sharding the partitioning service across machines.

One :class:`FleetRouter` owns N replicas — each a machine from
:mod:`repro.machines` with its own trained system and
:class:`~repro.serving.PartitioningService` — and places a shared
request trace on them via pluggable policies (least-loaded, affinity
hashing, predicted-makespan).  The :class:`ModelRegistry` persists
per-machine models and warm-starts cold machines from the most
spec-similar registered one.
"""

from .registry import ModelRegistry, spec_fingerprint
from .router import (
    ROUTING_POLICIES,
    FleetReplica,
    FleetRouter,
    FleetStats,
)

__all__ = [
    "ModelRegistry",
    "spec_fingerprint",
    "ROUTING_POLICIES",
    "FleetReplica",
    "FleetRouter",
    "FleetStats",
]
