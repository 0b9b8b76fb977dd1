"""The cluster tier: machine pools, tenants, and a priced interconnect.

One :class:`ClusterRouter` places a multi-tenant request stream onto P
machine pools (each pool a :class:`~repro.fleet.FleetRouter`) behind a
:class:`NetworkSpec` that prices every cross-pool handoff — bandwidth,
latency and link watts — exactly like PCIe transfers are priced inside
one machine.  Tenants hash to stable home pools; placement weighs the
interconnect toll against pool load; speculation and work-stealing
hooks feed the event loop's cluster-scope straggler handling; and
per-tenant isolation (p99, capacity share, fairness gap) is reported
from bounded-memory meters.
"""

from .network import NetworkSpec
from .router import (
    ClusterResponse,
    ClusterRouter,
    ClusterStats,
    TenantStats,
    with_tenants,
)

__all__ = [
    "NetworkSpec",
    "ClusterResponse",
    "ClusterRouter",
    "ClusterStats",
    "TenantStats",
    "with_tenants",
]
