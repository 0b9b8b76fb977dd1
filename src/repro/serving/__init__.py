"""The serving layer: online-adaptive partitioning as a service.

Everything above one-shot deployment lives here — the LRU prediction
cache, synthetic request traces, the simulated-time event loop every
trace is served on, and the :class:`PartitioningService` that closes
the train→predict→execute loop with online adaptation.
"""

from .cache import CacheKey, CacheStats, PredictionCache
from .drift import DriftDetector
from .eventloop import CompletedRequest, EventLoop, EventLoopStats
from .histogram import QUANTILE_RELATIVE_ERROR, LatencyHistogram
from .options import QUEUE_DISCIPLINES, ServeOptions, serve_trace
from .service import (
    GraphServedResponse,
    PartitioningService,
    ServedResponse,
    ServiceConfig,
    ServiceStats,
)
from .slo import (
    SHED_POLICIES,
    SLOConfig,
    SLOTracker,
    ShedDecision,
    TenantSLOStats,
    shed_decision,
)
from .trace import (
    DEFAULT_TENANT,
    GraphServingRequest,
    ServingRequest,
    key_universe,
    zipf_draws,
    zipf_trace,
)

__all__ = [
    "CacheKey",
    "CacheStats",
    "DriftDetector",
    "PredictionCache",
    "CompletedRequest",
    "EventLoop",
    "EventLoopStats",
    "QUEUE_DISCIPLINES",
    "ServeOptions",
    "serve_trace",
    "LatencyHistogram",
    "QUANTILE_RELATIVE_ERROR",
    "SHED_POLICIES",
    "SLOConfig",
    "SLOTracker",
    "ShedDecision",
    "shed_decision",
    "TenantSLOStats",
    "GraphServedResponse",
    "PartitioningService",
    "ServedResponse",
    "ServiceConfig",
    "ServiceStats",
    "DEFAULT_TENANT",
    "GraphServingRequest",
    "ServingRequest",
    "key_universe",
    "zipf_draws",
    "zipf_trace",
]
