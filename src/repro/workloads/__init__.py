"""Workload diversity: non-stationary request streams and platform drift.

The serving layers used to drive one stationary Zipf stream at a fixed
platform — the only regime where a cached prediction never goes stale.
This package generates the streams production actually sees: rotating
hot sets, flash crowds, diurnal concentration ramps, and platform drift
events that rescale a machine's device throughput mid-serve.  One
:class:`WorkloadSpec` describes a scenario; :func:`make_workload` turns
it into the concrete trace every consumer (``serve``, the benchmarks)
plays back.
"""

from .arrivals import arrival_times, rate_factors
from .generators import (
    AnyServingRequest,
    Workload,
    make_workload,
    stream_requests,
    stream_timed_items,
)
from .spec import ARRIVAL_PROCESSES, WORKLOAD_FAMILIES, DriftEvent, WorkloadSpec

__all__ = [
    "ARRIVAL_PROCESSES",
    "AnyServingRequest",
    "WORKLOAD_FAMILIES",
    "DriftEvent",
    "WorkloadSpec",
    "Workload",
    "arrival_times",
    "make_workload",
    "rate_factors",
    "stream_requests",
    "stream_timed_items",
]
