"""Observability for the serving stack: tracing, metrics, attribution.

``repro.telemetry`` is the one place the serving layers report into:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters,
  gauges, and log-bucketed histograms under stable dotted names.  The
  event loop's :class:`~repro.serving.EventLoopStats` is a thin view
  over it, and the service / fleet router / cluster router / drift
  detector / SLO tracker all publish into the same namespace via their
  ``publish_metrics`` hooks.
* :class:`~repro.telemetry.spans.Tracer` — request-scoped span trees
  over the simulated clock, with a deterministic JSONL export.
* :class:`~repro.telemetry.analyzer.CriticalPathAnalyzer` — per-trace
  latency attribution and flamegraph-style rollups over those spans.

The :class:`Telemetry` facade ties the three together behind
``ServeOptions(telemetry="off" | "metrics" | "trace")``:

* ``off`` — no tracer, no shared registry; the loop's stats still work
  (they always sit on a private registry) and the marginal cost is a
  handful of ``is None`` checks.
* ``metrics`` — the loop's registry is shared, and after the run every
  backend layer publishes its counters into it (``serve``'s default:
  the registry is its report).
* ``trace`` — metrics plus the span tracer and JSONL event log
  (``serve --trace-out``).
"""

from __future__ import annotations

from .analyzer import CriticalPathAnalyzer
from .registry import Counter, Gauge, MetricsRegistry
from .spans import SPAN_KINDS, Span, Tracer

__all__ = [
    "TELEMETRY_MODES",
    "Telemetry",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "SPAN_KINDS",
    "Tracer",
    "CriticalPathAnalyzer",
]

#: Accepted values of ``ServeOptions.telemetry``.
TELEMETRY_MODES = ("off", "metrics", "trace")


class Telemetry:
    """One run's telemetry context: a shared registry, optionally a tracer."""

    def __init__(self, mode: str = "metrics"):
        if mode not in TELEMETRY_MODES or mode == "off":
            raise ValueError(
                f"telemetry mode must be one of {TELEMETRY_MODES[1:]} "
                f"(got {mode!r}); 'off' means no Telemetry object at all"
            )
        self.mode = mode
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if mode == "trace" else None

    @classmethod
    def from_mode(cls, mode: str) -> "Telemetry | None":
        """Build a context for ``mode``, or ``None`` when it is ``off``."""
        if mode == "off":
            return None
        return cls(mode)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def analyzer(self) -> CriticalPathAnalyzer:
        """A critical-path analyzer over the spans traced so far."""
        if self.tracer is None:
            raise ValueError("telemetry mode 'trace' is required for spans")
        return CriticalPathAnalyzer.from_tracer(self.tracer)

    def collect(self, backend=None, stats=None) -> MetricsRegistry:
        """Publish every layer's counters into the shared registry.

        ``backend`` is any ``publish_metrics``-capable serving layer
        (service, fleet router, cluster router); ``stats`` is the event
        loop's :class:`~repro.serving.EventLoopStats`, whose scalar
        counters already live in the registry — collecting adds its
        per-replica gauges and the SLO tracker's per-tenant counters.
        """
        if stats is not None:
            for index, completed in enumerate(stats.replica_completed):
                self.registry.gauge(f"loop.replica.{index}.completed").set(
                    completed
                )
            for index, busy_s in enumerate(stats.replica_busy_s):
                self.registry.gauge(f"loop.replica.{index}.busy_s").set(busy_s)
            stats.slo.publish_metrics(self.registry)
        if backend is not None:
            backend.publish_metrics(self.registry)
        return self.registry
