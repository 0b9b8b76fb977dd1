"""Critical-path analysis over exported spans: where did the latency go?

The tracer guarantees that each completed trace's *critical* leaf spans
tile ``[arrival, finish]`` with shared endpoints.  The analyzer builds
on that invariant:

* :meth:`CriticalPathAnalyzer.breakdown` — one trace's latency split by
  span kind (queue / predict / execute / network / backoff);
* :meth:`CriticalPathAnalyzer.attribution` — the same split aggregated
  over any set of traces (e.g. the slowest decile), as a table of
  total seconds, share of latency, and per-request mean;
* :meth:`CriticalPathAnalyzer.folded` — a flamegraph-style rollup:
  semicolon-joined span paths (``request;hedge;execute``) mapped to
  total seconds, the "folded stacks" format flamegraph tooling eats;
* :meth:`CriticalPathAnalyzer.check` — the conservation audit: critical
  spans must tile the root exactly and sum to the reported latency.

Built from a tracer (:meth:`CriticalPathAnalyzer.from_tracer`, what
:meth:`~repro.telemetry.Telemetry.analyzer` does), the analyzer reads
the tracer's span columns in place: it indexes each trace's row range
and builds a trace's :class:`~repro.telemetry.spans.Span` objects only
when that trace is read, so building it costs one pass over the
trace-id column and holding it costs one range per trace.
"""

from __future__ import annotations

import math

from ..util.tables import format_table
from .spans import LEAF_KINDS, Span

__all__ = ["CriticalPathAnalyzer"]


class CriticalPathAnalyzer:
    """Aggregates one run's spans into latency-attribution views.

    ``spans`` is any sequence of :class:`Span`; ``rows`` maps each trace
    id to the range of its rows in ``spans``.  Without ``rows`` the
    spans are grouped by trace once, here.
    """

    def __init__(self, spans, rows: dict[int, range] | None = None) -> None:
        if rows is None:
            by_trace: dict[int, list[Span]] = {}
            for span in spans:
                by_trace.setdefault(span.trace_id, []).append(span)
            spans, rows = [], {}
            for trace_id, group in by_trace.items():
                rows[trace_id] = range(len(spans), len(spans) + len(group))
                spans.extend(group)
        self._spans = spans
        self._rows = rows

    @classmethod
    def from_tracer(cls, tracer) -> "CriticalPathAnalyzer":
        """An analyzer over the tracer's own span columns."""
        return cls(tracer.spans, tracer.trace_rows())

    def _trace(self, trace_id: int) -> list[Span]:
        """One trace's spans, in emission order."""
        rows = self._rows[trace_id]
        return self._spans[rows.start : rows.stop]

    # -- per-trace views ---------------------------------------------------

    def trace_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def root(self, trace_id: int) -> Span:
        # A tracer emits the root first, so this builds one span.
        for row in self._rows[trace_id]:
            span = self._spans[row]
            if span.kind == "request":
                return span
        raise KeyError(f"trace {trace_id} has no request root span")

    def completed_ids(self) -> tuple[int, ...]:
        """Traces that resolved as completed (the tiling guarantee holds)."""
        return tuple(
            tid
            for tid in self.trace_ids()
            if self.root(tid).attrs.get("outcome") == "completed"
        )

    def latency_s(self, trace_id: int) -> float:
        return self.root(trace_id).duration_s

    def critical_spans(self, trace_id: int) -> list[Span]:
        return sorted(
            (s for s in self._trace(trace_id) if s.critical),
            key=lambda s: (s.start_s, s.span_id),
        )

    def breakdown(self, trace_id: int) -> dict[str, float]:
        """Critical seconds by span kind for one trace."""
        out = {kind: 0.0 for kind in LEAF_KINDS}
        for span in self.critical_spans(trace_id):
            out[span.kind] += span.duration_s
        return out

    def check(self, trace_id: int) -> None:
        """Audit one completed trace's conservation; raises on violation.

        The critical leaves must tile ``[arrival, finish]`` with shared
        endpoints (exact float equality — the tracer reuses boundary
        values, it never re-derives them) and therefore sum to the
        loop's reported latency.
        """
        root = self.root(trace_id)
        critical = self.critical_spans(trace_id)
        cursor = root.start_s
        for span in critical:
            if span.start_s != cursor:
                raise ValueError(
                    f"trace {trace_id}: critical span {span.span_id} starts at "
                    f"{span.start_s!r}, expected {cursor!r}"
                )
            cursor = span.end_s
        if cursor != root.end_s:
            raise ValueError(
                f"trace {trace_id}: critical tiling ends at {cursor!r}, "
                f"root ends at {root.end_s!r}"
            )
        total = sum(s.duration_s for s in critical)
        if not math.isclose(
            total, root.duration_s, rel_tol=1e-9, abs_tol=1e-15
        ):
            raise ValueError(
                f"trace {trace_id}: critical spans sum to {total!r} but the "
                f"reported latency is {root.duration_s!r}"
            )

    # -- aggregation -------------------------------------------------------

    def slowest(self, fraction: float = 0.1) -> tuple[int, ...]:
        """The slowest ``fraction`` of completed traces, worst first."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        ranked = sorted(
            self.completed_ids(),
            key=lambda tid: (-self.latency_s(tid), tid),
        )
        keep = max(1, math.ceil(len(ranked) * fraction)) if ranked else 0
        return tuple(ranked[:keep])

    def attribution(self, trace_ids=None) -> dict:
        """Aggregate critical attribution over ``trace_ids``.

        Returns ``{"requests", "latency_s", "kinds": {kind: {"total_s",
        "share", "mean_s"}}}``; shares are of the summed latency.
        """
        ids = self.completed_ids() if trace_ids is None else tuple(trace_ids)
        totals = {kind: 0.0 for kind in LEAF_KINDS}
        latency = 0.0
        for tid in ids:
            latency += self.latency_s(tid)
            for kind, seconds in self.breakdown(tid).items():
                totals[kind] += seconds
        kinds = {
            kind: {
                "total_s": seconds,
                "share": seconds / latency if latency > 0 else 0.0,
                "mean_s": seconds / len(ids) if ids else 0.0,
            }
            for kind, seconds in totals.items()
        }
        return {"requests": len(ids), "latency_s": latency, "kinds": kinds}

    def table(self, trace_ids=None, title: str | None = None) -> str:
        """The attribution rendered as a fixed-width ASCII table."""
        report = self.attribution(trace_ids)
        rows = [
            [
                kind,
                f"{row['total_s'] * 1e3:.3f}",
                f"{row['share'] * 100.0:.1f}%",
                f"{row['mean_s'] * 1e3:.3f}",
            ]
            for kind, row in report["kinds"].items()
        ]
        rows.append(
            [
                "total",
                f"{report['latency_s'] * 1e3:.3f}",
                "100.0%" if report["latency_s"] > 0 else "0.0%",
                (
                    f"{report['latency_s'] / report['requests'] * 1e3:.3f}"
                    if report["requests"]
                    else "0.000"
                ),
            ]
        )
        heading = title or f"Latency attribution ({report['requests']} requests)"
        return format_table(
            ["span", "total_ms", "share", "mean_ms"], rows, title=heading
        )

    def folded(self, trace_ids=None) -> dict[str, float]:
        """Flamegraph folded stacks: ``path;to;span -> total seconds``.

        Every leaf span contributes its duration under the
        semicolon-joined names of its ancestor chain, critical or not —
        off-path hedge/speculation work shows up as its own frames.
        """
        ids = set(self.trace_ids() if trace_ids is None else trace_ids)
        out: dict[str, float] = {}
        for tid in sorted(ids):
            spans = self._trace(tid)
            index = {span.span_id: span for span in spans}
            for span in spans:
                if span.kind not in LEAF_KINDS:
                    continue
                parts = [span.name]
                parent = span.parent_id
                while parent is not None:
                    node = index[parent]
                    parts.append(node.name)
                    parent = node.parent_id
                path = ";".join(reversed(parts))
                out[path] = out.get(path, 0.0) + span.duration_s
        return dict(sorted(out.items()))
