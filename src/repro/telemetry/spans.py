"""Request-scoped tracing over the simulated-time serving loop.

Every admitted request carries one trace.  The event loop feeds the
:class:`Tracer` raw markers as they happen — enqueue, service start
(with the predict/execute/network split), attempt failure, cancel,
steal — and at resolution the tracer folds the markers into a span
tree:

* one ``request`` root span covering ``[arrival, finish]``;
* one ``placement`` container span per service attempt (named
  ``attempt`` / ``retry`` / ``hedge`` / ``speculation``), carrying the
  replica it was placed on — a cluster request's cross-pool hop nests
  under the placement that caused it;
* leaf spans under each placement: ``queue`` (wait in the replica's
  queue), ``predict`` (cache hit or model inference), ``execute``
  (measured kernel time), ``network`` (the interconnect handoff a
  cluster charges for serving outside the tenant's home pool);
* ``backoff`` spans directly under the root for retry-backoff limbo,
  where no attempt exists at all.

Criticality: the leaves that *explain the latency* — the winning
attempt's spans plus everything the request sequentially waited
through before the winner was enqueued (failed attempts, backoff) —
are flagged ``critical`` and tile ``[arrival, finish]`` exactly, so
their durations sum to the loop's reported latency.  Losing hedge /
speculative copies and work cancelled mid-flight run in parallel with
the critical path and are emitted with ``critical=False``.

Storage: a traced run keeps one column per span field (typed arrays
for ids, times and flags, a code for the span's name and kind) and one
per event field, plus the few values a root or placement needs for its
attributes.  :attr:`Tracer.spans` and :attr:`Tracer.events` are
read-only sequence views over those columns that build each
:class:`Span` or event dict only when it is read.  Times are stored as
C doubles, so a time read back is the float the loop stamped.

Everything is stamped in simulated seconds and ordered by the loop's
own deterministic event order, so a faulted run exports a
byte-identical JSONL trace on every replay (see :meth:`Tracer.export`).
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

__all__ = ["SPAN_KINDS", "Span", "Tracer"]

#: Every span kind the tracer emits.
SPAN_KINDS = (
    "request",
    "placement",
    "queue",
    "predict",
    "execute",
    "network",
    "backoff",
)

#: Leaf kinds whose critical instances tile ``[arrival, finish]``.
LEAF_KINDS = ("queue", "predict", "execute", "network", "backoff")

#: Every (name, kind) a span can have; a span stores its index here.
#: Code 0 is the root and codes 1-4 are placements.
_SPAN_TYPES = (
    ("request", "request"),
    ("attempt", "placement"),
    ("retry", "placement"),
    ("hedge", "placement"),
    ("speculation", "placement"),
    *((kind, kind) for kind in LEAF_KINDS),
)
_CODES = {name: code for code, (name, _kind) in enumerate(_SPAN_TYPES)}
_BACKOFF = _CODES["backoff"]

#: The trace column's entry for an event that belongs to no trace (the
#: loop's trace ids are its admission sequence numbers, all positive).
_NO_TRACE = -1


@dataclass(slots=True)
class Span:
    """One node of a request's span tree, in simulated seconds.

    The tracer stores spans as columns and builds a Span each time one
    is read, so a Span is a copy: changing it changes nothing stored.
    """

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start_s: float
    end_s: float
    #: On the winning chain that tiles ``[arrival, finish]``.
    critical: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_record(self) -> dict:
        """The JSONL line payload for this span."""
        record = {
            "type": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "critical": self.critical,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


@dataclass(slots=True)
class _AttemptRecord:
    """Raw markers of one service attempt, folded into spans at resolution."""

    tid: int
    trace_id: int
    index: int
    replica: int
    is_hedge: bool
    is_spec: bool
    enqueue_s: float
    start_s: float | None = None
    predict_end_s: float | None = None
    net_start_s: float | None = None
    end_s: float | None = None
    outcome: str = "queued"
    stolen_by: int | None = None

    @property
    def name(self) -> str:
        if self.is_spec:
            return "speculation"
        if self.is_hedge:
            return "hedge"
        return "retry" if self.index > 0 else "attempt"

    @property
    def primary(self) -> bool:
        """On the sequential first-attempt/retry chain (not a racer)."""
        return not self.is_hedge and not self.is_spec

    def segments(self) -> list[tuple[float, float, str]]:
        """The attempt's timeline tiled into leaf segments.

        Cancellation can cut an attempt anywhere, so every boundary is
        clamped to the actual end; zero-length segments are dropped by
        the caller (their shared endpoints keep the tiling continuous).
        """
        end = self.end_s
        if self.start_s is None:
            return [(self.enqueue_s, end, "queue")]
        segs = [(self.enqueue_s, self.start_s, "queue")]
        segs.append((self.start_s, min(self.predict_end_s, end), "predict"))
        if end > self.predict_end_s:
            segs.append((self.predict_end_s, min(self.net_start_s, end), "execute"))
            if end > self.net_start_s:
                segs.append((self.net_start_s, end, "network"))
        return segs


@dataclass(slots=True)
class _OpenTrace:
    """One admitted request's trace while the request is unresolved."""

    trace_id: int
    arrival_s: float
    request: object
    records: list[_AttemptRecord] = field(default_factory=list)


def _request_attrs(request) -> dict:
    graph = getattr(request, "graph", None)
    attrs = {
        "request_id": request.request_id,
        "tenant": request.tenant,
    }
    if graph is not None:
        attrs["graph"] = len(graph.nodes) if hasattr(graph, "nodes") else True
    else:
        attrs["program"] = request.program
        attrs["size"] = request.size
    return attrs


def _build_span(span_id, trace_id, parent, code, start, end, critical, info):
    """One stored span as the :class:`Span` the tracer emitted.

    ``info`` is ``None`` for a leaf, ``(request, outcome)`` for a root
    and ``(replica, outcome, stolen_by)`` for a placement.
    """
    name, kind = _SPAN_TYPES[code]
    if info is None:
        attrs = {}
    elif code == 0:
        request, outcome = info
        attrs = _request_attrs(request)
        attrs["outcome"] = outcome
    else:
        replica, outcome, stolen_by = info
        attrs = {"replica": replica, "outcome": outcome}
        if stolen_by is not None:
            attrs["stolen_by"] = stolen_by
    return Span(
        trace_id, span_id, parent or None, name, kind, start, end,
        critical == 1, attrs,
    )


def _build_event(seq, at_s, name, trace_id, attrs):
    """One stored event as the dict the tracer logged.

    ``attrs`` is the flattened ``(key, value, key, value, ...)`` tuple.
    """
    entry = {"type": "event", "seq": seq, "at_s": at_s, "name": name}
    if trace_id != _NO_TRACE:
        entry["trace"] = trace_id
    if attrs:
        entry["attrs"] = dict(zip(attrs[::2], attrs[1::2]))
    return entry


class _ColumnView(Sequence):
    """A read-only sequence over equal-length columns, one record per row.

    ``len`` builds nothing; indexing, slicing and iteration build each
    record afresh with ``build(index + 1, *row)``.  The view holds the
    columns, never the tracer, so a dropped tracer is freed by
    reference counting alone.
    """

    __slots__ = ("_columns", "_build")

    def __init__(self, columns: tuple, build) -> None:
        self._columns = columns
        self._build = build

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("trace record index out of range")
        return self._build(index + 1, *(column[index] for column in self._columns))

    def __iter__(self):
        build = self._build
        for number, row in enumerate(zip(*self._columns), 1):
            yield build(number, *row)


class Tracer:
    """Collects spans and structured events from one event-loop run.

    A span's id is its emission index + 1 and an event's ``seq`` is its
    index + 1, so neither is stored.
    """

    def __init__(self) -> None:
        #: Span columns: trace id, parent id (0 for a root), code into
        #: ``_SPAN_TYPES``, start, end, critical flag, and the values a
        #: root or placement builds its attrs from (``None`` for a leaf).
        self._span_columns = (
            array("q"), array("q"), array("B"), array("d"), array("d"),
            array("B"), [],
        )
        #: Event columns: instant, name, trace id (``_NO_TRACE`` for
        #: none), and the attrs flattened to ``(key, value, ...)``.
        self._event_columns = (array("d"), [], array("q"), [])
        self.traces_completed = 0
        self.traces_failed = 0
        self._open: dict[int, _OpenTrace] = {}
        self._records: dict[int, _AttemptRecord] = {}
        self._next_tid = 0

    @property
    def spans(self) -> Sequence[Span]:
        """Every emitted span, in emission order (a read-only view)."""
        return _ColumnView(self._span_columns, _build_span)

    @property
    def events(self) -> Sequence[dict]:
        """Structured event log entries, in emission order (a read-only view)."""
        return _ColumnView(self._event_columns, _build_event)

    # -- structured event log ----------------------------------------------

    def event(self, at_s: float, name: str, trace_id: int | None = None, **attrs):
        """Append one structured event at simulated instant ``at_s``."""
        at_column, names, traces, attrs_column = self._event_columns
        at_column.append(at_s)
        names.append(name)
        traces.append(_NO_TRACE if trace_id is None else trace_id)
        attrs_column.append(tuple(chain.from_iterable(attrs.items())))

    # -- markers fed by the event loop -------------------------------------

    def begin(self, trace_id: int, at_s: float, request) -> None:
        """An admitted request starts its trace at arrival."""
        self._open[trace_id] = _OpenTrace(trace_id, at_s, request)

    def enqueue(
        self,
        trace_id: int,
        at_s: float,
        replica: int,
        is_hedge: bool = False,
        is_spec: bool = False,
    ) -> int:
        """One attempt enters a replica queue; returns its marker id."""
        trace = self._open[trace_id]
        self._next_tid += 1
        record = _AttemptRecord(
            self._next_tid,
            trace_id,
            len(trace.records),
            replica,
            is_hedge,
            is_spec,
            at_s,
        )
        trace.records.append(record)
        self._records[record.tid] = record
        return record.tid

    def start(
        self,
        tid: int,
        at_s: float,
        predict_end_s: float,
        net_start_s: float,
        finish_s: float,
        outcome: str,
    ) -> None:
        """The attempt starts service with a known predict/execute/network
        split; ``outcome`` is what the already-determined service draw
        will report (``ok`` / ``error`` / ``predict-error``)."""
        record = self._records[tid]
        record.start_s = at_s
        record.predict_end_s = predict_end_s
        record.net_start_s = max(net_start_s, predict_end_s)
        record.end_s = finish_s
        record.outcome = outcome

    def fail_attempt(self, tid: int, at_s: float) -> None:
        record = self._records[tid]
        record.end_s = at_s

    def cancel_attempt(self, tid: int, at_s: float) -> None:
        record = self._records[tid]
        record.end_s = at_s
        record.outcome = "cancelled"

    def steal(self, tid: int, at_s: float, thief: int) -> None:
        """A queued attempt is pulled to an idle replica."""
        record = self._records[tid]
        record.stolen_by = thief
        self.event(
            at_s, "steal", trace_id=record.trace_id,
            victim=record.replica, thief=thief,
        )

    # -- resolution --------------------------------------------------------

    def complete(self, trace_id: int, at_s: float, winner_tid: int) -> None:
        """The request completed; fold its markers into the span tree."""
        trace = self._open.pop(trace_id)
        winner = self._records[winner_tid]
        winner.end_s = at_s
        winner.outcome = "ok"
        self.traces_completed += 1
        self.event(
            at_s, "complete", trace_id=trace_id,
            latency_s=at_s - trace.arrival_s,
        )
        self._emit(trace, finish_s=at_s, winner=winner, outcome="completed")
        self._drop(trace)

    def fail(self, trace_id: int, at_s: float, reason: str) -> None:
        """The request was lost (timeout, retries exhausted, stranded)."""
        trace = self._open.pop(trace_id)
        self.traces_failed += 1
        self.event(at_s, "failed", trace_id=trace_id, reason=reason)
        for record in trace.records:
            if record.end_s is None:
                record.end_s = at_s
        self._emit(trace, finish_s=at_s, winner=None, outcome=reason)
        self._drop(trace)

    def _drop(self, trace: _OpenTrace) -> None:
        for record in trace.records:
            del self._records[record.tid]

    # -- span construction -------------------------------------------------

    def _emit(self, trace, finish_s, winner, outcome) -> None:
        """Emit the resolved trace's span tree.

        Critical leaves are the winner's own segments plus the clipped
        primary-chain segments before the winner was enqueued; the gaps
        in between (retry backoff limbo, when no attempt exists) become
        ``backoff`` spans, so critical leaves tile ``[arrival, finish]``
        with shared endpoints and their durations sum to the latency.
        The tree's rows go into the span columns in one batch.
        """
        trace_id = trace.trace_id
        columns = self._span_columns
        root = len(columns[0]) + 1
        rows = [
            (trace_id, 0, 0, trace.arrival_s, finish_s, False,
             (trace.request, outcome)),
        ]
        w_enq = winner.enqueue_s if winner is not None else None
        critical_leaves: list[tuple[float, float]] = []
        for record in trace.records:
            container = root + len(rows)
            rows.append((
                trace_id, root, _CODES[record.name], record.enqueue_s,
                record.end_s, False,
                (record.replica, record.outcome, record.stolen_by),
            ))
            for seg_start, seg_end, seg_kind in record.segments():
                if seg_end <= seg_start:
                    continue
                for lo, hi, crit in self._criticality(
                    record, winner, w_enq, seg_start, seg_end
                ):
                    if hi <= lo:
                        continue
                    rows.append(
                        (trace_id, container, _CODES[seg_kind], lo, hi, crit, None)
                    )
                    if crit:
                        critical_leaves.append((lo, hi))
        if winner is not None:
            for lo, hi in self._gaps(trace.arrival_s, finish_s, critical_leaves):
                rows.append((trace_id, root, _BACKOFF, lo, hi, True, None))
        for column, values in zip(columns, zip(*rows)):
            column.extend(values)

    @staticmethod
    def _criticality(record, winner, w_enq, start, end):
        """Split one segment into (lo, hi, critical) parts.

        The winner is critical end to end.  A primary-chain record is
        critical up to the instant the winner was enqueued — the
        request was sequentially waiting through it — and off-path
        after that (it raced the winner and lost).  Hedge/speculative
        losers are never critical.
        """
        if winner is None:
            return ((start, end, False),)
        if record is winner:
            return ((start, end, True),)
        if not record.primary or start >= w_enq:
            return ((start, end, False),)
        if end <= w_enq:
            return ((start, end, True),)
        return ((start, w_enq, True), (w_enq, end, False))

    @staticmethod
    def _gaps(arrival_s, finish_s, critical_leaves) -> list[tuple[float, float]]:
        """The critical-tiling gaps, which become backoff spans."""
        cursor = arrival_s
        gaps: list[tuple[float, float]] = []
        for lo, hi in sorted(critical_leaves):
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < finish_s:
            gaps.append((cursor, finish_s))
        return gaps

    # -- export ------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every JSONL record, in deterministic emission order."""
        head = {
            "type": "header",
            "version": 1,
            "events": len(self.events),
            "spans": len(self.spans),
            "completed": self.traces_completed,
            "failed": self.traces_failed,
        }
        out = [head]
        out.extend(self.events)
        out.extend(span.to_record() for span in self.spans)
        return out

    def export_lines(self) -> list[str]:
        """Canonical JSONL lines — byte-identical across seeded replays."""
        return [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.records()
        ]

    def export(self, path) -> int:
        """Write the JSONL trace to ``path``; returns the line count."""
        lines = self.export_lines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        return len(lines)
