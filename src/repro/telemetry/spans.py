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
attributes.  An unresolved attempt is one small list of markers; at
resolution the tracer walks them once and appends the trace's rows
straight into the columns, root first, so a trace's rows are
contiguous.  :attr:`Tracer.spans` and :attr:`Tracer.events` are
read-only sequence views over those columns that build each
:class:`Span` or event dict only when it is read.  Times are stored as
C doubles, so a time read back is the float the loop stamped.

Everything is stamped in simulated seconds and ordered by the loop's
own deterministic event order, so a faulted run exports a
byte-identical JSONL trace on every replay (see :meth:`Tracer.export`).
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat

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
(
    _REQUEST, _ATTEMPT, _RETRY, _HEDGE, _SPECULATION,
    _QUEUE, _PREDICT, _EXECUTE, _NETWORK, _BACKOFF,
) = range(len(_SPAN_TYPES))

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


#: An attempt's markers live in one list, the marker
#: :meth:`Tracer.enqueue` returns; these are its slots.  The start,
#: predict-end and network-start slots stay ``None`` while the attempt
#: is queued, and the end slot until it ends.
(
    _CODE, _REPLICA, _ENQUEUE, _START, _PREDICT_END, _NET_START, _END,
    _OUTCOME, _STOLEN_BY, _TRACE,
) = range(10)


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
    elif code == _REQUEST:
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
            build = self._build
            numbers = range(*index.indices(len(self)))
            rows = zip(*(column[index] for column in self._columns))
            return [build(number + 1, *row) for number, row in zip(numbers, rows)]
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
        #: A resolved trace's rows are contiguous, root first.
        self._span_columns = (
            array("q"), array("q"), array("B"), array("d"), array("d"),
            array("B"), [],
        )
        #: Event columns: instant, name, trace id (``_NO_TRACE`` for
        #: none), and the attrs flattened to ``(key, value, ...)``.
        self._event_columns = (array("d"), [], array("q"), [])
        self.traces_completed = 0
        self.traces_failed = 0
        #: Unresolved traces: trace id -> (arrival, request, markers).
        self._open: dict[int, tuple] = {}
        #: One stored ``(replica, outcome, stolen_by)`` per distinct value:
        #: most placements share a handful, and a row holds a reference.
        self._placements: dict[tuple, tuple] = {}

    @property
    def spans(self) -> Sequence[Span]:
        """Every emitted span, in emission order (a read-only view)."""
        return _ColumnView(self._span_columns, _build_span)

    @property
    def events(self) -> Sequence[dict]:
        """Structured event log entries, in emission order (a read-only view)."""
        return _ColumnView(self._event_columns, _build_event)

    def trace_rows(self) -> dict[int, range]:
        """Each resolved trace's span rows, as indices into :attr:`spans`."""
        rows: dict[int, range] = {}
        lo = 0
        for trace_id, run in groupby(self._span_columns[0]):
            hi = lo + sum(1 for _ in run)
            rows[trace_id] = range(lo, hi)
            lo = hi
        return rows

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
        self._open[trace_id] = (at_s, request, [])

    def enqueue(
        self,
        trace_id: int,
        at_s: float,
        replica: int,
        is_hedge: bool = False,
        is_spec: bool = False,
    ) -> list:
        """One attempt enters a replica queue; returns its marker."""
        markers = self._open[trace_id][2]
        if is_spec:
            code = _SPECULATION
        elif is_hedge:
            code = _HEDGE
        else:
            code = _RETRY if markers else _ATTEMPT
        marker = [code, replica, at_s, None, None, None, None, "queued", None, trace_id]
        markers.append(marker)
        return marker

    def start(
        self,
        marker: list,
        at_s: float,
        predict_end_s: float,
        net_start_s: float,
        finish_s: float,
        outcome: str,
    ) -> None:
        """The attempt starts service with a known predict/execute/network
        split; ``outcome`` is what the already-determined service draw
        will report (``ok`` / ``error`` / ``predict-error``)."""
        if net_start_s < predict_end_s:
            net_start_s = predict_end_s
        marker[_START:_STOLEN_BY] = at_s, predict_end_s, net_start_s, finish_s, outcome

    def fail_attempt(self, marker: list, at_s: float) -> None:
        marker[_END] = at_s

    def cancel_attempt(self, marker: list, at_s: float) -> None:
        marker[_END] = at_s
        marker[_OUTCOME] = "cancelled"

    def steal(self, marker: list, at_s: float, thief: int) -> None:
        """A queued attempt is pulled to an idle replica."""
        marker[_STOLEN_BY] = thief
        at_column, names, traces, attrs_column = self._event_columns
        at_column.append(at_s)
        names.append("steal")
        traces.append(marker[_TRACE])
        attrs_column.append(("victim", marker[_REPLICA], "thief", thief))

    # -- resolution --------------------------------------------------------

    def complete(self, trace_id: int, at_s: float, winner: list) -> None:
        """The request completed; fold its markers into the span tree."""
        arrival_s, request, markers = self._open.pop(trace_id)
        winner[_END] = at_s
        winner[_OUTCOME] = "ok"
        self.traces_completed += 1
        at_column, names, traces, attrs_column = self._event_columns
        at_column.append(at_s)
        names.append("complete")
        traces.append(trace_id)
        attrs_column.append(("latency_s", at_s - arrival_s))
        self._emit(trace_id, arrival_s, request, markers, at_s, winner, "completed")

    def fail(self, trace_id: int, at_s: float, reason: str) -> None:
        """The request was lost (timeout, retries exhausted, stranded)."""
        arrival_s, request, markers = self._open.pop(trace_id)
        self.traces_failed += 1
        self.event(at_s, "failed", trace_id=trace_id, reason=reason)
        for marker in markers:
            if marker[_END] is None:
                marker[_END] = at_s
        self._emit(trace_id, arrival_s, request, markers, at_s, None, reason)

    # -- span construction -------------------------------------------------

    def _emit(
        self, trace_id, arrival_s, request, markers, finish_s, winner, outcome
    ) -> None:
        """Append the resolved trace's span tree to the span columns.

        Each attempt's timeline is tiled into queue, predict, execute
        and network leaves, every boundary clamped to the attempt's end
        and zero-length leaves dropped.  Critical leaves are the
        winner's own plus the primary-chain attempts' up to the instant
        the winner was enqueued (the request waited through them in
        sequence; a leaf straddling that instant is split there).
        Hedge and speculative losers, and everything of a failed
        request, are off the critical path.  Attempts are appended in
        enqueue order, so their critical stretches arrive in time
        order; the holes between them (retry backoff limbo, when no
        attempt exists) become ``backoff`` leaves under the root, and
        the critical leaves tile ``[arrival, finish]`` with shared
        endpoints, so their durations sum to the latency.
        """
        trace_ids, parents, codes, starts, ends, crits, infos = self._span_columns
        placement_info = self._placements.setdefault
        parent, code, start = parents.append, codes.append, starts.append
        end, crit, info = ends.append, crits.append, infos.append
        root = len(parents) + 1
        parent(0)
        code(_REQUEST)
        start(arrival_s)
        end(finish_s)
        crit(0)
        info((request, outcome))
        if winner is not None:
            winner_enqueue_s = winner[_ENQUEUE]
        gaps = []
        cursor = arrival_s
        for marker in markers:
            (kind, replica, enqueue_s, start_s, predict_end_s, net_start_s,
             end_s, marker_outcome, stolen_by, _) = marker
            container = len(parents) + 1
            parent(root)
            code(kind)
            start(enqueue_s)
            end(end_s)
            crit(0)
            placement = (replica, marker_outcome, stolen_by)
            info(placement_info(placement, placement))
            # The instant up to which this attempt's leaves are critical.
            if winner is None or (kind > _RETRY and marker is not winner):
                critical_until = -math.inf
            elif marker is winner:
                critical_until = math.inf
            else:
                critical_until = winner_enqueue_s
            if critical_until > enqueue_s and end_s > enqueue_s:
                if enqueue_s > cursor:
                    gaps.append((cursor, enqueue_s))
                reach = end_s if end_s < critical_until else critical_until
                if reach > cursor:
                    cursor = reach
            if start_s is None:
                leaves = ((enqueue_s, end_s, _QUEUE),)
            else:
                if predict_end_s > end_s:
                    predict_end_s = end_s
                if net_start_s > end_s:
                    net_start_s = end_s
                leaves = (
                    (enqueue_s, start_s, _QUEUE),
                    (start_s, predict_end_s, _PREDICT),
                    (predict_end_s, net_start_s, _EXECUTE),
                    (net_start_s, end_s, _NETWORK),
                )
            for lo, hi, leaf in leaves:
                if hi <= lo:
                    continue
                if hi <= critical_until:
                    flag = 1
                elif lo >= critical_until:
                    flag = 0
                else:
                    parent(container)
                    code(leaf)
                    start(lo)
                    end(critical_until)
                    crit(1)
                    info(None)
                    lo, flag = critical_until, 0
                parent(container)
                code(leaf)
                start(lo)
                end(hi)
                crit(flag)
                info(None)
        if winner is not None:
            if cursor < finish_s:
                gaps.append((cursor, finish_s))
            for lo, hi in gaps:
                parent(root)
                code(_BACKOFF)
                start(lo)
                end(hi)
                crit(1)
                info(None)
        trace_ids.extend(repeat(trace_id, len(parents) - len(trace_ids)))

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
