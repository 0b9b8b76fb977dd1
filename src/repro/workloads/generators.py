"""Trace generators: :class:`WorkloadSpec` → concrete request stream.

Every family is deterministic given the spec: identical specs always
produce identical traces, and every random choice flows through a
seed derived from (family, knobs, master seed) so families do not
share — or perturb — each other's streams.

Two consumption modes share one draw path.  :func:`make_workload`
materializes the whole trace as a :class:`Workload` (tests, small
replays); :func:`stream_requests` / :func:`stream_timed_items` yield
the *same* requests lazily, one object at a time, so a million-request
trace costs one integer draw array rather than a million live request
objects — the contract the event-driven serving benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..graphs.builders import chain_universe
from ..graphs.graph import TaskGraph
from ..serving.trace import GraphServingRequest, ServingRequest, zipf_draws
from ..util.rng import rng_for
from .arrivals import arrival_times
from .spec import DriftEvent, WorkloadSpec

#: A trace position resolves to either a kernel key or a whole graph.
AnyServingRequest = ServingRequest | GraphServingRequest

__all__ = [
    "AnyServingRequest",
    "Workload",
    "make_workload",
    "stream_requests",
    "stream_timed_items",
]

#: Quantization of the diurnal skew ramp: weights are recomputed per
#: bucket, not per request, bounding the generator at O(buckets × keys).
_DIURNAL_BUCKETS = 16


@dataclass(frozen=True)
class Workload:
    """A generated trace: the requests plus the drift schedule.

    The request stream and the platform drift events are one timeline;
    :meth:`items` yields them interleaved in serving order.
    """

    spec: WorkloadSpec
    requests: tuple[AnyServingRequest, ...]
    drift_events: tuple[DriftEvent, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def items(self) -> Iterator[DriftEvent | AnyServingRequest]:
        """Drift events and requests, interleaved in serving order.

        Every event fires *before* the request sharing its index;
        events at or past the end of the trace fire after the last
        request.
        """
        pending = list(self.drift_events)
        for i, request in enumerate(self.requests):
            while pending and pending[0].at_request <= i:
                yield pending.pop(0)
            yield request
        yield from pending

    def timed_items(
        self,
    ) -> Iterator[tuple[float, DriftEvent | AnyServingRequest]]:
        """The :meth:`items` timeline with arrival timestamps attached.

        This is the event-loop feed: a drift event carries the
        timestamp of the request whose index it fires before, so the
        merged stream stays non-decreasing in time.
        """
        times = arrival_times(self.spec, len(self.requests))
        yield from _attach_times(self.items(), times)


def _attach_times(
    items: Iterator[DriftEvent | AnyServingRequest], times: np.ndarray
) -> Iterator[tuple[float, DriftEvent | AnyServingRequest]]:
    """Zip arrival timestamps onto an interleaved request/drift stream."""
    i = 0
    last = 0.0
    for item in items:
        if isinstance(item, DriftEvent):
            # Fires before request i (or after the trace): its place on
            # the clock is that request's arrival instant.
            at = float(times[i]) if i < len(times) else last
            yield at, item
        else:
            last = float(times[i])
            i += 1
            yield last, item


def _zipf_weights(count: int, skew: float) -> np.ndarray:
    """Normalized Zipf mass over ``count`` ranks (skew 0 = uniform)."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** skew
    return weights / weights.sum()


def _requests(
    ranked: Sequence[tuple[str, int] | TaskGraph],
    draws: Iterable[int],
    start_id: int,
) -> Iterator[AnyServingRequest]:
    """One segment's requests, numbered from ``start_id``.

    A segment ranks one kind of item, so the kind is decided once per
    segment, not per request.
    """
    numbered = enumerate(draws, start_id)
    if ranked and isinstance(ranked[0], TaskGraph):
        return (GraphServingRequest(i, ranked[j]) for i, j in numbered)
    return (ServingRequest(i, *ranked[j]) for i, j in numbered)


def _phase_shift_segments(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[tuple[list[tuple[str, int]], np.ndarray]]:
    """Hot set rotates: each phase reshuffles the key-to-rank mapping."""
    weights = _zipf_weights(len(keys), spec.skew)
    base, remainder = divmod(spec.num_requests, spec.phases)
    for phase in range(spec.phases):
        length = base + (1 if phase < remainder else 0)
        if length == 0:
            continue
        rng = rng_for(
            "workload-phase", phase, len(keys), spec.skew, base_seed=spec.seed
        )
        ranked = list(keys)
        rng.shuffle(ranked)
        draws = rng.choice(len(ranked), size=length, p=weights)
        yield ranked, draws


def _flash_crowd_segments(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[tuple[list[tuple[str, int]], np.ndarray]]:
    """Stationary base stream with periodic single-key traffic spikes.

    Each burst promotes one key from the unpopular tail of the ranking
    to ``burst_share`` of the traffic for ``burst_length`` requests —
    the worst case for a prediction cache, because the spiking key has
    no warm entry and (if outside the training set) no good model
    answer either.
    """
    rng = rng_for(
        "workload-flash", len(keys), spec.skew, spec.burst_every, base_seed=spec.seed
    )
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = _zipf_weights(len(ranked), spec.skew)
    base_draws = rng.choice(len(ranked), size=spec.num_requests, p=weights)
    burst_flips = rng.random(spec.num_requests)
    draws = base_draws.copy()
    tail_start = len(ranked) // 2
    for start in range(spec.burst_every, spec.num_requests, spec.burst_every):
        # One tail key per burst; int() draw is deterministic from rng.
        burst_key = int(rng.integers(tail_start, len(ranked)))
        stop = min(start + spec.burst_length, spec.num_requests)
        for i in range(start, stop):
            if burst_flips[i] < spec.burst_share:
                draws[i] = burst_key
    yield ranked, draws


def _diurnal_segments(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[tuple[list[tuple[str, int]], np.ndarray]]:
    """Skew ramps sinusoidally between trough and peak concentration.

    The ranking is fixed (the same keys stay popular); what cycles is
    how *concentrated* the traffic is — near-uniform at the trough
    (cache-hostile, every key luke-warm) and sharply skewed at the
    peak.  The ramp starts at the trough.
    """
    rng = rng_for(
        "workload-diurnal", len(keys), spec.period, base_seed=spec.seed
    )
    ranked = list(keys)
    rng.shuffle(ranked)
    indices = np.arange(spec.num_requests)
    # 0 at the trough, 1 at the peak, period-cyclic.
    ramp = 0.5 - 0.5 * np.cos(2.0 * np.pi * indices / spec.period)
    buckets = np.minimum(
        (ramp * _DIURNAL_BUCKETS).astype(int), _DIURNAL_BUCKETS - 1
    )
    draws = np.zeros(spec.num_requests, dtype=int)
    for bucket in range(_DIURNAL_BUCKETS):
        positions = np.nonzero(buckets == bucket)[0]
        if positions.size == 0:
            continue
        centre = (bucket + 0.5) / _DIURNAL_BUCKETS
        skew = spec.skew_min + (spec.skew_max - spec.skew_min) * centre
        weights = _zipf_weights(len(ranked), skew)
        draws[positions] = rng.choice(len(ranked), size=positions.size, p=weights)
    yield ranked, draws


def _pipeline_segments(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[tuple[list[TaskGraph], np.ndarray]]:
    """Zipf-skewed task-graph stream over a role-based chain universe.

    The key universe is bucketed into pipeline roles (stencil → reduce
    → gemm) and composed into chains; the stream then draws whole
    graphs with the same popularity skew the kernel families use, so a
    hot pipeline warms the graph-level plan cache exactly as a hot
    kernel warms the kernel one.
    """
    graphs = chain_universe(keys)
    rng = rng_for("workload-pipeline", len(keys), spec.skew, base_seed=spec.seed)
    ranked = list(graphs)
    rng.shuffle(ranked)
    weights = _zipf_weights(len(ranked), spec.skew)
    draws = rng.choice(len(ranked), size=spec.num_requests, p=weights)
    yield ranked, draws


def _draw_segments(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[tuple[list[tuple[str, int]] | list[TaskGraph], np.ndarray]]:
    """(ranked keys, rank draws) runs, in request order.

    The single draw path both consumption modes share: each segment is
    one integer array plus one key ranking — O(num_requests) integers
    total, never O(num_requests) request objects.
    """
    if not keys:
        raise ValueError("empty key universe")
    if spec.family == "stationary":
        yield zipf_draws(keys, spec.num_requests, skew=spec.skew, seed=spec.seed)
    elif spec.family == "phase-shift":
        yield from _phase_shift_segments(spec, keys)
    elif spec.family == "flash-crowd":
        yield from _flash_crowd_segments(spec, keys)
    elif spec.family == "pipeline":
        yield from _pipeline_segments(spec, keys)
    else:
        yield from _diurnal_segments(spec, keys)


def stream_requests(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[AnyServingRequest]:
    """The spec's request stream, one lazily-built object at a time.

    Bit-identical to ``make_workload(spec, keys).requests`` — same rng
    calls, same ids — without ever materializing the tuple.
    """
    request_id = 0
    for ranked, draws in _draw_segments(spec, keys):
        yield from _requests(ranked, draws, request_id)
        request_id += len(draws)


def stream_timed_items(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Iterator[tuple[float, DriftEvent | ServingRequest]]:
    """The full event-loop feed, streamed: (timestamp, request | drift).

    Drift events are interleaved at their trace positions exactly as
    :meth:`Workload.items` does, each stamped with the arrival instant
    of the request it precedes.
    """
    times = arrival_times(spec)
    pending = list(spec.drift_events)

    def interleaved() -> Iterator[DriftEvent | AnyServingRequest]:
        i = 0
        for request in stream_requests(spec, keys):
            while pending and pending[0].at_request <= i:
                yield pending.pop(0)
            yield request
            i += 1
        yield from pending

    yield from _attach_times(interleaved(), times)


def make_workload(
    spec: WorkloadSpec, keys: Sequence[tuple[str, int]]
) -> Workload:
    """Generate the request stream a spec describes over a key universe.

    The ``stationary`` family reproduces :func:`repro.serving.zipf_trace`
    bit for bit — existing replay/scaling baselines keep their traces.
    """
    requests: list[AnyServingRequest] = []
    for ranked, draws in _draw_segments(spec, keys):
        # One ``tolist`` reads the draws as Python ints, not one NumPy
        # integer at a time.  The segment is built as its own list and
        # then copied in: extending ``requests`` from the generator
        # leaves a larger resident heap behind (about 0.7 MB more peak
        # RSS for a 120,000-request trace).
        requests.extend(list(_requests(ranked, draws.tolist(), len(requests))))
    return Workload(
        spec=spec, requests=tuple(requests), drift_events=spec.drift_events
    )
