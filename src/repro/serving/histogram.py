"""Bounded-memory streaming latency histograms.

A million-request trace must not keep a million per-request records
just to answer "what was the p99?".  The histogram keeps a fixed set
of geometrically-spaced buckets over ``[MIN_TRACKED_S, MAX_TRACKED_S]``
plus an exact zero counter, so memory is O(buckets) regardless of how
many observations stream through, and every counter is an integer —
two runs that observe bit-identical latencies produce bit-identical
histograms, which is what the determinism golden tests compare.

Quantile error bound: a value lands in the bucket
``[MIN * GAMMA^i, MIN * GAMMA^(i+1))`` and is reported as the bucket's
geometric midpoint, so any reported quantile is within a factor
``sqrt(GAMMA)`` of the true order statistic — a relative error of at
most :data:`QUANTILE_RELATIVE_ERROR` (~2.5% for ``GAMMA = 1.05``) for
values inside the tracked range.  Values outside the range clamp into
the edge buckets (and are additionally reported exactly through
``min_s`` / ``max_s``).
"""

from __future__ import annotations

import math

__all__ = [
    "GAMMA",
    "MIN_TRACKED_S",
    "MAX_TRACKED_S",
    "NUM_BUCKETS",
    "QUANTILE_RELATIVE_ERROR",
    "LatencyHistogram",
]

#: Geometric growth factor between adjacent bucket edges.
GAMMA = 1.05

#: Smallest / largest latency resolved by its own bucket (seconds).
MIN_TRACKED_S = 1e-7
MAX_TRACKED_S = 1e4

_LOG_GAMMA = math.log(GAMMA)

#: Fixed bucket count covering the tracked range — the whole memory
#: footprint of one histogram, independent of observation count.
NUM_BUCKETS = int(math.ceil(math.log(MAX_TRACKED_S / MIN_TRACKED_S) / _LOG_GAMMA))

#: Documented worst-case relative error of any reported quantile for
#: observations inside ``[MIN_TRACKED_S, MAX_TRACKED_S]``.
QUANTILE_RELATIVE_ERROR = math.sqrt(GAMMA) - 1.0


class LatencyHistogram:
    """Streaming histogram over seconds with O(1) record and O(buckets) memory."""

    __slots__ = ("_counts", "zeros", "count", "sum_s", "min_s", "max_s", "_cursor")

    def __init__(self) -> None:
        self._counts = [0] * NUM_BUCKETS
        #: Exact count of zero observations (an empty queue wait is
        #: common and must not be smeared into the smallest bucket).
        self.zeros = 0
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        #: Bucket of the last :meth:`quantile` answer, where the next
        #: walk starts.  Only a hint: any bucket index gives the same
        #: answer, so ``record`` and ``merge`` ignore it.
        self._cursor = 0

    def record(self, value_s: float) -> None:
        """Fold one observation in.

        Negative, NaN and infinite values are rejected with
        ``ValueError`` before any counter moves: the quantile walk
        relies on ``zeros + sum(counts) == count``.
        """
        if not 0.0 <= value_s < math.inf:
            raise ValueError(f"latencies are finite and non-negative, got {value_s}")
        self.count += 1
        self.sum_s += value_s
        if value_s < self.min_s:
            self.min_s = value_s
        if value_s > self.max_s:
            self.max_s = value_s
        if value_s == 0.0:
            self.zeros += 1
            return
        index = int(math.log(value_s / MIN_TRACKED_S) / _LOG_GAMMA)
        if index < 0:
            index = 0
        elif index >= NUM_BUCKETS:
            index = NUM_BUCKETS - 1
        self._counts[index] += 1

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    @property
    def counts(self) -> tuple[int, ...]:
        """The raw bucket counters (bit-comparable across runs)."""
        return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) in seconds.

        Reported as the geometric midpoint of the bucket holding the
        rank-``ceil(q * count)`` observation, clamped into the exact
        observed ``[min_s, max_s]`` — the clamp can only tighten the
        :data:`QUANTILE_RELATIVE_ERROR` bound, never loosen it.  The
        edges are exact: ``quantile(0.0)`` is the observed minimum,
        ``quantile(1.0)`` the observed maximum; an empty histogram
        reports 0.0 for any ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min_s
        if q == 1.0:
            return self.max_s
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zeros:
            return 0.0
        # The answer is the unique bucket i with
        # below < rank <= below + counts[i], where below counts the
        # observations under bucket i.  The speculation trigger asks
        # for the same q on every arrival, so the answer seldom moves:
        # walk to it from the last one.
        counts = self._counts
        i = self._cursor
        below = self.zeros + sum(counts[:i])
        while below >= rank:  # down; zeros < rank stops it at i >= 0
            i -= 1
            below -= counts[i]
        while below + counts[i] < rank:  # up; the counts sum to count >= rank
            below += counts[i]
            i += 1
        self._cursor = i
        estimate = MIN_TRACKED_S * GAMMA ** (i + 0.5)
        return min(max(estimate, self.min_s), self.max_s)

    def quantiles(self) -> dict[str, float]:
        """The serving-dashboard trio: p50 / p95 / p99 (seconds)."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (fleet-level aggregation)."""
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.zeros += other.zeros
        self.count += other.count
        self.sum_s += other.sum_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    def to_dict(self) -> dict:
        """JSON-friendly summary (quantiles + exact extrema, no buckets)."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            **{k + "_s": v for k, v in self.quantiles().items()},
        }
