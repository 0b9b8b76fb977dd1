"""The unified metrics registry: counters, gauges, histograms, one namespace.

Every serving layer used to keep its own aggregate struct
(``EventLoopStats``, ``FleetStats``, ``ClusterStats``, per-tenant
isolation meters) and every report had to know which struct held which
number.  The registry replaces that with one flat namespace of stable
dotted names — ``loop.completed``, ``cluster.cross_pool``,
``slo.tenant.gold.violations`` — holding exactly three metric shapes:

* :class:`Counter` — a monotone scalar (int or float), incremented in
  place on the hot path.  Integer counters stay integers, so JSON
  round-trips and determinism baselines compare bit for bit.
* :class:`Gauge` — a last-value scalar (the loop clock, a health score).
* log-bucketed histograms — the serving layer's existing
  :class:`~repro.serving.histogram.LatencyHistogram`, registered under
  a name instead of living loose in a struct.

Registration is idempotent per (name, shape): asking for an existing
name returns the same cell, asking for it under a different shape is a
loud error.  :meth:`MetricsRegistry.snapshot` renders everything
JSON-ready in sorted-name order, so two deterministic runs produce
byte-identical reports.
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """A monotone scalar cell; ``value`` is mutated in place."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value scalar cell (not assumed monotone)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class MetricsRegistry:
    """One namespace of named metric cells, shared across serving layers."""

    def __init__(self) -> None:
        self._cells: dict[str, object] = {}

    def _register(self, name: str, kind: type, factory):
        if not name:
            raise ValueError("metric names must be non-empty")
        cell = self._cells.get(name)
        if cell is None:
            cell = factory()
            self._cells[name] = cell
            return cell
        if not isinstance(cell, kind):
            raise ValueError(
                f"metric {name!r} is already registered as "
                f"{type(cell).__name__}, not {kind.__name__}"
            )
        return cell

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._register(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str):
        # Imported lazily: repro.serving imports this module at load
        # time, so a module-level import back into repro.serving would
        # be circular.
        from ..serving.histogram import LatencyHistogram

        return self._register(name, LatencyHistogram, LatencyHistogram)

    # -- reading -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def names(self) -> tuple[str, ...]:
        """Every registered name, sorted (the report order)."""
        return tuple(sorted(self._cells))

    def get(self, name: str):
        """The raw cell under ``name`` (KeyError when absent)."""
        return self._cells[name]

    def value(self, name: str):
        """The scalar value of a counter/gauge, or a histogram's count."""
        cell = self._cells[name]
        if isinstance(cell, (Counter, Gauge)):
            return cell.value
        return cell.count

    def snapshot(self) -> dict:
        """JSON-ready dump: scalars verbatim, histograms summarized.

        Keys come out in sorted-name order, so a deterministic run
        serializes to a byte-identical report.
        """
        out: dict = {}
        for name in sorted(self._cells):
            cell = self._cells[name]
            if isinstance(cell, (Counter, Gauge)):
                out[name] = cell.value
            else:
                out[name] = cell.to_dict()
        return out
