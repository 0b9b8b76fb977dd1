"""Sliding-window drift detection for the serving loop.

The service's original adaptation trigger was a *single-run* check:
one measurement more than ``regression_threshold`` over the estimate
re-searches the key.  That catches gross mispredictions but is blind to
the two ways production actually degrades:

* **noise masking** — under measurement jitter a single bad run is
  indistinguishable from a genuinely drifted key, so a one-shot
  trigger either over-fires (wasting probes) or is tuned so slack it
  misses slow degradation entirely;
* **budget exhaustion** — once a key's adaptation budget is spent,
  later *platform* drift (the hardware itself changed speed) can never
  trigger another search, leaving the service frozen on pre-drift
  decisions.

The :class:`DriftDetector` replaces sole reliance on that check with a
per-key EWMA of the measured/predicted makespan ratio inside a sliding
request window: a key is flagged only when its *smoothed* ratio stays
past the threshold across several observations, and a burst of flags
across many keys inside the window escalates to platform-level drift
(cache flush + refit) instead of key-by-key firefighting.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = ["DriftDetector"]


@dataclass
class _KeyState:
    """Per-key EWMA bookkeeping."""

    ewma: float = 1.0
    observations: int = 0
    cooldown: int = 0


class DriftDetector:
    """Per-key EWMA drift detection with a sliding escalation window."""

    def __init__(
        self,
        window: int = 32,
        alpha: float = 0.4,
        threshold: float = 0.3,
        min_observations: int = 3,
        cooldown: int = 8,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.alpha = alpha
        self.threshold = threshold
        self.min_observations = min_observations
        self.cooldown = cooldown
        self._keys: dict[object, _KeyState] = {}
        self._window: deque[bool] = deque(maxlen=window)

    def observe(self, key: object, measured_s: float, estimate_s: float) -> bool:
        """Fold one measurement into the key's EWMA; True when flagged.

        A flag means the key's smoothed measured/estimate ratio sat
        outside ``[1/(1+threshold), 1+threshold]`` for at least
        ``min_observations`` non-cooldown observations — sustained
        disagreement, not one noisy run.  Detection is two-sided:
        a device that *speeds up* (recovered contention, a drift scale
        above 1) leaves the cached decision just as stale as a
        slow-down — the optimal split moved either way — so sustained
        over-estimation triggers the same re-search and re-baselining.
        Flagging resets the key's state (the caller re-baselines the
        estimate) and starts a cooldown so one drift cannot fire a
        search storm.
        """
        if estimate_s <= 0 or not math.isfinite(estimate_s):
            return False
        ratio = measured_s / estimate_s
        if not math.isfinite(ratio):
            # An infinite cost (e.g. a cap-infeasible measurement under
            # the energy-capped objective) carries no ratio information
            # — folding it in would poison the EWMA with inf/NaN
            # forever.  The regression check handles infeasibility.
            return False
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyState(ewma=ratio)
        else:
            state.ewma = self.alpha * ratio + (1.0 - self.alpha) * state.ewma
        state.observations += 1
        flagged = False
        if state.cooldown > 0:
            state.cooldown -= 1
        elif state.observations >= self.min_observations and (
            state.ewma > 1.0 + self.threshold
            or state.ewma < 1.0 / (1.0 + self.threshold)
        ):
            flagged = True
            # Fresh evidence required before this key can flag again.
            state.ewma = 1.0
            state.observations = 0
            state.cooldown = self.cooldown
        self._window.append(flagged)
        return flagged

    def flags_in_window(self) -> int:
        """Flags among the last ``window`` observations (any key)."""
        return sum(self._window)

    def publish_metrics(self, registry, prefix: str = "drift") -> None:
        """Publish detector state as ``drift.*`` gauges (idempotent)."""
        registry.gauge(f"{prefix}.flags_in_window").set(self.flags_in_window())
        registry.gauge(f"{prefix}.tracked_keys").set(len(self._keys))

    def reset(self) -> None:
        """Forget every key's state, after an escalation or a re-warm."""
        self._keys.clear()
        self._window.clear()
