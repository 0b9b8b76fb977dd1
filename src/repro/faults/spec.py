"""Declarative fault schedules: what breaks, when, and for how long.

A fault schedule is data, not behaviour — the same stance the workload
layer takes with :class:`~repro.workloads.DriftEvent`.  A
:class:`FaultSpec` names one injected condition (a replica crash, a
straggler slowdown window, a transient execution-error window, or a
prediction-path error window) pinned to the *simulated* clock, and a
:class:`FaultSchedule` is an ordered, seeded bundle of them.  Because
everything is declared up front and all randomness is derived from the
schedule seed, a faulted run is exactly as reproducible as a clean one:
two replays of the same schedule are bit-identical.

The event loop consumes schedules through
:class:`~repro.faults.injector.FaultInjector`, which compiles the specs
into per-replica windows and answers point queries ("is replica 2
crashed at t=1.25?", "does attempt 1 of request 517 hit a transient
error?") in O(active windows).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultSchedule"]

#: Every condition the injector can impose on the serving path.
FAULT_KINDS = ("crash", "straggler", "error", "predict-error")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, pinned to the simulated clock.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.

            * ``crash`` — the replica is down for ``duration_s``; its
              in-flight request is lost and recovery happens at the
              window's end.
            * ``straggler`` — service times on the replica are
              multiplied by ``magnitude`` while the window is active
              (the shared-machine interference HeMT measures).
            * ``error`` — each service *attempt* started in the window
              fails after executing, with probability ``magnitude``.
            * ``predict-error`` — the prediction path errors out before
              any execution, with probability ``magnitude``; the
              attempt costs one cache-miss span and produces nothing.
        at_s: window start on the simulated clock.
        duration_s: window length (for ``crash``: downtime before the
            replica recovers).
        magnitude: slowdown factor (``straggler``, must be positive) or
            failure probability (error kinds, in [0, 1]); unused for
            ``crash``.
        replica: index of the targeted replica, or ``None`` to hit
            every replica (a correlated fault).
    """

    kind: str
    at_s: float
    duration_s: float
    magnitude: float = 1.0
    replica: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not self.at_s >= 0:
            raise ValueError(f"at_s must be non-negative (got {self.at_s})")
        if not self.duration_s > 0:
            raise ValueError("duration_s must be positive")
        if self.kind == "straggler" and not self.magnitude > 0:
            raise ValueError("straggler magnitude must be a positive factor")
        if self.kind in ("error", "predict-error") and not (
            0.0 <= self.magnitude <= 1.0
        ):
            raise ValueError("error magnitude is a probability in [0, 1]")
        if self.replica is not None and self.replica < 0:
            raise ValueError("replica index must be non-negative")

    @property
    def end_s(self) -> float:
        """Instant the window closes (for ``crash``: the recovery time)."""
        return self.at_s + self.duration_s

    def active(self, t: float) -> bool:
        """Whether the window covers simulated instant ``t``.

        Windows are half-open ``[at_s, end_s)`` so back-to-back windows
        never double-cover an instant.
        """
        return self.at_s <= t < self.end_s


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, seeded bundle of faults for one run.

    The seed drives every probabilistic draw the schedule implies
    (transient error outcomes); window placement is fully declarative.
    Specs are kept sorted by start time so schedules compare and
    serialize canonically.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.specs,
                key=lambda s: (s.at_s, s.end_s, FAULT_KINDS.index(s.kind)),
            )
        )
        object.__setattr__(self, "specs", ordered)

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def horizon_s(self) -> float:
        """Instant the last window closes (0.0 for an empty schedule)."""
        return max((s.end_s for s in self.specs), default=0.0)
