"""The memoized sweep/measurement engine.

Training sweeps (66 partition-space points per launch on the 10% grid)
and serving-time neighbourhood re-searches repeatedly simulate the same
per-device chunks: a device's timeline depends only on (kernel,
instance, device, chunk, iterations), and across a sweep the grid
chunks repeat heavily.  :class:`SweepEngine` caches each chunk's
deterministic command *tape* (noise-free per-command durations) and
composes makespans from the cached tapes, turning a sweep from
O(points × devices) full simulations into O(unique chunks per device)
plannings plus cheap compositions.

Tape keys come from item ranges: a device's ``(offset, count)`` in
:func:`~repro.partitioning.split_items` and the request's
:class:`~repro.runtime.plan.CommandTemplate` give its item count and the
element counts it transfers and reads back, through the same range
rules the scheduler plans with, and that key is computed only for an
exact ``(offset, count)`` chunk not seen before.  Those counts fix the
chunk's whole plan: on a tape miss
:func:`~repro.runtime.plan.plan_device_commands` turns them into the
chunk's ``(head, sync, tail)``, and nothing else is memoized about
planning.  A sweep is one pass over the partition space:
the drift check and the request lookup run once per call, and every
point is composed and recorded directly by the core that
:meth:`SweepEngine.measure` and :meth:`SweepEngine.price` share.

Noise fidelity: tapes are cached noise-free; when the runner carries a
measurement-noise model the engine replays each cached tape through the
scheduler's own :func:`~repro.runtime.plan.replay`, which perturbs each
duration through the runner's per-device noise streams in the order the
scheduler enqueues the commands — so memoized measurements are
bit-identical to unmemoized ones, at ``noise_sigma=0`` and under noise
alike (same stream, same labels, same order).

Energy rides on the same tapes: each cached command carries its
average dynamic watts next to its duration, both from one
:func:`~repro.runtime.plan.price_command` call, and ``replay`` turns
them into joules exactly as the scheduler does, so composed joules
(idle power over the makespan included) stay bit-identical to the
unmemoized path too — see :mod:`repro.energy`.  A tape miss prices each
distinct command of its head, sync block and tail once, and a
command's (seconds, watts) is memoized per (request, device, label,
amount) across tapes; the tape is then the scheduler's timeline,
``head + sync × (iterations − 1) + tail``.  The scheduler itself keeps
pricing every command it replays: it is the unmemoized reference the
engine is tested and benchmarked against.
"""

from .sweep import EngineStats, SweepEngine

__all__ = ["EngineStats", "SweepEngine"]
