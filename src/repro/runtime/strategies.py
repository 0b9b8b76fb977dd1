"""Task-partitioning strategies.

The paper evaluates its learned predictor against the two *default
strategies* — run everything on the CPU, or everything on (one) GPU —
and internally against the *oracle*, the best partitioning found by
exhaustive search during training.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..ocl.platform import Platform
from ..partitioning import Partitioning, partition_space

__all__ = [
    "cpu_only",
    "gpu_only",
    "even_split",
    "oracle_search",
    "StrategyFn",
]

#: A strategy maps a platform to a concrete partitioning.
StrategyFn = Callable[[Platform], Partitioning]


def cpu_only(platform: Platform) -> Partitioning:
    """100% of the work on the (fused) CPU device."""
    cpus = platform.cpu_indices
    if not cpus:
        raise ValueError(f"platform {platform.name} has no CPU device")
    return Partitioning.single_device(cpus[0], platform.num_devices)


def gpu_only(platform: Platform) -> Partitioning:
    """100% of the work on a single GPU (the paper's GPU-only default).

    A single-device OpenCL program uses one GPU even when two are
    installed, so the baseline deliberately ignores the second GPU.
    """
    gpus = platform.gpu_indices
    if not gpus:
        raise ValueError(f"platform {platform.name} has no GPU device")
    return Partitioning.single_device(gpus[0], platform.num_devices)


def even_split(platform: Platform) -> Partitioning:
    """The grid point closest to an even split over all devices."""
    return Partitioning.even(platform.num_devices)


def oracle_search(
    run: Callable[[Partitioning], float],
    space: Sequence[Partitioning] | None = None,
    num_devices: int = 3,
) -> tuple[Partitioning, float]:
    """Exhaustively evaluate the partition space; return (best, time).

    ``run`` measures one partitioning (seconds).  This is the training
    phase's label generator: the best task partitioning for a given
    (program, problem size, machine) triple.
    """
    if space is None:
        space = partition_space(num_devices)
    if not space:
        raise ValueError("empty partition space")
    best: Partitioning | None = None
    best_t = float("inf")
    for p in space:
        t = run(p)
        if t < best_t:
            best, best_t = p, t
    assert best is not None
    return best, best_t
