"""Feature extraction: the two feature classes of the paper.

Section 4: *"we use two classes of features: static program features,
whose values can be extracted from the source code at compile time, and
problem size dependent runtime features, whose values are collected
during program execution."*

* Static features come from :meth:`KernelAnalysis.static_features` —
  per-work-item op counts with nominal loop trips, control-flow and
  access-pattern statistics.
* Runtime features re-evaluate the same counts against the launch's
  actual scalar arguments and combine them with the launch geometry:
  total work items, total flops, global traffic and — critically for
  the CPU/GPU decision — the host↔device transfer volume implied by the
  buffer distributions.

The combined vector is what the partitioning model consumes.  Feature
order is fixed and versioned so persisted databases stay compatible.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..benchsuite.base import ProblemInstance
from ..compiler.frontend import CompiledKernel
from ..compiler.splitter import DistributionKind
from ..inspire.ast import ParamIntent
from ..runtime.arrays import buffer_layout

__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "static_feature_dict",
    "runtime_feature_dict",
    "combined_features",
    "feature_names",
    "feature_vector",
]

FEATURE_SCHEMA_VERSION = 1

#: Features measured in counts/bytes: compressed with log1p before scaling.
MAGNITUDE_FEATURES = frozenset(
    {
        "st_int_ops",
        "st_float_ops",
        "st_transcendental_ops",
        "st_vector_ops",
        "st_loads",
        "st_stores",
        "st_atomics",
        "st_load_bytes",
        "st_store_bytes",
        "st_branches",
        "st_selects",
        "st_barriers",
        "st_arith_intensity",
        "st_loop_count",
        "st_loop_depth",
        "rt_items",
        "rt_iterations",
        "rt_ops_per_item",
        "rt_mem_bytes_per_item",
        "rt_total_flops",
        "rt_total_mem_bytes",
        "rt_transfer_in_bytes",
        "rt_transfer_out_bytes",
        "rt_split_transfer_in_bytes",
        "rt_flops_per_transfer_byte",
        "rt_arith_intensity",
    }
)


def static_feature_dict(compiled: CompiledKernel) -> dict[str, float]:
    """Static program features (compile-time only)."""
    return compiled.analysis.static_features()


def _transfer_volumes(
    compiled: CompiledKernel, instance: ProblemInstance
) -> tuple[float, float, float]:
    """(h2d bytes, d2h bytes, h2d bytes that scale with the split).

    ``FULL``/``REDUCED`` input buffers must reach *every* device that
    participates, so their cost grows with the number of active devices;
    split/halo buffers are shipped once in total.  The third component
    isolates the splittable share — a strong signal for whether
    multi-GPU partitionings pay off.
    """
    layout = buffer_layout(instance.arrays)
    h2d = 0.0
    d2h = 0.0
    h2d_split = 0.0
    for p in compiled.kernel.buffer_params:
        elements, itemsize = layout[p.name]
        nbytes = float(elements * itemsize)
        dist = compiled.distribution.of(p.name)
        if p.intent in (ParamIntent.IN, ParamIntent.INOUT):
            h2d += nbytes
            if dist.kind in (DistributionKind.SPLIT, DistributionKind.HALO):
                h2d_split += nbytes
        if p.intent in (ParamIntent.OUT, ParamIntent.INOUT):
            d2h += nbytes
    return h2d, d2h, h2d_split


def runtime_feature_dict(
    compiled: CompiledKernel, instance: ProblemInstance
) -> dict[str, float]:
    """Problem-size-dependent runtime features for one launch."""
    scalar_env = {k: float(v) for k, v in instance.scalars.items()}
    counts = compiled.analysis.op_counts(scalar_env)
    items = float(instance.total_items)
    iters = float(instance.iterations)
    flops_per_item = counts.float_ops + counts.transcendental_ops + counts.vector_ops
    ops_per_item = counts.compute_ops + counts.transcendental_ops
    mem_per_item = counts.mem_bytes
    h2d, d2h, h2d_split = _transfer_volumes(compiled, instance)
    transfer_total = h2d + d2h
    total_flops = items * flops_per_item * iters
    return {
        "rt_items": items,
        "rt_iterations": iters,
        "rt_ops_per_item": ops_per_item,
        "rt_mem_bytes_per_item": mem_per_item,
        "rt_total_flops": total_flops,
        "rt_total_mem_bytes": items * mem_per_item * iters,
        "rt_transfer_in_bytes": h2d,
        "rt_transfer_out_bytes": d2h,
        "rt_split_transfer_in_bytes": h2d_split,
        "rt_flops_per_transfer_byte": total_flops / max(transfer_total, 1.0),
        "rt_arith_intensity": min(counts.arithmetic_intensity, 1e6),
        "rt_divergence": counts.divergence_fraction,
        "rt_branches_per_item": counts.branches,
        "rt_atomics_per_item": counts.atomic_ops,
    }


def combined_features(
    compiled: CompiledKernel, instance: ProblemInstance
) -> dict[str, float]:
    """Static + runtime features for one (program, problem size) pair."""
    out = static_feature_dict(compiled)
    out.update(runtime_feature_dict(compiled, instance))
    return out


def feature_names(features: Mapping[str, float] | None = None) -> tuple[str, ...]:
    """Canonical (sorted) feature-name order for vectorization."""
    if features is None:
        raise ValueError("pass a feature dict to derive the name order")
    return tuple(sorted(features.keys()))


def feature_vector(
    features: Mapping[str, float],
    names: tuple[str, ...],
    log_magnitudes: bool = True,
) -> np.ndarray:
    """Vectorize a feature dict in the given name order.

    Magnitude-type features are ``log1p``-compressed (they span many
    orders of magnitude between a 4K vec-add and a 1024³ GEMM).
    """
    out = np.empty(len(names), dtype=np.float64)
    for i, name in enumerate(names):
        if name not in features:
            raise KeyError(f"feature {name!r} missing from the feature dict")
        v = float(features[name])
        if log_magnitudes and name in MAGNITUDE_FEATURES:
            v = float(np.log1p(max(v, 0.0)))
        out[i] = v
    return out
