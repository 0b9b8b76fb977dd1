"""ND-range splitting and buffer-distribution analysis.

The single-device → multi-device translation has two halves:

1. **Range splitting** — the global ND-range is cut along the partition
   axis into contiguous per-device chunks (``repro.partitioning``).
2. **Data distribution** — for every buffer, decide which elements each
   device needs: its proportional slice (``SPLIT``), its slice plus a
   halo (``HALO``, stencils), the full buffer (``FULL``, e.g. the B
   matrix of a GEMM), or a private full copy merged by reduction after
   execution (``REDUCED``, e.g. histograms).

Distributions are derived automatically from the kernel's index
expressions where possible and can be overridden by the benchmark
(mirroring how Insieme combines analysis with annotations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from ..inspire import ast as ir
from ..inspire.analysis import (
    KernelAnalysis,
    _LinearForm,
    _linearize,
    _single_assignment_map,
    _substitute_locals,
)

__all__ = [
    "DistributionKind",
    "BufferDistribution",
    "KernelDistribution",
    "derive_distributions",
    "buffer_range",
]


class DistributionKind(enum.Enum):
    """How one buffer is distributed across devices."""

    SPLIT = "split"  # device gets its proportional contiguous slice
    HALO = "halo"  # slice plus a fixed-width boundary halo
    FULL = "full"  # every device needs the whole buffer
    REDUCED = "reduced"  # private copy per device, merged afterwards


@dataclass(frozen=True)
class BufferDistribution:
    """Distribution of a single buffer.

    Attributes:
        kind: distribution class.
        halo: halo width in *elements per side* (HALO only).
        elements_per_item: buffer elements owned per work item along the
            partition axis (SPLIT/HALO); e.g. a row-partitioned matrix
            has one row per item.
        reduce_op: merge operator for REDUCED buffers.
    """

    kind: DistributionKind
    halo: int = 0
    elements_per_item: float = 1.0
    reduce_op: str = "sum"

    def __post_init__(self) -> None:
        if self.halo < 0:
            raise ValueError("halo must be non-negative")
        if self.kind is DistributionKind.HALO and self.halo == 0:
            raise ValueError("HALO distribution requires halo > 0")
        if self.elements_per_item <= 0:
            raise ValueError("elements_per_item must be positive")
        if self.reduce_op not in ("sum", "min", "max"):
            raise ValueError(f"unknown reduce_op {self.reduce_op!r}")

    @classmethod
    def split(cls, elements_per_item: float = 1.0) -> "BufferDistribution":
        """Proportional contiguous slice per device."""
        return cls(DistributionKind.SPLIT, elements_per_item=elements_per_item)

    @classmethod
    def with_halo(
        cls, halo: int, elements_per_item: float = 1.0
    ) -> "BufferDistribution":
        """Slice plus a boundary halo of ``halo`` elements per side."""
        return cls(
            DistributionKind.HALO, halo=halo, elements_per_item=elements_per_item
        )

    @classmethod
    def full(cls) -> "BufferDistribution":
        """Every device needs the entire buffer."""
        return cls(DistributionKind.FULL)

    @classmethod
    def reduced(cls, op: str = "sum") -> "BufferDistribution":
        """Private full copy per device, merged by ``op`` on the host."""
        return cls(DistributionKind.REDUCED, reduce_op=op)


#: The distribution of every undeclared buffer.  Frozen, so one shared
#: instance serves every lookup.
_UNDECLARED = BufferDistribution(DistributionKind.FULL)


@dataclass(frozen=True)
class KernelDistribution:
    """Per-buffer distributions for one kernel."""

    buffers: Mapping[str, BufferDistribution] = field(default_factory=dict)

    def of(self, buffer_name: str) -> BufferDistribution:
        """Distribution of a buffer (defaults to FULL when undeclared)."""
        return self.buffers.get(buffer_name, _UNDECLARED)


def derive_distributions(analysis: KernelAnalysis) -> KernelDistribution:
    """Infer buffer distributions from index expressions.

    A buffer whose every access is affine in the partition-axis global id
    with coefficient 1 is ``SPLIT`` (or ``HALO`` when constant offsets
    differ); written buffers with unanalyzable indices become
    ``REDUCED``; everything else is ``FULL``.  This mirrors the paper's
    compiler, which must prove where each device's data lives before it
    can emit per-device transfers.
    """
    kernel = analysis.kernel
    axis_key = _LinearForm.GID0 if kernel.dim == 1 else _LinearForm.GID1
    uniform = frozenset(p.name for p in kernel.scalar_params)
    defs = _single_assignment_map(kernel)

    # Gather every (buffer, index, is_write) access in the kernel.
    accesses: list[tuple[str, ir.Expr, bool]] = []

    from ..inspire.visitors import walk

    for node in walk(kernel.body):
        if isinstance(node, ir.Load):
            accesses.append((node.buffer.name, node.index, False))
        elif isinstance(node, ir.Store):
            accesses.append((node.buffer.name, node.index, True))
        elif isinstance(node, ir.AtomicUpdate):
            accesses.append((node.buffer.name, node.index, True))

    per_buffer: dict[str, list[tuple[_LinearForm, bool]]] = {}
    for name, index, is_write in accesses:
        form = _linearize(_substitute_locals(index, defs), {}, uniform)
        per_buffer.setdefault(name, []).append((form, is_write))

    out: dict[str, BufferDistribution] = {}
    for name, forms in per_buffer.items():
        offsets: list[float] = []
        splittable = True
        written = any(w for _, w in forms)
        for form, _ in forms:
            if form.indirect or form.nonlinear:
                splittable = False
                break
            coeff = form.coeffs.get(axis_key)
            others = {
                k: c
                for k, c in form.coeffs.items()
                if k != axis_key and c not in (0.0,)
            }
            if coeff != 1.0 or others or form.const is None:
                splittable = False
                break
            offsets.append(form.const)
        if splittable and offsets:
            halo = int(max(abs(o) for o in offsets))
            if halo > 0:
                out[name] = BufferDistribution(DistributionKind.HALO, halo=halo)
            else:
                out[name] = BufferDistribution(DistributionKind.SPLIT)
        elif written:
            out[name] = BufferDistribution(DistributionKind.REDUCED)
        else:
            out[name] = BufferDistribution(DistributionKind.FULL)
    return KernelDistribution(out)


def buffer_range(
    dist: BufferDistribution,
    buffer_elems: int,
    item_offset: int,
    item_count: int,
) -> tuple[int, int]:
    """(element offset, element count) of one buffer a non-empty item range touches.

    FULL and REDUCED buffers are needed whole; a SPLIT buffer's range is
    the items' elements, and a HALO buffer's adds ``halo`` elements per
    side, clipped to the buffer.  A device's host→device transfer of an
    input moves exactly this range.
    """
    if dist.kind is DistributionKind.FULL or dist.kind is DistributionKind.REDUCED:
        return (0, buffer_elems)
    epi = dist.elements_per_item
    start = int(item_offset * epi)
    stop = int((item_offset + item_count) * epi)
    if dist.kind is DistributionKind.HALO:
        start -= dist.halo
        stop += dist.halo
    start = max(0, start)
    stop = min(buffer_elems, stop)
    if stop < start:
        stop = start
    return (start, stop - start)
