"""Analytic device performance model.

This is the substitution for real OpenCL hardware (docs/ARCHITECTURE.md, `ocl/`):
each simulated device owns a :class:`DeviceSpec` describing its
first-order performance characteristics, and :class:`DeviceCostModel`
turns (kernel analysis, launch size, scalar arguments) into a simulated
execution time.

The model is a roofline with overheads:

* **compute term** — per-item weighted operation count divided by the
  device's *effective* throughput.  Effectiveness folds in the paper's
  architecture observations: the ATI VLIW GPUs of platform mc1 need
  explicitly vectorized, divergence-free code to approach peak (Thoman
  et al., Euro-Par'11 — reference [7] of the paper), which none of the
  untuned benchmarks provide, so their scalar issue efficiency is low.
* **memory term** — per-buffer global traffic divided by bandwidth scaled
  by an access-pattern efficiency (coalesced / strided / indirect /
  broadcast-cached).
* **overheads** — kernel launch latency, and PCIe transfer time + latency
  for discrete devices.  The CPU device is host-resident (zero copy),
  which is exactly why small problem sizes favour the CPU and large ones
  the GPU — the size-sensitivity the paper's model learns.

Nothing in the learning pipeline reads these formulas: the model only
ever sees (features → measured time) pairs, as in the paper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from ..inspire.analysis import AccessPattern, KernelAnalysis, OpCounts

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "TransferDirection",
    "DeviceCostModel",
    "KernelCostBreakdown",
]


class DeviceKind(enum.Enum):
    """OpenCL device class."""

    CPU = "cpu"
    GPU = "gpu"


class TransferDirection(enum.Enum):
    """Host↔device copy direction."""

    HOST_TO_DEVICE = "h2d"
    DEVICE_TO_HOST = "d2h"


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance description of one OpenCL device.

    Attributes:
        name: marketing name, e.g. ``"GeForce GTX 480"``.
        kind: CPU or GPU.
        compute_units: cores (CPU) or compute units (GPU).
        clock_ghz: core clock.
        lanes_per_unit: SIMD lanes per unit (CPU vector width, GPU PEs).
        vliw_width: instruction-packing width (ATI VLIW5 → 5; scalar → 1).
        flops_per_lane_cycle: FLOPs per lane per cycle (2 with FMA/mad).
        mem_bandwidth_gbs: device (or host, for CPUs) memory bandwidth.
        pcie_bandwidth_gbs: effective host-link bandwidth; 0 means the
            device is host-resident and transfers are free.
        pcie_latency_us: per-transfer fixed latency.
        launch_overhead_us: per-kernel-launch driver/runtime latency.
        scalar_issue_efficiency: fraction of peak reachable by *scalar*,
            untuned code (VLIW architectures are poor here).
        branch_penalty: multiplier applied to divergent operations
            (SIMT wavefront serialization; ~1 on CPUs).
        branch_cost: flop-equivalent cost of *any* branch/loop back-edge.
            VLIW architectures break instruction clauses at control flow,
            so even uniform branches are expensive there (ATI's "high
            branch miss penalty" the paper cites); scalar GPUs pay a few
            cycles; CPUs predict them nearly for free.
        transcendental_cost: cost of one transcendental op in
            flop-equivalents (CPUs pay libm; GPUs have SFUs).
        atomic_cost: cost of one global atomic in flop-equivalents.
        access_efficiency: bandwidth derating per access pattern.
        memory_latency_us: fixed per-launch memory-system warm-up cost.
    """

    name: str
    kind: DeviceKind
    compute_units: int
    clock_ghz: float
    lanes_per_unit: int
    vliw_width: int = 1
    flops_per_lane_cycle: float = 2.0
    mem_bandwidth_gbs: float = 50.0
    pcie_bandwidth_gbs: float = 0.0
    pcie_latency_us: float = 0.0
    launch_overhead_us: float = 5.0
    scalar_issue_efficiency: float = 1.0
    branch_penalty: float = 1.0
    branch_cost: float = 1.0
    transcendental_cost: float = 4.0
    atomic_cost: float = 8.0
    access_efficiency: dict[AccessPattern, float] = field(default_factory=dict)
    memory_latency_us: float = 0.0

    def __post_init__(self) -> None:
        if self.compute_units <= 0 or self.clock_ghz <= 0:
            raise ValueError("compute_units and clock_ghz must be positive")
        if not 0.0 < self.scalar_issue_efficiency <= 1.0:
            raise ValueError("scalar_issue_efficiency must be in (0, 1]")
        defaults = _DEFAULT_ACCESS_EFFICIENCY[self.kind]
        merged = dict(defaults)
        merged.update(self.access_efficiency)
        object.__setattr__(self, "access_efficiency", merged)

    @property
    def peak_gflops(self) -> float:
        """Theoretical peak single-precision throughput."""
        return (
            self.compute_units
            * self.lanes_per_unit
            * self.vliw_width
            * self.flops_per_lane_cycle
            * self.clock_ghz
        )

    @property
    def is_host_resident(self) -> bool:
        """True when the device shares host memory (no PCIe transfers)."""
        return self.pcie_bandwidth_gbs <= 0.0

    def scaled(self, clock_scale: float, mem_scale: float) -> "DeviceSpec":
        """This spec with its throughput factors rescaled.

        Clock and memory bandwidth are the two knobs real fleets drift
        on (frequency bins, thermal throttling, co-tenant contention);
        fixed overheads (launch latency, PCIe latency) stay put, which
        is what makes drift *shape*-changing rather than a uniform
        slowdown — the optimal partitioning moves.
        """
        if clock_scale <= 0 or mem_scale <= 0:
            raise ValueError("scale factors must be positive")
        return replace(
            self,
            clock_ghz=self.clock_ghz * clock_scale,
            mem_bandwidth_gbs=self.mem_bandwidth_gbs * mem_scale,
        )


#: Bandwidth efficiency per access pattern.  Broadcast loads are served
#: from cache, hence the > 1 relief factors.
_DEFAULT_ACCESS_EFFICIENCY: dict[DeviceKind, dict[AccessPattern, float]] = {
    DeviceKind.CPU: {
        AccessPattern.COALESCED: 1.0,
        AccessPattern.BROADCAST: 6.0,
        AccessPattern.STRIDED: 0.55,
        AccessPattern.INDIRECT: 0.30,
    },
    DeviceKind.GPU: {
        AccessPattern.COALESCED: 1.0,
        AccessPattern.BROADCAST: 4.0,
        AccessPattern.STRIDED: 0.22,
        AccessPattern.INDIRECT: 0.08,
    },
}


@dataclass(frozen=True)
class KernelCostBreakdown:
    """Component times (seconds) of one simulated kernel execution."""

    compute_s: float
    memory_s: float
    launch_s: float

    @property
    def total_s(self) -> float:
        # Roofline: compute and memory overlap; overheads are serial.
        return max(self.compute_s, self.memory_s) + self.launch_s


class DeviceCostModel:
    """Maps kernel launches and transfers to simulated durations.

    A launch's size-independent constants — its weighted op count, its
    attainable flop rate, its memory seconds per item and the memory
    latency — are derived once per (analysis, scalar arguments) and
    memoized here, where :meth:`~repro.ocl.device.Device.apply_drift`
    drops them with the model it replaces.  Each entry pins the
    analysis it was derived for, so the ``id()`` in its key cannot be
    reused by another analysis while the entry lives.
    """

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        #: (id(analysis), scalar items) -> (analysis, weighted ops,
        #: flop/s, memory s per item, memory latency s)
        self._launches: dict[tuple, tuple] = {}

    # -- kernel execution ----------------------------------------------------

    def effective_gflops(self, vector_fraction: float) -> float:
        """Attainable GFLOP/s for a kernel with the given vector-op share.

        VLIW devices interpolate between the poor scalar-issue efficiency
        and full issue width as the kernel's explicit vectorization
        increases; scalar architectures are insensitive.
        """
        spec = self.spec
        if spec.vliw_width <= 1:
            return spec.peak_gflops * spec.scalar_issue_efficiency
        eff = spec.scalar_issue_efficiency + (1.0 - spec.scalar_issue_efficiency) * min(
            1.0, max(0.0, vector_fraction)
        )
        return spec.peak_gflops * eff

    def weighted_ops(self, counts: OpCounts) -> float:
        """Per-item operation count in flop-equivalents."""
        spec = self.spec
        scalar_ops = counts.int_ops + counts.float_ops + counts.selects
        divergent = counts.divergent_ops
        # Divergent lanes serialize: they cost `branch_penalty` times more.
        base = scalar_ops + divergent * (spec.branch_penalty - 1.0)
        base += counts.transcendental_ops * spec.transcendental_cost
        base += counts.vector_ops * 4.0  # one vector op ≈ 4 lane-ops of work
        base += counts.atomic_ops * spec.atomic_cost
        base += counts.branches * spec.branch_cost
        # Loop back-edges break VLIW clauses just like branches do; the
        # analysis already charges 2 int-ops per iteration, so charge the
        # architectural surcharge only beyond the first flop-equivalent.
        return max(base, 1.0)

    def memory_time_s(self, counts: OpCounts, analysis: KernelAnalysis) -> float:
        """Global-memory traffic seconds of one work item.

        A launch of ``items`` work items spends ``items`` times this,
        plus the spec's memory latency once.
        """
        spec = self.spec
        bw = spec.mem_bandwidth_gbs * 1e9
        total = 0.0
        untracked = counts.mem_bytes - sum(counts.bytes_by_buffer.values())
        for buf, nbytes in counts.bytes_by_buffer.items():
            eff = spec.access_efficiency[analysis.pattern_of(buf)]
            total += nbytes / (bw * eff)
        if untracked > 0:
            total += untracked / bw
        return total

    def _launch_constants(
        self, analysis: KernelAnalysis, scalar_args: dict[str, float] | None
    ) -> tuple:
        """The memo entry of one (analysis, scalar arguments) pair."""
        key = (id(analysis), tuple(scalar_args.items()) if scalar_args else ())
        entry = self._launches.get(key)
        if entry is None:
            counts = analysis.op_counts(scalar_args)
            ops_total = counts.compute_ops + counts.transcendental_ops
            vector_fraction = counts.vector_ops / ops_total if ops_total > 0 else 0.0
            entry = self._launches[key] = (
                analysis,
                self.weighted_ops(counts),
                self.effective_gflops(vector_fraction) * 1e9,
                self.memory_time_s(counts, analysis),
                self.spec.memory_latency_us * 1e-6,
            )
        return entry

    def kernel_time(
        self,
        analysis: KernelAnalysis,
        items: int,
        scalar_args: dict[str, float] | None = None,
    ) -> KernelCostBreakdown:
        """Simulated execution time of ``items`` work items of a kernel."""
        if items <= 0:
            return KernelCostBreakdown(0.0, 0.0, 0.0)
        _, weighted, flops, memory_per_item, latency = self._launch_constants(
            analysis, scalar_args
        )
        compute_s = items * weighted / flops
        memory_s = memory_per_item * items + latency
        # Finite parallelism: very small launches cannot fill the machine.
        min_occupancy_items = self.spec.compute_units * self.spec.lanes_per_unit
        if items < min_occupancy_items:
            util = max(items / min_occupancy_items, 1.0 / min_occupancy_items)
            compute_s /= util
        launch_s = self.spec.launch_overhead_us * 1e-6
        return KernelCostBreakdown(compute_s, memory_s, launch_s)

    # -- transfers -------------------------------------------------------------

    def transfer_time_s(self, nbytes: int, direction: TransferDirection) -> float:
        """Host↔device copy time; zero for host-resident devices."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        spec = self.spec
        if spec.is_host_resident or nbytes == 0:
            return 0.0
        bw = spec.pcie_bandwidth_gbs * 1e9
        # Reads back are slightly slower on PCIe 2.0 era hardware.
        if direction is TransferDirection.DEVICE_TO_HOST:
            bw *= 0.9
        return nbytes / bw + spec.pcie_latency_us * 1e-6


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, tolerant of empty input."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
