"""Tests for the device cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inspire import (
    FLOAT,
    INT,
    AccessPattern,
    Intent,
    KernelBuilder,
    analyze_kernel,
    const,
)
from repro.machines import make_cpu_spec, make_gpu_spec
from repro.ocl import Device, DeviceCostModel, DeviceKind, DeviceSpec, TransferDirection


def _cpu():
    return make_cpu_spec("test-cpu", cores=8, clock_ghz=2.0)


def _gpu():
    return make_gpu_spec("test-gpu", compute_units=8, lanes_per_unit=32, clock_ghz=1.0)


def _streaming_analysis():
    b = KernelBuilder("s", dim=1)
    a = b.buffer("a", FLOAT, Intent.IN)
    c = b.buffer("c", FLOAT, Intent.OUT)
    n = b.scalar("n", INT)
    gid = b.global_id(0)
    with b.if_(gid < n):
        b.store(c, gid, b.load(a, gid) * 2.0 + 1.0)
    return analyze_kernel(b.finish())


def _compute_heavy_analysis():
    b = KernelBuilder("c", dim=1)
    c = b.buffer("c", FLOAT, Intent.OUT)
    gid = b.global_id(0)
    acc = b.let("acc", const(1.0, FLOAT))
    with b.for_("i", 0, 256):
        b.assign(acc, acc * 1.0001 + 0.5)
    b.store(c, gid, acc)
    return analyze_kernel(b.finish())


class TestDeviceSpec:
    def test_peak_gflops(self):
        spec = _cpu()
        assert spec.peak_gflops == pytest.approx(8 * 4 * 2 * 2.0)

    def test_host_resident(self):
        assert _cpu().is_host_resident
        assert not _gpu().is_host_resident

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                "bad", DeviceKind.CPU, compute_units=0, clock_ghz=1.0, lanes_per_unit=1
            )
        with pytest.raises(ValueError):
            DeviceSpec(
                "bad", DeviceKind.CPU, compute_units=1, clock_ghz=1.0,
                lanes_per_unit=1, scalar_issue_efficiency=0.0,
            )

    def test_access_efficiency_defaults_merged(self):
        spec = _gpu()
        assert AccessPattern.COALESCED in spec.access_efficiency
        assert (
            spec.access_efficiency[AccessPattern.INDIRECT]
            < spec.access_efficiency[AccessPattern.COALESCED]
        )


class TestKernelTime:
    def test_zero_items_zero_time(self):
        cm = DeviceCostModel(_cpu())
        bd = cm.kernel_time(_streaming_analysis(), 0)
        assert bd.total_s == 0.0

    def test_monotone_in_items(self):
        cm = DeviceCostModel(_cpu())
        an = _streaming_analysis()
        t1 = cm.kernel_time(an, 10_000).total_s
        t2 = cm.kernel_time(an, 100_000).total_s
        assert t2 > t1

    def test_launch_overhead_floor(self):
        cm = DeviceCostModel(_gpu())
        bd = cm.kernel_time(_streaming_analysis(), 1)
        assert bd.total_s >= _gpu().launch_overhead_us * 1e-6

    def test_streaming_is_memory_bound(self):
        cm = DeviceCostModel(_cpu())
        bd = cm.kernel_time(_streaming_analysis(), 1 << 20)
        assert bd.memory_s > bd.compute_s

    def test_compute_kernel_is_compute_bound(self):
        cm = DeviceCostModel(_cpu())
        bd = cm.kernel_time(_compute_heavy_analysis(), 1 << 20)
        assert bd.compute_s > bd.memory_s

    def test_small_launch_occupancy_penalty(self):
        cm = DeviceCostModel(_gpu())
        an = _compute_heavy_analysis()
        # Per-item time should be higher when the device can't fill up.
        t_small = cm.kernel_time(an, 8).compute_s / 8
        t_big = cm.kernel_time(an, 1 << 20).compute_s / (1 << 20)
        assert t_small > t_big

    def test_vliw_scalar_derating(self):
        vliw = make_gpu_spec(
            "vliw", compute_units=8, lanes_per_unit=16, clock_ghz=1.0,
            vliw_width=5, scalar_issue_efficiency=0.1,
        )
        cm = DeviceCostModel(vliw)
        assert cm.effective_gflops(0.0) == pytest.approx(vliw.peak_gflops * 0.1)
        # Fully vectorized code recovers the full width.
        assert cm.effective_gflops(1.0) == pytest.approx(vliw.peak_gflops)

    def test_scalar_arch_insensitive_to_vectorization(self):
        cm = DeviceCostModel(_gpu())
        assert cm.effective_gflops(0.0) == pytest.approx(cm.effective_gflops(1.0))

    def test_branch_cost_hurts_loopy_kernels(self):
        cheap = make_gpu_spec("a", 8, 32, 1.0, branch_cost=1.0)
        dear = make_gpu_spec("b", 8, 32, 1.0, branch_cost=50.0)
        an = _compute_heavy_analysis()
        t_cheap = DeviceCostModel(cheap).kernel_time(an, 1 << 16).compute_s
        t_dear = DeviceCostModel(dear).kernel_time(an, 1 << 16).compute_s
        assert t_dear > 2.0 * t_cheap


def _looping_analysis(trips: int):
    """A kernel whose op counts, and so its price, grow with ``trips``."""
    b = KernelBuilder(f"loop{trips}", dim=1)
    a = b.buffer("a", FLOAT, Intent.IN)
    c = b.buffer("c", FLOAT, Intent.OUT)
    n = b.scalar("n", INT)
    gid = b.global_id(0)
    acc = b.let("acc", b.load(a, gid))
    with b.for_("i", 0, trips):
        b.assign(acc, acc * 1.0001 + 0.5)
    with b.if_(gid < n):
        b.store(c, gid, acc)
    return analyze_kernel(b.finish())


class TestLaunchMemo:
    """A memoized price always equals the price of a fresh cost model."""

    def test_prices_follow_drift(self):
        device = Device(_gpu())
        analysis = _streaming_analysis()
        scalars = {"n": 4096.0}
        prices = []
        for _ in range(2):
            model = device.cost_model
            for items in (8, 4096, 1 << 20):
                price = model.kernel_time(analysis, items, scalars)
                assert model.kernel_time(analysis, items, scalars) == price
                fresh = DeviceCostModel(device.spec)
                assert price == fresh.kernel_time(analysis, items, scalars)
                prices.append(price)
            device.apply_drift(0.5)
        assert all(a != b for a, b in zip(prices[:3], prices[3:]))

    def test_reused_ids_never_serve_another_analysis(self):
        """Short-lived analyses come and go; each is priced as its own."""
        spec = _gpu()
        model = DeviceCostModel(spec)
        scalars = {"n": 1024.0}
        for trips in range(1, 300):
            analysis = _looping_analysis(trips)
            for items in (8, 1 << 16):
                price = model.kernel_time(analysis, items, scalars)
                want = DeviceCostModel(spec).kernel_time(analysis, items, scalars)
                assert price == want, trips
            del analysis


class TestTransfers:
    def test_cpu_transfers_free(self):
        cm = DeviceCostModel(_cpu())
        assert cm.transfer_time_s(1 << 30, TransferDirection.HOST_TO_DEVICE) == 0.0

    def test_gpu_transfer_time(self):
        cm = DeviceCostModel(_gpu())
        t = cm.transfer_time_s(5_000_000_000, TransferDirection.HOST_TO_DEVICE)
        # 5 GB over 5 GB/s plus latency: about one second.
        assert t == pytest.approx(1.0, rel=0.05)

    def test_latency_floor(self):
        cm = DeviceCostModel(_gpu())
        t = cm.transfer_time_s(4, TransferDirection.HOST_TO_DEVICE)
        assert t >= _gpu().pcie_latency_us * 1e-6

    def test_readback_slower(self):
        cm = DeviceCostModel(_gpu())
        h2d = cm.transfer_time_s(1 << 24, TransferDirection.HOST_TO_DEVICE)
        d2h = cm.transfer_time_s(1 << 24, TransferDirection.DEVICE_TO_HOST)
        assert d2h > h2d

    def test_negative_bytes_rejected(self):
        cm = DeviceCostModel(_gpu())
        with pytest.raises(ValueError):
            cm.transfer_time_s(-1, TransferDirection.HOST_TO_DEVICE)

    @given(
        a=st.integers(min_value=0, max_value=1 << 28),
        b=st.integers(min_value=0, max_value=1 << 28),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_transfer_monotone_and_superadditive(self, a, b):
        cm = DeviceCostModel(_gpu())
        d = TransferDirection.HOST_TO_DEVICE
        ta, tb = cm.transfer_time_s(a, d), cm.transfer_time_s(b, d)
        tab = cm.transfer_time_s(a + b, d)
        if a <= b:
            assert ta <= tb
        if a and b:
            # One merged transfer beats two (single latency).
            assert tab <= ta + tb


class TestGeometricMean:
    def test_basic(self):
        from repro.ocl import geometric_mean

        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 5.0]) == pytest.approx(5.0)
