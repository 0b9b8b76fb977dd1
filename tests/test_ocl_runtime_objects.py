"""Tests for queues, contexts, events and noise."""

import numpy as np
import pytest

from repro.machines import MC2, make_gpu_spec
from repro.ocl import CommandKind, Context, Device, make_lognormal_noise


def _device():
    return Device(0, make_gpu_spec("g", 8, 32, 1.0))


class TestDeviceTimeline:
    def test_occupy_advances_clock(self):
        d = _device()
        s1, e1 = d.occupy(0.5, "a")
        s2, e2 = d.occupy(0.25, "b")
        assert (s1, e1) == (0.0, 0.5)
        assert (s2, e2) == (0.5, 0.75)

    def test_reset(self):
        d = _device()
        d.occupy(1.0, "a")
        d.reset_clock()
        assert d.clock_s == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            _device().occupy(-1.0, "a")


class TestQueue:
    def test_events_recorded_in_order(self):
        ctx = Context(MC2.create_devices())
        q = ctx.queues[1]  # a GPU queue
        e1 = q.enqueue_timed(CommandKind.WRITE_BUFFER, "h2d:x", 0.25)
        e2 = q.enqueue_timed(CommandKind.NDRANGE_KERNEL, "kernel:k", 1.0)
        e3 = q.enqueue_timed(CommandKind.READ_BUFFER, "d2h:x", 0.25)
        assert e1.kind is CommandKind.WRITE_BUFFER
        assert e2.kind is CommandKind.NDRANGE_KERNEL
        assert e3.kind is CommandKind.READ_BUFFER
        assert e1.end_s <= e2.start_s <= e3.start_s
        assert q.device.clock_s == e3.end_s


class TestContext:
    def test_requires_devices(self):
        with pytest.raises(ValueError):
            Context([])

    def test_makespan_is_max_clock(self):
        ctx = Context(MC2.create_devices())
        ctx.devices[0].occupy(1.0, "x")
        ctx.devices[2].occupy(3.0, "y")
        assert ctx.makespan_s() == 3.0

    def test_reset_timelines(self):
        ctx = Context(MC2.create_devices())
        ctx.devices[0].occupy(1.0, "x")
        ctx.queues[1].enqueue_timed(CommandKind.NDRANGE_KERNEL, "kernel:k", 2.0)
        ctx.reset_timelines()
        assert ctx.makespan_s() == 0.0

    def test_queue_for_unknown_device(self):
        ctx = Context(MC2.create_devices())
        other = Device(9, MC2.device_specs[0])
        with pytest.raises(KeyError):
            ctx.queue_for(other)


class TestNoise:
    def test_zero_sigma_identity(self):
        noise = make_lognormal_noise(0.0, seed=1)
        assert noise(1.0, "x") == 1.0

    def test_deterministic_stream(self):
        n1 = make_lognormal_noise(0.05, seed=7)
        n2 = make_lognormal_noise(0.05, seed=7)
        seq1 = [n1(1.0, "x") for _ in range(5)]
        seq2 = [n2(1.0, "x") for _ in range(5)]
        assert seq1 == seq2

    def test_repeated_measurements_differ(self):
        noise = make_lognormal_noise(0.05, seed=7)
        assert noise(1.0, "x") != noise(1.0, "x")

    def test_mean_preserving_roughly(self):
        noise = make_lognormal_noise(0.02, seed=3)
        vals = [noise(1.0, "x") for _ in range(500)]
        assert 0.98 < float(np.median(vals)) < 1.02

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            make_lognormal_noise(-0.1, seed=0)

    def test_zero_duration_stays_zero(self):
        noise = make_lognormal_noise(0.05, seed=1)
        assert noise(0.0, "x") == 0.0


class TestPlatform:
    def test_mc_layout(self):
        assert MC2.num_devices == 3
        assert MC2.cpu_indices == (0,)
        assert MC2.gpu_indices == (1, 2)

    def test_create_devices_fresh(self):
        d1 = MC2.create_devices()
        d2 = MC2.create_devices()
        d1[0].occupy(1.0, "x")
        assert d2[0].clock_s == 0.0
