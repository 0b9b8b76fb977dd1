"""Tests for per-device replay, noise and platforms."""

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.machines import MC2
from repro.ocl import make_lognormal_noise
from repro.partitioning import Partitioning
from repro.runtime import execute_partitioned
from repro.runtime.plan import replay


def _recording_noise(seen):
    def noise(duration, label):
        seen.append((label, duration))
        return duration

    return noise


class TestReplay:
    def test_clock_advances_command_by_command(self):
        seen = []
        noise = _recording_noise(seen)
        commands = [("h2d:x", 0.25, 0.0), ("kernel:k", 1.0, 0.0), ("d2h:x", 0.5, 0.0)]
        assert replay(commands, noise) == (1.75, 0.0)
        assert seen == [("h2d:x", 0.25), ("kernel:k", 1.0), ("d2h:x", 0.5)]
        assert replay([]) == (0.0, 0.0)

    def test_joules_are_watts_times_duration(self):
        busy, joules = replay([("kernel:k", 0.5, 100.0), ("d2h:x", 0.25, 8.0)])
        assert busy == 0.75
        assert joules == 0.5 * 100.0 + 0.25 * 8.0

    def test_noise_stretches_time_and_joules(self):
        commands = [("kernel:k", 0.5, 100.0), ("d2h:x", 0.25, 8.0)]
        busy, joules = replay(commands, lambda duration, label: 2 * duration)
        assert (busy, joules) == (1.5, 2 * replay(commands)[1])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative duration"):
            replay([("kernel:k", -1.0, 1.0)])
        with pytest.raises(ValueError, match="negative duration"):
            replay([("kernel:k", 1.0, 1.0)], lambda duration, label: -duration)


class TestDeviceTimeline:
    def test_occupy_advances_clock(self):
        # Each command starts when the previous one ends: the clock after
        # every prefix of the command list is that command's end time.
        commands = [("a", 0.5, 0.0), ("b", 0.25, 0.0)]
        assert replay(commands[:1]) == (0.5, 0.0)
        assert replay(commands[:2]) == (0.75, 0.0)


class TestQueue:
    def test_events_recorded_in_order(self):
        # A GPU's planned commands run in enqueue order on its timeline:
        # h2d transfers, then the kernel, then the d2h read-back.
        devices = MC2.create_devices()
        seen = []
        devices[1].noise = _recording_noise(seen)
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(1 << 12, seed=0))
        res = execute_partitioned(
            devices, request, Partitioning((0, 100, 0)), functional=False
        )
        labels = [label for label, _ in seen]
        kernel = labels.index("kernel:vec_add")
        before, after = labels[:kernel], labels[kernel + 1 :]
        assert before and all(label.startswith("h2d:") for label in before)
        assert after and all(label.startswith("d2h:") for label in after)
        commands = [(label, duration, 0.0) for label, duration in seen]
        assert res.device_busy_s[1] == replay(commands)[0]


class TestContext:
    def test_makespan_is_max_clock(self):
        # Each device keeps a timeline of its own; the launch's makespan
        # is the latest of them, not their sum, and an idle device's
        # timeline stays at zero.
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(1 << 16, seed=0))
        res = execute_partitioned(
            MC2.create_devices(), request, Partitioning((30, 0, 70)), functional=False
        )
        busy = res.device_busy_s
        assert busy[1] == 0.0
        assert busy[0] > 0.0 and busy[2] > 0.0 and busy[0] != busy[2]
        assert res.makespan_s == max(busy)
        assert res.makespan_s < sum(busy)


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
        d1[0].apply_drift(0.5)
        assert d2[0].spec == MC2.device_specs[0]
        assert d2[0].drift_generation == 0
