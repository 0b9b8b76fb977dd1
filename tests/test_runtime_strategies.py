"""Tests for the default strategies and the oracle search."""

import pytest

from repro.machines import MC1, MC2
from repro.partitioning import Partitioning
from repro.runtime import cpu_only, even_split, gpu_only, oracle_search


class TestDefaults:
    def test_cpu_only(self):
        assert cpu_only(MC1).shares == (100, 0, 0)
        assert cpu_only(MC2).shares == (100, 0, 0)

    def test_gpu_only_uses_single_gpu(self):
        # A single-device OpenCL program uses one GPU even with two present.
        assert gpu_only(MC1).shares == (0, 100, 0)

    def test_even_split(self):
        p = even_split(MC1)
        assert sum(p.shares) == 100
        assert all(s > 0 for s in p.shares)

    def test_no_cpu_platform_rejected(self):
        from repro.machines import make_gpu_spec
        from repro.ocl import Platform

        gpu_only_platform = Platform(
            "gpus", (make_gpu_spec("g", 8, 32, 1.0),)
        )
        with pytest.raises(ValueError):
            cpu_only(gpu_only_platform)
        assert gpu_only(gpu_only_platform).shares == (100,)

    def test_no_gpu_platform_rejected(self):
        from repro.machines import make_cpu_spec
        from repro.ocl import Platform

        cpu_platform = Platform("cpu", (make_cpu_spec("c", 4, 2.0),))
        with pytest.raises(ValueError):
            gpu_only(cpu_platform)


class TestOracleSearch:
    def test_finds_known_minimum(self):
        target = Partitioning((30, 40, 30))

        def run(p):
            if p == target:
                return 1.0
            return 2.0 + sum(abs(a - b) for a, b in zip(p.shares, target.shares))

        best, t = oracle_search(run)
        assert best == target
        assert t == 1.0

    def test_searches_full_space(self):
        seen = []
        best, _ = oracle_search(
            lambda p: float(len(seen)) if seen.append(p) is None else 0.0
        )
        assert len(seen) == 66

    def test_custom_space(self):
        space = [Partitioning((100, 0, 0)), Partitioning((0, 100, 0))]
        best, _ = oracle_search(lambda p: p.shares[0], space=space)
        assert best.shares == (0, 100, 0)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            oracle_search(lambda p: 1.0, space=[])
