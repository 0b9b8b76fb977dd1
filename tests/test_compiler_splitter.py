"""Tests for buffer-distribution analysis and per-device buffer ranges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    BufferDistribution,
    DistributionKind,
    KernelDistribution,
    buffer_range,
    derive_distributions,
)
from repro.inspire import FLOAT, INT, Intent, KernelBuilder, analyze_kernel, const
from repro.partitioning import Partitioning, partition_space, split_items


class TestBufferDistribution:
    def test_constructors(self):
        assert BufferDistribution.split().kind is DistributionKind.SPLIT
        assert BufferDistribution.full().kind is DistributionKind.FULL
        assert BufferDistribution.with_halo(3).halo == 3
        assert BufferDistribution.reduced("max").reduce_op == "max"

    def test_halo_requires_positive(self):
        with pytest.raises(ValueError):
            BufferDistribution(DistributionKind.HALO, halo=0)

    def test_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            BufferDistribution(DistributionKind.SPLIT, halo=-1)

    def test_bad_reduce_op(self):
        with pytest.raises(ValueError):
            BufferDistribution.reduced("xor")

    def test_bad_elements_per_item(self):
        with pytest.raises(ValueError):
            BufferDistribution(DistributionKind.SPLIT, elements_per_item=0)

    def test_kernel_distribution_default_full(self):
        kd = KernelDistribution({})
        assert kd.of("anything").kind is DistributionKind.FULL


class TestDeriveDistributions:
    def test_streaming_kernel_splits(self):
        b = KernelBuilder("s", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            b.store(c, gid, b.load(a, gid))
        dist = derive_distributions(analyze_kernel(b.finish()))
        assert dist.of("a").kind is DistributionKind.SPLIT
        assert dist.of("c").kind is DistributionKind.SPLIT

    def test_stencil_offsets_derive_halo(self):
        b = KernelBuilder("st", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_((gid > 0).and_(gid < n - 1)):
            b.store(c, gid, b.load(a, gid - 1) + b.load(a, gid + 1))
        dist = derive_distributions(analyze_kernel(b.finish()))
        assert dist.of("a").kind is DistributionKind.HALO
        assert dist.of("a").halo == 1

    def test_gathered_input_is_full(self):
        b = KernelBuilder("g", dim=1)
        idx = b.buffer("idx", INT, Intent.IN)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        b.store(c, gid, b.load(a, b.load(idx, gid)))
        dist = derive_distributions(analyze_kernel(b.finish()))
        assert dist.of("a").kind is DistributionKind.FULL
        assert dist.of("idx").kind is DistributionKind.SPLIT

    def test_scattered_output_is_reduced(self):
        b = KernelBuilder("h", dim=1)
        d = b.buffer("d", INT, Intent.IN)
        h = b.buffer("h", INT, Intent.INOUT)
        gid = b.global_id(0)
        b.atomic_add(h, b.load(d, gid), const(1, INT))
        dist = derive_distributions(analyze_kernel(b.finish()))
        assert dist.of("h").kind is DistributionKind.REDUCED

    def test_suite_overrides_name_real_buffers(self, benchmarks):
        for bench in benchmarks:
            inst = bench.make_instance(bench.problem_sizes()[0], seed=0)
            compiled = bench.compiled(inst)
            param_names = {p.name for p in compiled.kernel.buffer_params}
            for name in compiled.distribution.buffers:
                assert name in param_names, (bench.name, name)


def _buffer_ranges(total, partitioning, dist, sizes, granularity=1):
    """Each device's item count and every buffer's element range, as the
    scheduler cuts them: ``[(item count, {buffer: (offset, count)})]``."""
    return [
        (
            count,
            {
                name: buffer_range(dist.of(name), elements, offset, count)
                for name, elements in sizes.items()
            },
        )
        for offset, count in split_items(total, partitioning, granularity)
    ]


class TestPlanChunks:
    def _dist(self):
        return KernelDistribution(
            {
                "inp": BufferDistribution.split(),
                "halo_in": BufferDistribution.with_halo(2),
                "lookup": BufferDistribution.full(),
                "out": BufferDistribution.split(),
            }
        )

    def test_chunks_cover_buffers(self):
        sizes = {"inp": 100, "halo_in": 100, "lookup": 50, "out": 100}
        chunks = _buffer_ranges(100, Partitioning((50, 30, 20)), self._dist(), sizes)
        assert [count for count, _ in chunks] == [50, 30, 20]
        assert chunks[0][1]["inp"] == (0, 50)
        assert chunks[1][1]["inp"] == (50, 30)
        assert chunks[2][1]["inp"] == (80, 20)

    def test_full_buffers_whole_range(self):
        sizes = {"inp": 100, "halo_in": 100, "lookup": 50, "out": 100}
        chunks = _buffer_ranges(100, Partitioning((50, 30, 20)), self._dist(), sizes)
        for _count, ranges in chunks:
            assert ranges["lookup"] == (0, 50)

    def test_halo_extension_clamped(self):
        sizes = {"inp": 100, "halo_in": 100, "lookup": 50, "out": 100}
        chunks = _buffer_ranges(100, Partitioning((50, 30, 20)), self._dist(), sizes)
        # First chunk: clamped at 0; covers [0, 52).
        assert chunks[0][1]["halo_in"] == (0, 52)
        # Middle chunk: [48, 82) -> offset 48, count 34.
        assert chunks[1][1]["halo_in"] == (48, 34)
        # Last chunk: clamped at the end.
        assert chunks[2][1]["halo_in"] == (78, 22)

    def test_empty_device_empty_ranges(self):
        sizes = {"inp": 10, "halo_in": 10, "lookup": 5, "out": 10}
        chunks = _buffer_ranges(10, Partitioning((100, 0, 0)), self._dist(), sizes)
        # An empty device is never planned, and it owns no element of a
        # SPLIT buffer.
        for count, ranges in chunks[1:]:
            assert count == 0
            assert ranges["inp"][1] == ranges["out"][1] == 0

    def test_elements_per_item_scaling(self):
        dist = KernelDistribution(
            {"mat": BufferDistribution.split(elements_per_item=8)}
        )
        chunks = _buffer_ranges(10, Partitioning((50, 50, 0)), dist, {"mat": 80})
        assert chunks[0][1]["mat"] == (0, 40)
        assert chunks[1][1]["mat"] == (40, 40)

    @given(
        total=st.integers(min_value=1, max_value=20_000),
        p_idx=st.integers(min_value=0, max_value=65),
        gran=st.sampled_from([1, 8, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_split_output_ranges_disjoint_cover(self, total, p_idx, gran):
        """SPLIT buffer ranges of non-empty chunks tile the buffer."""
        p = partition_space(3, 10)[p_idx]
        dist = KernelDistribution({"out": BufferDistribution.split()})
        chunks = _buffer_ranges(total, p, dist, {"out": total}, granularity=gran)
        covered = 0
        for count, ranges in chunks:
            off, cnt = ranges["out"]
            if count:
                assert off == covered
                covered += cnt
        assert covered == total
