"""Tests for static feature extraction (op counts, patterns, divergence)."""

import pytest

from repro.inspire import (
    FLOAT,
    INT,
    AccessPattern,
    Intent,
    KernelBuilder,
    analyze_kernel,
    classify_index,
    const,
)
from repro.inspire.analysis import DEFAULT_TRIP_COUNT


def _simple_streaming_kernel():
    b = KernelBuilder("stream", dim=1)
    a = b.buffer("a", FLOAT, Intent.IN)
    c = b.buffer("c", FLOAT, Intent.OUT)
    n = b.scalar("n", INT)
    gid = b.global_id(0)
    with b.if_(gid < n):
        b.store(c, gid, b.load(a, gid) * 2.0)
    return b.finish()


def _loop_kernel():
    """Per-item loop whose bound is the scalar parameter k."""
    b = KernelBuilder("loopy", dim=1)
    a = b.buffer("a", FLOAT, Intent.IN)
    c = b.buffer("c", FLOAT, Intent.OUT)
    k = b.scalar("k", INT)
    gid = b.global_id(0)
    acc = b.let("acc", const(0.0, FLOAT))
    with b.for_("i", 0, k) as i:
        b.assign(acc, acc + b.load(a, gid * k + i))
    b.store(c, gid, acc)
    return b.finish()


class TestOpCounts:
    def test_streaming_counts(self):
        an = analyze_kernel(_simple_streaming_kernel())
        c = an.op_counts()
        assert c.loads == pytest.approx(0.9)  # behind the 90% guard
        assert c.stores == pytest.approx(0.9)
        assert c.branches == pytest.approx(1.0)
        assert c.load_bytes == pytest.approx(0.9 * 4)

    def test_loop_static_uses_nominal_trip(self):
        an = analyze_kernel(_loop_kernel())
        c = an.op_counts()
        assert c.loads == pytest.approx(DEFAULT_TRIP_COUNT)

    def test_loop_runtime_uses_actual_trip(self):
        an = analyze_kernel(_loop_kernel())
        c = an.op_counts({"k": 100})
        assert c.loads == pytest.approx(100.0)
        assert c.float_ops == pytest.approx(100.0)  # one add per iteration

    def test_loop_back_edges_counted_as_branches(self):
        an = analyze_kernel(_loop_kernel())
        c = an.op_counts({"k": 64})
        assert c.branches >= 64.0

    def test_counts_scale_linearly_with_trips(self):
        an = analyze_kernel(_loop_kernel())
        c10 = an.op_counts({"k": 10})
        c40 = an.op_counts({"k": 40})
        assert c40.loads == pytest.approx(4.0 * c10.loads)

    def test_op_counts_memoized_but_isolated(self):
        an = analyze_kernel(_loop_kernel())
        c1 = an.op_counts({"k": 8})
        c1.float_ops = 1e9  # mutate the returned copy
        c2 = an.op_counts({"k": 8})
        assert c2.float_ops != 1e9

    def test_arithmetic_intensity(self):
        an = analyze_kernel(_simple_streaming_kernel())
        c = an.op_counts()
        assert 0.0 < c.arithmetic_intensity < 1.0

    def test_bytes_by_buffer(self):
        an = analyze_kernel(_simple_streaming_kernel())
        c = an.op_counts()
        assert set(c.bytes_by_buffer) == {"a", "c"}
        assert c.bytes_by_buffer["a"] == pytest.approx(0.9 * 4)

    def test_opcounts_iadd_and_scaled(self):
        an = analyze_kernel(_simple_streaming_kernel())
        c = an.op_counts()
        d = c.scaled(2.0)
        assert d.loads == pytest.approx(2 * c.loads)
        d += c
        assert d.loads == pytest.approx(3 * c.loads)
        assert d.bytes_by_buffer["a"] == pytest.approx(3 * c.bytes_by_buffer["a"])


class TestAccessPatterns:
    def test_gid_direct_is_coalesced(self):
        an = analyze_kernel(_simple_streaming_kernel())
        assert an.access_patterns["a"] is AccessPattern.COALESCED
        assert an.access_patterns["c"] is AccessPattern.COALESCED

    def test_strided_access(self):
        b = KernelBuilder("strided", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        b.store(c, gid, b.load(a, gid * 4))
        an = analyze_kernel(b.finish())
        assert an.access_patterns["a"] is AccessPattern.STRIDED

    def test_symbolic_stride_is_strided(self):
        an = analyze_kernel(_loop_kernel())
        # a[gid*k + i]: stride k across work items at fixed i.
        assert an.access_patterns["a"] is AccessPattern.STRIDED

    def test_indirect_access(self):
        b = KernelBuilder("gather", dim=1)
        idx = b.buffer("idx", INT, Intent.IN)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        b.store(c, gid, b.load(a, b.load(idx, gid)))
        an = analyze_kernel(b.finish())
        assert an.access_patterns["a"] is AccessPattern.INDIRECT
        assert an.access_patterns["idx"] is AccessPattern.COALESCED

    def test_broadcast_access(self):
        b = KernelBuilder("bcast", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        with b.for_("i", 0, 8) as i:
            b.store(c, gid, b.load(a, i))
        an = analyze_kernel(b.finish())
        assert an.access_patterns["a"] is AccessPattern.BROADCAST

    def test_local_alias_seen_through(self):
        b = KernelBuilder("alias", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        j = b.let("j", gid + 3)
        b.store(c, gid, b.load(a, j))
        an = analyze_kernel(b.finish())
        assert an.access_patterns["a"] is AccessPattern.COALESCED

    def test_worst_pattern(self):
        b = KernelBuilder("mix", dim=1)
        idx = b.buffer("idx", INT, Intent.IN)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        b.store(c, gid, b.load(a, b.load(idx, gid)) + b.load(a, gid))
        an = analyze_kernel(b.finish())
        assert an.access_patterns["a"] is AccessPattern.INDIRECT

    def test_classify_index_directly(self):
        from repro.inspire import ast as ir

        gid = ir.WorkItemQuery(ir.WorkItemFn.GLOBAL_ID, 0)
        assert classify_index(gid) is AccessPattern.COALESCED
        assert (
            classify_index(ir.BinOp("*", gid, ir.Const(2, INT), INT))
            is AccessPattern.STRIDED
        )
        assert classify_index(ir.Const(7, INT)) is AccessPattern.BROADCAST


class TestDivergence:
    def test_boundary_guard_not_divergent(self):
        an = analyze_kernel(_simple_streaming_kernel())
        assert an.op_counts().divergence_fraction == pytest.approx(0.0)

    def test_data_dependent_branch_divergent(self):
        b = KernelBuilder("datadep", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        v = b.let("v", b.load(a, gid))
        with b.if_(v > 0.0):
            b.store(c, gid, b.sqrt(v) * b.exp(v) + v * v)
        an = analyze_kernel(b.finish())
        assert an.op_counts().divergence_fraction > 0.3

    def test_gid_modulo_branch_divergent(self):
        b = KernelBuilder("modulo", dim=1)
        c = b.buffer("c", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        with b.if_((gid % 2).eq(0)):
            b.store(c, gid, const(1.0, FLOAT) * 2.0 + 3.0)
        an = analyze_kernel(b.finish())
        assert an.op_counts().divergence_fraction > 0.0

    def test_loop_bound_guard_not_divergent(self):
        b = KernelBuilder("inloop", dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        chunk = b.scalar("chunk", INT)
        gid = b.global_id(0)
        acc = b.let("acc", const(0.0, FLOAT))
        with b.for_("i", 0, chunk) as i:
            with b.if_(gid * chunk + i < n):
                b.assign(acc, acc + b.load(a, gid * chunk + i))
        b.store(c, gid, acc)
        an = analyze_kernel(b.finish())
        counts = an.op_counts({"chunk": 16, "n": 100})
        assert counts.divergence_fraction == pytest.approx(0.0)


class TestStructure:
    def test_loop_count_and_depth(self):
        b = KernelBuilder("nested", dim=1)
        c = b.buffer("c", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        acc = b.let("acc", const(0.0, FLOAT))
        with b.for_("i", 0, n):
            with b.for_("j", 0, 4):
                b.assign(acc, acc + 1.0)
        b.store(c, 0, acc)
        an = analyze_kernel(b.finish())
        assert an.loop_count == 2
        assert an.max_loop_depth == 2
        assert an.has_size_dependent_loops  # bound n is a parameter

    def test_static_loop_not_size_dependent(self):
        b = KernelBuilder("fixed", dim=1)
        c = b.buffer("c", FLOAT, Intent.OUT)
        acc = b.let("acc", const(0.0, FLOAT))
        with b.for_("i", 0, 8):
            b.assign(acc, acc + 1.0)
        b.store(c, 0, acc)
        an = analyze_kernel(b.finish())
        assert not an.has_size_dependent_loops

    def test_atomics_and_reads_writes(self):
        b = KernelBuilder("atomic", dim=1)
        h = b.buffer("h", INT, Intent.INOUT)
        d = b.buffer("d", INT, Intent.IN)
        gid = b.global_id(0)
        b.atomic_add(h, b.load(d, gid), 1)
        an = analyze_kernel(b.finish())
        assert an.has_atomics
        assert "d" in an.buffers_read
        assert "h" in an.buffers_written

    def test_static_features_keys_stable(self):
        an1 = analyze_kernel(_simple_streaming_kernel())
        an2 = analyze_kernel(_loop_kernel())
        assert set(an1.static_features()) == set(an2.static_features())

    def test_static_features_all_finite(self):
        import math

        for f, v in analyze_kernel(_loop_kernel()).static_features().items():
            assert math.isfinite(v), f
