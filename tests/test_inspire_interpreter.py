"""Tests for the reference interpreter."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inspire import (
    FLOAT,
    INT,
    Intent,
    InterpreterError,
    KernelBuilder,
    const,
    run_kernel,
)


def _make_scale_kernel():
    b = KernelBuilder("scale", dim=1)
    x = b.buffer("x", FLOAT, Intent.IN)
    y = b.buffer("y", FLOAT, Intent.OUT)
    s = b.scalar("s", FLOAT)
    n = b.scalar("n", INT)
    gid = b.global_id(0)
    with b.if_(gid < n):
        b.store(y, gid, b.load(x, gid) * s)
    return b.finish()


class TestBasicExecution:
    def test_elementwise_scale(self):
        k = _make_scale_kernel()
        x = np.arange(10, dtype=np.float32)
        y = np.zeros(10, dtype=np.float32)
        run_kernel(k, (10,), {"x": x, "y": y}, {"s": 3.0, "n": 10})
        assert np.allclose(y, 3.0 * x)

    def test_guard_prevents_out_of_range_work(self):
        k = _make_scale_kernel()
        x = np.arange(10, dtype=np.float32)
        y = np.zeros(10, dtype=np.float32)
        run_kernel(k, (10,), {"x": x, "y": y}, {"s": 2.0, "n": 5})
        assert np.allclose(y[:5], 2.0 * x[:5])
        assert np.all(y[5:] == 0)

    def test_offset_range_execution(self):
        k = _make_scale_kernel()
        x = np.arange(10, dtype=np.float32)
        y = np.zeros(10, dtype=np.float32)
        run_kernel(k, (4,), {"x": x, "y": y}, {"s": 2.0, "n": 10}, offset=(3,))
        assert np.all(y[:3] == 0)
        assert np.allclose(y[3:7], 2.0 * x[3:7])
        assert np.all(y[7:] == 0)

    def test_missing_buffer_raises(self):
        k = _make_scale_kernel()
        with pytest.raises(InterpreterError, match="missing buffer"):
            run_kernel(k, (4,), {"x": np.zeros(4, np.float32)}, {"s": 1.0, "n": 4})

    def test_missing_scalar_raises(self):
        k = _make_scale_kernel()
        bufs = {"x": np.zeros(4, np.float32), "y": np.zeros(4, np.float32)}
        with pytest.raises(InterpreterError, match="missing scalar"):
            run_kernel(k, (4,), bufs, {"s": 1.0})

    def test_wrong_dim_raises(self):
        k = _make_scale_kernel()
        bufs = {"x": np.zeros(4, np.float32), "y": np.zeros(4, np.float32)}
        with pytest.raises(InterpreterError, match="1D"):
            run_kernel(k, (2, 2), bufs, {"s": 1.0, "n": 4})

    def test_out_of_bounds_load_raises(self):
        b = KernelBuilder("oob", dim=1)
        x = b.buffer("x", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        b.store(y, gid, b.load(x, gid + 100))
        k = b.finish()
        bufs = {"x": np.zeros(4, np.float32), "y": np.zeros(4, np.float32)}
        with pytest.raises(InterpreterError, match="out of bounds"):
            run_kernel(k, (4,), bufs, {})


class TestControlFlow:
    def test_for_loop_accumulation(self):
        b = KernelBuilder("sumk", dim=1)
        out = b.buffer("out", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        acc = b.let("acc", const(0.0, FLOAT))
        with b.for_("i", 0, n) as i:
            b.assign(acc, acc + i.cast(FLOAT))
        b.store(out, b.global_id(0), acc)
        k = b.finish()
        out = np.zeros(1, np.float32)
        run_kernel(k, (1,), {"out": out}, {"n": 10})
        assert out[0] == pytest.approx(45.0)

    def test_for_loop_with_step(self):
        b = KernelBuilder("step", dim=1)
        out = b.buffer("out", FLOAT, Intent.OUT)
        acc = b.let("acc", const(0.0, FLOAT))
        with b.for_("i", 0, 10, 3):
            b.assign(acc, acc + 1.0)
        b.store(out, 0, acc)
        out = np.zeros(1, np.float32)
        run_kernel(b.finish(), (1,), {"out": out}, {})
        assert out[0] == 4.0  # i = 0, 3, 6, 9

    def test_while_loop(self):
        b = KernelBuilder("halve", dim=1)
        out = b.buffer("out", INT, Intent.OUT)
        n = b.scalar("n", INT)
        v = b.let("v", n + 0)
        steps = b.let("steps", const(0, INT))
        with b.while_(v > 1):
            b.assign(v, v / 2)
            b.assign(steps, steps + 1)
        b.store(out, 0, steps)
        out = np.zeros(1, np.int32)
        run_kernel(b.finish(), (1,), {"out": out}, {"n": 64})
        assert out[0] == 6

    def test_if_else(self):
        b = KernelBuilder("sign", dim=1)
        x = b.buffer("x", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        with b.if_else(b.load(x, gid) >= 0.0) as (then, otherwise):
            with then:
                b.store(y, gid, 1.0)
            with otherwise:
                b.store(y, gid, -1.0)
        xs = np.array([-2.0, 3.0, 0.0, -0.5], dtype=np.float32)
        ys = np.zeros(4, np.float32)
        run_kernel(b.finish(), (4,), {"x": xs, "y": ys}, {})
        assert list(ys) == [-1.0, 1.0, 1.0, -1.0]

    def test_select(self):
        b = KernelBuilder("sel", dim=1)
        x = b.buffer("x", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.OUT)
        gid = b.global_id(0)
        v = b.load(x, gid)
        b.store(y, gid, b.select(v > 0.5, v, 0.0))
        xs = np.array([0.2, 0.9], dtype=np.float32)
        ys = np.zeros(2, np.float32)
        run_kernel(b.finish(), (2,), {"x": xs, "y": ys}, {})
        assert ys[0] == 0.0 and ys[1] == np.float32(0.9)


class TestAtomicsAndIntrinsics:
    def test_atomic_add(self):
        b = KernelBuilder("count", dim=1)
        out = b.buffer("out", INT, Intent.INOUT)
        b.atomic_add(out, 0, 1)
        out = np.zeros(1, np.int32)
        run_kernel(b.finish(), (37,), {"out": out}, {})
        assert out[0] == 37

    def test_global_size_intrinsic(self):
        b = KernelBuilder("gsz", dim=1)
        out = b.buffer("out", INT, Intent.OUT)
        b.store(out, b.global_id(0), b.global_size(0))
        out = np.zeros(5, np.int32)
        run_kernel(b.finish(), (5,), {"out": out}, {})
        assert np.all(out == 5)

    def test_local_ids(self):
        b = KernelBuilder("lid", dim=1)
        out = b.buffer("out", INT, Intent.OUT)
        b.store(out, b.global_id(0), b.local_id(0) + b.group_id(0) * 100)
        out = np.zeros(8, np.int32)
        run_kernel(b.finish(), (8,), {"out": out}, {}, local_size=(4,))
        assert list(out) == [0, 1, 2, 3, 100, 101, 102, 103]

    def test_2d_execution_order_covers_all(self):
        b = KernelBuilder("grid", dim=2)
        out = b.buffer("out", INT, Intent.OUT)
        w = b.scalar("w", INT)
        col = b.global_id(0)
        row = b.global_id(1)
        b.store(out, row * w + col, row * 10 + col)
        out = np.zeros(12, np.int32)
        run_kernel(b.finish(), (4, 3), {"out": out}, {"w": 4})
        assert out.reshape(3, 4)[2, 3] == 23
        assert out.reshape(3, 4)[0, 0] == 0


class TestNumericSemantics:
    def test_float32_rounding_applied(self):
        b = KernelBuilder("round32", dim=1)
        y = b.buffer("y", FLOAT, Intent.OUT)
        b.store(y, 0, const(0.1, FLOAT) + const(0.2, FLOAT))
        y = np.zeros(1, np.float32)
        run_kernel(b.finish(), (1,), {"y": y}, {})
        assert y[0] == np.float32(np.float32(0.1) + np.float32(0.2))

    def test_integer_division_truncates(self):
        b = KernelBuilder("div", dim=1)
        y = b.buffer("y", INT, Intent.OUT)
        n = b.scalar("n", INT)
        b.store(y, 0, n / 4)
        y = np.zeros(1, np.int32)
        run_kernel(b.finish(), (1,), {"y": y}, {"n": -7})
        assert y[0] == -1  # C semantics: trunc toward zero

    def test_integer_div_by_zero_raises(self):
        b = KernelBuilder("divz", dim=1)
        y = b.buffer("y", INT, Intent.OUT)
        n = b.scalar("n", INT)
        b.store(y, 0, n / (n - n))
        with pytest.raises(InterpreterError):
            run_kernel(b.finish(), (1,), {"y": np.zeros(1, np.int32)}, {"n": 3})

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    # sqrt(a) and log(b)*exp(-a/50) nearly cancel here, so a one-ulp
    # difference in exp shows up as a 1e-4 relative error in the sum.
    @example(a=12.75, b_val=0.01)
    @settings(max_examples=50, deadline=None)
    def test_property_math_matches_numpy(self, a, b_val):
        b = KernelBuilder("math", dim=1)
        y = b.buffer("y", FLOAT, Intent.OUT)
        pa = b.scalar("a", FLOAT)
        pb = b.scalar("b", FLOAT)
        b.store(y, 0, b.sqrt(pa) + b.log(pb) * b.exp(-pa / 50.0))
        y = np.zeros(1, np.float32)
        run_kernel(b.finish(), (1,), {"y": y}, {"a": a, "b": b_val})

        # Builtins are correctly rounded: evaluate in float64, round once.
        # numpy's float32 exp/log kernels may be a ulp off, so they are
        # not the reference.
        def f32(fn, x):
            return np.float32(fn(np.float64(x)))

        a32, b32 = np.float32(a), np.float32(b_val)
        expected = f32(np.sqrt, a32) + np.float32(
            f32(np.log, b32) * f32(np.exp, np.float32(-a32 / np.float32(50.0)))
        )
        assert y[0] == pytest.approx(expected, rel=1e-5)
