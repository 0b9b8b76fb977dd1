"""Vendor-sample-style benchmarks (8 programs).

These mirror the classic OpenCL SDK examples the paper draws on:
streaming kernels (vecadd/saxpy), reductions (dot product, histogram),
dense linear algebra (sgemm), financial math (Black-Scholes), fractals
(Mandelbrot) and all-pairs physics (n-body).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler.splitter import BufferDistribution
from ..inspire import FLOAT, INT, Intent, KernelBuilder, const
from ..inspire import ast as ir
from ..runtime.arrays import LazyArrays
from .base import Benchmark, ProblemInstance, Suite

__all__ = [
    "VecAdd",
    "Saxpy",
    "DotProduct",
    "MatMul",
    "BlackScholes",
    "Mandelbrot",
    "NBody",
    "Histogram",
]


class VecAdd(Benchmark):
    """``c[i] = a[i] + b[i]`` — the canonical streaming kernel."""

    name = "vec_add"
    suite = Suite.VENDOR
    description = "element-wise vector addition (streaming, 1:1 flops:bytes)"

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        bb = b.buffer("b", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            b.store(c, gid, b.load(a, gid) + b.load(bb, gid))
        return b.finish()

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            a = rng.standard_normal(size, dtype=np.float32)
            b = rng.standard_normal(size, dtype=np.float32)
            return {"a": a, "b": b}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("a", "b", "c"), (size, np.float32)), draw
            ),
            scalars={"n": size},
            total_items=size,
            granularity=64,
            output_names=("c",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        return {"c": instance.arrays["a"] + instance.arrays["b"]}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi > offset:
            arrays["c"][offset:hi] = arrays["a"][offset:hi] + arrays["b"][offset:hi]


class Saxpy(Benchmark):
    """``y[i] = alpha * x[i] + y[i]`` — BLAS level-1 with an INOUT buffer."""

    name = "saxpy"
    suite = Suite.VENDOR
    description = "scaled vector addition with in-place update"

    ALPHA = 2.5

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        x = b.buffer("x", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.INOUT)
        alpha = b.scalar("alpha", FLOAT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            b.store(y, gid, alpha * b.load(x, gid) + b.load(y, gid))
        return b.finish()

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "x": rng.standard_normal(size, dtype=np.float32),
                "y": rng.standard_normal(size, dtype=np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(dict.fromkeys(("x", "y"), (size, np.float32)), draw),
            scalars={"alpha": self.ALPHA, "n": size},
            total_items=size,
            granularity=64,
            output_names=("y",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        return {
            "y": np.float32(self.ALPHA) * instance.arrays["x"] + instance.arrays["y"]
        }

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        alpha = np.float32(scalars["alpha"])
        hi = min(offset + count, n)
        if hi > offset:
            arrays["y"][offset:hi] = (
                alpha * arrays["x"][offset:hi] + arrays["y"][offset:hi]
            )


class DotProduct(Benchmark):
    """Strided dot product with an atomic global accumulation.

    Each work item reduces ``CHUNK`` consecutive element pairs and adds
    its partial sum to ``out[0]`` — the naive vendor-sample shape whose
    output must be reduction-merged when partitioned.
    """

    name = "dot_product"
    suite = Suite.VENDOR
    description = "vector dot product with per-item partial sums + atomic add"

    CHUNK = 64

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        x = b.buffer("x", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.IN)
        out = b.buffer("out", FLOAT, Intent.INOUT)
        n = b.scalar("n", INT)
        chunk = b.scalar("chunk", INT)
        gid = b.global_id(0)
        acc = b.let("acc", const(0.0, FLOAT))
        base = b.let("base", gid * chunk)
        with b.for_("k", 0, chunk) as k:
            idx = base + k
            with b.if_(idx < n):
                b.assign(acc, acc + b.load(x, idx) * b.load(y, idx))
        b.atomic_add(out, 0, acc)
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "x": BufferDistribution.split(elements_per_item=self.CHUNK),
            "y": BufferDistribution.split(elements_per_item=self.CHUNK),
            "out": BufferDistribution.reduced("sum"),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "x": rng.standard_normal(size).astype(np.float32),
                "y": rng.standard_normal(size).astype(np.float32),
            }

        items = size // self.CHUNK
        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "x": (size, np.float32),
                    "y": (size, np.float32),
                    "out": (1, np.float64),
                },
                draw,
            ),
            scalars={"n": size, "chunk": self.CHUNK},
            total_items=items,
            granularity=16,
            output_names=("out",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        x = instance.arrays["x"].astype(np.float64)
        y = instance.arrays["y"].astype(np.float64)
        return {"out": np.array([np.dot(x, y)])}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        chunk = int(scalars["chunk"])
        lo = offset * chunk
        hi = min((offset + count) * chunk, n)
        if hi > lo:
            x = arrays["x"][lo:hi].astype(np.float64)
            y = arrays["y"][lo:hi].astype(np.float64)
            arrays["out"][0] += float(np.dot(x, y))


class MatMul(Benchmark):
    """Dense single-precision GEMM, one output element per work item."""

    name = "mat_mul"
    suite = Suite.VENDOR
    description = "dense matrix multiply C = A x B (compute-bound O(N^3))"

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=2)
        A = b.buffer("A", FLOAT, Intent.IN)
        B = b.buffer("B", FLOAT, Intent.IN)
        C = b.buffer("C", FLOAT, Intent.OUT)
        kdim = b.scalar("K", INT)
        ndim = b.scalar("N", INT)
        col = b.global_id(0)
        row = b.global_id(1)
        acc = b.let("acc", const(0.0, FLOAT))
        with b.for_("k", 0, kdim) as k:
            b.assign(acc, acc + b.load(A, row * kdim + k) * b.load(B, k * ndim + col))
        b.store(C, row * ndim + col, acc)
        return b.finish()

    def distribution_overrides(self, instance=None):
        # One work item = one C element; a row of C consumes a row of A.
        # With row-aligned chunks (granularity = N) the proportional A
        # slice (K/N elements per item) is exact.
        if instance is None:
            return {"B": BufferDistribution.full()}
        n = int(instance.scalars["N"])
        k = int(instance.scalars["K"])
        return {
            "A": BufferDistribution.split(elements_per_item=k / n),
            "B": BufferDistribution.full(),
            "C": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (64, 128, 256, 384, 512, 768, 1024)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        m = n = k = size

        def draw():
            rng = self.rng(size, seed)
            return {
                "A": rng.standard_normal((m, k)).astype(np.float32),
                "B": rng.standard_normal((k, n)).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "A": ((m, k), np.float32),
                    "B": ((k, n), np.float32),
                    "C": ((m, n), np.float32),
                },
                draw,
            ),
            scalars={"K": k, "N": n},
            total_items=m * n,
            granularity=n,  # whole C rows per chunk
            output_names=("C",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        return {"C": instance.arrays["A"] @ instance.arrays["B"]}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["N"])
        r0, r1 = offset // n, (offset + count) // n
        if r1 > r0:
            arrays["C"][r0:r1] = arrays["A"][r0:r1] @ arrays["B"]


class BlackScholes(Benchmark):
    """European option pricing — transcendental-heavy streaming."""

    name = "black_scholes"
    suite = Suite.VENDOR
    description = "Black-Scholes call/put pricing (exp/log/sqrt/erf heavy)"

    RISKFREE = 0.02
    VOLATILITY = 0.30
    SQRT1_2 = 0.7071067811865476
    #: The vendor samples time many pricing passes per upload (NVIDIA's
    #: sample uses 512); data stays device-resident in between.
    ITERATIONS = 50

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        price = b.buffer("price", FLOAT, Intent.IN)
        strike = b.buffer("strike", FLOAT, Intent.IN)
        years = b.buffer("years", FLOAT, Intent.IN)
        call = b.buffer("call", FLOAT, Intent.OUT)
        put = b.buffer("put", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        r = b.scalar("riskfree", FLOAT)
        v = b.scalar("volatility", FLOAT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            s = b.let("s", b.load(price, gid))
            k = b.let("k", b.load(strike, gid))
            t = b.let("t", b.load(years, gid))
            sqrt_t = b.let("sqrt_t", b.sqrt(t))
            d1 = b.let(
                "d1",
                (b.log(s / k) + (r + const(0.5, FLOAT) * v * v) * t) / (v * sqrt_t),
            )
            d2 = b.let("d2", d1 - v * sqrt_t)
            # CND(x) = 0.5 * (1 + erf(x / sqrt(2)))
            nd1 = b.let(
                "nd1",
                const(0.5, FLOAT)
                * (const(1.0, FLOAT) + b.erf(d1 * const(self.SQRT1_2, FLOAT))),
            )
            nd2 = b.let(
                "nd2",
                const(0.5, FLOAT)
                * (const(1.0, FLOAT) + b.erf(d2 * const(self.SQRT1_2, FLOAT))),
            )
            expr_t = b.let("expr_t", k * b.exp(-r * t))
            c = b.let("c", s * nd1 - expr_t * nd2)
            b.store(call, gid, c)
            b.store(put, gid, c + expr_t - s)
        return b.finish()

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "price": rng.uniform(5.0, 30.0, size).astype(np.float32),
                "strike": rng.uniform(1.0, 100.0, size).astype(np.float32),
                "years": rng.uniform(0.25, 10.0, size).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(
                    ("price", "strike", "years", "call", "put"), (size, np.float32)
                ),
                draw,
            ),
            scalars={
                "n": size,
                "riskfree": self.RISKFREE,
                "volatility": self.VOLATILITY,
            },
            total_items=size,
            granularity=64,
            output_names=("call", "put"),
            iterations=self.ITERATIONS,
        )

    def _price(self, s, k, t, r, v):
        from scipy.special import erf  # local import: scipy only for reference

        sqrt_t = np.sqrt(t)
        d1 = (np.log(s / k) + (r + 0.5 * v * v) * t) / (v * sqrt_t)
        d2 = d1 - v * sqrt_t
        nd1 = 0.5 * (1.0 + erf(d1 * self.SQRT1_2))
        nd2 = 0.5 * (1.0 + erf(d2 * self.SQRT1_2))
        expr_t = k * np.exp(-r * t)
        call = s * nd1 - expr_t * nd2
        put = call + expr_t - s
        return call.astype(np.float32), put.astype(np.float32)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        a = instance.arrays
        r = float(instance.scalars["riskfree"])
        v = float(instance.scalars["volatility"])
        call, put = self._price(
            a["price"].astype(np.float64),
            a["strike"].astype(np.float64),
            a["years"].astype(np.float64),
            r,
            v,
        )
        return {"call": call, "put": put}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        call, put = self._price(
            arrays["price"][offset:hi].astype(np.float64),
            arrays["strike"][offset:hi].astype(np.float64),
            arrays["years"][offset:hi].astype(np.float64),
            float(scalars["riskfree"]),
            float(scalars["volatility"]),
        )
        arrays["call"][offset:hi] = call
        arrays["put"][offset:hi] = put


class Mandelbrot(Benchmark):
    """Escape-time fractal — divergent, compute-only, zero input transfer."""

    name = "mandelbrot"
    suite = Suite.VENDOR
    description = "Mandelbrot escape iteration (branch-divergent, no inputs)"

    MAX_ITER = 64

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        img = b.buffer("img", INT, Intent.OUT)
        w = b.scalar("w", INT)
        h = b.scalar("h", INT)
        x0 = b.scalar("x0", FLOAT)
        y0 = b.scalar("y0", FLOAT)
        dx = b.scalar("dx", FLOAT)
        dy = b.scalar("dy", FLOAT)
        max_iter = b.scalar("max_iter", INT)
        gid = b.global_id(0)
        with b.if_(gid < w * h):
            px = b.let("px", gid % w)
            py = b.let("py", gid / w)
            cx = b.let("cx", x0 + px.cast(FLOAT) * dx)
            cy = b.let("cy", y0 + py.cast(FLOAT) * dy)
            zx = b.let("zx", const(0.0, FLOAT))
            zy = b.let("zy", const(0.0, FLOAT))
            it = b.let("it", const(0, INT))
            cond = (zx * zx + zy * zy < 4.0).and_(it < max_iter)
            with b.while_(cond, expected_trips=24):
                tmp = b.let("tmp", zx * zx - zy * zy + cx)
                b.assign(zy, const(2.0, FLOAT) * zx * zy + cy)
                b.assign(zx, tmp)
                b.assign(it, it + 1)
            b.store(img, gid, it)
        return b.finish()

    def problem_sizes(self) -> tuple[int, ...]:
        # Square images: size = width = height.
        return (64, 128, 256, 512, 1024, 2048)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        w = h = size
        # No inputs: the draw is empty and the output is zero-filled.
        return ProblemInstance(
            size=size,
            arrays=LazyArrays({"img": (w * h, np.int32)}, dict),
            scalars={
                "w": w,
                "h": h,
                "x0": -2.0,
                "y0": -1.25,
                "dx": 2.5 / w,
                "dy": 2.5 / h,
                "max_iter": self.MAX_ITER,
            },
            total_items=w * h,
            granularity=64,
            output_names=("img",),
        )

    def _iterations(
        self, idx: np.ndarray, scalars: Mapping[str, float | int]
    ) -> np.ndarray:
        w = int(scalars["w"])
        max_iter = int(scalars["max_iter"])
        px = (idx % w).astype(np.float32)
        py = (idx // w).astype(np.float32)
        cx = np.float32(scalars["x0"]) + px * np.float32(scalars["dx"])
        cy = np.float32(scalars["y0"]) + py * np.float32(scalars["dy"])
        zx = np.zeros_like(cx)
        zy = np.zeros_like(cy)
        it = np.zeros(len(idx), dtype=np.int32)
        active = np.ones(len(idx), dtype=bool)
        for _ in range(max_iter):
            zx2 = zx * zx
            zy2 = zy * zy
            active &= zx2 + zy2 < 4.0
            if not active.any():
                break
            tmp = zx2 - zy2 + cx
            zy = np.where(active, np.float32(2.0) * zx * zy + cy, zy)
            zx = np.where(active, tmp, zx)
            it[active] += 1
        return it

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        idx = np.arange(instance.total_items, dtype=np.int64)
        return {"img": self._iterations(idx, instance.scalars)}

    def execute(self, arrays, scalars, offset, count):
        total = int(scalars["w"]) * int(scalars["h"])
        hi = min(offset + count, total)
        if hi <= offset:
            return
        idx = np.arange(offset, hi, dtype=np.int64)
        arrays["img"][offset:hi] = self._iterations(idx, scalars)


class NBody(Benchmark):
    """All-pairs gravitational acceleration — O(N²) compute-bound."""

    name = "nbody"
    suite = Suite.VENDOR
    description = "n-body all-pairs acceleration with softening (O(N^2))"

    SOFTENING = 1e-3
    #: Simulation steps per upload; partitioned runs must re-broadcast
    #: the updated positions every step.
    ITERATIONS = 10

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        px = b.buffer("px", FLOAT, Intent.IN)
        py = b.buffer("py", FLOAT, Intent.IN)
        pz = b.buffer("pz", FLOAT, Intent.IN)
        mass = b.buffer("mass", FLOAT, Intent.IN)
        ax = b.buffer("ax", FLOAT, Intent.OUT)
        ay = b.buffer("ay", FLOAT, Intent.OUT)
        az = b.buffer("az", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        eps = b.scalar("eps", FLOAT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            xi = b.let("xi", b.load(px, gid))
            yi = b.let("yi", b.load(py, gid))
            zi = b.let("zi", b.load(pz, gid))
            fx = b.let("fx", const(0.0, FLOAT))
            fy = b.let("fy", const(0.0, FLOAT))
            fz = b.let("fz", const(0.0, FLOAT))
            with b.for_("j", 0, n) as j:
                dx = b.let("dx", b.load(px, j) - xi)
                dy = b.let("dy", b.load(py, j) - yi)
                dz = b.let("dz", b.load(pz, j) - zi)
                r2 = b.let("r2", dx * dx + dy * dy + dz * dz + eps)
                inv_r = b.let("inv_r", b.rsqrt(r2))
                f = b.let("f", b.load(mass, j) * inv_r * inv_r * inv_r)
                b.assign(fx, fx + f * dx)
                b.assign(fy, fy + f * dy)
                b.assign(fz, fz + f * dz)
            b.store(ax, gid, fx)
            b.store(ay, gid, fy)
            b.store(az, gid, fz)
        return b.finish()

    def distribution_overrides(self, instance=None):
        full = BufferDistribution.full()
        return {"px": full, "py": full, "pz": full, "mass": full}

    def problem_sizes(self) -> tuple[int, ...]:
        return (256, 512, 1024, 2048, 4096, 8192, 16384)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "px": rng.standard_normal(size).astype(np.float32),
                "py": rng.standard_normal(size).astype(np.float32),
                "pz": rng.standard_normal(size).astype(np.float32),
                "mass": rng.uniform(0.1, 1.0, size).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(
                    ("px", "py", "pz", "mass", "ax", "ay", "az"), (size, np.float32)
                ),
                draw,
            ),
            scalars={"n": size, "eps": self.SOFTENING},
            total_items=size,
            granularity=32,
            output_names=("ax", "ay", "az"),
            iterations=self.ITERATIONS,
        )

    def iteration_refresh_buffers(self) -> tuple[str, ...]:
        return ("px", "py", "pz")

    def _accel(self, arrays, lo: int, hi: int, eps: float):
        px = arrays["px"].astype(np.float64)
        py = arrays["py"].astype(np.float64)
        pz = arrays["pz"].astype(np.float64)
        mass = arrays["mass"].astype(np.float64)
        # Blocked all-pairs to bound the broadcast matrix size.
        n = len(px)
        out = np.zeros((hi - lo, 3))
        block = max(1, min(hi - lo, 4 * 1024 * 1024 // max(n, 1) + 1))
        for s in range(lo, hi, block):
            e = min(s + block, hi)
            dx = px[None, :] - px[s:e, None]
            dy = py[None, :] - py[s:e, None]
            dz = pz[None, :] - pz[s:e, None]
            r2 = dx * dx + dy * dy + dz * dz + eps
            f = mass[None, :] * r2 ** (-1.5)
            out[s - lo : e - lo, 0] = (f * dx).sum(axis=1)
            out[s - lo : e - lo, 1] = (f * dy).sum(axis=1)
            out[s - lo : e - lo, 2] = (f * dz).sum(axis=1)
        return out

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        n = int(instance.scalars["n"])
        eps = float(instance.scalars["eps"])
        acc = self._accel(instance.arrays, 0, n, eps)
        return {
            "ax": acc[:, 0].astype(np.float32),
            "ay": acc[:, 1].astype(np.float32),
            "az": acc[:, 2].astype(np.float32),
        }

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        acc = self._accel(arrays, offset, hi, float(scalars["eps"]))
        arrays["ax"][offset:hi] = acc[:, 0].astype(np.float32)
        arrays["ay"][offset:hi] = acc[:, 1].astype(np.float32)
        arrays["az"][offset:hi] = acc[:, 2].astype(np.float32)


class Histogram(Benchmark):
    """256-bin histogram via global atomics — scatter with reduce-merge."""

    name = "histogram"
    suite = Suite.VENDOR
    description = "byte histogram with atomic bin increments"

    BINS = 256

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        data = b.buffer("data", INT, Intent.IN)
        hist = b.buffer("hist", INT, Intent.INOUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            b.atomic_add(hist, b.load(data, gid), const(1, INT))
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "data": BufferDistribution.split(),
            "hist": BufferDistribution.reduced("sum"),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {"data": rng.integers(0, self.BINS, size, dtype=np.int32)}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {"data": (size, np.int32), "hist": (self.BINS, np.int32)}, draw
            ),
            scalars={"n": size},
            total_items=size,
            granularity=64,
            output_names=("hist",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        counts = np.bincount(instance.arrays["data"], minlength=self.BINS)
        return {"hist": counts.astype(np.int32)}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi > offset:
            arrays["hist"] += np.bincount(
                arrays["data"][offset:hi], minlength=self.BINS
            ).astype(np.int32)
