"""SHOC-style benchmarks (5 programs).

Modeled on the Scalable Heterogeneous Computing suite (Danalis et al.,
GPGPU'10 — reference [3] of the paper): reduction, triad (bandwidth),
sparse matrix-vector product, molecular dynamics (Lennard-Jones with
neighbour lists) and a 9-point 2-D stencil.
"""

from __future__ import annotations

import numpy as np

from ..compiler.splitter import BufferDistribution
from ..inspire import FLOAT, INT, Intent, KernelBuilder, const
from ..inspire import ast as ir
from ..runtime.arrays import LazyArrays
from .base import Benchmark, ProblemInstance, Suite

__all__ = ["Reduction", "Triad", "SpMV", "MD", "Stencil2D"]


class Reduction(Benchmark):
    """Sum reduction: per-item sequential partial sums + one atomic."""

    name = "reduction"
    suite = Suite.SHOC
    description = "global sum reduction with per-item partials (SHOC Reduction)"

    CHUNK = 128

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        data = b.buffer("data", FLOAT, Intent.IN)
        out = b.buffer("out", FLOAT, Intent.INOUT)
        n = b.scalar("n", INT)
        chunk = b.scalar("chunk", INT)
        gid = b.global_id(0)
        acc = b.let("acc", const(0.0, FLOAT))
        base = b.let("base", gid * chunk)
        with b.for_("k", 0, chunk) as k:
            idx = base + k
            with b.if_(idx < n):
                b.assign(acc, acc + b.load(data, idx))
        b.atomic_add(out, 0, acc)
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "data": BufferDistribution.split(elements_per_item=self.CHUNK),
            "out": BufferDistribution.reduced("sum"),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 13, 1 << 15, 1 << 17, 1 << 19, 1 << 21, 1 << 23, 1 << 25)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {"data": rng.uniform(0.0, 1.0, size).astype(np.float32)}

        items = max(1, size // self.CHUNK)
        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {"data": (size, np.float32), "out": (1, np.float64)}, draw
            ),
            scalars={"n": size, "chunk": self.CHUNK},
            total_items=items,
            granularity=16,
            output_names=("out",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        return {"out": np.array([instance.arrays["data"].astype(np.float64).sum()])}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        chunk = int(scalars["chunk"])
        lo = offset * chunk
        hi = min((offset + count) * chunk, n)
        if hi > lo:
            arrays["out"][0] += float(arrays["data"][lo:hi].astype(np.float64).sum())


class Triad(Benchmark):
    """STREAM triad ``c = a + s*b`` — the pure bandwidth probe."""

    name = "triad"
    suite = Suite.SHOC
    description = "STREAM triad (bandwidth-bound, 2 loads + 1 store per item)"

    SCALE = 1.75

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        a = b.buffer("a", FLOAT, Intent.IN)
        bb = b.buffer("b", FLOAT, Intent.IN)
        c = b.buffer("c", FLOAT, Intent.OUT)
        s = b.scalar("s", FLOAT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            b.store(c, gid, b.load(a, gid) + s * b.load(bb, gid))
        return b.finish()

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "a": rng.standard_normal(size).astype(np.float32),
                "b": rng.standard_normal(size).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("a", "b", "c"), (size, np.float32)), draw
            ),
            scalars={"s": self.SCALE, "n": size},
            total_items=size,
            granularity=64,
            output_names=("c",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        return {
            "c": instance.arrays["a"] + np.float32(self.SCALE) * instance.arrays["b"]
        }

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi > offset:
            s = np.float32(scalars["s"])
            arrays["c"][offset:hi] = arrays["a"][offset:hi] + s * arrays["b"][offset:hi]


class SpMV(Benchmark):
    """CSR sparse matrix-vector product — indirect, irregular accesses."""

    name = "spmv"
    suite = Suite.SHOC
    description = "CSR SpMV, one row per work item (indirect gather)"

    NNZ_PER_ROW = 16
    #: Iterative solvers apply the same matrix repeatedly; the input
    #: vector changes every iteration and must be re-broadcast.
    ITERATIONS = 50

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        vals = b.buffer("vals", FLOAT, Intent.IN)
        cols = b.buffer("cols", INT, Intent.IN)
        rowptr = b.buffer("rowptr", INT, Intent.IN)
        x = b.buffer("x", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.OUT)
        nrows = b.scalar("nrows", INT)
        gid = b.global_id(0)
        with b.if_(gid < nrows):
            acc = b.let("acc", const(0.0, FLOAT))
            start = b.let("start", b.load(rowptr, gid))
            end = b.let("end", b.load(rowptr, gid + 1))
            with b.for_("j", start, end) as j:
                b.assign(acc, acc + b.load(vals, j) * b.load(x, b.load(cols, j)))
            b.store(y, gid, acc)
        return b.finish()

    def distribution_overrides(self, instance=None):
        # vals/cols slices are data-dependent (rowptr), so a naive
        # multi-device runtime ships them whole; x is gathered → full.
        overrides = {
            "vals": BufferDistribution.full(),
            "cols": BufferDistribution.full(),
            "x": BufferDistribution.full(),
            "rowptr": BufferDistribution.with_halo(halo=1),
            "y": BufferDistribution.split(),
        }
        return overrides

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        nrows = size
        nnz = nrows * self.NNZ_PER_ROW

        def draw():
            rng = self.rng(size, seed)
            rowptr = np.arange(0, nnz + 1, self.NNZ_PER_ROW, dtype=np.int32)
            cols = rng.integers(0, nrows, nnz, dtype=np.int32)
            vals = rng.standard_normal(nnz).astype(np.float32)
            x = rng.standard_normal(nrows).astype(np.float32)
            return {"vals": vals, "cols": cols, "rowptr": rowptr, "x": x}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "vals": (nnz, np.float32),
                    "cols": (nnz, np.int32),
                    "rowptr": (nrows + 1, np.int32),
                    "x": (nrows, np.float32),
                    "y": (nrows, np.float32),
                },
                draw,
            ),
            scalars={"nrows": nrows},
            total_items=nrows,
            granularity=32,
            output_names=("y",),
            iterations=self.ITERATIONS,
        )

    def iteration_refresh_buffers(self) -> tuple[str, ...]:
        return ("x",)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        a = instance.arrays
        prods = a["vals"].astype(np.float64) * a["x"].astype(np.float64)[a["cols"]]
        y = np.add.reduceat(prods, a["rowptr"][:-1].astype(np.int64))
        # reduceat misbehaves on empty rows; our generator has fixed nnz/row.
        return {"y": y.astype(np.float32)}

    def execute(self, arrays, scalars, offset, count):
        nrows = int(scalars["nrows"])
        hi = min(offset + count, nrows)
        if hi <= offset:
            return
        rowptr = arrays["rowptr"]
        lo_nz, hi_nz = int(rowptr[offset]), int(rowptr[hi])
        prods = (
            arrays["vals"][lo_nz:hi_nz].astype(np.float64)
            * arrays["x"].astype(np.float64)[arrays["cols"][lo_nz:hi_nz]]
        )
        starts = rowptr[offset:hi].astype(np.int64) - lo_nz
        arrays["y"][offset:hi] = np.add.reduceat(prods, starts).astype(np.float32)


class MD(Benchmark):
    """Lennard-Jones force kernel with fixed-degree neighbour lists."""

    name = "md"
    suite = Suite.SHOC
    description = "LJ force computation over K-neighbour lists (SHOC MD)"

    NEIGHBORS = 12
    CUTOFF2 = 16.0
    #: MD time steps per upload; positions move every step.
    ITERATIONS = 10

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        px = b.buffer("px", FLOAT, Intent.IN)
        py = b.buffer("py", FLOAT, Intent.IN)
        pz = b.buffer("pz", FLOAT, Intent.IN)
        neigh = b.buffer("neigh", INT, Intent.IN)
        fx = b.buffer("fx", FLOAT, Intent.OUT)
        fy = b.buffer("fy", FLOAT, Intent.OUT)
        fz = b.buffer("fz", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        kneigh = b.scalar("kneigh", INT)
        cutoff2 = b.scalar("cutoff2", FLOAT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            xi = b.let("xi", b.load(px, gid))
            yi = b.let("yi", b.load(py, gid))
            zi = b.let("zi", b.load(pz, gid))
            ax = b.let("ax", const(0.0, FLOAT))
            ay = b.let("ay", const(0.0, FLOAT))
            az = b.let("az", const(0.0, FLOAT))
            with b.for_("k", 0, kneigh) as k:
                j = b.let("j", b.load(neigh, gid * kneigh + k))
                dx = b.let("dx", b.load(px, j) - xi)
                dy = b.let("dy", b.load(py, j) - yi)
                dz = b.let("dz", b.load(pz, j) - zi)
                r2 = b.let("r2", dx * dx + dy * dy + dz * dz)
                with b.if_((r2 < cutoff2).and_(r2 > 1e-6)):
                    inv_r2 = b.let("inv_r2", const(1.0, FLOAT) / r2)
                    inv_r6 = b.let("inv_r6", inv_r2 * inv_r2 * inv_r2)
                    force = b.let(
                        "force",
                        const(24.0, FLOAT)
                        * inv_r2
                        * inv_r6
                        * (const(2.0, FLOAT) * inv_r6 - const(1.0, FLOAT)),
                    )
                    b.assign(ax, ax + force * dx)
                    b.assign(ay, ay + force * dy)
                    b.assign(az, az + force * dz)
            b.store(fx, gid, ax)
            b.store(fy, gid, ay)
            b.store(fz, gid, az)
        return b.finish()

    def distribution_overrides(self, instance=None):
        full = BufferDistribution.full()
        return {
            "px": full,
            "py": full,
            "pz": full,
            "neigh": BufferDistribution.split(elements_per_item=self.NEIGHBORS),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            side = max(1.0, (size / 4.0) ** (1.0 / 3.0))
            pos = rng.uniform(0.0, side, size=(size, 3)).astype(np.float32)
            neigh = rng.integers(0, size, size=(size, self.NEIGHBORS), dtype=np.int32)
            return {
                "px": pos[:, 0].copy(),
                "py": pos[:, 1].copy(),
                "pz": pos[:, 2].copy(),
                "neigh": neigh,
            }

        f32 = (size, np.float32)
        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "px": f32,
                    "py": f32,
                    "pz": f32,
                    "neigh": ((size, self.NEIGHBORS), np.int32),
                    "fx": f32,
                    "fy": f32,
                    "fz": f32,
                },
                draw,
            ),
            scalars={"n": size, "kneigh": self.NEIGHBORS, "cutoff2": self.CUTOFF2},
            total_items=size,
            granularity=32,
            output_names=("fx", "fy", "fz"),
            iterations=self.ITERATIONS,
        )

    def iteration_refresh_buffers(self) -> tuple[str, ...]:
        return ("px", "py", "pz")

    def _forces(self, arrays, lo: int, hi: int, cutoff2: float):
        px = arrays["px"].astype(np.float64)
        py = arrays["py"].astype(np.float64)
        pz = arrays["pz"].astype(np.float64)
        neigh = arrays["neigh"].reshape(len(px), -1)[lo:hi]
        dx = px[neigh] - px[lo:hi, None]
        dy = py[neigh] - py[lo:hi, None]
        dz = pz[neigh] - pz[lo:hi, None]
        r2 = dx * dx + dy * dy + dz * dz
        mask = (r2 < cutoff2) & (r2 > 1e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r2 = np.where(mask, 1.0 / r2, 0.0)
        inv_r6 = inv_r2**3
        force = np.where(mask, 24.0 * inv_r2 * inv_r6 * (2.0 * inv_r6 - 1.0), 0.0)
        return (
            (force * dx).sum(axis=1),
            (force * dy).sum(axis=1),
            (force * dz).sum(axis=1),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        n = int(instance.scalars["n"])
        fx, fy, fz = self._forces(
            instance.arrays, 0, n, float(instance.scalars["cutoff2"])
        )
        return {
            "fx": fx.astype(np.float32),
            "fy": fy.astype(np.float32),
            "fz": fz.astype(np.float32),
        }

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        fx, fy, fz = self._forces(arrays, offset, hi, float(scalars["cutoff2"]))
        arrays["fx"][offset:hi] = fx.astype(np.float32)
        arrays["fy"][offset:hi] = fy.astype(np.float32)
        arrays["fz"][offset:hi] = fz.astype(np.float32)


class Stencil2D(Benchmark):
    """9-point weighted stencil over a W×H grid (full-range 2-D kernel)."""

    name = "stencil2d"
    suite = Suite.SHOC
    description = "9-point 2D stencil, one element per work item"

    W_CENTER = 0.25
    W_CARDINAL = 0.15
    W_DIAGONAL = 0.0375
    #: SHOC iterates the stencil; partitioned runs exchange halo rows
    #: every step.
    ITERATIONS = 50

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=2)
        inp = b.buffer("inp", FLOAT, Intent.IN)
        out = b.buffer("out", FLOAT, Intent.OUT)
        w = b.scalar("w", INT)
        h = b.scalar("h", INT)
        col = b.global_id(0)
        row = b.global_id(1)
        idx = b.let("idx", row * w + col)
        interior = (
            (col > 0).and_(col < w - 1).and_(row > 0).and_(row < h - 1)
        )
        with b.if_else(interior) as (then, otherwise):
            with then:
                center = b.let("center", b.load(inp, idx))
                cardinal = b.let(
                    "cardinal",
                    b.load(inp, idx - 1)
                    + b.load(inp, idx + 1)
                    + b.load(inp, idx - w)
                    + b.load(inp, idx + w),
                )
                diagonal = b.let(
                    "diagonal",
                    b.load(inp, idx - w - 1)
                    + b.load(inp, idx - w + 1)
                    + b.load(inp, idx + w - 1)
                    + b.load(inp, idx + w + 1),
                )
                b.store(
                    out,
                    idx,
                    const(self.W_CENTER, FLOAT) * center
                    + const(self.W_CARDINAL, FLOAT) * cardinal
                    + const(self.W_DIAGONAL, FLOAT) * diagonal,
                )
            with otherwise:
                b.store(out, idx, b.load(inp, idx))
        return b.finish()

    def distribution_overrides(self, instance=None):
        if instance is None:
            return None
        w = int(instance.scalars["w"])
        return {
            "inp": BufferDistribution.with_halo(halo=w),  # one row per side
            "out": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        # Square grids: size = W = H.
        return (64, 128, 256, 512, 1024, 2048, 4096)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        w = h = size

        def draw():
            rng = self.rng(size, seed)
            return {"inp": rng.standard_normal(w * h).astype(np.float32)}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("inp", "out"), (w * h, np.float32)), draw
            ),
            scalars={"w": w, "h": h},
            total_items=w * h,
            granularity=w,  # whole rows per chunk
            output_names=("out",),
            iterations=self.ITERATIONS,
        )

    def _apply(self, grid: np.ndarray) -> np.ndarray:
        out = grid.copy()
        c, k, d = (
            np.float32(self.W_CENTER),
            np.float32(self.W_CARDINAL),
            np.float32(self.W_DIAGONAL),
        )
        # Match the kernel's summation order: center, cardinals, diagonals.
        cardinal = (
            grid[1:-1, :-2] + grid[1:-1, 2:] + grid[:-2, 1:-1] + grid[2:, 1:-1]
        )
        diagonal = (
            grid[:-2, :-2] + grid[:-2, 2:] + grid[2:, :-2] + grid[2:, 2:]
        )
        out[1:-1, 1:-1] = c * grid[1:-1, 1:-1] + k * cardinal + d * diagonal
        return out

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        w = int(instance.scalars["w"])
        h = int(instance.scalars["h"])
        grid = instance.arrays["inp"].reshape(h, w)
        return {"out": self._apply(grid).reshape(-1)}

    def execute(self, arrays, scalars, offset, count):
        w = int(scalars["w"])
        h = int(scalars["h"])
        r0, r1 = offset // w, min((offset + count) // w, h)
        if r1 <= r0:
            return
        grid = arrays["inp"].reshape(h, w)
        lo = max(0, r0 - 1)
        hi = min(h, r1 + 1)
        block = self._apply(grid[lo:hi])
        arrays["out"].reshape(h, w)[r0:r1] = block[r0 - lo : r0 - lo + (r1 - r0)]
