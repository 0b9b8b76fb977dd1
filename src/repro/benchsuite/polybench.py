"""PolyBench/GPU-style benchmarks (3 programs).

Modeled on the auto-tuned PolyBench GPU codes (Grauer-Gray et al.,
InPar'12 — reference [4] of the paper): 2-D convolution and the ATAX /
MVT matrix-vector families.
"""

from __future__ import annotations

import numpy as np

from ..compiler.splitter import BufferDistribution
from ..inspire import FLOAT, INT, Intent, KernelBuilder, const
from ..inspire import ast as ir
from ..runtime.arrays import LazyArrays
from .base import Benchmark, ProblemInstance, Suite

__all__ = ["Conv2D", "Atax", "Mvt"]


class Conv2D(Benchmark):
    """PolyBench 2DCONV: fixed 3×3 convolution over a W×H image."""

    name = "conv2d"
    suite = Suite.POLYBENCH
    description = "3x3 convolution with asymmetric fixed coefficients"

    # PolyBench's 2DCONV coefficient set.
    C = ((0.2, 0.5, -0.8), (-0.3, 0.6, -0.9), (0.4, 0.7, 0.10))
    #: The PolyBench/GPU harness times repeated kernel applications with
    #: the image device-resident.
    ITERATIONS = 10

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=2)
        img = b.buffer("img", FLOAT, Intent.IN)
        out = b.buffer("out", FLOAT, Intent.OUT)
        w = b.scalar("w", INT)
        h = b.scalar("h", INT)
        col = b.global_id(0)
        row = b.global_id(1)
        idx = b.let("idx", row * w + col)
        interior = (col > 0).and_(col < w - 1).and_(row > 0).and_(row < h - 1)
        with b.if_else(interior) as (then, otherwise):
            with then:
                acc = b.let("acc", const(0.0, FLOAT))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        coeff = self.C[dr + 1][dc + 1]
                        b.assign(
                            acc,
                            acc
                            + const(coeff, FLOAT) * b.load(img, idx + dr * w + dc),
                        )
                b.store(out, idx, acc)
            with otherwise:
                b.store(out, idx, const(0.0, FLOAT))
        return b.finish()

    def distribution_overrides(self, instance=None):
        if instance is None:
            return None
        w = int(instance.scalars["w"])
        return {
            "img": BufferDistribution.with_halo(halo=w),
            "out": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (64, 128, 256, 512, 1024, 2048, 4096)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        w = h = size

        def draw():
            rng = self.rng(size, seed)
            return {"img": rng.standard_normal(w * h).astype(np.float32)}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("img", "out"), (w * h, np.float32)), draw
            ),
            scalars={"w": w, "h": h},
            total_items=w * h,
            granularity=w,
            output_names=("out",),
            iterations=self.ITERATIONS,
        )

    def _conv(self, img, w, h):
        g = img.reshape(h, w).astype(np.float32)
        out = np.zeros((h, w), dtype=np.float32)
        acc = np.zeros((h - 2, w - 2), dtype=np.float32)
        # Match the kernel's accumulation order exactly (row-major taps).
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                coeff = np.float32(self.C[dr + 1][dc + 1])
                acc = acc + coeff * g[1 + dr : h - 1 + dr, 1 + dc : w - 1 + dc]
        out[1:-1, 1:-1] = acc
        return out.reshape(-1)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        s = instance.scalars
        return {"out": self._conv(instance.arrays["img"], int(s["w"]), int(s["h"]))}

    def execute(self, arrays, scalars, offset, count):
        w = int(scalars["w"])
        h = int(scalars["h"])
        r0, r1 = offset // w, min((offset + count) // w, h)
        if r1 <= r0:
            return
        full = self._conv(arrays["img"], w, h)
        arrays["out"].reshape(h, w)[r0:r1] = full.reshape(h, w)[r0:r1]


class Atax(Benchmark):
    """ATAX second phase: ``y[j] = Σ_i A[i,j] * tmp[i]`` (column sweep).

    Every work item walks a full matrix *column*, so each device needs
    the entire matrix — the transfer-heavy opposite of MVT's row sweep.
    """

    name = "atax"
    suite = Suite.POLYBENCH
    description = "A^T * tmp column-sweep matvec (full-matrix per device)"

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        A = b.buffer("A", FLOAT, Intent.IN)
        tmp = b.buffer("tmp", FLOAT, Intent.IN)
        y = b.buffer("y", FLOAT, Intent.OUT)
        nrows = b.scalar("nrows", INT)
        ncols = b.scalar("ncols", INT)
        gid = b.global_id(0)
        with b.if_(gid < ncols):
            acc = b.let("acc", const(0.0, FLOAT))
            with b.for_("i", 0, nrows) as i:
                b.assign(acc, acc + b.load(A, i * ncols + gid) * b.load(tmp, i))
            b.store(y, gid, acc)
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "A": BufferDistribution.full(),
            "tmp": BufferDistribution.full(),
            "y": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (128, 256, 512, 1024, 2048, 4096)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        nrows = ncols = size

        def draw():
            rng = self.rng(size, seed)
            return {
                "A": rng.standard_normal((nrows, ncols)).astype(np.float32),
                "tmp": rng.standard_normal(nrows).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "A": ((nrows, ncols), np.float32),
                    "tmp": (nrows, np.float32),
                    "y": (ncols, np.float32),
                },
                draw,
            ),
            scalars={"nrows": nrows, "ncols": ncols},
            total_items=ncols,
            granularity=32,
            output_names=("y",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        A = instance.arrays["A"].reshape(-1, int(instance.scalars["ncols"]))
        tmp = instance.arrays["tmp"]
        return {
            "y": (A.astype(np.float64).T @ tmp.astype(np.float64)).astype(np.float32)
        }

    def execute(self, arrays, scalars, offset, count):
        ncols = int(scalars["ncols"])
        hi = min(offset + count, ncols)
        if hi <= offset:
            return
        A = arrays["A"].reshape(-1, ncols)[:, offset:hi].astype(np.float64)
        tmp = arrays["tmp"].astype(np.float64)
        arrays["y"][offset:hi] = (A.T @ tmp).astype(np.float32)


class Mvt(Benchmark):
    """MVT row sweep: ``x1[i] += Σ_j A[i,j] * y1[j]`` (split-matrix)."""

    name = "mvt"
    suite = Suite.POLYBENCH
    description = "matrix-vector product with in-place row update"

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        A = b.buffer("A", FLOAT, Intent.IN)
        y1 = b.buffer("y1", FLOAT, Intent.IN)
        x1 = b.buffer("x1", FLOAT, Intent.INOUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            acc = b.let("acc", b.load(x1, gid))
            with b.for_("j", 0, n) as j:
                b.assign(acc, acc + b.load(A, gid * n + j) * b.load(y1, j))
            b.store(x1, gid, acc)
        return b.finish()

    def distribution_overrides(self, instance=None):
        if instance is None:
            return {"y1": BufferDistribution.full()}
        n = int(instance.scalars["n"])
        return {
            "A": BufferDistribution.split(elements_per_item=n),
            "y1": BufferDistribution.full(),
            "x1": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (128, 256, 512, 1024, 2048, 4096)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        n = size

        def draw():
            rng = self.rng(size, seed)
            return {
                "A": rng.standard_normal((n, n)).astype(np.float32),
                "y1": rng.standard_normal(n).astype(np.float32),
                "x1": rng.standard_normal(n).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "A": ((n, n), np.float32),
                    "y1": (n, np.float32),
                    "x1": (n, np.float32),
                },
                draw,
            ),
            scalars={"n": n},
            total_items=n,
            granularity=32,
            output_names=("x1",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        n = int(instance.scalars["n"])
        A = instance.arrays["A"].reshape(n, n).astype(np.float64)
        y1 = instance.arrays["y1"].astype(np.float64)
        x1 = instance.arrays["x1"].astype(np.float64)
        return {"x1": (x1 + A @ y1).astype(np.float32)}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        A = arrays["A"].reshape(n, n)[offset:hi].astype(np.float64)
        y1 = arrays["y1"].astype(np.float64)
        x1 = arrays["x1"][offset:hi].astype(np.float64)
        arrays["x1"][offset:hi] = (x1 + A @ y1).astype(np.float32)
