"""Rodinia-style benchmarks (7 programs).

Modeled on the Rodinia heterogeneous suite (Che et al., IISWC'09 —
reference [2] of the paper): hotspot (thermal stencil), k-means
assignment, nearest-neighbour search, SRAD (image regularization),
pathfinder (dynamic programming), one level-synchronous BFS step and a
back-propagation layer forward pass.
"""

from __future__ import annotations

import numpy as np

from ..compiler.splitter import BufferDistribution
from ..inspire import FLOAT, INT, Intent, KernelBuilder, const
from ..inspire import ast as ir
from ..runtime.arrays import LazyArrays
from .base import Benchmark, ProblemInstance, Suite

__all__ = [
    "Hotspot",
    "KMeans",
    "NearestNeighbor",
    "SRAD",
    "Pathfinder",
    "BFS",
    "Backprop",
]


class Hotspot(Benchmark):
    """One step of the hotspot thermal simulation (5-point stencil + power)."""

    name = "hotspot"
    suite = Suite.RODINIA
    description = "thermal simulation step: temperature diffusion + power input"

    CAP = 0.5
    RX = 0.1
    RY = 0.1
    RZ = 3.0
    #: Rodinia's hotspot runs many time steps per upload.
    ITERATIONS = 100

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=2)
        temp = b.buffer("temp", FLOAT, Intent.IN)
        power = b.buffer("power", FLOAT, Intent.IN)
        out = b.buffer("out", FLOAT, Intent.OUT)
        w = b.scalar("w", INT)
        h = b.scalar("h", INT)
        cap = b.scalar("cap", FLOAT)
        rx = b.scalar("rx", FLOAT)
        ry = b.scalar("ry", FLOAT)
        rz = b.scalar("rz", FLOAT)
        col = b.global_id(0)
        row = b.global_id(1)
        idx = b.let("idx", row * w + col)
        interior = (col > 0).and_(col < w - 1).and_(row > 0).and_(row < h - 1)
        with b.if_else(interior) as (then, otherwise):
            with then:
                t = b.let("t", b.load(temp, idx))
                dx = b.let(
                    "dx", (b.load(temp, idx - 1) + b.load(temp, idx + 1) - t - t) / rx
                )
                dy = b.let(
                    "dy", (b.load(temp, idx - w) + b.load(temp, idx + w) - t - t) / ry
                )
                dz = b.let("dz", (const(80.0, FLOAT) - t) / rz)
                delta = b.let("delta", cap * (b.load(power, idx) + dx + dy + dz))
                b.store(out, idx, t + delta)
            with otherwise:
                b.store(out, idx, b.load(temp, idx))
        return b.finish()

    def distribution_overrides(self, instance=None):
        if instance is None:
            return None
        w = int(instance.scalars["w"])
        return {
            "temp": BufferDistribution.with_halo(halo=w),
            "power": BufferDistribution.split(),
            "out": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (64, 128, 256, 512, 1024, 2048)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        w = h = size

        def draw():
            rng = self.rng(size, seed)
            return {
                "temp": rng.uniform(40.0, 90.0, w * h).astype(np.float32),
                "power": rng.uniform(0.0, 2.0, w * h).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("temp", "power", "out"), (w * h, np.float32)), draw
            ),
            scalars={
                "w": w,
                "h": h,
                "cap": self.CAP,
                "rx": self.RX,
                "ry": self.RY,
                "rz": self.RZ,
            },
            total_items=w * h,
            granularity=w,
            output_names=("out",),
            iterations=self.ITERATIONS,
        )

    def _step(self, temp, power, w, h):
        t = temp.reshape(h, w).astype(np.float32)
        p = power.reshape(h, w).astype(np.float32)
        out = t.copy()
        tc = t[1:-1, 1:-1]
        dx = (t[1:-1, :-2] + t[1:-1, 2:] - tc - tc) / np.float32(self.RX)
        dy = (t[:-2, 1:-1] + t[2:, 1:-1] - tc - tc) / np.float32(self.RY)
        dz = (np.float32(80.0) - tc) / np.float32(self.RZ)
        out[1:-1, 1:-1] = tc + np.float32(self.CAP) * (p[1:-1, 1:-1] + dx + dy + dz)
        return out.reshape(-1)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        w = int(instance.scalars["w"])
        h = int(instance.scalars["h"])
        return {
            "out": self._step(instance.arrays["temp"], instance.arrays["power"], w, h)
        }

    def execute(self, arrays, scalars, offset, count):
        w = int(scalars["w"])
        h = int(scalars["h"])
        r0, r1 = offset // w, min((offset + count) // w, h)
        if r1 <= r0:
            return
        full = self._step(arrays["temp"], arrays["power"], w, h)
        arrays["out"].reshape(h, w)[r0:r1] = full.reshape(h, w)[r0:r1]


class KMeans(Benchmark):
    """K-means assignment step: nearest centroid per point."""

    name = "kmeans"
    suite = Suite.RODINIA
    description = "k-means cluster assignment (distance loops over centroids)"

    K = 8
    DIMS = 4
    #: Refinement rounds: points stay resident, centroids are re-sent.
    ITERATIONS = 20

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        points = b.buffer("points", FLOAT, Intent.IN)
        centroids = b.buffer("centroids", FLOAT, Intent.IN)
        assign = b.buffer("assign", INT, Intent.OUT)
        n = b.scalar("n", INT)
        kclusters = b.scalar("kclusters", INT)
        dims = b.scalar("dims", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            best = b.let("best", const(0, INT))
            best_d = b.let("best_d", const(1e30, FLOAT))
            with b.for_("c", 0, kclusters) as c:
                d = b.let("d", const(0.0, FLOAT))
                with b.for_("f", 0, dims) as f:
                    diff = b.let(
                        "diff",
                        b.load(points, gid * dims + f)
                        - b.load(centroids, c * dims + f),
                    )
                    b.assign(d, d + diff * diff)
                with b.if_(d < best_d):
                    b.assign(best_d, d)
                    b.assign(best, c)
            b.store(assign, gid, best)
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "points": BufferDistribution.split(elements_per_item=self.DIMS),
            "centroids": BufferDistribution.full(),
            "assign": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            pts = rng.standard_normal((size, self.DIMS)).astype(np.float32)
            cen = rng.standard_normal((self.K, self.DIMS)).astype(np.float32)
            return {"points": pts, "centroids": cen}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "points": ((size, self.DIMS), np.float32),
                    "centroids": ((self.K, self.DIMS), np.float32),
                    "assign": (size, np.int32),
                },
                draw,
            ),
            scalars={"n": size, "kclusters": self.K, "dims": self.DIMS},
            total_items=size,
            granularity=64,
            output_names=("assign",),
            iterations=self.ITERATIONS,
        )

    def iteration_refresh_buffers(self) -> tuple[str, ...]:
        return ("centroids",)

    def _assign(self, pts: np.ndarray, cen: np.ndarray) -> np.ndarray:
        d = ((pts[:, None, :] - cen[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d, axis=1).astype(np.int32)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        pts = instance.arrays["points"].reshape(-1, self.DIMS)
        cen = instance.arrays["centroids"].reshape(-1, self.DIMS)
        return {"assign": self._assign(pts, cen)}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        dims = int(scalars["dims"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        pts = arrays["points"].reshape(-1, dims)[offset:hi]
        cen = arrays["centroids"].reshape(-1, dims)
        arrays["assign"][offset:hi] = self._assign(pts, cen)


class NearestNeighbor(Benchmark):
    """Rodinia NN: Euclidean distance from every record to a query point."""

    name = "nn"
    suite = Suite.RODINIA
    description = "hurricane-record distance computation (streaming + sqrt)"

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        lat = b.buffer("lat", FLOAT, Intent.IN)
        lng = b.buffer("lng", FLOAT, Intent.IN)
        dist = b.buffer("dist", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        qlat = b.scalar("qlat", FLOAT)
        qlng = b.scalar("qlng", FLOAT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            dlat = b.let("dlat", b.load(lat, gid) - qlat)
            dlng = b.let("dlng", b.load(lng, gid) - qlng)
            b.store(dist, gid, b.sqrt(dlat * dlat + dlng * dlng))
        return b.finish()

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "lat": rng.uniform(0.0, 90.0, size).astype(np.float32),
                "lng": rng.uniform(0.0, 180.0, size).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("lat", "lng", "dist"), (size, np.float32)), draw
            ),
            scalars={"n": size, "qlat": 30.0, "qlng": 90.0},
            total_items=size,
            granularity=64,
            output_names=("dist",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        a = instance.arrays
        dlat = a["lat"] - np.float32(instance.scalars["qlat"])
        dlng = a["lng"] - np.float32(instance.scalars["qlng"])
        return {"dist": np.sqrt(dlat * dlat + dlng * dlng)}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        dlat = arrays["lat"][offset:hi] - np.float32(scalars["qlat"])
        dlng = arrays["lng"][offset:hi] - np.float32(scalars["qlng"])
        arrays["dist"][offset:hi] = np.sqrt(dlat * dlat + dlng * dlng)


class SRAD(Benchmark):
    """SRAD diffusion-coefficient pass (division-heavy 4-point stencil)."""

    name = "srad"
    suite = Suite.RODINIA
    description = "speckle-reducing anisotropic diffusion coefficient pass"

    Q0_SQR = 0.05
    #: SRAD iterates until convergence; halo rows cross per step.
    ITERATIONS = 50

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=2)
        img = b.buffer("img", FLOAT, Intent.IN)
        coef = b.buffer("coef", FLOAT, Intent.OUT)
        w = b.scalar("w", INT)
        h = b.scalar("h", INT)
        q0 = b.scalar("q0", FLOAT)
        col = b.global_id(0)
        row = b.global_id(1)
        idx = b.let("idx", row * w + col)
        interior = (col > 0).and_(col < w - 1).and_(row > 0).and_(row < h - 1)
        with b.if_else(interior) as (then, otherwise):
            with then:
                jc = b.let("jc", b.load(img, idx))
                dn = b.let("dn", b.load(img, idx - w) - jc)
                ds = b.let("ds", b.load(img, idx + w) - jc)
                dw = b.let("dw", b.load(img, idx - 1) - jc)
                de = b.let("de", b.load(img, idx + 1) - jc)
                g2 = b.let("g2", (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc))
                l = b.let("l", (dn + ds + dw + de) / jc)
                num = b.let(
                    "num",
                    const(0.5, FLOAT) * g2
                    - (const(1.0, FLOAT) / const(16.0, FLOAT)) * l * l,
                )
                den = b.let(
                    "den", const(1.0, FLOAT) + const(0.25, FLOAT) * l
                )
                qsqr = b.let("qsqr", num / (den * den))
                cval = b.let(
                    "cval",
                    const(1.0, FLOAT)
                    / (
                        const(1.0, FLOAT)
                        + (qsqr - q0) / (q0 * (const(1.0, FLOAT) + q0))
                    ),
                )
                b.store(coef, idx, b.clamp(cval, 0.0, 1.0))
            with otherwise:
                b.store(coef, idx, const(1.0, FLOAT))
        return b.finish()

    def distribution_overrides(self, instance=None):
        if instance is None:
            return None
        w = int(instance.scalars["w"])
        return {
            "img": BufferDistribution.with_halo(halo=w),
            "coef": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (64, 128, 256, 512, 1024, 2048)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        w = h = size

        def draw():
            rng = self.rng(size, seed)
            return {"img": rng.uniform(0.5, 2.0, w * h).astype(np.float32)}

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("img", "coef"), (w * h, np.float32)), draw
            ),
            scalars={"w": w, "h": h, "q0": self.Q0_SQR},
            total_items=w * h,
            granularity=w,
            output_names=("coef",),
            iterations=self.ITERATIONS,
        )

    def _coef(self, img, w, h, q0):
        j = img.reshape(h, w).astype(np.float32)
        out = np.ones((h, w), dtype=np.float32)
        jc = j[1:-1, 1:-1]
        dn = j[:-2, 1:-1] - jc
        ds = j[2:, 1:-1] - jc
        dw = j[1:-1, :-2] - jc
        de = j[1:-1, 2:] - jc
        g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc)
        l = (dn + ds + dw + de) / jc
        num = np.float32(0.5) * g2 - np.float32(1.0 / 16.0) * l * l
        den = np.float32(1.0) + np.float32(0.25) * l
        qsqr = num / (den * den)
        c = np.float32(1.0) / (
            np.float32(1.0) + (qsqr - np.float32(q0)) / np.float32(q0 * (1.0 + q0))
        )
        out[1:-1, 1:-1] = np.clip(c, 0.0, 1.0)
        return out.reshape(-1)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        s = instance.scalars
        return {
            "coef": self._coef(
                instance.arrays["img"], int(s["w"]), int(s["h"]), float(s["q0"])
            )
        }

    def execute(self, arrays, scalars, offset, count):
        w = int(scalars["w"])
        h = int(scalars["h"])
        r0, r1 = offset // w, min((offset + count) // w, h)
        if r1 <= r0:
            return
        full = self._coef(arrays["img"], w, h, float(scalars["q0"]))
        arrays["coef"].reshape(h, w)[r0:r1] = full.reshape(h, w)[r0:r1]


class Pathfinder(Benchmark):
    """One dynamic-programming relaxation row of Rodinia's pathfinder."""

    name = "pathfinder"
    suite = Suite.RODINIA
    description = (
        "DP row relaxation: dst[i] = wall[i] + min(src[i-1], src[i], src[i+1])"
    )

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        src = b.buffer("src", FLOAT, Intent.IN)
        wall = b.buffer("wall", FLOAT, Intent.IN)
        dst = b.buffer("dst", FLOAT, Intent.OUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_(gid < n):
            best = b.let("best", b.load(src, gid))
            with b.if_(gid > 0):
                b.assign(best, b.fmin(best, b.load(src, gid - 1)))
            with b.if_(gid < n - 1):
                b.assign(best, b.fmin(best, b.load(src, gid + 1)))
            b.store(dst, gid, b.load(wall, gid) + best)
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "src": BufferDistribution.with_halo(halo=1),
            "wall": BufferDistribution.split(),
            "dst": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        def draw():
            rng = self.rng(size, seed)
            return {
                "src": rng.uniform(0.0, 10.0, size).astype(np.float32),
                "wall": rng.uniform(0.0, 10.0, size).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                dict.fromkeys(("src", "wall", "dst"), (size, np.float32)), draw
            ),
            scalars={"n": size},
            total_items=size,
            granularity=64,
            output_names=("dst",),
        )

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        src = instance.arrays["src"]
        left = np.empty_like(src)
        right = np.empty_like(src)
        left[0] = src[0]
        left[1:] = src[:-1]
        right[-1] = src[-1]
        right[:-1] = src[1:]
        best = np.minimum(src, np.minimum(left, right))
        return {"dst": instance.arrays["wall"] + best}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        src = arrays["src"]
        seg = src[offset:hi]
        left = src[max(0, offset - 1) : hi - 1]
        if offset == 0:
            left = np.concatenate(([src[0]], left))
        right = src[offset + 1 : min(n, hi + 1)]
        if hi == n:
            right = np.concatenate((right, [src[-1]]))
        best = np.minimum(seg, np.minimum(left, right))
        arrays["dst"][offset:hi] = arrays["wall"][offset:hi] + best


class BFS(Benchmark):
    """One level-synchronous BFS expansion step (irregular scatter)."""

    name = "bfs"
    suite = Suite.RODINIA
    description = "BFS frontier expansion over a CSR graph (scatter writes)"

    DEGREE = 8

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        frontier = b.buffer("frontier", INT, Intent.IN)
        rowptr = b.buffer("rowptr", INT, Intent.IN)
        cols = b.buffer("cols", INT, Intent.IN)
        visited = b.buffer("visited", INT, Intent.IN)
        next_frontier = b.buffer("next_frontier", INT, Intent.INOUT)
        n = b.scalar("n", INT)
        gid = b.global_id(0)
        with b.if_((gid < n).and_(b.load(frontier, gid).ne(0))):
            start = b.let("start", b.load(rowptr, gid))
            end = b.let("end", b.load(rowptr, gid + 1))
            with b.for_("e", start, end) as e:
                j = b.let("j", b.load(cols, e))
                with b.if_(b.load(visited, j).eq(0)):
                    b.store(next_frontier, j, const(1, INT))
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "frontier": BufferDistribution.split(),
            "rowptr": BufferDistribution.with_halo(halo=1),
            "cols": BufferDistribution.full(),
            "visited": BufferDistribution.full(),
            "next_frontier": BufferDistribution.reduced("max"),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        n = size
        nnz = n * self.DEGREE

        def draw():
            rng = self.rng(size, seed)
            rowptr = np.arange(0, nnz + 1, self.DEGREE, dtype=np.int32)
            cols = rng.integers(0, n, nnz, dtype=np.int32)
            frontier = (rng.random(n) < 0.05).astype(np.int32)
            visited = (rng.random(n) < 0.30).astype(np.int32)
            return {
                "frontier": frontier,
                "rowptr": rowptr,
                "cols": cols,
                "visited": visited,
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "frontier": (n, np.int32),
                    "rowptr": (n + 1, np.int32),
                    "cols": (nnz, np.int32),
                    "visited": (n, np.int32),
                    "next_frontier": (n, np.int32),
                },
                draw,
            ),
            scalars={"n": n},
            total_items=n,
            granularity=32,
            output_names=("next_frontier",),
        )

    def _expand(self, arrays, lo: int, hi: int) -> np.ndarray:
        frontier = arrays["frontier"][lo:hi]
        active = np.nonzero(frontier)[0] + lo
        rowptr = arrays["rowptr"]
        cols = arrays["cols"]
        visited = arrays["visited"]
        touched = np.zeros(len(arrays["next_frontier"]), dtype=np.int32)
        if len(active) == 0:
            return touched
        # Fixed degree: neighbour slices are rows of a dense view.
        deg = self.DEGREE
        neigh = cols.reshape(-1, deg)[active].reshape(-1)
        fresh = neigh[visited[neigh] == 0]
        touched[fresh] = 1
        return touched

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        n = int(instance.scalars["n"])
        return {"next_frontier": self._expand(instance.arrays, 0, n)}

    def execute(self, arrays, scalars, offset, count):
        n = int(scalars["n"])
        hi = min(offset + count, n)
        if hi <= offset:
            return
        touched = self._expand(arrays, offset, hi)
        np.maximum(arrays["next_frontier"], touched, out=arrays["next_frontier"])


class Backprop(Benchmark):
    """Neural-net layer forward pass: weighted sums + sigmoid."""

    name = "backprop"
    suite = Suite.RODINIA
    description = "backprop layer forward: out[j] = sigmoid(sum_i w[j,i] * in[i])"

    INPUTS = 64
    #: Training epochs: weights stay resident, activations are re-sent.
    ITERATIONS = 20

    def build_kernel(self) -> ir.Kernel:
        b = KernelBuilder(self.name, dim=1)
        weights = b.buffer("weights", FLOAT, Intent.IN)
        inputs = b.buffer("inputs", FLOAT, Intent.IN)
        out = b.buffer("out", FLOAT, Intent.OUT)
        nout = b.scalar("nout", INT)
        nin = b.scalar("nin", INT)
        gid = b.global_id(0)
        with b.if_(gid < nout):
            acc = b.let("acc", const(0.0, FLOAT))
            with b.for_("i", 0, nin) as i:
                b.assign(acc, acc + b.load(weights, gid * nin + i) * b.load(inputs, i))
            b.store(out, gid, const(1.0, FLOAT) / (const(1.0, FLOAT) + b.exp(-acc)))
        return b.finish()

    def distribution_overrides(self, instance=None):
        return {
            "weights": BufferDistribution.split(elements_per_item=self.INPUTS),
            "inputs": BufferDistribution.full(),
            "out": BufferDistribution.split(),
        }

    def problem_sizes(self) -> tuple[int, ...]:
        return (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)

    def make_instance(self, size: int, seed: int = 0) -> ProblemInstance:
        nout, nin = size, self.INPUTS

        def draw():
            rng = self.rng(size, seed)
            return {
                "weights": rng.standard_normal((nout, nin)).astype(np.float32),
                "inputs": rng.standard_normal(nin).astype(np.float32),
            }

        return ProblemInstance(
            size=size,
            arrays=LazyArrays(
                {
                    "weights": ((nout, nin), np.float32),
                    "inputs": (nin, np.float32),
                    "out": (nout, np.float32),
                },
                draw,
            ),
            scalars={"nout": nout, "nin": nin},
            total_items=nout,
            granularity=32,
            output_names=("out",),
            iterations=self.ITERATIONS,
        )

    def iteration_refresh_buffers(self) -> tuple[str, ...]:
        return ("inputs",)

    def reference(self, instance: ProblemInstance) -> dict[str, np.ndarray]:
        w = instance.arrays["weights"].reshape(-1, self.INPUTS).astype(np.float64)
        x = instance.arrays["inputs"].astype(np.float64)
        acc = w @ x
        return {"out": (1.0 / (1.0 + np.exp(-acc))).astype(np.float32)}

    def execute(self, arrays, scalars, offset, count):
        nout = int(scalars["nout"])
        nin = int(scalars["nin"])
        hi = min(offset + count, nout)
        if hi <= offset:
            return
        w = arrays["weights"].reshape(-1, nin)[offset:hi].astype(np.float64)
        x = arrays["inputs"].astype(np.float64)
        acc = w @ x
        arrays["out"][offset:hi] = (1.0 / (1.0 + np.exp(-acc))).astype(np.float32)
