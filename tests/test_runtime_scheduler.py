"""Tests for the multi-device scheduler: functional + timing behaviour."""

import statistics
from dataclasses import dataclass

import numpy as np
import pytest

from repro.benchsuite import all_benchmarks, get_benchmark
from repro.compiler.splitter import DistributionKind, buffer_range
from repro.inspire.ast import ParamIntent
from repro.machines import MC1, MC2
from repro.ocl.costmodel import TransferDirection
from repro.partitioning import Partitioning, split_items
from repro.runtime import (
    CommandTemplate,
    ExecutionRequest,
    Runner,
    buffer_layout,
    execute_partitioned,
    plan_device_commands,
    price_command,
)

H2D = TransferDirection.HOST_TO_DEVICE
D2H = TransferDirection.DEVICE_TO_HOST

# A representative cross-section: streaming, 2D split, reduce-merge,
# halo stencil, indirect, INOUT.
FUNCTIONAL_BENCHES = [
    "vec_add",
    "saxpy",
    "mat_mul",
    "dot_product",
    "histogram",
    "stencil2d",
    "spmv",
    "bfs",
    "mvt",
]

PARTITIONINGS = [
    Partitioning((100, 0, 0)),
    Partitioning((0, 100, 0)),
    Partitioning((0, 50, 50)),
    Partitioning((40, 30, 30)),
    Partitioning((10, 80, 10)),
    Partitioning((90, 0, 10)),
]


@pytest.mark.parametrize("name", FUNCTIONAL_BENCHES)
@pytest.mark.parametrize("p", PARTITIONINGS, ids=lambda p: p.label)
def test_partitioned_result_matches_reference(name, p):
    """Any partitioning must produce exactly the single-device result."""
    bench = get_benchmark(name)
    inst = bench.make_instance(bench.problem_sizes()[0], seed=3)
    expected = bench.reference(inst)
    runner = Runner(MC2)
    runner.run(bench.request(inst), p)
    bench.verify(inst, atol=1e-2, rtol=1e-3, expected=expected)


class TestRequestValidation:
    def test_missing_array_rejected(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(64, seed=0)
        arrays = dict(inst.arrays)
        del arrays["b"]
        with pytest.raises(ValueError, match="missing arrays"):
            ExecutionRequest(
                compiled=bench.compiled(inst),
                arrays=arrays,
                scalars=inst.scalars,
                total_items=64,
                executor=bench.execute,
            )

    def test_missing_scalar_rejected(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(64, seed=0)
        with pytest.raises(ValueError, match="missing scalar"):
            ExecutionRequest(
                compiled=bench.compiled(inst),
                arrays=inst.arrays,
                scalars={},
                total_items=64,
                executor=bench.execute,
            )

    def test_unknown_refresh_buffer_rejected(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(64, seed=0)
        with pytest.raises(ValueError, match="refresh_buffers"):
            ExecutionRequest(
                compiled=bench.compiled(inst),
                arrays=inst.arrays,
                scalars=inst.scalars,
                total_items=64,
                executor=bench.execute,
                refresh_buffers=("ghost",),
            )

    def test_output_refresh_buffer_rejected(self):
        # No plan re-broadcasts an OUT buffer: vec_add naming its output
        # ran 0/50/50 over five iterations in the time it ran without.
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(64, seed=0)
        with pytest.raises(ValueError, match="'c', an OUT buffer"):
            ExecutionRequest(
                compiled=bench.compiled(inst),
                arrays=inst.arrays,
                scalars=inst.scalars,
                total_items=64,
                executor=bench.execute,
                iterations=5,
                refresh_buffers=("c",),
            )

    def test_partitioning_device_count_mismatch(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(64, seed=0)
        runner = Runner(MC2)
        with pytest.raises(ValueError, match="devices"):
            execute_partitioned(
                runner.devices, bench.request(inst), Partitioning((50, 50))
            )


def _chunks(request, partitioning):
    """``(offset, count)`` of every active chunk, and whether several are."""
    ranges = split_items(request.total_items, partitioning, request.granularity)
    active = [(offset, count) for offset, count in ranges if count]
    return active, len(active) > 1


def _plan_args(request, partitioning):
    """``plan_device_commands`` arguments of every active chunk, as the
    scheduler plans them."""
    template = CommandTemplate.of(request)
    active, multi = _chunks(request, partitioning)
    return [
        (template, count, multi, *template.counts(offset, count))
        for offset, count in active
    ]


def _timeline(args):
    """The commands a chunk's device runs, in order."""
    head, sync, tail = plan_device_commands(*args)
    return head + sync * (args[0].iterations - 1) + tail


def _transfer_s(device, request, plan):
    """Noise-free seconds the plan's transfers take on ``device``."""
    scalars = {k: float(v) for k, v in request.scalars.items()}
    return sum(
        price_command(device, cmd, request.compiled.analysis, scalars)[0]
        for cmd in plan
        if cmd[1] is not None
    )


class TestTimingSemantics:
    def test_single_device_only_that_device_busy(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(1 << 16, seed=0)
        runner = Runner(MC2)
        res = runner.run(
            bench.request(inst), Partitioning((0, 100, 0)), functional=False
        )
        busy = res.result.device_busy_s
        assert busy[1] > 0 and busy[0] == 0 and busy[2] == 0

    def test_makespan_is_max_of_busy(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(1 << 16, seed=0)
        runner = Runner(MC2)
        res = runner.run(
            bench.request(inst), Partitioning((40, 30, 30)), functional=False
        )
        assert res.result.makespan_s == pytest.approx(max(res.result.device_busy_s))

    def test_timing_independent_of_functional(self):
        bench = get_benchmark("mat_mul")
        inst = bench.make_instance(64, seed=0)
        runner = Runner(MC2)
        p = Partitioning((30, 40, 30))
        t1 = runner.run(bench.request(inst), p, functional=True).median_s
        t2 = runner.run(bench.request(inst), p, functional=False).median_s
        assert t1 == pytest.approx(t2)

    def test_gpu_share_includes_transfer_events(self):
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(1 << 16, seed=0))
        [args] = _plan_args(request, Partitioning((0, 100, 0)))
        plan = _timeline(args)
        directions = {direction for _label, direction, _amount in plan}
        assert H2D in directions
        assert D2H in directions
        assert _transfer_s(Runner(MC2).devices[1], request, plan) > 0.0

    def test_cpu_only_has_zero_cost_transfers(self):
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(1 << 16, seed=0))
        [args] = _plan_args(request, Partitioning((100, 0, 0)))
        plan = _timeline(args)
        assert any(direction is not None for _label, direction, _amount in plan)
        assert _transfer_s(Runner(MC2).devices[0], request, plan) == 0.0

    def test_iterations_scale_kernel_time(self):
        bench = get_benchmark("hotspot")  # ITERATIONS = 100
        inst = bench.make_instance(64, seed=0)
        runner = Runner(MC2)
        p = Partitioning((0, 100, 0))
        t_iter = runner.run(bench.request(inst), p, functional=False).median_s
        single = ExecutionRequest(
            compiled=bench.compiled(inst),
            arrays=inst.arrays,
            scalars=inst.scalars,
            total_items=inst.total_items,
            executor=bench.execute,
            granularity=inst.granularity,
            iterations=1,
        )
        t_one = runner.run(single, p, functional=False).median_s
        # 100 iterations amortize transfers but scale kernel time; the
        # exact ratio depends on the transfer/kernel balance at this size.
        assert t_iter > 5 * t_one

    def test_multi_device_iteration_pays_sync(self):
        """With >1 active device, iterating costs extra halo transfers."""
        bench = get_benchmark("hotspot")
        request = bench.request(bench.make_instance(128, seed=0))

        def writes(partitioning):
            return sum(
                direction is H2D
                for args in _plan_args(request, partitioning)
                for _label, direction, _amount in _timeline(args)
            )

        assert writes(Partitioning((0, 50, 50))) > 2 * writes(Partitioning((0, 100, 0)))


class TestReducedMerge:
    def test_dot_product_sums_partials(self):
        bench = get_benchmark("dot_product")
        inst = bench.make_instance(1 << 14, seed=1)
        expected = bench.reference(inst)
        runner = Runner(MC1)
        runner.run(bench.request(inst), Partitioning((20, 40, 40)))
        assert inst.arrays["out"][0] == pytest.approx(expected["out"][0], rel=1e-5)

    def test_histogram_counts_preserved(self):
        bench = get_benchmark("histogram")
        inst = bench.make_instance(1 << 14, seed=1)
        total = int(inst.scalars["n"])
        runner = Runner(MC1)
        runner.run(bench.request(inst), Partitioning((10, 50, 40)))
        assert int(inst.arrays["hist"].sum()) == total

    def test_bfs_max_merge_is_binary(self):
        bench = get_benchmark("bfs")
        inst = bench.make_instance(1 << 12, seed=1)
        runner = Runner(MC1)
        runner.run(bench.request(inst), Partitioning((30, 40, 30)))
        assert set(np.unique(inst.arrays["next_frontier"])) <= {0, 1}


class TestRunnerMeasurement:
    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_sigma_rejected(self, sigma):
        # Regression: noise is gated on ``noise_sigma > 0``, so a NaN or
        # negative sigma silently ran noise-free.
        with pytest.raises(ValueError, match="noise_sigma"):
            Runner(MC2, noise_sigma=sigma)

    def test_median_of_repetitions_with_noise(self):
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(1 << 16, seed=0))
        p = Partitioning((100, 0, 0))
        # A twin runner's single-repetition calls are the five draws.
        twin = Runner(MC2, noise_sigma=0.05, seed=11)
        draws = [twin.run(request, p, functional=False) for _ in range(5)]
        runner = Runner(MC2, noise_sigma=0.05, seed=11)
        run = runner.run(request, p, functional=False, repetitions=5)
        seconds = [d.median_s for d in draws]
        assert len(set(seconds)) > 1  # noise produced distinct samples
        assert run.median_s == statistics.median(seconds)
        assert run.energy_j == statistics.median(d.energy_j for d in draws)
        assert runner.stats.executions == 5

    def test_noiseless_runs_identical(self):
        bench = get_benchmark("vec_add")
        request = bench.request(bench.make_instance(1 << 16, seed=0))
        p = Partitioning((100, 0, 0))
        runner = Runner(MC2)
        draws = [runner.run(request, p, functional=False) for _ in range(3)]
        assert len({d.median_s for d in draws}) == 1
        run = runner.run(request, p, functional=False, repetitions=3)
        assert run.median_s == draws[0].median_s
        assert run.energy_j == draws[0].energy_j

    def test_invalid_repetitions(self):
        bench = get_benchmark("vec_add")
        inst = bench.make_instance(64, seed=0)
        runner = Runner(MC2)
        with pytest.raises(ValueError):
            runner.run(bench.request(inst), Partitioning((100, 0, 0)), repetitions=0)


@dataclass(frozen=True)
class PlannedCommand:
    """The reference planner's record of one device command.

    ``kind`` is ``"write_buffer"``, ``"read_buffer"`` or
    ``"ndrange_kernel"``; a transfer carries its bytes, a launch its
    work items.
    """

    kind: str
    label: str
    nbytes: int = 0
    items: int = 0


def _as_planned(command):
    """A planned ``(label, direction, amount)`` command as the reference's record."""
    label, direction, amount = command
    if direction is None:
        return PlannedCommand("ndrange_kernel", label, items=amount)
    kind = "write_buffer" if direction is H2D else "read_buffer"
    return PlannedCommand(kind, label, nbytes=amount)


def _reference_plan(request, item_offset, item_count, multi_device):
    """The command planner as first written, for comparison.

    It re-walks the buffer params on every iteration and reads each
    buffer's range off the splitter; ``plan_device_commands`` builds
    the sync block once from the request's template, and its expanded
    ``head + sync × (iterations − 1) + tail`` must be exactly this
    sequence.
    """
    compiled = request.compiled
    kernel = compiled.kernel
    layout = buffer_layout(request.arrays)
    buffer_sizes = {buf: elements for buf, (elements, _) in layout.items()}
    itemsizes = {buf: itemsize for buf, (_, itemsize) in layout.items()}

    def buffer_count(name):
        dist = compiled.distribution.of(name)
        return buffer_range(dist, buffer_sizes[name], item_offset, item_count)[1]

    commands = []
    for p in kernel.buffer_params:
        if p.intent not in (ParamIntent.IN, ParamIntent.INOUT):
            continue
        cnt = buffer_count(p.name)
        if cnt > 0:
            commands.append(
                PlannedCommand(
                    "write_buffer",
                    f"h2d:{p.name}",
                    nbytes=cnt * itemsizes[p.name],
                )
            )
    launch = PlannedCommand("ndrange_kernel", f"kernel:{kernel.name}", items=item_count)
    commands.append(launch)
    for _ in range(request.iterations - 1):
        if multi_device:
            for p in kernel.buffer_params:
                if p.intent is ParamIntent.OUT:
                    continue
                dist = compiled.distribution.of(p.name)
                if dist.kind is DistributionKind.HALO:
                    halo_elems = min(2 * dist.halo, buffer_sizes[p.name])
                    if halo_elems > 0:
                        commands.append(
                            PlannedCommand(
                                "write_buffer",
                                f"h2d:{p.name}",
                                nbytes=halo_elems * itemsizes[p.name],
                            )
                        )
                elif p.name in request.refresh_buffers:
                    cnt = buffer_count(p.name)
                    if cnt > 0:
                        commands.append(
                            PlannedCommand(
                                "write_buffer",
                                f"h2d:{p.name}",
                                nbytes=cnt * itemsizes[p.name],
                            )
                        )
        commands.append(launch)
    for p in kernel.buffer_params:
        if p.intent not in (ParamIntent.OUT, ParamIntent.INOUT):
            continue
        dist = compiled.distribution.of(p.name)
        if dist.kind is DistributionKind.REDUCED or dist.kind is DistributionKind.FULL:
            off, cnt = 0, buffer_sizes[p.name]
        else:
            epi = dist.elements_per_item
            off = int(item_offset * epi)
            stop = min(
                buffer_sizes[p.name],
                int((item_offset + item_count) * epi),
            )
            cnt = max(0, stop - off)
        if cnt > 0:
            commands.append(
                PlannedCommand(
                    "read_buffer",
                    f"d2h:{p.name}",
                    nbytes=cnt * itemsizes[p.name],
                )
            )
    return tuple(commands)


@pytest.mark.parametrize("name", sorted(b.name for b in all_benchmarks()))
def test_plan_matches_reference_planner(name):
    """Single- and multi-device chunks plan exactly the reference sequence."""
    bench = get_benchmark(name)
    request = bench.request(bench.make_instance(bench.problem_sizes()[0], seed=0))
    planned = 0
    for p in PARTITIONINGS:
        active, multi = _chunks(request, p)
        for (offset, count), args in zip(active, _plan_args(request, p), strict=True):
            where = (p.label, offset, count)
            timeline = tuple(map(_as_planned, _timeline(args)))
            assert timeline == _reference_plan(request, offset, count, multi), where
            planned += 1
    assert planned > len(PARTITIONINGS)
