"""Golden regression tests: pin the emergent behaviour of the simulator.

These exact expectations were validated against the paper's shape
claims (paper §5, checked in ``test_experiments.py``).  If a cost-model
or calibration change moves them, the failure is a prompt to re-check
those claims — not necessarily a bug, but always a deliberate decision.
"""

import statistics

import pytest

from repro.benchsuite import get_benchmark
from repro.machines import MC1, MC2
from repro.runtime import Runner, cpu_only, gpu_only, oracle_search


def _oracle(machine, program, size):
    bench = get_benchmark(program)
    inst = bench.make_instance(size, seed=0)
    req = bench.request(inst)
    runner = Runner(machine)
    best, _t = oracle_search(lambda p: runner.time_of(req, p))
    return best.label


class TestOracleGolden:
    """Oracle partitionings for calibration-sensitive anchor points."""

    def test_small_streaming_is_cpu_only_everywhere(self):
        for m in (MC1, MC2):
            assert _oracle(m, "vec_add", 1 << 12) == "100/0/0"

    def test_large_streaming_keeps_cpu_majority(self):
        for m in (MC1, MC2):
            label = _oracle(m, "vec_add", 1 << 24)
            cpu_share = int(label.split("/")[0])
            assert cpu_share >= 60, label

    def test_large_matmul_goes_dual_gpu_on_mc2(self):
        assert _oracle(MC2, "mat_mul", 1024) == "0/50/50"

    def test_small_matmul_stays_cpu_on_mc2(self):
        assert _oracle(MC2, "mat_mul", 64) == "100/0/0"

    def test_black_scholes_flips_with_size_on_mc1(self):
        small = _oracle(MC1, "black_scholes", 1 << 10)
        large = _oracle(MC1, "black_scholes", 1 << 22)
        assert small == "100/0/0"
        cpu_share = int(large.split("/")[0])
        assert cpu_share <= 30, large  # GPUs take the bulk at scale

    def test_mandelbrot_diverges_machines(self):
        """The VLIW GPU hates the divergent escape loop; Fermi does not."""
        mc1_label = _oracle(MC1, "mandelbrot", 1024)
        mc2_label = _oracle(MC2, "mandelbrot", 1024)
        mc1_cpu = int(mc1_label.split("/")[0])
        mc2_cpu = int(mc2_label.split("/")[0])
        assert mc1_cpu > mc2_cpu, (mc1_label, mc2_label)


class TestBaselineGolden:
    """Pinned relative standings of the default strategies."""

    @pytest.mark.parametrize(
        "machine,program,size,winner",
        [
            (MC1, "triad", 1 << 22, "cpu"),
            (MC2, "triad", 1 << 22, "cpu"),
            (MC1, "mandelbrot", 2048, "cpu"),  # VLIW divergence penalty
            (MC2, "mandelbrot", 2048, "gpu"),  # Fermi handles it
            (MC2, "hotspot", 1024, "gpu"),  # iterated stencil amortizes PCIe
            (MC2, "nbody", 8192, "gpu"),
            (MC1, "kmeans", 1 << 18, "cpu"),  # loops break VLIW clauses
            (MC2, "kmeans", 1 << 18, "gpu"),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_default_winner(self, machine, program, size, winner):
        bench = get_benchmark(program)
        inst = bench.make_instance(size, seed=0)
        req = bench.request(inst)
        runner = Runner(machine)
        t_cpu = runner.time_of(req, cpu_only(machine))
        t_gpu = runner.time_of(req, gpu_only(machine))
        actual = "cpu" if t_cpu <= t_gpu else "gpu"
        assert actual == winner, (
            f"{program}@{size} on {machine.name}: {t_cpu} vs {t_gpu}"
        )


class TestGraphGolden:
    """The graphs refactor's anchor: one node IS one kernel, bit for bit."""

    @pytest.mark.parametrize("machine", [MC1, MC2], ids=lambda m: m.name)
    @pytest.mark.parametrize("memoize", [True, False], ids=["engine", "runner"])
    def test_single_node_graph_reproduces_single_kernel_run(
        self, machine, memoize
    ):
        from repro.engine import SweepEngine
        from repro.graphs import TaskGraph, TaskNode, node_requests
        from repro.partitioning import Partitioning

        bench = get_benchmark("mat_mul")
        request = bench.request(bench.make_instance(160, seed=0))
        p = Partitioning((40, 30, 30))
        graph = TaskGraph(nodes=(TaskNode("t0", "mat_mul", 160),))
        requests = node_requests(graph)

        def twin():
            """A graph measure on a runner seeded like the kernel's."""
            runner = Runner(machine, noise_sigma=0.02, seed=7)
            measure = SweepEngine(runner).measure_graph if memoize else runner.run_graph
            return lambda repetitions: measure(graph, {"t0": p}, requests, repetitions)

        # Draw for draw: twin runners, one repetition per call.
        kernel = SweepEngine(Runner(machine, noise_sigma=0.02, seed=7))
        one_node = twin()
        draws = [kernel.measure(request, p) for _ in range(3)]
        for draw in draws:
            run = one_node(1)
            node_run = run.node_runs["t0"]
            assert run.median_s == node_run.median_s == draw.median_s
            assert run.energy_j == node_run.energy_j == draw.energy_j

        # Bit-identical, both objectives — the refactor's hard gate.
        single = SweepEngine(
            Runner(machine, noise_sigma=0.02, seed=7)
        ).measure(request, p, repetitions=3)
        run = twin()(3)
        assert run.median_s == single.median_s
        assert run.energy_j == single.energy_j
        assert single.median_s == statistics.median(d.median_s for d in draws)
        assert single.energy_j == statistics.median(d.energy_j for d in draws)
