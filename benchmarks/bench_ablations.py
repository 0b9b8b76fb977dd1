"""Ablations of two design choices the paper fixes.

* Partition-space step: the paper fixes 10%; coarser grids shrink the
  search/training cost but give up oracle headroom.
* Transfer accounting: §3 insists on including memory-transfer overhead
  (Gregg & Hazelwood).  Removing it flips small-size winners toward the
  GPUs and distorts the whole label distribution.
"""

from dataclasses import replace


from repro.benchsuite import get_benchmark
from repro.machines import MC2
from repro.ocl import Platform
from repro.partitioning import Partitioning, partition_space
from repro.runtime import Runner, cpu_only, gpu_only
from repro.util.tables import format_table


def _subset_best(record, step: int) -> float:
    """Best time among partitionings representable at a coarser step."""
    best = float("inf")
    for label, t in record.timings.items():
        p = Partitioning.from_label(label)
        if all(s % step == 0 for s in p.shares):
            best = min(best, t)
    return best


def test_partition_step_ablation(benchmark, dbs):
    """Oracle headroom lost by coarsening the 10% grid (both machines)."""

    def analyze():
        rows = []
        for machine, db in dbs.items():
            for step in (10, 20, 50):
                ratios = []
                for r in db:
                    ratios.append(_subset_best(r, step) / r.best_time)
                worst = max(ratios)
                avg = sum(ratios) / len(ratios)
                rows.append((machine, f"{step}%", len(
                    [
                        p
                        for p in partition_space(3, 10)
                        if all(s % step == 0 for s in p.shares)
                    ]
                ), avg, worst))
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)
    by_key = {(m, s): (a, w) for m, s, _, a, w in rows}
    # Coarser grids can only be equal or worse.
    for machine in ("mc1", "mc2"):
        assert by_key[(machine, "20%")][0] >= 1.0
        assert by_key[(machine, "50%")][0] >= by_key[(machine, "20%")][0] - 1e-9

    print(
        "\n\n"
        + format_table(
            ["machine", "step", "space size", "avg slowdown vs 10%", "worst slowdown"],
            rows,
            title="Partition-space discretization ablation",
        )
    )


def test_transfer_accounting_ablation(benchmark):
    """Default-strategy winners with and without PCIe transfer costs."""
    free_specs = tuple(
        replace(s, pcie_bandwidth_gbs=0.0, pcie_latency_us=0.0)
        if s.pcie_bandwidth_gbs > 0
        else s
        for s in MC2.device_specs
    )
    mc2_free = Platform("mc2-free-transfers", free_specs, "mc2 with free PCIe")

    programs = ("vec_add", "triad", "nn", "black_scholes", "mat_mul", "histogram")

    def analyze():
        rows = []
        for name in programs:
            bench = get_benchmark(name)
            inst = bench.make_instance(bench.problem_sizes()[2], seed=0)
            req = bench.request(inst)
            row = [name]
            for platform in (MC2, mc2_free):
                runner = Runner(platform)
                t_cpu = runner.time_of(req, cpu_only(platform))
                t_gpu = runner.time_of(req, gpu_only(platform))
                row.append("CPU" if t_cpu <= t_gpu else "GPU")
            rows.append(tuple(row))
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)
    with_t = [r[1] for r in rows]
    without_t = [r[2] for r in rows]
    # Ignoring transfers must shift winners toward the GPU (the
    # Gregg-Hazelwood fallacy the paper explicitly avoids).
    assert without_t.count("GPU") > with_t.count("GPU")

    print(
        "\n\n"
        + format_table(
            ["program", "winner (with transfers)", "winner (free transfers)"],
            rows,
            title="Transfer-accounting ablation (mc2, mid-ladder sizes)",
        )
    )
