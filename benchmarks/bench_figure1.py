"""E1 + E5 — regenerate the paper's Figure 1.

Per program and machine: speedup of the ML-guided partitioning over the
CPU-only and GPU-only defaults (leave-one-program-out protocol), plus
the §3 observation that the stronger default flips between mc1 and mc2.

Paper reference points (clipped peak bars of Figure 1):
    mc1: up to 13.5x over CPU-only, 19.8x over GPU-only
    mc2: up to  5.7x over CPU-only,  4.9x over GPU-only
and the qualitative claims: CPU-only usually wins on mc1, GPU-only on
mc2, and the ML approach beats both on average on both machines.
"""

import pytest

from repro.experiments import render_figure1, run_figure1
from repro.machines import MC1, MC2

_RESULTS = {}


@pytest.mark.parametrize("machine", [MC1, MC2], ids=lambda m: m.name)
def test_figure1(benchmark, machine, dbs):
    db = dbs[machine.name]

    def evaluate():
        return run_figure1(machine, db=db, model_kind="mlp")

    result = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    _RESULTS[machine.name] = result
    ev = result.evaluation

    # Paper-shape assertions (paper §5).
    assert ev.geomean_speedup_vs_cpu > 1.0, "ML must beat CPU-only on average"
    assert ev.geomean_speedup_vs_gpu > 1.0, "ML must beat GPU-only on average"
    assert ev.geomean_oracle_efficiency > 0.75

    if machine.name == "mc1":
        assert result.cpu_default_wins > result.gpu_default_wins, (
            "on mc1 the CPU-only default usually wins (weak VLIW GPUs)"
        )
    else:
        assert result.gpu_default_wins >= result.cpu_default_wins, (
            "on mc2 the GPU-only default usually wins"
        )

    if len(_RESULTS) == 2:
        print("\n\n" + render_figure1([_RESULTS["mc1"], _RESULTS["mc2"]]))
