"""Tests of the perf benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import run
from harness import LayerTimers, Windows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    timers = LayerTimers({}, clock=clock)
    timers.phase("measure")

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf_timed()
        clock.advance(0.5)

    def same_layer_helper():
        clock.advance(0.25)

    def top():
        clock.advance(3.0)
        middle_timed()
        helper_timed()
        middle_timed()

    leaf_timed = timers.wrap("c", leaf)
    middle_timed = timers.wrap("b", middle)
    helper_timed = timers.wrap("a", same_layer_helper)
    timers.wrap("a", top)()

    totals = timers.layer_totals("measure")
    assert totals == {"a": [3.25, 2], "b": [3.0, 2], "c": [4.0, 2]}
    assert sum(cell[0] for cell in totals.values()) == clock.now
    assert timers.by_caller("measure") == {"a<-<top>": 3.25, "b<-a": 3.0, "c<-b": 4.0}
    assert sorted(timers.folded()) == [
        "measure;a 3250000",
        "measure;a;b 3000000",
        "measure;a;b;c 4000000",
    ]


def test_span_stack_survives_exceptions():
    clock = FakeClock()
    timers = LayerTimers({}, clock=clock)
    timers.phase("measure")

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    def caller():
        with pytest.raises(KeyError):
            boom_timed()
        clock.advance(1.0)

    boom_timed = timers.wrap("b", boom)
    timers.wrap("a", caller)()
    assert timers.layer_totals("measure") == {"a": [1.0, 1], "b": [1.0, 1]}
    timers.phase("setup")  # only legal with no span open


def _namespaces() -> dict[str, dict]:
    """Shallow copies of every repro module and class namespace."""
    spaces = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in ("repro", "harness", "scenarios"):
            spaces[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if inspect.isclass(value) and value.__module__ == name:
                    spaces[f"{name}.{attr}"] = dict(vars(value))
    return spaces


def _changed(before: dict, after: dict) -> list[str]:
    return [
        f"{space}:{attr}"
        for space, names in before.items()
        for attr, value in names.items()
        if after.get(space, {}).get(attr, value) is not value
    ]


def test_every_patched_function_is_restored():
    import scenarios  # noqa: F401 - imports every layer's module

    before = _namespaces()
    layers = {**harness.LAYERS, **harness.HARNESS_LAYERS}
    with LayerTimers(layers) as timers:
        during = _namespaces()
        assert timers.skipped == []
    after = _namespaces()
    patched = _changed(before, during)
    assert len(patched) > 50
    assert "repro.serving.service.PartitioningService:submit" in patched
    assert "repro.engine.sweep:plan_device_commands" in patched
    assert _changed(before, after) == []


def test_calibration_correction(monkeypatch):
    clock = FakeClock()
    ref = harness.C_REF_S
    cals = iter([ref, 3 * ref, ref])  # at start, then after each window
    monkeypatch.setattr(harness, "calibrate", lambda: next(cals))
    monkeypatch.setattr(harness, "SLOWDOWN_EXPONENT", 1.0)
    windows = Windows(window_s=2.0, clock=clock)
    windows.start()
    for gap in (1.0, 1.5, 0.5):
        clock.advance(gap)
        windows.tick()
    clock.advance(0.5)  # work after the last tick belongs to the last window
    windows.finish()
    assert windows.raw_s == [2.5, 1.0]
    assert windows.ops == [2, 1]
    # Each window is corrected by the mean calibration around it (2x the
    # reference here): a host running at half speed halves every time.
    assert windows.window_cal_s == pytest.approx([2 * ref, 2 * ref])
    assert windows.latencies_s == pytest.approx([0.5, 0.75, 0.25])
    assert windows.corrected_total_s == pytest.approx(1.75)


def test_correction_exponent(monkeypatch):
    monkeypatch.setattr(harness, "SLOWDOWN_EXPONENT", 0.5)
    assert harness.corrected(1.0, harness.C_REF_S / 4) == pytest.approx(2.0)
    assert harness.corrected(3.0, harness.C_REF_S) == 3.0


def test_noise_report_flags_but_keeps_slow_windows():
    steady = harness.noise_report([0.018, 0.019, 0.018])
    assert not steady["noisy"]
    noisy = harness.noise_report([0.018, 0.018, 0.018, 0.030])
    assert noisy["noisy"]
    assert noisy["cal_max_over_median"] == pytest.approx(0.030 / 0.018)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert harness.percentile(values, 0.5) == 500.0
    assert harness.percentile(values, 0.99) == 990.0
    assert harness.percentile(values, 0.999) == 999.0
    assert harness.percentile([7.0], 0.999) == 7.0


def _runs(start: float) -> list[float]:
    return [start + i for i in range(10)]


@pytest.mark.parametrize(
    ("parent", "change", "better", "expected"),
    [
        (_runs(100.0), _runs(120.0), "higher", "improved"),
        (_runs(100.0), _runs(80.0), "higher", "regressed"),
        (_runs(100.0), _runs(101.0), "lower", "no-regression"),
        ([60.0, 140.0] * 5, [100.0] * 10, "lower", "unresolved"),
        # Every change run beats every parent run, but by less than the
        # parent's own spread: resolved, yet no claimable gain.
        ([60.0, 140.0] * 5, [50.0] * 10, "lower", "no-regression"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1, 0, 0)[0] == expected


def test_no_gain_when_more_ops_fail():
    verdict = compare.verdict(_runs(100.0), _runs(120.0), "higher", 0.1, 0, 3)
    assert verdict[0] == "no-regression"


def test_benchmark_json_matches_the_harness():
    import scenarios

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(scenarios.SCENARIOS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_quick_run_prints_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick",
         "--seconds", "0", "--output", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    docs = json.loads(out.read_text())["results"]
    assert sorted((d["workload"], d["trace"]) for d in docs) == sorted(
        (w, t) for w in run.WORKLOADS for t in (0, 1)
    )
    for doc in docs:
        wanted = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
        assert set(doc["metrics"]) == {m["name"] for m in wanted}
        for metric in wanted:
            assert f"{metric['name']} " in proc.stdout
            assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]
        if doc["trace"]:
            assert doc["metrics"]["unattributed_share"]["value"] <= 0.05
            assert (out.parent / f"quick.{doc['workload']}.folded").exists()
