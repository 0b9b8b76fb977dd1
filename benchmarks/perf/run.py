#!/usr/bin/env python3
"""Host-time benchmark of the whole stack: four workloads, calibrated
throughput and per-layer attribution.

Run from the repository root (the script puts ``src`` on the path):

    python3 benchmarks/perf/run.py --workload service-hot --seed 3 --trace 0
    python3 benchmarks/perf/run.py --workload all --seed 0 --output perf.json

One workload runs in one process: set-up (timed, at least three times,
median reported), then whole passes of fixed work until about
``--seconds`` of measured time.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced pass and then traced passes
with outside-in layer timers, and reports the per-layer metrics.
``--workload all`` runs every workload in its own child process,
untraced then traced (or only the ``--trace`` given).

Every simulated number is a correctness check, never a metric: all
passes of a run, traced or not, must produce the same fingerprint, and
seeds pinned in ``GOLDEN.json`` must match it.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when the run is not correct.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: runs stay serial, and numpy's float reductions
# do not depend on the thread count.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

WORKLOADS = ("train-campaign", "service-hot", "service-learn", "cluster-faults")

#: Set-up runs per run at least, so ``setup_s`` is a median.
MIN_SETUPS = 3

END_TO_END_UNITS = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-op host latency percentiles printed with every untraced run.
#: Not end-to-end metrics: their run-to-run spread (p50 of the 149
#: campaign records 12%, tails 3-14%) is too wide to gate on.
LATENCY_QUANTILES = (0.50, 0.90, 0.99, 0.999)

#: Ratios and counts read from the public stats objects after a pass.
STAT_UNITS = {
    "serving.cache.hit_rate": "ratio",
    "engine.tape_hit_rate": "ratio",
    "serving.service.calls_per_completion": "ratio",
    "serving.eventloop.cancelled_busy_frac": "ratio",
    "cluster.spec_win_rate": "ratio",
    "serving.service.adaptations": "count",
    "ml.refits": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in harness.LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
        units[f"setup.{layer}.self_share"] = "ratio"
    units["unattributed_share"] = "ratio"
    units["setup.unattributed_share"] = "ratio"
    units["trace_overhead"] = "ratio"
    return {**units, **STAT_UNITS}


def _timed_setup(scenario, seed: int, quick: bool):
    """``(state, (raw seconds, corrected seconds))`` of one set-up."""
    before = harness.calibrate()
    t0 = time.perf_counter()
    state = scenario.setup(seed, quick)
    raw = time.perf_counter() - t0
    after = harness.calibrate()
    return state, (raw, harness.corrected(raw, (before + after) / 2))


def measure(scenario, seed: int, quick: bool, seconds: float, timers=None):
    """Set-up + one pass, repeated until the passes total about ``seconds``.

    Stops at the whole number of passes nearest to ``seconds`` of raw
    measured time (at least one).  Returns ``(passes, setups)``: a list
    of ``(Windows, PassResult)`` and one ``(raw, corrected)`` per set-up.
    """
    passes, setups = [], []
    measured = 0.0
    while True:
        if timers is not None:
            timers.phase("setup")
        state, setup = _timed_setup(scenario, seed, quick)
        setups.append(setup)
        # The set-up's garbage is not the pass's to collect.
        gc.collect()
        if timers is not None:
            timers.phase("measure")
        windows = harness.Windows()
        result = scenario.run(state, windows)
        del state
        passes.append((windows, result))
        measured += windows.raw_total_s
        if measured + windows.raw_total_s / 2 >= seconds:
            return passes, setups


def _end_to_end(passes, setups: list[tuple[float, float]]) -> dict[str, float]:
    ops = sum(r.ops for _, r in passes)
    return {
        "ops_per_s": ops / sum(w.corrected_total_s for w, _ in passes),
        "setup_s": statistics.median(corrected for _raw, corrected in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _latency(windows) -> dict[str, float]:
    """Corrected per-op host latency percentiles, in microseconds."""
    samples = sorted(s for w in windows for s in w.latencies_s)
    out = {"samples": len(samples)}
    for q in LATENCY_QUANTILES:
        out[f"p{q * 100:g}_us"] = harness.percentile(samples, q) * 1e6
    return out


def _per_layer(passes, setups, reference, timers) -> tuple[dict[str, float], dict]:
    phase_s = sum(w.raw_total_s for w, _ in passes)
    setup_s = sum(raw for raw, _corrected in setups)
    totals = timers.layer_totals("measure")
    setup_totals = timers.layer_totals("setup")
    metrics = {}
    for layer in harness.LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.self_share"] = self_s / phase_s
        metrics[f"{layer}.calls"] = calls
        setup_self_s = setup_totals.get(layer, (0.0, 0))[0]
        metrics[f"setup.{layer}.self_share"] = setup_self_s / setup_s
    metrics["unattributed_share"] = 1.0 - sum(
        metrics[f"{layer}.self_share"] for layer in harness.LAYERS
    )
    metrics["setup.unattributed_share"] = 1.0 - sum(
        metrics[f"setup.{layer}.self_share"] for layer in harness.LAYERS
    )
    traced = sum(w.corrected_total_s for w, _ in passes) / len(passes)
    untraced = sum(w.corrected_total_s for w, _ in reference) / len(reference)
    metrics["trace_overhead"] = traced / untraced
    ratios = passes[-1][1].ratios
    for name in STAT_UNITS:
        metrics[name] = ratios.get(name, 0)
    detail = {
        "phase_s": phase_s,
        "layers": {
            layer: {"self_s": self_s, "calls": calls}
            for layer, (self_s, calls) in sorted(totals.items())
        },
        "setup_layers": {
            layer: {"self_s": self_s, "calls": calls}
            for layer, (self_s, calls) in sorted(setup_totals.items())
        },
        "by_caller": dict(sorted(timers.by_caller("measure").items())),
        "skipped_targets": timers.skipped,
        "folded": timers.folded(),
    }
    return metrics, detail


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> dict:
    """One workload in this process; returns its result document."""
    from scenarios import SCENARIOS

    scenario = SCENARIOS[name]
    doc = {"workload": name, "seed": seed, "trace": int(trace), "quick": quick}
    # The first calibrations of a process run slow; never correct by them.
    for _ in range(3):
        harness.calibrate()
    try:
        reference = []
        if trace:
            reference, _ = measure(scenario, seed, quick, 0.0)
            layers = {**harness.LAYERS, **harness.HARNESS_LAYERS}
            with harness.LayerTimers(layers) as timers:
                passes, setups = measure(scenario, seed, quick, seconds, timers)
            values, detail = _per_layer(passes, setups, reference, timers)
            doc.update(detail)
            units = per_layer_units()
        else:
            passes, setups = measure(scenario, seed, quick, seconds)
            while len(setups) < MIN_SETUPS:
                setups.append(_timed_setup(scenario, seed, quick)[1])
            values = _end_to_end(passes, setups)
            units = END_TO_END_UNITS
    except Exception:  # noqa: BLE001 - the boundary that must report
        traceback.print_exc()
        doc.update(correct=False, attempted=1, failed=1, errors=["harness error"])
        doc["metrics"] = {}
        return doc

    results = [r for _, r in reference + passes]
    errors = [e for r in results for e in r.errors]
    digests = sorted({r.digest for r in results})
    if len(digests) > 1:
        errors.append(f"passes disagree (traced vs untraced or replay): {digests}")
    golden = None if quick else _golden().get(name, {}).get(str(seed))
    if golden is not None and golden not in digests:
        errors.append(f"fingerprint {digests[0]} differs from GOLDEN.json {golden}")
    cal = [c for w, _ in reference + passes for c in w.cal_s]
    measured = [w for w, _ in passes]
    doc.update(
        correct=not errors,
        attempted=sum(r.ops for r in results),
        failed=sum(r.failed for r in results),
        errors=errors[:20],
        fingerprint=digests[0],
        golden=golden,
        passes=len(passes),
        setup_samples_s=[corrected for _raw, corrected in setups],
        raw_ops_per_s=sum(r.ops for _, r in passes)
        / sum(w.raw_total_s for w in measured),
        ratios=passes[-1][1].ratios,
        windows=[{"raw_s": w.raw_s, "cal_s": w.cal_s, "ops": w.ops} for w in measured],
        latency=_latency(measured),
        **harness.noise_report(cal),
    )
    doc["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return doc


def _golden() -> dict:
    path = HERE / "GOLDEN.json"
    return json.loads(path.read_text()) if path.exists() else {}


def print_result(doc: dict) -> None:
    golden = doc.get("golden")
    check = "unpinned" if golden is None else "golden ok"
    if not doc["correct"]:
        check = "INCORRECT"
    print(
        f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
        f"passes={doc.get('passes')} host_speed={doc.get('host_speed', 0):.3f} "
        f"noisy={doc.get('noisy')} fingerprint={str(doc.get('fingerprint'))[:16]} "
        f"({check})"
    )
    for error in doc.get("errors", []):
        print(f"   error: {error}")
    if doc["trace"] and doc["metrics"]:
        phase = doc["phase_s"]
        rows = [
            (layer, cell["self_s"], cell["calls"])
            for layer, cell in doc["layers"].items()
            if layer in harness.LAYERS
        ]
        unattributed = doc["metrics"]["unattributed_share"]["value"] * phase
        rows.append(("(unattributed)", unattributed, 0))
        print(f"   {'layer':24} {'self_s':>9} {'share':>7} {'calls':>9}")
        for layer, self_s, calls in sorted(rows, key=lambda row: -row[1]):
            print(f"   {layer:24} {self_s:9.3f} {self_s / phase:7.1%} {calls:9d}")
        for target in doc["skipped_targets"]:
            print(f"   (not found, untimed: {target})")
    for name, metric in doc["metrics"].items():
        print(f"   {name:42} {metric['value']:14.6g} {metric['unit']}")
    if not doc["trace"] and doc["metrics"]:
        print(f"   raw ops_per_s {doc['raw_ops_per_s']:.6g} (uncorrected)")
        latency = doc["latency"]
        quantiles = " ".join(
            f"{k[:-3]} {v:.6g}" for k, v in latency.items() if k != "samples"
        )
        print(f"   per-op host latency (us, {latency['samples']} samples): {quantiles}")


def write_output(docs: list[dict], path: Path) -> None:
    """The run document as JSON, plus one folded-stack file per traced run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        if "folded" in doc:
            name = f"{path.stem}.{doc['workload']}.folded"
            path.with_name(name).write_text("\n".join(doc["folded"]) + "\n")
    path.write_text(json.dumps({"results": docs}, indent=1, sort_keys=True) + "\n")


def contract_line(docs: list[dict]) -> dict:
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {
            f"{name}@{doc['workload']}": metric
            for doc in docs
            for name, metric in doc["metrics"].items()
        }
    return {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }


def run_all(args) -> list[dict]:
    """Every workload in its own child process; returns their documents."""
    traces = [args.trace] if args.trace is not None else [0, 1]
    docs = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".runs-") as tmp:
        for trace in traces:
            for name in WORKLOADS:
                out = Path(tmp) / f"{name}.{trace}.json"
                cmd = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--output", str(out),
                ] + (["--quick"] if args.quick else [])
                subprocess.run(cmd, timeout=900, check=False)
                if out.exists():
                    docs.extend(json.loads(out.read_text())["results"])
                else:
                    docs.append(
                        {"workload": name, "trace": trace, "correct": False,
                         "attempted": 1, "failed": 1, "metrics": {}}
                    )
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="measured time per run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="1: per-layer run (default: 0, or both for --workload all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="passes about a tenth as long"
    )
    parser.add_argument("--output", type=Path, default=None, help="result JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        docs = run_all(args)
    else:
        docs = [
            run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.quick
            )
        ]
        print_result(docs[0])
    if args.output is not None:
        write_output(docs, args.output)
    line = contract_line(docs)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
