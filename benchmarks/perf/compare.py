#!/usr/bin/env python3
"""A/B verdicts for the perf benchmark.

    python3 benchmarks/perf/compare.py PARENT.json... -- CHANGE.json...

Each file is a ``run.py --output`` document.  Run the two commits in
alternating pairs (parent, change, parent, ...) and list the files in
the order they ran: the i-th parent run is paired with the i-th change
run.  For every (end-to-end metric, workload) the script prints each
side's median and quartiles, the share of pairs the change won (ties
count for neither) and a verdict, with the bounds from BENCHMARK.json:

* ``improved`` — the change won at least 9/10 of the pairs, its median
  is better by more than the parent's quartile spread, and no more ops
  failed than at the parent;
* ``unresolved`` — the parent's own quartile spread is wider than the
  bound, unless every change run beat every parent run;
* ``regressed`` — the change's median is worse by more than the bound;
* ``no-regression`` — otherwise.

Runs flagged noisy are listed, never dropped.  Where both sides have
traced runs, per-layer median self times are printed side by side.
The exit code is 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        for doc in json.loads(Path(path).read_text())["results"]:
            results.append({**doc, "file": path})
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    parent_failed: int,
    change_failed: int,
) -> tuple[str, float, float]:
    """(verdict, relative change of the median, share of pairs won)."""
    sign = -1.0 if better == "lower" else 1.0
    p1, pm, p3 = quartiles(parent)
    _c1, cm, _c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    rel = (cm - pm) / pm
    gain = sign * (cm - pm)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if won >= WIN_SHARE and gain > p3 - p1 and change_failed <= parent_failed:
        return "improved", rel, won
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", rel, won
    if -gain / pm > bound:
        return "regressed", rel, won
    return "no-regression", rel, won


def _by_workload(results: list[dict], trace: int) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for doc in results:
        if doc.get("trace") == trace and doc.get("metrics"):
            grouped.setdefault(doc["workload"], []).append(doc)
    return grouped


def compare(parent: list[dict], change: list[dict], spec: dict) -> int:
    regressed = 0
    p_runs, c_runs = _by_workload(parent, 0), _by_workload(change, 0)
    print(
        f"{'workload':15} {'metric':13} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'change':>8} {'won':>5}  verdict"
    )
    for workload in sorted(set(p_runs) & set(c_runs)):
        ps, cs = p_runs[workload], c_runs[workload]
        if min(len(ps), len(cs)) < MIN_PAIRS:
            pairs = min(len(ps), len(cs))
            print(f"{workload}: only {pairs} pairs (want >= {MIN_PAIRS})")
        p_failed = sum(d["failed"] for d in ps)
        c_failed = sum(d["failed"] for d in cs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [d["metrics"][name]["value"] for d in ps if name in d["metrics"]]
            cv = [d["metrics"][name]["value"] for d in cs if name in d["metrics"]]
            if not pv or not cv:
                continue
            result, rel, won = verdict(
                pv, cv, metric["better"], metric["bound"], p_failed, c_failed
            )
            regressed += result == "regressed"
            print(
                f"{workload:15} {name:13} {_fmt(pv):>34} {_fmt(cv):>34} "
                f"{rel:+8.2%} {won:5.0%}  {result}"
            )
        print(f"{workload:15} failed ops: parent {p_failed}, change {c_failed}")
    for side, results in (("parent", parent), ("change", change)):
        for doc in results:
            if doc.get("noisy"):
                print(
                    f"noisy {side} run: {doc['file']} {doc['workload']} "
                    f"trace={doc['trace']} (calibration max/median "
                    f"{doc['cal_max_over_median']:.2f})"
                )
            if not doc.get("correct", False):
                print(f"INCORRECT {side} run: {doc['file']} {doc['workload']}")
    _layers(_by_workload(parent, 1), _by_workload(change, 1))
    return regressed


def _layers(p_runs: dict, c_runs: dict) -> None:
    def median_self_s(runs: list[dict], layer: str) -> float:
        return statistics.median(
            d["layers"].get(layer, {"self_s": 0.0})["self_s"] for d in runs
        )

    for workload in sorted(set(p_runs) & set(c_runs)):
        ps, cs = p_runs[workload], c_runs[workload]
        print(f"\n{workload}: median layer self time (s), parent -> change")
        for layer in sorted({layer for d in ps + cs for layer in d["layers"]}):
            print(
                f"  {layer:22} {median_self_s(ps, layer):9.4f} -> "
                f"{median_self_s(cs, layer):9.4f}"
            )


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_paths, change_paths = argv[:split], argv[split + 1 :]
    if not parent_paths or not change_paths:
        print("need at least one run document on each side of --", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    regressed = compare(load(parent_paths), load(change_paths), spec)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
