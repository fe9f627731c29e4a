#!/usr/bin/env python3
"""Summarize or compare result sets written by perfbench/run.py.

    python3 perfbench/compare.py RESULTS                 # spread of one set
    python3 perfbench/compare.py PARENT CHANGE           # parent against change

A result set is a directory of the JSON records run.py writes (one per
run; runs with --trace 1 are ignored here). For each workload and each
end-to-end metric in BENCHMARK.json it prints the median and quartiles
over the runs, and the spread: the interquartile distance as a share of
the median.

With one set, a metric is "steady" when its spread is within a third of
its bound, "wide" when within the bound, and "UNSTEADY" beyond it. With
two sets, a metric is a "REGRESSION" when the change's median is worse
than the parent's by more than the bound, "unresolved" when either side's
spread is wider than the bound (unless every run of the change beats
every run of the parent), and otherwise "better" or "same". The same
verdict is also taken on the unscaled figures (before the host-speed
factor, see run.HostSpeed); a "*" after the verdict marks a metric where
the two verdicts differ, and each workload's median host factor is
printed for both sides.

A failed operation is judged on its own, not through ops_ok_ratio (one
failed check among hundreds of operations moves the ratio by less than
its bound): a workload whose runs failed any operation is "FAILED" in a
single set, and a "REGRESSION" in a comparison when the parent's runs
failed none. The exit code is 1 when any metric regressed, is unsteady or
missing, or any such failure shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Runs:
    """One workload's untraced runs in a result set."""

    def __init__(self):
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.host_factor: list[float] = []
        self.failed = 0
        self.failures: list[str] = []


def load(directory: Path) -> dict[str, Runs]:
    runs: dict[str, Runs] = defaultdict(Runs)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record["facts"]["trace"]:
            continue
        r = runs[record["facts"]["workload"]]
        for name, metric in record["result"]["metrics"].items():
            r.scaled[name].append(metric["value"])
        for name, value in (record["unscaled"] or {}).items():
            r.raw[name].append(value)
        r.host_factor.append(record["facts"]["host_factor"])
        r.failed += record["result"]["failed"]
        r.failures += record["failures"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """Share by which the change is worse than the parent (negative: better)."""
    if parent == 0:
        return 0.0
    return (change - parent) / abs(parent) * (1 if better == "lower" else -1)


def beats_all(a: list[float], b: list[float], better: str) -> bool:
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def verdict(a: list[float], b: list[float], metric: dict) -> str:
    w = worse_by(statistics.median(a), statistics.median(b), metric["better"])
    if beats_all(a, b, metric["better"]):
        return "better"
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved"
    if w > metric["bound"]:
        return "REGRESSION"
    if -w > spread(a):
        return "better"
    return "same"


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def show_failures(workload: str, runs: Runs) -> None:
    for failure in sorted(set(runs.failures))[:5]:
        print(f"{workload:<14}   {failure[:160]}")


def spread_table(runs_by_workload: dict[str, Runs], metrics: list[dict]) -> bool:
    bad = False
    print(f"{'workload':<14} {'metric':<22} {'n':>3} {'median [q1, q3]':>34} {'spread':>7} "
          f"{'bound':>6}  status")
    for workload, runs in sorted(runs_by_workload.items()):
        for m in metrics:
            vals = runs.scaled.get(m["name"])
            if not vals:
                print(f"{workload:<14} {m['name']:<22} missing")
                bad = True
                continue
            s = spread(vals)
            status = "steady" if s <= m["bound"] / 3 else "wide" if s <= m["bound"] else "UNSTEADY"
            bad |= status == "UNSTEADY"
            print(f"{workload:<14} {m['name']:<22} {len(vals):>3} {fmt(vals):>34} "
                  f"{s:>7.3f} {m['bound']:>6.2f}  {status}")
        print(f"{workload:<14} {'host_factor':<22} {len(runs.host_factor):>3} "
              f"{fmt(runs.host_factor):>34}")
        if runs.failed:
            bad = True
            print(f"{workload:<14} {'failed operations':<22} {runs.failed:>3}  FAILED")
            show_failures(workload, runs)
    return bad


def compare_table(parent: dict[str, Runs], change: dict[str, Runs], metrics: list[dict]) -> bool:
    bad = False
    print(f"{'workload':<14} {'metric':<22} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'raw parent':>11} {'raw change':>11} "
          f"{'worse':>7} {'bound':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<14} missing on {'parent' if workload not in parent else 'change'}")
            bad = True
            continue
        p, c = parent[workload], change[workload]
        for m in metrics:
            a, b = p.scaled.get(m["name"]), c.scaled.get(m["name"])
            if not a or not b:
                print(f"{workload:<14} {m['name']:<22} missing on {'parent' if not a else 'change'}")
                bad = True
                continue
            v = verdict(a, b, m)
            bad |= v == "REGRESSION"
            ra, rb = p.raw.get(m["name"]), c.raw.get(m["name"])
            raw = f"{statistics.median(ra):>11.5g} {statistics.median(rb):>11.5g}" if ra and rb else f"{'':>23}"
            differs = "*" if ra and rb and verdict(ra, rb, m) != v else ""
            w = worse_by(statistics.median(a), statistics.median(b), m["better"])
            print(f"{workload:<14} {m['name']:<22} {fmt(a):>34} {fmt(b):>34} {raw} "
                  f"{w:>+7.3f} {m['bound']:>6.2f}  {v}{differs}")
        print(f"{workload:<14} {'host_factor':<22} {fmt(p.host_factor):>34} {fmt(c.host_factor):>34}")
        if c.failed:
            v = "REGRESSION" if not p.failed else "failing on both"
            bad = True
            print(f"{workload:<14} {'failed operations':<22} {p.failed:>34} {c.failed:>34}  {v}")
            show_failures(workload, c)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two result directories")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sets = [load(d) for d in args.sets]
    bad = spread_table(sets[0], metrics) if len(sets) == 1 else compare_table(*sets, metrics)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
