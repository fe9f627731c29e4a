#!/usr/bin/env python3
"""Run the benchmark over several seeds into one result set.

    python3 perfbench/sweep.py --out-dir .perfbench_out/sets/a --seeds 1-10
    python3 perfbench/compare.py .perfbench_out/sets/a

Runs perfbench/run.py once per workload of BENCHMARK.json and seed, one
process at a time, untraced, for the run_seconds of BENCHMARK.json: the
settings a comparison of two commits needs on both sides.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import HELD_OUT_SEED

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """Parse "1-10", "1,4,7" or "held-out" (the seed kept out of tuning)."""
    if text == "held-out":
        return [HELD_OUT_SEED]
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)

    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0", "--out-dir", str(args.out_dir)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
            failed += not ok
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"{'correct' if ok else 'FAILED'}", flush=True)
            if not ok:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
