"""Check the stdout of one traced benchmark run (``perfbench/run.py --trace 1``).

Usage: python3 .github/scripts/check_traced_run.py RUN_STDOUT_FILE

Fails (exit 1) unless the last line is strict JSON (no NaN or Infinity)
with ``"correct": true``, its metrics hold every per-layer metric that
BENCHMARK.json lists, and the facts line's ``trace_missing`` names no
wrapped function beyond the three that were already gone when this check
was written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KNOWN_MISSING = {
    "plugnet.sim.evaluate_coupling",
    "plugnet.certificates.incidence",
    "plugnet.sim.incidence",
}


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def problems(lines: list[str]) -> list[str]:
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not a strict JSON result: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result.get("metrics") or {}
    absent = [m["name"] for m in listed if m["name"] not in metrics]
    if absent:
        found.append(f"per-layer metrics absent: {absent}")
    facts = [line[len("facts "):] for line in lines if line.startswith("facts ")]
    if not facts:
        return found + ["no facts line"]
    missing = set(json.loads(facts[-1]).get("trace_missing", []))
    if missing - KNOWN_MISSING:
        found.append(f"new wrapped names missing: {sorted(missing - KNOWN_MISSING)}")
    return found


def main(argv: list[str]) -> int:
    found = problems(Path(argv[1]).read_text().splitlines())
    for problem in found:
        print(f"traced run: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
