#!/usr/bin/env python3
"""Benchmark runner for plugnet: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload ring_sim --seed 1 --seconds 35 --trace 0

Run from the repository root. It imports plugnet from ``src/`` of the
checkout it sits in, sets a workload's inputs up from the seed several
times (``setup_s`` is their median), then repeats the workload's operation
sequence, one operation at a time, until ``--seconds`` would be exceeded.
Every operation's outputs are checked; an unexpected exit code, an
exception or a failed check counts the operation as failed and is named
on stdout.

``--trace 0`` reports the end-to-end metrics as means over the run's
iterations, scaled by the host's measured speed (see ``end_to_end`` and
``HostSpeed``). ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones (medians), with the
tracing overhead. The last line of stdout is the result as JSON; a copy
with the run's facts and raw samples goes to ``--out-dir``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: one process, no more
# threads than cores, and timings that do not depend on a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def import_plugnet():
    """Import plugnet afresh (numpy stays loaded) and return the package."""
    for name in [m for m in sys.modules if m == "plugnet" or m.startswith("plugnet.")]:
        del sys.modules[name]
    pn = importlib.import_module("plugnet")
    importlib.import_module("plugnet.cli")
    if not Path(pn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"plugnet imported from {pn.__file__}, not from {SRC}")
    return pn


class HostSpeed:
    """How fast the host runs a fixed reference kernel during the run.

    The kernel mixes interpreter work, small-array numpy calls and a BLAS
    matvec, like plugnet's own operations. It runs between operations, at
    most every ``INTERVAL_S``, never inside a timed one. ``factor`` scales
    a run's mean times to a host running the kernel in ``NOMINAL_S``, the
    kernel's time at full speed on the host described in NOTES.md.
    """

    INTERVAL_S = 0.2
    NOMINAL_S = 0.003

    def __init__(self):
        self._small = np.ones(64)
        self._matrix = np.random.default_rng(0).standard_normal((200, 200))
        self._vector = np.ones(200)
        self.samples: list[float] = []
        self._last = -self.INTERVAL_S

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(1500):
            total += float((self._small * 1.0001 + 0.5)[3])
        for _ in range(20):
            self._matrix @ self._vector
        return time.perf_counter() - t0

    def sample(self, every: float = INTERVAL_S) -> None:
        if time.perf_counter() - self._last >= every:
            self.samples.append(self.kernel_seconds())
            self._last = time.perf_counter()

    def factor(self) -> float:
        return self.NOMINAL_S / statistics.fmean(self.samples)


class Recorder:
    """Runs the operations of one iteration, timing and checking each."""

    def __init__(self, pn, work: Path, tracer):
        self.pn, self.work, self.tracer = pn, work, tracer
        self.host = HostSpeed()
        self.requests = 0
        self.begin(traced=False)

    def begin(self, traced: bool) -> None:
        self.ops: list[tuple] = []
        self.traced = traced
        self.block = 0

    def new_block(self) -> None:
        """Start a new block of plug verdicts; percentiles are taken per block."""
        self.block += 1

    @contextlib.contextmanager
    def op(self, name: str, stage: str | None = None):
        self.host.sample()
        op = workloads.Op(name)
        self.ops.append((op, stage, self.block))
        self.requests += 1
        span = self.tracer.request_span(name, self.requests) if self.traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                yield op
        except Exception as exc:  # the loop goes on; the operation counts as failed
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            op.seconds = time.perf_counter() - t0

    def cli(self, name: str, argv: list[str], stage: str | None = None):
        """``plugnet <argv>`` in-process, its output captured; exit code 0 expected."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with self.op(name, stage) as op:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.pn.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
        if not op.problems:
            op.check(rc == 0, f"exit code {rc}: {err.getvalue().strip()[-300:]}")
        return op

    @staticmethod
    def verify(op, check) -> None:
        """Check an operation's outputs, unless it already failed."""
        if op.problems:
            return
        try:
            check()
        except Exception as exc:  # a check that cannot read the output fails the operation
            op.problems.append(f"check raised {type(exc).__name__}: {exc}")

    def summary(self) -> dict:
        """The iteration's operation times: per stage and name, and per verdict block."""
        stage_ops: dict[str, dict[str, list[float]]] = {}
        blocks: dict[int, list[float]] = {}
        for op, stage, block in self.ops:
            if stage == "plug_verdict":
                blocks.setdefault(block, []).append(op.seconds * 1e3)
            elif stage:
                stage_ops.setdefault(stage, {}).setdefault(op.name, []).append(op.seconds)
        return {
            "traced": self.traced,
            "wall_s": sum(op.seconds for op, _, _ in self.ops),
            "stage_ops": stage_ops,
            "verdict_blocks_ms": list(blocks.values()),
            "attempted": len(self.ops),
            "failures": [f"{op.name}: {'; '.join(op.problems)}" for op, _, _ in self.ops if op.problems],
        }


def machine_facts() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def end_to_end(setup: list[float], iters: list[dict], node_steps: int,
               setup_host: float, host: float) -> dict:
    """Means over the run's iterations, scaled by the host's speed factor.

    A stage's time is the mean time of each of its operations, summed over
    its distinct operations (a repeated command counts once, at its mean).
    Verdict percentiles are taken per block and averaged over the blocks.
    Every time and the rate are scaled by ``host`` (``HostSpeed.factor``):
    the host this was built on drifts between full and about 0.6 of full
    speed for minutes at a time, and the scaled means varied two to four
    times less from run to run than the raw ones (see NOTES.md).
    ``setup_s`` is the median of the set-ups, scaled by the kernel timed
    before each of them (``setup_host``).
    """
    mean = statistics.fmean
    samples: dict[str, dict[str, list[float]]] = {}
    for it in iters:
        for stage, ops in it["stage_ops"].items():
            for name, seconds in ops.items():
                samples.setdefault(stage, {}).setdefault(name, []).extend(seconds)
    stage = {s: host * sum(mean(v) for v in ops.values()) for s, ops in samples.items()}
    blocks = [b for it in iters for b in it["verdict_blocks_ms"]]
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(len(it["failures"]) for it in iters)
    return {
        "setup_s": setup_host * statistics.median(setup),
        "wall_s": host * mean(it["wall_s"] for it in iters),
        "certify_s": stage["certify"],
        "simulate_s": stage["simulate"],
        "sim_node_steps_per_s": node_steps / stage["simulate"],
        "report_s": stage["report"],
        "plug_verdict_p50_ms": host * mean(float(np.percentile(b, 50)) for b in blocks),
        "plug_verdict_p90_ms": host * mean(float(np.percentile(b, 90)) for b in blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(iters: list[dict]) -> dict:
    traced = [it for it in iters if it["traced"]]
    plain = [it for it in iters if not it["traced"]]
    names = sorted({k for it in traced for k in it["layers"]})
    out = {k: statistics.median(it["layers"][k] for it in traced if k in it["layers"]) for k in names}
    out["trace.overhead_s"] = (statistics.fmean(it["wall_s"] for it in traced)
                               - statistics.fmean(it["wall_s"] for it in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=OUT / "results")
    args = parser.parse_args(argv)

    if not (SRC / "plugnet" / "__init__.py").is_file():
        print(f"error: no plugnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    work = OUT / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, setup_host = [], HostSpeed()
        for _ in range(SETUP_REPEATS):
            setup_host.sample(every=0.0)
            t0 = time.perf_counter()
            pn = import_plugnet()
            state = wl.setup(pn, seed, work)
            setup_times.append(time.perf_counter() - t0)

        tracer = spans.Tracer() if args.trace else None
        rec = Recorder(pn, work, tracer)
        iters: list[dict] = []
        trace_file = None
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(iters) % 2 == 1
            gc.collect()  # every iteration starts from the same heap, untimed
            rec.begin(traced)
            if traced:
                tracer.reset(run_id=len(iters))
                tracer.install()
            try:
                wl.iteration(pn, state, rec)
            finally:
                if traced:
                    tracer.uninstall()
            it = rec.summary()
            if traced:
                it["layers"] = tracer.metrics()
                if trace_file is None:
                    trace_file = OUT / "traces" / f"{wl.name}-seed{seed}-{os.getpid()}.npz"
                    trace_file.parent.mkdir(parents=True, exist_ok=True)
                    tracer.write(trace_file)
            iters.append(it)
            elapsed = time.perf_counter() - start
            enough = not args.trace or len(iters) >= 2
            if enough and elapsed * (len(iters) + 1) / len(iters) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [it for it in iters if not it["traced"]]
    unscaled = None
    if args.trace:
        measured = per_layer(iters)
    else:
        measured = end_to_end(setup_times, plain, state["node_steps"],
                              setup_host.factor(), rec.host.factor())
        unscaled = end_to_end(setup_times, plain, state["node_steps"], 1.0, 1.0)
    # BENCHMARK.json names what is reported and its unit; a per-layer metric
    # whose wrapped function is gone is left out.
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in measured}
    attempted = sum(it["attempted"] for it in iters)
    failures = [f for it in iters for f in it["failures"]]
    facts = machine_facts()
    facts.update({"plugnet": pn.__version__, "workload": wl.name, "seed": seed,
                  "seconds": seconds, "trace": args.trace, "iterations": len(iters),
                  "plug_verdict_blocks": [len(b) for b in plain[0]["verdict_blocks_ms"]],
                  "setup_repeats": SETUP_REPEATS, "inputs_sha256": state["hashes"],
                  "host_factor": rec.host.factor(), "host_samples": len(rec.host.samples),
                  "setup_host_factor": setup_host.factor()})
    if tracer is not None:
        facts.update({"trace_file": str(trace_file.relative_to(ROOT)),
                      "trace_missing": tracer.missing})
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }

    args.out_dir.mkdir(parents=True, exist_ok=True)
    record = {"facts": facts, "result": result, "unscaled": unscaled, "setup_s": setup_times,
              "host_kernel_s": rec.host.samples, "iterations": iters, "failures": failures}
    name = f"{wl.name}-seed{seed}-trace{args.trace}-{os.getpid()}.json"
    (args.out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print("facts " + json.dumps(facts))
    for failure in failures:
        print(f"FAILED {failure}")
    for k, m in metrics.items():
        extra = ""
        if k.startswith("plug_verdict"):
            blocks = facts["plug_verdict_blocks"]
            extra = f"  (mean of {len(plain) * len(blocks)} blocks of {blocks[0]} verdicts)"
        print(f"{k} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
