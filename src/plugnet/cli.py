"""Command-line entry point: certify, simulate, report, example.

Exit codes: 0 success/certified, 2 certificate condition failure,
3 degenerate input or interconnection-rule violation, 1 anything else.
Output files land in --out-dir, the PLUGNET_OUT_DIR environment variable,
or the current directory, in that order of precedence; a scenario's
optional "outputs" block supplies per-file defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (
    VERDICT_CERTIFIED,
    certify_fixed_network,
    certify_network_plug,
    certify_single_node_plug,
)
from .errors import AssumptionViolation, DegenerateInput, PlugnetError
from .metrics import analytic_gain_bound, default_horizons, disagreement, estimate_io_gain
from .scenario import ScenarioDocument, parse_scenario, paper_example, write_scenario
from .sim import TrajectoryRecord, run

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DEGENERATE = 3


def _out_dir(args) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    env = os.environ.get("PLUGNET_OUT_DIR")
    return Path(env) if env else Path.cwd()


def write_trajectory_csv(traj: TrajectoryRecord, path: Path) -> None:
    """Fixed column order: t, then y/u/w per node in ascending node id."""
    ids = traj.node_ids
    header = (
        ["t"]
        + [f"y{i}" for i in ids]
        + [f"u{i}" for i in ids]
        + [f"w{i}" for i in ids]
    )
    lines = [",".join(header)]
    for s in range(len(traj.times)):
        row = [repr(float(traj.times[s]))]
        row += [repr(float(v)) for v in traj.outputs[s]]
        row += [repr(float(v)) for v in traj.inputs[s]]
        row += [repr(float(v)) for v in traj.noise[s]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path: Path) -> TrajectoryRecord:
    """Rebuild a trajectory record (without graph phases) from the CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = (len(header) - 1) // 3
    ids = tuple(int(name[1:]) for name in header[1 : 1 + n])
    return TrajectoryRecord(
        node_ids=ids,
        times=data[:, 0],
        outputs=data[:, 1 : 1 + n],
        inputs=data[:, 1 + n : 1 + 2 * n],
        noise=data[:, 1 + 2 * n : 1 + 3 * n],
        active_graph=np.zeros(data.shape[0], dtype=int),
    )


def _sweep_table(doc: ScenarioDocument) -> list[dict]:
    rows = []
    sweeps = doc.sweep_indices()
    for node_id in sorted(doc.nodes):
        spec = doc.nodes[node_id]
        sweep = sweeps.get(node_id)
        rows.append(
            {
                "node": node_id,
                "declared_nu": spec.declared_nu,
                "sweep_nu": sweep.nu if sweep else None,
                "sweep_omega": sweep.omega if sweep else None,
            }
        )
    return rows


def _print_sweep_table(rows: list[dict]) -> None:
    print(f"{'node':>6} {'declared nu':>14} {'sweep nu':>14} {'omega@min':>12}")
    for row in rows:
        declared = "-" if row["declared_nu"] is None else f"{row['declared_nu']:.4f}"
        sweep = "-" if row["sweep_nu"] is None else f"{row['sweep_nu']:.4f}"
        omega = "-" if row["sweep_nu"] is None else (
            "inf" if row["sweep_omega"] is None else f"{row['sweep_omega']:.4g}")
        print(f"{row['node']:>6} {declared:>14} {sweep:>14} {omega:>12}")
    print("(certificates use the declared nu where one is given, the sweep nu otherwise)")


def cmd_certify(args) -> int:
    if not args.tol >= 0.0:
        raise PlugnetError(f"--tol must be nonnegative (got {args.tol})")
    doc = parse_scenario(args.scenario)
    nus, alphas = doc.certificate_inputs()
    reports = []
    if doc.plug_entries:
        for entry in doc.plug_entries:
            plan = doc.plug_plan(entry)
            if plan.is_single_node:
                reports.append(certify_single_node_plug(plan, nus, alphas, tol=args.tol))
            else:
                reports.append(certify_network_plug(plan, nus, alphas, tol=args.tol))
    else:
        for name in doc.initial_names:
            reports.append(certify_fixed_network(doc.graphs[name], nus, alphas, tol=args.tol))

    if args.oracle_only:
        all_ok = all(r.oracle_min_eigenvalue > 0.0 for r in reports)
    else:
        all_ok = all(r.verdict == VERDICT_CERTIFIED for r in reports)

    sweep_rows = _sweep_table(doc)
    if not args.json_only:
        for r in reports:
            print(r.render_table())
            failing = r.failing_edges()
            if failing:
                print(f"condition failed on edge(s): {', '.join(str(e) for e in failing)}")
            print()
        _print_sweep_table(sweep_rows)
        print(f"\nresult: {'certified' if all_ok else 'NOT certified'}"
              + (" (oracle only)" if args.oracle_only else ""))
    if args.json:
        payload = {
            "certified": all_ok,
            "oracle_only": bool(args.oracle_only),
            "reports": [r.to_dict() for r in reports],
            "passivity_indices": sweep_rows,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if all_ok else EXIT_NOT_CERTIFIED


def cmd_simulate(args) -> int:
    doc = parse_scenario(args.scenario)
    scenario = doc.build_scenario(seed=args.seed)
    traj = run(scenario)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    csv_path = Path(args.out_csv or doc.outputs.get("csv") or out_dir / f"{stem}_traj.csv")
    meta_path = Path(args.out_meta or doc.outputs.get("meta") or out_dir / f"{stem}_meta.json")

    write_trajectory_csv(traj, csv_path)
    meta = {
        "scenario": str(args.scenario),
        "seed": scenario.noise.seed,
        "noise_scale": scenario.noise.scale,
        "noise_kind": scenario.noise.kind,
        "dt": scenario.solver.dt,
        "t_end": scenario.solver.t_end,
        "sample_stride": scenario.solver.sample_stride,
        "node_ids": list(traj.node_ids),
        "event_times": [ev.time for ev in scenario.plug_events],
        "phases": [
            {"nodes": list(g.node_ids), "edges": [list(e) for e in g.edges]}
            for g in traj.graphs
        ],
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {csv_path} ({len(traj.times)} samples) and {meta_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.horizons < 2:
        raise PlugnetError(f"--horizons must be at least 2 (got {args.horizons})")
    doc = parse_scenario(args.scenario)
    traj = read_trajectory_csv(Path(args.traj))
    graph = doc.final_graph()
    horizons = default_horizons(float(traj.times[-1]), args.horizons)
    estimate = estimate_io_gain(traj, graph, horizons)

    bound = None
    try:
        nus, alphas = doc.certificate_inputs()
        if doc.plug_entries:
            plan = doc.plug_plan(doc.plug_entries[-1])
            report = (
                certify_single_node_plug(plan, nus, alphas)
                if plan.is_single_node
                else certify_network_plug(plan, nus, alphas)
            )
        else:
            report = certify_fixed_network(graph, nus, alphas)
        if report.oracle_min_eigenvalue > 0.0:
            alpha_lower_min = min(c.alpha_lower for c in doc.couplings.values())
            bound = analytic_gain_bound(report.oracle_min_eigenvalue, alpha_lower_min)
    except PlugnetError:
        bound = None

    print(f"{'T':>10} {'|DtY|_T':>12} {'|DtW|_T':>12}")
    for t, y, w in estimate.samples:
        print(f"{t:>10.4g} {y:>12.6g} {w:>12.6g}")
    print(f"\nrho_hat = {estimate.rho_hat:.6g}  sigma_hat = {estimate.sigma_hat:.6g}  "
          f"satisfied = {estimate.satisfied}")
    if bound is not None:
        print(f"analytic gain bound (informational): {bound:.6g}")

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.traj).stem
    json_path = Path(args.out_json or doc.outputs.get("report") or out_dir / f"{stem}_report.json")
    dis_path = Path(
        args.out_csv or doc.outputs.get("disagreement") or out_dir / f"{stem}_disagreement.csv"
    )
    payload = estimate.to_dict()
    payload["analytic_rho_bound"] = bound
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    dis = disagreement(traj, graph)
    lines = ["t,disagreement"]
    lines += [f"{repr(float(t))},{repr(float(v))}" for t, v in zip(traj.times, dis)]
    dis_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {json_path} and {dis_path}")
    return EXIT_OK if estimate.satisfied else EXIT_NOT_CERTIFIED


def cmd_example(args) -> int:
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(args.out or out_dir / "paper_example.json")
    write_scenario(paper_example(), path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plugnet",
        description="Certify and simulate plug-and-play output consensus "
                    "in passive heterogeneous networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="check the interface conditions of a scenario")
    p.add_argument("scenario")
    p.add_argument("--json", help="write the full report to this JSON file")
    p.add_argument("--json-only", action="store_true", help="suppress the text table")
    p.add_argument("--oracle-only", action="store_true",
                   help="verdict from the eigenvalue oracle alone")
    p.add_argument("--tol", type=float, default=1e-12, help="strictness tolerance")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("simulate", help="integrate a scenario and export trajectories")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, help="override the scenario's noise seed")
    p.add_argument("--out-csv")
    p.add_argument("--out-meta")
    p.add_argument("--out-dir")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("report", help="consensus metrics from a simulated trajectory")
    p.add_argument("--traj", required=True, help="trajectory CSV from `simulate`")
    p.add_argument("--scenario", required=True)
    p.add_argument("--horizons", type=int, default=50)
    p.add_argument("--out-json")
    p.add_argument("--out-csv", help="disagreement time series CSV")
    p.add_argument("--out-dir")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("example", help="write the bundled seven-node example scenario")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(handler=cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except AssumptionViolation as exc:
        print(f"error: interconnection rule violated: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DegenerateInput as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PlugnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
