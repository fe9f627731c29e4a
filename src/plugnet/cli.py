"""Command-line entry point: certify, simulate, report, example.

Exit codes: 0 success/certified, 2 certificate condition failure,
3 degenerate input or interconnection-rule violation, 1 anything else.
An output file's path is its own flag, else its entry in the scenario's
optional "outputs" block, else a default name in --out-dir, the
PLUGNET_OUT_DIR environment variable or the current directory, in that
order. JSON outputs are strict: a NaN or an infinity is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
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
from .metrics import (analytic_gain_bound, default_horizons, disagreement, estimate_io_gain,
                      record_span)
from .scenario import ScenarioDocument, parse_scenario, paper_example, write_scenario
from .sim import TrajectoryRecord, run

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DEGENERATE = 3


def _output_path(args, flag: str | None, declared: str | None, name: str) -> Path:
    """An output file's path, by the precedence of the module docstring;
    the output directory is created if it does not exist."""
    out_dir = Path(args.out_dir or os.environ.get("PLUGNET_OUT_DIR") or Path.cwd())
    out_dir.mkdir(parents=True, exist_ok=True)
    return Path(flag or declared or out_dir / name)


def _write_json(payload, path: Path) -> None:
    """``payload`` as indented JSON; a NaN or an infinity in it raises
    PlugnetError naming the file, and nothing is written."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise PlugnetError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n")


def _write_csv(header: list[str], table: np.ndarray, path: Path) -> None:
    """``header``, then the rows of ``table``, each cell as its ``repr``."""
    # rows become Python floats one at a time: the whole table as floats
    # would outweigh the text
    lines = [",".join(header)] + [",".join(map(repr, row.tolist())) for row in table]
    path.write_text("\n".join(lines) + "\n")


def write_trajectory_csv(traj: TrajectoryRecord, path: Path) -> None:
    """Fixed column order: t, then y/u/w per node in ascending node id."""
    header = ["t"] + [f"{group}{i}" for group in "yuw" for i in traj.node_ids]
    table = np.column_stack((traj.times, traj.outputs, traj.inputs, traj.noise))
    _write_csv(header, table, path)


def read_trajectory_csv(path: Path) -> TrajectoryRecord:
    """Rebuild from the CSV the record that ``run`` returned, field for field.

    The topology phases are not in the file; they are the scenario's.
    Text that cannot be decoded, a header other than ``t, y<id>...,
    u<id>..., w<id>...`` with the same ids in each group, a cell that is
    not a number, a row whose length differs from the header's, no samples
    at all, a ``t`` or ``w`` cell that is not finite, or an infinite ``y``
    or ``u`` cell raise PlugnetError; ``nan`` in ``y`` and ``u`` marks a
    node that has not joined yet.
    """
    with open(path) as fh:
        try:
            header = fh.readline().strip().split(",")
        except UnicodeDecodeError as exc:
            raise PlugnetError(f"{path}: {exc}") from None
        n = (len(header) - 1) // 3
        ids = [name[1:] for name in header[1 : 1 + n]]
        expected = ["t"] + [group + i for group in "yuw" for i in ids]
        if header != expected or not all(i.isascii() and i.isdigit() for i in ids):
            raise PlugnetError(f"{path}: header is not t, y<id>..., u<id>..., w<id>...")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no data warns; it is rejected below
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise PlugnetError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        raise PlugnetError(f"{path}: no samples")
    if data.shape[1] != len(header):
        raise PlugnetError(f"{path}: rows have {data.shape[1]} cells, the header {len(header)}")
    outputs, inputs, noise = np.split(data[:, 1:], 3, axis=1)
    if not (np.isfinite(data[:, 0]).all() and np.isfinite(noise).all()):
        raise PlugnetError(f"{path}: a t or w cell is not finite")
    if np.isinf(data[:, 1 : 1 + 2 * n]).any():
        raise PlugnetError(f"{path}: a y or u cell is infinite")
    return TrajectoryRecord(tuple(map(int, ids)), data[:, 0], outputs, inputs, noise)


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
    if not 0.0 <= args.tol < np.inf:
        raise PlugnetError(f"--tol must be nonnegative and finite (got {args.tol})")
    doc = parse_scenario(args.scenario)
    nus, alphas = doc.certificate_inputs()
    reports = []
    if doc.plug_entries:
        for entry in doc.plug_entries:
            plan = entry.plan
            certify = certify_single_node_plug if plan.is_single_node else certify_network_plug
            reports.append(certify(plan, nus, alphas, tol=args.tol))
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
        _write_json(payload, args.json)
    return EXIT_OK if all_ok else EXIT_NOT_CERTIFIED


def cmd_simulate(args) -> int:
    doc = parse_scenario(args.scenario)
    scenario = doc.build_scenario(seed=args.seed)
    traj = run(scenario)

    stem = Path(args.scenario).stem
    csv_path = _output_path(args, args.out_csv, doc.outputs.get("csv"), f"{stem}_traj.csv")
    meta_path = _output_path(args, args.out_meta, doc.outputs.get("meta"), f"{stem}_meta.json")

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
            for g in scenario.phases
        ],
    }
    _write_json(meta, meta_path)
    print(f"wrote {csv_path} ({len(traj.times)} samples) and {meta_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.horizons < 2:
        raise PlugnetError(f"--horizons must be at least 2 (got {args.horizons})")
    doc = parse_scenario(args.scenario)
    traj = read_trajectory_csv(Path(args.traj))
    graph = doc.final_graph()
    unrecorded = sorted(set(graph.node_ids) - set(traj.node_ids))
    if unrecorded:
        raise PlugnetError(f"{args.traj}: final-graph node(s) {unrecorded} not recorded")
    try:
        horizons = default_horizons(record_span(traj), args.horizons)
        estimate = estimate_io_gain(traj, graph, horizons)
    except PlugnetError as exc:
        raise PlugnetError(f"{args.traj}: {exc}") from None

    bound = None  # kappa and the lower sector bound are the final network's
    try:
        kappa = certify_fixed_network(graph, *doc.certificate_inputs()).oracle_min_eigenvalue
        if kappa > 0.0:
            bound = analytic_gain_bound(
                kappa, min(doc.couplings[min(e), max(e)].alpha_lower for e in graph.edges))
    except PlugnetError:
        bound = None

    print(f"{'T':>10} {'|DtY|_T':>12} {'|DtW|_T':>12}")
    for t, y, w in estimate.samples:
        print(f"{t:>10.4g} {y:>12.6g} {w:>12.6g}")
    print(f"\nrho_hat = {estimate.rho_hat:.6g}  sigma_hat = {estimate.sigma_hat:.6g}  "
          f"satisfied = {estimate.satisfied}")
    if bound is not None:
        print(f"analytic gain bound (informational): {bound:.6g}")

    stem = Path(args.traj).stem
    json_path = _output_path(args, args.out_json, doc.outputs.get("report"),
                             f"{stem}_report.json")
    dis_path = _output_path(args, args.out_csv, doc.outputs.get("disagreement"),
                            f"{stem}_disagreement.csv")
    payload = estimate.to_dict()
    payload["analytic_rho_bound"] = bound
    _write_json(payload, json_path)
    _write_csv(["t", "disagreement"], np.column_stack((traj.times, disagreement(traj, graph))),
               dis_path)
    print(f"wrote {json_path} and {dis_path}")
    return EXIT_OK if estimate.satisfied else EXIT_NOT_CERTIFIED


def cmd_example(args) -> int:
    path = _output_path(args, args.out, None, "paper_example.json")
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
    except (PlugnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
