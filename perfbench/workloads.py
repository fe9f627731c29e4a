"""The three benchmark workloads: their seeded inputs, operations and checks.

Each workload is a closed loop: one client in one process issues one
operation at a time. ``setup`` generates the inputs from the seed, writes
them as scenario files and parses/builds them once; ``iteration`` runs the
timed operation sequence and checks its outputs. The program only ever sees
the generated files, never the seed.

Why these three (NOTES.md has the layer-to-metric map):

* ``paper_example`` -- the bundled seven-node scenario end to end. Its cost
  is per-stage Python overhead in the simulator and a long, narrow CSV; it
  reaches none of the scale layers.
* ``ring_sim`` -- two heterogeneous rings (300 + 100 nodes) built from five
  shared transfer functions, joined by a two-edge plug mid-run. Dense
  matvecs, per-edge tabulated couplings, a wide CSV, and re-parsing a
  400-node document whose realizations repeat.
* ``plug_chain`` -- certification on a growing network: a 300-node base
  grows by 100 single-node plugs and 4 subnetwork plugs, each certified
  against the grown network, then a from-scratch certificate and a short
  simulate/report of the grown network. Neighbour scans and the eigenvalue
  oracle at size; distinct dynamics on every node.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

DEFAULT_SEED = 1
# Never used while the benchmark or a change measured with it is tuned:
# a later claim is re-checked on this seed (see NOTES.md).
HELD_OUT_SEED = 7001

# Stated tolerances. The certificate figures are the paper's rounded ones.
# The gammas (computed 0.46667, 0.35897) hold to 1e-4. The computed margins,
# 0.01459 and 0.01718, do not round to the paper's 0.0147 and 0.0168 at four
# decimals, so the margins are held to the acceptance tests' 5e-4; 5e-5
# would fail every run of the code as it is.
PAPER_GAMMA = {(1, 5): 0.4667, (4, 7): 0.3589}
PAPER_MARGIN = {(1, 5): 0.0147, (4, 7): 0.0168}
GAMMA_TOL = 1e-4
MARGIN_TOL = 5e-4
# Disagreement inside each subnetwork late in phase one, and across the
# whole network at the end, relative to where it started. Observed below
# 0.08 on every seed tried; 0.25 leaves room for any seed.
COLLAPSE_RATIO = 0.25


def scenario_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@dataclass
class Op:
    """One operation: its wall time and anything that went wrong."""

    name: str
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def _edge_disagreement(y: np.ndarray, cols: dict[int, int], edges) -> np.ndarray:
    diffs = np.stack([y[:, cols[i]] - y[:, cols[j]] for i, j in edges], axis=1)
    return np.linalg.norm(diffs, axis=1)


def check_trajectory(op: Op, path: Path, rows: int, nodes: int) -> np.ndarray:
    """Shape and finiteness of a trajectory in which every node is active from t = 0.

    Read with numpy alone, independent of the package under test.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    op.check(data.shape == (rows, 1 + 3 * nodes),
             f"trajectory shape {data.shape}, expected {(rows, 1 + 3 * nodes)}")
    op.check(bool(np.all(np.isfinite(data))), "trajectory holds non-finite values")
    return data


def check_report(op: Op, path: Path) -> None:
    report = json.loads(path.read_text())
    rho = report.get("rho_hat")
    op.check(isinstance(rho, (int, float)) and math.isfinite(rho), f"rho_hat = {rho}")
    op.check(report.get("satisfied") is True, "report not satisfied")


def check_certified(op: Op, path: Path) -> dict:
    cert = json.loads(path.read_text())
    op.check(cert.get("certified") is True, "certify: not certified")
    for r in cert.get("reports", []):
        op.check(r["verdict"] == "certified", f"certify: verdict {r['verdict']}")
    return cert


def _tf_node(node_id: int, num, den, nu=None, y0=None) -> dict:
    entry: dict[str, Any] = {"id": node_id, "dynamics": {"num": list(num), "den": list(den)}}
    if nu is not None:
        entry["nu"] = nu
    if y0 is not None:
        entry["y0"] = y0
    return entry


def _ring(ids: list[int]) -> list[list[int]]:
    return [[ids[k], ids[(k + 1) % len(ids)]] for k in range(len(ids))]


def _nonadjacent_pair(rng, ids: list[int], adjacent) -> tuple[int, int]:
    while True:
        a, b = (int(v) for v in rng.choice(ids, size=2, replace=False))
        if not adjacent(a, b):
            return a, b


# --- ring_sim -------------------------------------------------------------

# Five of the paper's transfer functions (two of order 3, three of order 2)
# with their declared indices: 400 nodes share them, 2.4 states per node.
RING_TFS = (
    ([1.0, 1.0], [1.0, 0.7, 0.0], -0.45),
    ([1.0, 0.9], [1.0, 0.65, 0.0], -0.60),
    ([1.0, 0.5], [1.0, 0.4, 0.0], -0.63),
    ([1.0, 3.5, 3.0], [1.0, 2.8, 1.8, 0.0], -0.65),
    ([1.0, 2.4, 1.4], [1.0, 2.0, 0.96, 0.0], -0.54),
)
RING_SIZES = (300, 100)
RING_STEPS = 1000
RING_DT = 0.01
RING_STRIDE = 10
RING_TABULATED_EVERY = 20


def _coupling(edge, kind: str, gain: float) -> dict:
    if kind != "tabulated":
        return {"edge": edge, "kind": kind, "a": gain}
    # Odd, saturating piecewise-linear: slopes fall from the gain, so the
    # tight upper sector bound is the gain itself.
    knots, y, x_prev = [], 0.0, 0.0
    for x, slope in zip((0.5, 1.0, 2.0), (gain, 0.6 * gain, 0.3 * gain)):
        y += slope * (x - x_prev)
        knots.append([x, round(y, 12)])
        x_prev = x
    return {"edge": edge, "kind": "tabulated", "table": knots}


def ring_sim_document(seed: int) -> dict:
    """Two rings joined by a two-edge network plug halfway through the run."""
    rng = np.random.default_rng([seed, 1])
    n = sum(RING_SIZES)
    ids = list(range(1, n + 1))
    tf_of = rng.permutation(np.arange(n) % len(RING_TFS))
    nodes = [
        _tf_node(i, RING_TFS[k][0], RING_TFS[k][1], nu=RING_TFS[k][2],
                 y0=round(float(rng.uniform(-1.5, 1.5)), 6))
        for i, k in zip(ids, tf_of)
    ]
    r1, r2 = ids[: RING_SIZES[0]], ids[RING_SIZES[0]:]

    def ring_adjacent(ring):
        pos = {v: k for k, v in enumerate(ring)}
        return lambda a, b: (pos[a] - pos[b]) % len(ring) in (1, len(ring) - 1)

    p1, p2 = _nonadjacent_pair(rng, r1, ring_adjacent(r1))
    q1, q2 = _nonadjacent_pair(rng, r2, ring_adjacent(r2))
    edges = _ring(r1) + _ring(r2)
    boundary = [[p1, q1], [p2, q2]]

    # Exactly one edge in twenty tabulated; the rest split between the
    # three analytic kinds. Gains keep every interface margin positive.
    all_edges = edges + boundary
    kinds = np.array(["linear_gain", "sat_sine", "sat_sine_smooth"])[
        rng.integers(0, 3, len(all_edges))].tolist()
    for k in rng.choice(len(all_edges), len(all_edges) // RING_TABULATED_EVERY, replace=False):
        kinds[int(k)] = "tabulated"
    couplings = []
    for k, (edge, kind) in enumerate(zip(all_edges, kinds)):
        top = 0.15 if k >= len(edges) else 0.28
        couplings.append(_coupling(edge, kind, round(float(rng.uniform(0.1, top)), 6)))
    t_end = RING_STEPS * RING_DT
    return {
        "version": "1",
        "nodes": nodes,
        "graphs": {"r1": {"nodes": r1, "edges": _ring(r1)},
                   "r2": {"nodes": r2, "edges": _ring(r2)}},
        "initial": ["r1", "r2"],
        "couplings": couplings,
        "plug_events": [{"time": t_end / 2, "base": "r1", "added": "r2", "boundary": boundary}],
        "noise": {"scale": 0.5, "seed": seed, "kind": "white_gaussian_held"},
        "solver": {"dt": RING_DT, "t_end": t_end, "sample_stride": RING_STRIDE},
    }


# --- plug_chain -----------------------------------------------------------

CHAIN_BASE = 300
CHAIN_CHORDS = 60
CHAIN_SINGLE_PLUGS = 100
CHAIN_SUBNETS = 4
CHAIN_SUBNET_SIZE = 6
CHAIN_MAX_DEGREE = 6
CHAIN_DECLARED_SHARE = 0.5
CHAIN_STEPS = 200
CHAIN_DT = 0.01
CHAIN_STRIDE = 10


def _chain_node(rng, node_id: int, declare: bool) -> dict:
    """Distinct order-2 dynamics (s + z) / (s (s + p)) with index -(z - p) / p^2.

    A declared index is slightly conservative; for the other nodes the
    frequency sweep fills it in.
    """
    p = float(rng.uniform(0.6, 1.2))
    shortage = float(rng.uniform(0.1, 0.6))
    z = p + shortage * p * p
    nu = round(-shortage - 0.01, 6) if declare else None
    return _tf_node(node_id, [1.0, round(z, 9)], [1.0, round(p, 9), 0.0], nu=nu,
                    y0=round(float(rng.uniform(-1.0, 1.0)), 6))


def plug_chain_inputs(seed: int) -> tuple[dict, list[dict]]:
    """A base network, the plug sequence that grows it, and the grown network.

    The scenario document names the base graph, the subnetworks and the
    final graph (its only initial graph, for simulate/report). The chain is
    a list of plug entries in the scenario's own plug-event form, each
    applied to the network grown so far.
    """
    rng = np.random.default_rng([seed, 2])
    base = list(range(1, CHAIN_BASE + 1))
    adj: dict[int, set[int]] = {i: set() for i in base}

    def connect(a: int, b: int) -> None:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for a, b in _ring(base):
        connect(a, b)
    chords = 0
    while chords < CHAIN_CHORDS:
        a, b = (int(v) for v in rng.choice(base, size=2, replace=False))
        if b in adj[a] or len(adj[a]) >= 4 or len(adj[b]) >= 4:
            continue
        connect(a, b)
        chords += 1
    base_edges = sorted([a, b] for a in adj for b in adj[a] if a < b)

    def attachable() -> list[int]:
        return [v for v in sorted(adj) if len(adj[v]) < CHAIN_MAX_DEGREE]

    next_id = CHAIN_BASE + 1
    chain: list[dict] = []
    subnets: dict[str, dict] = {}
    every = CHAIN_SINGLE_PLUGS // CHAIN_SUBNETS
    for k in range(CHAIN_SINGLE_PLUGS):
        c = int(rng.choice(attachable()))
        chain.append({"added_node": next_id, "boundary": [[next_id, c]]})
        connect(next_id, c)
        next_id += 1
        if (k + 1) % every == 0:
            name = f"s{len(subnets) + 1}"
            sub = list(range(next_id, next_id + CHAIN_SUBNET_SIZE))
            next_id += CHAIN_SUBNET_SIZE
            subnets[name] = {"nodes": sub, "edges": _ring(sub)}
            p1, p2 = _nonadjacent_pair(rng, attachable(), lambda a, b: b in adj[a])
            q1, q2 = sub[0], sub[CHAIN_SUBNET_SIZE // 2]
            for a, b in _ring(sub) + [[p1, q1], [p2, q2]]:
                connect(a, b)
            chain.append({"added": name, "boundary": [[p1, q1], [p2, q2]]})

    ids = sorted(adj)
    final_edges = sorted([a, b] for a in adj for b in adj[a] if a < b)
    kinds = ("linear_gain", "sat_sine", "sat_sine_smooth")
    couplings = [
        {"edge": e, "kind": kinds[int(rng.integers(0, 3))],
         "a": round(float(rng.uniform(0.03, 0.08)), 6)}
        for e in final_edges
    ]
    declared = set(rng.permutation(ids)[: int(len(ids) * CHAIN_DECLARED_SHARE)].tolist())
    doc = {
        "version": "1",
        "nodes": [_chain_node(rng, i, i in declared) for i in ids],
        "graphs": {"base": {"nodes": base, "edges": base_edges}, **subnets,
                   "final": {"nodes": ids, "edges": final_edges}},
        "initial": ["final"],
        "couplings": couplings,
        "noise": {"scale": 0.3, "seed": seed, "kind": "white_gaussian_held"},
        "solver": {"dt": CHAIN_DT, "t_end": CHAIN_STEPS * CHAIN_DT,
                   "sample_stride": CHAIN_STRIDE},
    }
    return doc, chain


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")


# --- workloads ------------------------------------------------------------


def node_steps(scenario) -> int:
    """Active nodes times steps integrated, summed over topology phases."""
    starts = scenario.phase_start_steps() + [scenario.solver.n_steps]
    return sum(len(g.node_ids) * (starts[k + 1] - starts[k])
               for k, g in enumerate(scenario.phases))


class Workload:
    """Base class: ``setup`` prepares inputs, ``iteration`` runs the timed sequence."""

    name = ""
    # Library verdicts of the scenario's own plug per block; a block's p90
    # has verdict_repeats / 10 samples beyond it.
    verdict_repeats = 0
    # Runs of each short command (certify, report) per iteration, so that a
    # run averages enough of them over the host's drifting speed.
    command_repeats = 1

    def setup(self, pn, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def iteration(self, pn, state: dict, rec) -> None:
        raise NotImplementedError

    def scenario_verdicts(self, pn, state: dict, rec) -> None:
        """Certify the scenario's plug through the library, as ``certify`` does."""
        doc, nus, alphas = state["doc"], state["nus"], state["alphas"]
        entry = doc.plug_entries[0]
        rec.new_block()
        for _ in range(self.verdict_repeats):
            with rec.op("plug_verdict", stage="plug_verdict") as op:
                plan = doc.plug_plan(entry)
                report = pn.certificates.certify_network_plug(plan, nus, alphas)
                pn.graph.compose(plan)
            rec.verify(op, lambda: op.check(report.verdict == "certified",
                                            f"plug verdict {report.verdict}"))


class PaperExample(Workload):
    name = "paper_example"
    verdict_repeats = 100
    command_repeats = 4

    def setup(self, pn, seed, work):
        path = work / "setup_example.json"
        pn.scenario.write_scenario(pn.scenario.paper_example(), path)
        doc = pn.scenario.parse_scenario(path)
        scenario = doc.build_scenario(seed=seed)
        nus, alphas = doc.certificate_inputs()
        return {"doc": doc, "nus": nus, "alphas": alphas, "seed": seed,
                "node_steps": node_steps(scenario), "hashes": {}}

    def iteration(self, pn, state, rec):
        w = rec.work
        scen, cert = w / "paper_example.json", w / "paper_example_cert.json"
        csv, report = w / "paper_example_traj.csv", w / "paper_example_traj_report.json"
        rec.cli("example", ["example", "--out", str(scen)])
        state["hashes"]["paper_example.json"] = scenario_hash(scen)
        for _ in range(self.command_repeats):
            op = rec.cli("certify", ["certify", str(scen), "--json", str(cert)], stage="certify")
            rec.verify(op, lambda: self._check_certificate(op, cert))
        self.scenario_verdicts(pn, state, rec)
        op = rec.cli("simulate", ["simulate", str(scen), "--seed", str(state["seed"]),
                                  "--out-dir", str(w)], stage="simulate")
        rec.verify(op, lambda: self._check_trajectory(op, csv, state["doc"]))
        for _ in range(self.command_repeats):
            op = rec.cli("report", ["report", "--traj", str(csv), "--scenario", str(scen),
                                    "--out-dir", str(w)], stage="report")
            rec.verify(op, lambda: check_report(op, report))
        self.scenario_verdicts(pn, state, rec)

    @staticmethod
    def _check_certificate(op: Op, path: Path) -> None:
        cert = check_certified(op, path)
        bound = {tuple(b["edge"]): b for b in cert["reports"][0]["boundary"]}
        for edge, gamma in PAPER_GAMMA.items():
            got = bound[edge]["gamma"]
            op.check(abs(got - gamma) <= GAMMA_TOL, f"gamma{edge} = {got:.5f}, paper {gamma}")
            got = bound[edge]["margin"]
            want = PAPER_MARGIN[edge]
            op.check(abs(got - want) <= MARGIN_TOL, f"margin{edge} = {got:.5f}, paper {want}")

    @staticmethod
    def _check_trajectory(op: Op, path: Path, doc) -> None:
        data = check_trajectory(op, path, rows=3001, nodes=7)
        times, y = data[:, 0], data[:, 1:8]
        cols = {i: i - 1 for i in range(1, 8)}
        plug = doc.plug_events()[0].time
        late = (times >= plug - 3.0) & (times < plug)
        for name in ("g1", "g2"):
            d = _edge_disagreement(y, cols, doc.graphs[name].edges)
            ratio = d[late].max() / d[0]
            op.check(ratio < COLLAPSE_RATIO, f"{name} disagreement ratio {ratio:.3f} before the plug")
        d = _edge_disagreement(y, cols, doc.final_graph().edges)
        ratio = d[-1] / d[int(np.searchsorted(times, plug))]
        op.check(ratio < COLLAPSE_RATIO, f"global disagreement ratio {ratio:.3f} after the plug")


class RingSim(Workload):
    name = "ring_sim"
    verdict_repeats = 40

    def setup(self, pn, seed, work):
        path = work / "ring_sim.json"
        write_json(path, ring_sim_document(seed))
        doc = pn.scenario.parse_scenario(path)
        scenario = doc.build_scenario()
        nus, alphas = doc.certificate_inputs()
        return {"doc": doc, "nus": nus, "alphas": alphas, "path": path,
                "node_steps": node_steps(scenario),
                "hashes": {"ring_sim.json": scenario_hash(path)}}

    def iteration(self, pn, state, rec):
        w, scen = rec.work, state["path"]
        cert, csv = w / "ring_sim_cert.json", w / "ring_sim_traj.csv"
        op = rec.cli("certify", ["certify", str(scen), "--json", str(cert)], stage="certify")
        rec.verify(op, lambda: check_certified(op, cert))
        op = rec.cli("simulate", ["simulate", str(scen), "--out-dir", str(w)], stage="simulate")
        rows = RING_STEPS // RING_STRIDE + 1
        rec.verify(op, lambda: check_trajectory(op, csv, rows=rows, nodes=sum(RING_SIZES)))
        op = rec.cli("report", ["report", "--traj", str(csv), "--scenario", str(scen),
                                "--out-dir", str(w)], stage="report")
        rec.verify(op, lambda: check_report(op, w / "ring_sim_traj_report.json"))
        self.scenario_verdicts(pn, state, rec)


class PlugChain(Workload):
    name = "plug_chain"
    command_repeats = 2

    def setup(self, pn, seed, work):
        doc_raw, chain = plug_chain_inputs(seed)
        path, chain_path = work / "plug_chain.json", work / "plug_chain_plugs.json"
        write_json(path, doc_raw)
        write_json(chain_path, chain)
        doc = pn.scenario.parse_scenario(path)
        nus, alphas = doc.certificate_inputs()
        plugs = json.loads(chain_path.read_text())
        scenario = doc.build_scenario()
        return {"doc": doc, "nus": nus, "alphas": alphas, "plugs": plugs, "path": path,
                "node_steps": node_steps(scenario),
                "hashes": {"plug_chain.json": scenario_hash(path),
                           "plug_chain_plugs.json": scenario_hash(chain_path)}}

    def iteration(self, pn, state, rec):
        doc, nus, alphas = state["doc"], state["nus"], state["alphas"]
        certs, graph = pn.certificates, pn.graph
        with rec.op("certify_base", stage="certify") as op:
            report = certs.certify_fixed_network(doc.graphs["base"], nus, alphas)
        rec.verify(op, lambda: op.check(report.verdict == "certified",
                                        f"base certificate {report.verdict}"))

        grown = doc.graphs["base"]
        rec.new_block()
        for k, entry in enumerate(state["plugs"]):
            with rec.op("plug_verdict", stage="plug_verdict") as op:
                boundary = tuple(tuple(e) for e in entry["boundary"])
                if "added_node" in entry:
                    plan = graph.PlugPlan(base=grown, added=entry["added_node"], boundary=boundary)
                    report = certs.certify_single_node_plug(plan, nus, alphas)
                else:
                    added = doc.graphs[entry["added"]]
                    plan = graph.PlugPlan(base=grown, added=added, boundary=boundary)
                    report = certs.certify_network_plug(plan, nus, alphas)
                grown = graph.compose(plan)
            if op.problems:
                break
            op.check(report.verdict == "certified" and report.oracle_min_eigenvalue > 0.0,
                     f"plug {k}: verdict {report.verdict}, "
                     f"oracle eigenvalue {report.oracle_min_eigenvalue:.3g}")

        with rec.op("certify_final", stage="certify") as op:
            report = certs.certify_fixed_network(grown, nus, alphas)

        def check_final():
            op.check(report.verdict == "certified", f"final certificate {report.verdict}")
            op.check(grown.edge_keys() == doc.graphs["final"].edge_keys(),
                     "grown network differs from the generated final network")

        rec.verify(op, check_final)

        w, scen = rec.work, state["path"]
        csv = w / "plug_chain_traj.csv"
        op = rec.cli("simulate", ["simulate", str(scen), "--out-dir", str(w)], stage="simulate")
        rows = CHAIN_STEPS // CHAIN_STRIDE + 1
        rec.verify(op, lambda: check_trajectory(op, csv, rows=rows, nodes=len(doc.nodes)))
        for _ in range(self.command_repeats):
            op = rec.cli("report", ["report", "--traj", str(csv), "--scenario", str(scen),
                                    "--out-dir", str(w)], stage="report")
            rec.verify(op, lambda: check_report(op, w / "plug_chain_traj_report.json"))


WORKLOADS = {w.name: w for w in (PaperExample(), RingSim(), PlugChain())}
