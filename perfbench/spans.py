"""Spans and counters around the calls into each plugnet module.

The tracer wraps functions from outside the package, at the attribute the
caller looks them up through: a name bound by ``from .x import f`` is
wrapped in the importing module (``plugnet.cli.run``,
``plugnet.sim.evaluate_coupling``), methods on their class (the simulator
stages ``phi``/``deriv``/``rk4`` on ``_PhaseContext``). Each wrapped call
records a span (name, start, end, parent, request) in flat arrays, so a
layer's self time is its spans' durations minus what their child spans
cover. Counters ride on the same wrappers.

A target that no longer exists (a later rename) is skipped and listed in
``missing``; metrics that need it are left out of the result, so they read
as missing rather than failed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAX_KEYS = 256
LAYERS = ("scenario", "passivity", "graph", "certificates", "sim", "metrics", "cli")

# (module[:Class], attribute, span key, timing group). Keys sharing a group
# are timed together: a group's time sums its outermost spans only, so
# degree() calling neighbors() is not counted twice.
TARGETS = (
    ("plugnet.cli", "main", "cli.main", None),
    ("plugnet.cli", "cmd_certify", "cli.cmd_certify", None),
    ("plugnet.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("plugnet.cli", "cmd_report", "cli.cmd_report", None),
    ("plugnet.cli", "cmd_example", "cli.cmd_example", None),
    ("plugnet.cli", "write_trajectory_csv", "cli.write_trajectory_csv", None),
    ("plugnet.cli", "read_trajectory_csv", "cli.read_trajectory_csv", None),
    ("plugnet.cli", "parse_scenario", "scenario.parse_scenario", None),
    ("plugnet.scenario", "parse_scenario", "scenario.parse_scenario", None),
    ("plugnet.cli", "write_scenario", "scenario.write_scenario", None),
    ("plugnet.scenario", "write_scenario", "scenario.write_scenario", None),
    ("plugnet.scenario:ScenarioDocument", "build_scenario", "scenario.build_scenario", None),
    ("plugnet.scenario:ScenarioDocument", "certificate_inputs", "scenario.certificate_inputs", None),
    ("plugnet.scenario:ScenarioDocument", "sweep_indices", "scenario.sweep_indices", None),
    ("plugnet.scenario", "realize", "passivity.realize", None),
    ("plugnet.scenario", "verify_sector", "passivity.verify_sector", None),
    ("plugnet.scenario", "estimate_ifp_index", "passivity.estimate_ifp_index", None),
    ("plugnet.passivity", "evaluate_coupling", "passivity.evaluate_coupling", None),
    ("plugnet.sim", "evaluate_coupling", "passivity.evaluate_coupling", None),
    ("plugnet.graph:Graph", "neighbors", "graph.neighbors", "graph.adjacency"),
    ("plugnet.graph:Graph", "degree", "graph.degree", "graph.adjacency"),
    ("plugnet.graph:Graph", "index", "graph.index", "graph.adjacency"),
    ("plugnet.graph:Graph", "has_edge", "graph.has_edge", "graph.adjacency"),
    ("plugnet.graph:Graph", "edge_keys", "graph.edge_keys", "graph.adjacency"),
    ("plugnet.graph", "compose", "graph.compose", None),
    ("plugnet.certificates", "compose", "graph.compose", None),
    ("plugnet.sim", "compose", "graph.compose", None),
    ("plugnet.certificates", "incidence", "graph.incidence", None),
    ("plugnet.sim", "incidence", "graph.incidence", None),
    ("plugnet.metrics", "incidence", "graph.incidence", None),
    ("plugnet.certificates", "is_connected", "graph.is_connected", None),
    ("plugnet.certificates", "assumption_1_violation", "graph.assumption_1_violation", None),
    ("plugnet.cli", "certify_fixed_network", "certificates.certify_fixed_network", None),
    ("plugnet.certificates", "certify_fixed_network", "certificates.certify_fixed_network", None),
    ("plugnet.cli", "certify_single_node_plug", "certificates.certify_single_node_plug", "certificates.plug"),
    ("plugnet.certificates", "certify_single_node_plug", "certificates.certify_single_node_plug", "certificates.plug"),
    ("plugnet.cli", "certify_network_plug", "certificates.certify_network_plug", "certificates.plug"),
    ("plugnet.certificates", "certify_network_plug", "certificates.certify_network_plug", "certificates.plug"),
    ("plugnet.certificates", "intra_edge_margins", "certificates.intra_edge_margins", None),
    ("plugnet.certificates", "compute_gamma_single", "certificates.compute_gamma_single", None),
    ("plugnet.certificates", "gershgorin_pd_check", "certificates.gershgorin_pd_check", None),
    ("plugnet.certificates", "pd_oracle", "certificates.pd_oracle", None),
    ("plugnet.cli", "run", "sim.run", None),
    ("plugnet.sim", "noise_stream", "sim.noise_stream", None),
    ("plugnet.sim:_PhaseContext", "rk4", "sim.rk4", None),
    ("plugnet.sim:_PhaseContext", "deriv", "sim.deriv", None),
    ("plugnet.sim:_PhaseContext", "phi", "sim.phi", None),
    ("plugnet.cli", "estimate_io_gain", "metrics.estimate_io_gain", None),
    ("plugnet.cli", "disagreement", "metrics.disagreement", None),
)

# Called once per edge per verdict and cheap on its own: counted, no span.
COUNT_ONLY = (
    ("plugnet.certificates", "check_edge_condition", "certificates.check_edge_condition"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers and collects one iteration's spans and counts."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_id: dict[str, int] = {}
        self._group_id: dict[str, int] = {}
        self._group_of: list[int] = []
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset(run_id=0)

    def key(self, key: str, group: str | None = None) -> int:
        if key not in self._key_id:
            if len(self.keys) == MAX_KEYS:
                raise ValueError(f"more than {MAX_KEYS} span keys")
            group = group or key
            if group not in self._group_id:
                self._group_id[group] = len(self._group_id)
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
            self._group_of.append(self._group_id[group])
        return self._key_id[key]

    def reset(self, run_id: int) -> None:
        """Empty the span buffers and counters for a new traced iteration."""
        self.run_id = run_id
        self.span_key, self.span_parent, self.span_request = array("i"), array("i"), array("i")
        self.span_t0, self.span_t1 = array("q"), array("q")
        self.stack: list[int] = []
        self.request = -1
        self.calls = [0] * MAX_KEYS
        self.group_depth = [0] * MAX_KEYS
        self.group_ns = [0] * MAX_KEYS
        self.counters: dict[str, int] = {}
        self.realized: set = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def depth(self, group: str) -> int:
        gid = self._group_id.get(group)
        return 0 if gid is None else self.group_depth[gid]

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, kid: int, hook):
        tr, gid, clock = self, self._group_of[kid], time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.span_t0)
            tr.span_key.append(kid)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_request.append(tr.request)
            tr.span_t1.append(0)
            top = tr.group_depth[gid] == 0
            tr.group_depth[gid] += 1
            tr.stack.append(idx)
            t0 = clock()
            tr.span_t0.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr.span_t1[idx] = t1
                tr.stack.pop()
                tr.group_depth[gid] -= 1
                if top:
                    tr.group_ns[gid] += t1 - t0
            tr.calls[kid] += 1
            if hook is not None:
                hook(tr, args, result)
            return result

        return wrapper

    def _counter(self, fn, kid: int, hook):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.calls[kid] += 1
            if hook is not None:
                hook(tr, args, None)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        targets = [(o, a, k, g, self._span) for o, a, k, g in TARGETS]
        targets += [(o, a, k, None, self._counter) for o, a, k in COUNT_ONLY]
        self.missing = []
        for owner, attr, key, group, make in targets:
            try:
                obj = _resolve(owner)
                original = getattr(obj, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            self.present.add(key)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, make(original, self.key(key, group), HOOKS.get(key)))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @contextmanager
    def request_span(self, name: str, request: int):
        """Root span of one benchmark operation; the calls it makes nest inside."""
        self.request = request
        kid = self.key(f"bench.{name}")
        idx = len(self.span_t0)
        self.span_key.append(kid)
        self.span_parent.append(-1)
        self.span_request.append(request)
        self.span_t1.append(0)
        self.stack.append(idx)
        self.span_t0.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.span_t1[idx] = time.perf_counter_ns()
            self.stack.pop()
            self.calls[kid] += 1

    # -- results -----------------------------------------------------------

    def _arrays(self):
        key = np.frombuffer(self.span_key, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_t1, dtype=np.int64) - np.frombuffer(self.span_t0, dtype=np.int64)
        return key, parent, dur

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by each span's children."""
        key, parent, dur = self._arrays()
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - children
        layer_of = np.array([k.split(".")[0] for k in self.keys])
        by_key = np.bincount(key, weights=own, minlength=len(self.keys))
        return {layer: float(by_key[layer_of == layer].sum()) / 1e9 for layer in LAYERS}

    def seconds(self, group: str) -> float:
        return self.group_ns[self._group_id[group]] / 1e9

    def ncalls(self, key: str) -> int:
        return self.calls[self._key_id[key]]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current iteration; absent targets are left out."""
        out: dict[str, float] = {}
        for name, needs, value in METRICS:
            if all(k in self.present for k in needs):
                out[name] = float(value(self))
        if all(k in self.present for k in LAYER_KEYS):
            out.update({f"{layer}.self_s": s for layer, s in self.self_seconds().items()})
        out["trace.spans"] = float(len(self.span_t0))
        return out

    def write(self, path: Path) -> None:
        """Spans of the iteration, as flat arrays with the key names alongside."""
        key, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            keys=np.array(self.keys),
            key=key,
            parent=parent,
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start_ns=np.frombuffer(self.span_t0, dtype=np.int64),
            end_ns=np.frombuffer(self.span_t1, dtype=np.int64),
            run_id=np.array(self.run_id),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- hooks: counts taken where the work happens ------------------------------


def _scan(tr: Tracer, args, _result) -> None:
    tr.count("graph.edges_scanned", len(args[0].edges))


def _rk4(tr: Tracer, args, _result) -> None:
    tr.count("sim.steps")
    tr.count("sim.node_steps", len(args[0].node_ids))


def _realize(tr: Tracer, args, _result) -> None:
    # Keyed by the parse it belongs to, so the ratio is per document.
    document = tr.ncalls("scenario.parse_scenario")
    tr.realized.add((document, tuple(args[0]), tuple(args[1])))


def _sweep(tr: Tracer, _args, _result) -> None:
    if tr.depth("scenario.certificate_inputs"):
        tr.count("passivity.ifp_sweep_used")


def _oracle(tr: Tracer, args, _result) -> None:
    tr.count("certificates.oracle_bytes", 8 * args[0].graph.p ** 2)


def _edge_condition(tr: Tracer, _args, _result) -> None:
    if tr.depth("certificates.plug"):
        tr.count("certificates.plug_edge_conditions")


def _plug(tr: Tracer, args, _result) -> None:
    plan = args[0]
    added = 1 if plan.is_single_node else len(plan.boundary) + plan.added.p
    tr.count("certificates.plug_edges_added", added)


def _csv_bytes(tr: Tracer, args, _result) -> None:
    tr.count("cli.csv_bytes", Path(args[1]).stat().st_size)


HOOKS = {
    "graph.neighbors": _scan,
    "graph.has_edge": _scan,
    "graph.edge_keys": _scan,
    "sim.rk4": _rk4,
    "passivity.realize": _realize,
    "passivity.estimate_ifp_index": _sweep,
    "certificates.pd_oracle": _oracle,
    "certificates.check_edge_condition": _edge_condition,
    "certificates.certify_single_node_plug": _plug,
    "certificates.certify_network_plug": _plug,
    "cli.write_trajectory_csv": _csv_bytes,
}

# Self time is only meaningful when every layer's entry points are wrapped.
LAYER_KEYS = ("cli.main", "scenario.parse_scenario", "passivity.realize", "graph.compose",
              "certificates.pd_oracle", "sim.run", "metrics.estimate_io_gain")


def _c(tr: Tracer, name: str) -> int:
    return tr.counters.get(name, 0)


# (metric, span keys it needs, value). Times are per iteration, in seconds;
# "_calls" and plain counts are per iteration too. edges_scanned and
# oracle_bytes are computed from the arguments (edges a linear scan visits,
# 8 p^2 bytes of the dense matrix the oracle factors), not measured.
METRICS = (
    ("scenario.parse_s", ["scenario.parse_scenario"], lambda t: t.seconds("scenario.parse_scenario")),
    ("scenario.parse_calls", ["scenario.parse_scenario"], lambda t: t.ncalls("scenario.parse_scenario")),
    ("scenario.build_s", ["scenario.build_scenario"], lambda t: t.seconds("scenario.build_scenario")),
    ("passivity.realize_s", ["passivity.realize"], lambda t: t.seconds("passivity.realize")),
    ("passivity.realize_calls", ["passivity.realize"], lambda t: t.ncalls("passivity.realize")),
    ("passivity.realize_distinct_ratio", ["passivity.realize", "scenario.parse_scenario"],
     lambda t: _ratio(len(t.realized), t.ncalls("passivity.realize"))),
    ("passivity.verify_sector_s", ["passivity.verify_sector"], lambda t: t.seconds("passivity.verify_sector")),
    ("passivity.verify_sector_calls", ["passivity.verify_sector"],
     lambda t: t.ncalls("passivity.verify_sector")),
    ("passivity.ifp_sweep_s", ["passivity.estimate_ifp_index"],
     lambda t: t.seconds("passivity.estimate_ifp_index")),
    ("passivity.ifp_sweep_calls", ["passivity.estimate_ifp_index"],
     lambda t: t.ncalls("passivity.estimate_ifp_index")),
    ("passivity.ifp_sweep_used_ratio", ["passivity.estimate_ifp_index", "scenario.certificate_inputs"],
     lambda t: _ratio(_c(t, "passivity.ifp_sweep_used"), t.ncalls("passivity.estimate_ifp_index"))),
    ("passivity.evaluate_coupling_s", ["passivity.evaluate_coupling"],
     lambda t: t.seconds("passivity.evaluate_coupling")),
    ("passivity.evaluate_coupling_calls", ["passivity.evaluate_coupling"],
     lambda t: t.ncalls("passivity.evaluate_coupling")),
    ("graph.adjacency_s", ["graph.neighbors", "graph.degree"], lambda t: t.seconds("graph.adjacency")),
    ("graph.neighbors_calls", ["graph.neighbors"], lambda t: t.ncalls("graph.neighbors")),
    ("graph.degree_calls", ["graph.degree"], lambda t: t.ncalls("graph.degree")),
    ("graph.edges_scanned", ["graph.neighbors"], lambda t: _c(t, "graph.edges_scanned")),
    ("graph.compose_s", ["graph.compose"], lambda t: t.seconds("graph.compose")),
    ("graph.incidence_s", ["graph.incidence"], lambda t: t.seconds("graph.incidence")),
    ("graph.is_connected_s", ["graph.is_connected"], lambda t: t.seconds("graph.is_connected")),
    ("certificates.edge_margins_s", ["certificates.intra_edge_margins"],
     lambda t: t.seconds("certificates.intra_edge_margins")),
    ("certificates.edge_conditions", ["certificates.check_edge_condition"],
     lambda t: t.ncalls("certificates.check_edge_condition")),
    ("certificates.edge_conditions_per_plug_edge",
     ["certificates.check_edge_condition", "certificates.certify_single_node_plug",
      "certificates.certify_network_plug"],
     lambda t: _ratio(_c(t, "certificates.plug_edge_conditions"),
                      _c(t, "certificates.plug_edges_added"))),
    ("certificates.gamma_s", ["certificates.compute_gamma_single"],
     lambda t: t.seconds("certificates.compute_gamma_single")),
    ("certificates.gershgorin_s", ["certificates.gershgorin_pd_check"],
     lambda t: t.seconds("certificates.gershgorin_pd_check")),
    ("certificates.oracle_s", ["certificates.pd_oracle"], lambda t: t.seconds("certificates.pd_oracle")),
    ("certificates.oracle_calls", ["certificates.pd_oracle"], lambda t: t.ncalls("certificates.pd_oracle")),
    ("certificates.oracle_bytes", ["certificates.pd_oracle"], lambda t: _c(t, "certificates.oracle_bytes")),
    ("sim.run_s", ["sim.run"], lambda t: t.seconds("sim.run")),
    ("sim.steps", ["sim.rk4"], lambda t: _c(t, "sim.steps")),
    ("sim.node_steps", ["sim.rk4"], lambda t: _c(t, "sim.node_steps")),
    ("sim.noise_s", ["sim.noise_stream"], lambda t: t.seconds("sim.noise_stream")),
    ("sim.rk4_s", ["sim.rk4"], lambda t: t.seconds("sim.rk4")),
    ("sim.deriv_s", ["sim.deriv"], lambda t: t.seconds("sim.deriv")),
    ("sim.deriv_calls", ["sim.deriv"], lambda t: t.ncalls("sim.deriv")),
    ("sim.phi_s", ["sim.phi"], lambda t: t.seconds("sim.phi")),
    ("sim.us_per_step", ["sim.run", "sim.rk4"],
     lambda t: _ratio(t.seconds("sim.run") * 1e6, _c(t, "sim.steps"))),
    ("metrics.estimate_io_gain_s", ["metrics.estimate_io_gain"],
     lambda t: t.seconds("metrics.estimate_io_gain")),
    ("metrics.disagreement_s", ["metrics.disagreement"], lambda t: t.seconds("metrics.disagreement")),
    ("cli.write_csv_s", ["cli.write_trajectory_csv"], lambda t: t.seconds("cli.write_trajectory_csv")),
    ("cli.csv_bytes", ["cli.write_trajectory_csv"], lambda t: _c(t, "cli.csv_bytes")),
    ("cli.read_csv_s", ["cli.read_trajectory_csv"], lambda t: t.seconds("cli.read_trajectory_csv")),
)
