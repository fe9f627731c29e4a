"""Scenario files: strict JSON schema, validation, and the bundled example.

A scenario file declares nodes (dynamics and/or a declared passivity
index), named graphs, couplings per edge, optional plug events joining the
named graphs, and the noise/solver blocks. Parsing is strict: unknown keys
are rejected so golden files fail loudly on drift, every cross-reference
must resolve, and the declared sector bounds of every coupling must
contain its exact sector.

Each plug event is resolved once, at parse: its ``PlugPlan`` goes into a
typed ``PlugEntry``, and the document keeps the graph of every topology
phase. The rules a simulation also needs are checked by their one owner in
``plugnet.sim`` (``topology_phases`` for plug times and for a plug's base
keeping the active network, ``_node_initial_state`` for ``x0`` and
``y0``), so a file that parses is one ``simulate`` accepts, save for
missing dynamics and direct feedthrough.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from .certificates import PassivityIndices, SectorBounds
from .errors import PlugnetError, ScenarioError, TableError, UnsolvableIndex
from .graph import Graph, PlugPlan
from .passivity import (
    IfpIndex,
    LtiSystem,
    SectorCoupling,
    ifp_indices,
    linear_gain,
    realize_many,
    saturated_sine,
    saturated_sine_smooth,
    tabulated,
    verify_sector,
)
# Not called here any more: the benchmark tracer still wraps these two names
# in this module, until ROADMAP item 7 moves the spans into plugnet.
from .passivity import estimate_ifp_index, realize  # noqa: F401
from .sim import (NoiseSpec, PlugEvent, Scenario, SolverConfig, _node_initial_state,
                  topology_phases)

SCHEMA_VERSION = "1"

_TOP_KEYS = {"version", "nodes", "graphs", "initial", "couplings",
             "plug_events", "noise", "solver", "outputs"}
_NODE_KEYS = {"id", "dynamics", "nu", "y0", "x0"}
_DYNAMICS_KEYS = {"num", "den"}
_GRAPH_KEYS = {"nodes", "edges"}
_COUPLING_KEYS = {"edge", "kind", "a", "alpha_lower", "alpha_upper", "table"}
_PLUG_KEYS = {"time", "base", "added", "added_node", "boundary"}
_NOISE_KEYS = {"scale", "seed", "kind"}
_SOLVER_KEYS = {"dt", "t_end", "sample_stride"}
_OUTPUT_KEYS = {"csv", "meta", "report", "disagreement"}


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ScenarioError(f"{path}: missing required key(s) {missing}")


def _list(value: Any, path: str) -> list:
    """``value`` when it is a list; anything else raises."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{path}: must be a list")
    return value


def _edge_pair(value: Any, path: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{path}: edge must be a pair of integer node ids")
    i, j = value
    return _integer(i, f"{path}[0]", minimum=0), _integer(j, f"{path}[1]", minimum=0)


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class NodeSpec:
    """One node as declared in a scenario file."""

    system: LtiSystem | None
    declared_nu: float | None
    y0: float | None
    x0: tuple[float, ...] | None


@dataclass(frozen=True)
class PlugEntry(PlugEvent):
    """A plug event as the file declares it: ``base`` and ``added`` name its
    graphs (``added`` is None when a single node joins)."""

    base: str
    added: str | None

    def to_dict(self) -> dict:
        added = {"added_node": self.plan.added} if self.added is None else {"added": self.added}
        return {"time": self.time, "base": self.base, **added,
                "boundary": [list(e) for e in self.plan.boundary]}


@dataclass(frozen=True, eq=False)
class ScenarioDocument:
    """Validated scenario file contents, ready to feed the other modules."""

    version: str
    nodes: dict[int, NodeSpec]
    graphs: dict[str, Graph]
    initial_names: tuple[str, ...]
    couplings: dict[tuple[int, int], SectorCoupling]
    plug_entries: tuple[PlugEntry, ...]
    noise: NoiseSpec
    solver: SolverConfig
    # The graph of each topology phase: the initial graph, then one per plug.
    phases: tuple[Graph, ...]
    outputs: dict[str, str] = field(default_factory=dict)
    # The IFP index of each distinct system, filled as certificate_inputs
    # and sweep_indices need them, so neither repeats the other's work.
    _sweeps: dict[LtiSystem, IfpIndex] = field(default_factory=dict, init=False, repr=False)

    def initial_graph(self) -> Graph:
        return self.phases[0]

    def plug_plan(self, entry: PlugEntry) -> PlugPlan:
        return entry.plan

    def plug_events(self) -> tuple[PlugEntry, ...]:
        return self.plug_entries

    def final_graph(self) -> Graph:
        return self.phases[-1]

    def build_scenario(self, seed: int | None = None) -> Scenario:
        systems = {}
        for node_id, spec in self.nodes.items():
            if spec.system is None:
                raise ScenarioError(
                    f"node {node_id} has no dynamics; it cannot be simulated"
                )
            systems[node_id] = spec.system
        try:
            noise = self.noise if seed is None else NoiseSpec(
                scale=self.noise.scale, seed=seed, kind=self.noise.kind
            )
            return Scenario(
                systems=systems,
                initial_graph=self.initial_graph(),
                couplings=dict(self.couplings),
                noise=noise,
                solver=self.solver,
                initial_outputs={
                    i: s.y0 for i, s in self.nodes.items() if s.y0 is not None
                },
                initial_states={
                    i: np.asarray(s.x0, dtype=float)
                    for i, s in self.nodes.items()
                    if s.x0 is not None
                },
                plug_events=self.plug_events(),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def certificate_inputs(self) -> tuple[PassivityIndices, SectorBounds]:
        """Passivity indices (declared where present, computed from the
        dynamics otherwise) and upper sector bounds per edge, as read-only
        mappings that also hold their values as arrays, built once per
        document. Each distinct system's index is computed once per
        document. The bounds are keyed both ways round, so a lookup finds
        each edge's bound whatever its orientation (``PlugPlan`` orients a
        single-node boundary edge from the added node)."""
        return self._certificate_inputs

    @cached_property
    def _certificate_inputs(self) -> tuple[PassivityIndices, SectorBounds]:
        failed = self._sweep([spec.system for spec in self.nodes.values()
                              if spec.declared_nu is None and spec.system is not None])
        nus: dict[int, float] = {}
        for node_id, spec in self.nodes.items():
            if spec.declared_nu is not None:
                nus[node_id] = spec.declared_nu
            elif spec.system is not None:
                nus[node_id] = self._index_of(node_id, spec.system, failed).nu
            else:
                raise ScenarioError(
                    f"node {node_id} has neither a declared index nor dynamics"
                )
        alphas: dict[tuple[int, int], float] = {}
        for (i, j), c in self.couplings.items():
            alphas[i, j] = alphas[j, i] = c.alpha_upper
        return PassivityIndices(nus), SectorBounds(alphas)

    def sweep_indices(self) -> dict[int, IfpIndex]:
        """Indices computed from the dynamics of every node that has them;
        each distinct system's index is computed once per document."""
        failed = self._sweep([spec.system for spec in self.nodes.values()
                              if spec.system is not None])
        return {
            node_id: self._index_of(node_id, spec.system, failed)
            for node_id, spec in self.nodes.items()
            if spec.system is not None
        }

    def _sweep(self, systems: list[LtiSystem]) -> dict[LtiSystem, Exception]:
        """Index, in one batch, the distinct ``systems`` that ``_sweeps``
        lacks; the error of each system that has no index."""
        missing = [system for system in dict.fromkeys(systems) if system not in self._sweeps]
        failed: dict[LtiSystem, Exception] = {}
        if not missing:
            return failed
        for system, outcome in zip(missing, ifp_indices(missing)):
            if isinstance(outcome, Exception):
                failed[system] = outcome
            else:
                self._sweeps[system] = outcome
        return failed

    def _index_of(self, node_id: int, system: LtiSystem,
                  failed: dict[LtiSystem, Exception]) -> IfpIndex:
        """The index of node ``node_id``'s ``system``; raises its error when
        it has none, naming the node when it cannot be root-solved."""
        if system not in failed:
            return self._sweeps[system]
        error = failed[system]
        if isinstance(error, UnsolvableIndex):
            raise UnsolvableIndex(f"node {node_id}: {error}") from error
        raise error

    def to_dict(self) -> dict:
        nodes = []
        for node_id in sorted(self.nodes):
            spec = self.nodes[node_id]
            entry: dict[str, Any] = {"id": node_id}
            if spec.system is not None:
                entry["dynamics"] = {
                    "num": list(spec.system.num),
                    "den": list(spec.system.den),
                }
            if spec.declared_nu is not None:
                entry["nu"] = spec.declared_nu
            if spec.y0 is not None:
                entry["y0"] = spec.y0
            if spec.x0 is not None:
                entry["x0"] = list(spec.x0)
            nodes.append(entry)
        couplings = []
        for edge in sorted(self.couplings):
            c = self.couplings[edge]
            entry = {"edge": list(edge), "kind": c.kind}
            if c.gain is not None:
                entry["a"] = c.gain
            entry["alpha_lower"] = c.alpha_lower
            entry["alpha_upper"] = c.alpha_upper
            if c.table is not None:
                entry["table"] = [list(p) for p in c.table]
            couplings.append(entry)
        out: dict[str, Any] = {
            "version": self.version,
            "nodes": nodes,
            "graphs": {
                name: {
                    "nodes": list(g.node_ids),
                    "edges": [list(e) for e in g.edges],
                }
                for name, g in self.graphs.items()
            },
            "initial": list(self.initial_names),
            "couplings": couplings,
            "plug_events": [e.to_dict() for e in self.plug_entries],
            "noise": {
                "scale": self.noise.scale,
                "seed": self.noise.seed,
                "kind": self.noise.kind,
            },
            "solver": {
                "dt": self.solver.dt,
                "t_end": self.solver.t_end,
                "sample_stride": self.solver.sample_stride,
            },
        }
        if self.outputs:
            out["outputs"] = dict(self.outputs)
        return out


def _coefficient_key(dynamics: Any) -> tuple | None:
    """``(num, den)`` as tuples when ``dynamics`` is a well-formed block
    whose ``num`` and ``den`` are flat lists of numbers, else None.

    Equal keys mean equal coefficients, hence the same realization. A bool
    is no number here, though ``True == 1``: ``realize`` rejects it. Other
    forms are realized node by node and left to ``realize`` to judge.
    """
    if not isinstance(dynamics, dict) or dynamics.keys() != _DYNAMICS_KEYS:
        return None
    key = []
    for coeffs in (dynamics["num"], dynamics["den"]):
        if not isinstance(coeffs, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in coeffs
        ):
            return None
        key.append(tuple(coeffs))
    return tuple(key)


def _realize_distinct(raw: list) -> tuple[list, dict[tuple, LtiSystem | Exception]]:
    """The coefficient key of each node, and the realization of each
    distinct key, in one batch: the system, or the error realizing it
    raises. The first node with a key gives its coefficients."""
    keys = [_coefficient_key(entry.get("dynamics")) if isinstance(entry, dict) else None
            for entry in raw]
    blocks: dict[tuple, dict] = {}
    for key, entry in zip(keys, raw):
        if key is not None:
            blocks.setdefault(key, entry["dynamics"])
    outcomes = realize_many([(d["num"], d["den"]) for d in blocks.values()])
    return keys, dict(zip(blocks, outcomes))


def _parse_nodes(raw: Any) -> dict[int, NodeSpec]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("nodes: must be a non-empty list")
    nodes: dict[int, NodeSpec] = {}
    # One realization per distinct transfer function in this document; the
    # systems are immutable, so nodes share them. The loop below reads the
    # outcomes node by node, so the first error in document order is raised.
    keys, realized = _realize_distinct(raw)
    for idx, entry in enumerate(raw):
        path = f"nodes[{idx}]"
        _check_keys(entry, _NODE_KEYS, {"id"}, path)
        node_id = _integer(entry["id"], f"{path}.id", minimum=0)
        if node_id in nodes:
            raise ScenarioError(f"{path}: duplicate node id {node_id}")
        system = None
        if "dynamics" in entry:
            dynamics = entry["dynamics"]
            _check_keys(dynamics, _DYNAMICS_KEYS, _DYNAMICS_KEYS, f"{path}.dynamics")
            key = keys[idx]
            system = realized[key] if key is not None else realize_many(
                [(dynamics["num"], dynamics["den"])])[0]
            if isinstance(system, PlugnetError):
                raise ScenarioError(f"{path}.dynamics: {system}") from system
            if isinstance(system, Exception):
                raise system
        nu = entry.get("nu")
        if nu is not None:
            nu = _finite_number(nu, f"{path}.nu")
        if system is None and nu is None:
            raise ScenarioError(f"{path}: need dynamics, a declared nu, or both")
        y0 = _finite_number(entry["y0"], f"{path}.y0") if "y0" in entry else None
        x0 = entry.get("x0")
        if x0 is not None:
            x0 = _initial_state(x0, system, f"{path}.x0")
        if system is not None:
            try:
                _node_initial_state(system, y0, x0)
            except ValueError as exc:
                raise ScenarioError(f"{path}.{'y0' if x0 is None else 'x0'}: {exc}") from exc
        nodes[node_id] = NodeSpec(system=system, declared_nu=nu, y0=y0, x0=x0)
    return nodes


def _finite_number(value: Any, path: str) -> float:
    """``value`` as a float; a bool, any other non-number, or inf/NaN raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: must be finite")
    return number


def _integer(value: Any, path: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``; a bool or any other non-integer raises."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: must be an integer")
    if value < minimum:
        raise ScenarioError(f"{path}: must be at least {minimum}")
    return value


def _initial_state(value: Any, system: LtiSystem | None, path: str) -> tuple[float, ...]:
    """A flat list of finite numbers for a node that has dynamics."""
    if system is None:
        raise ScenarioError(f"{path}: a node without dynamics has no state")
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{path}: must be a list of numbers")
    return tuple(_finite_number(v, f"{path}[{k}]") for k, v in enumerate(value))


def _parse_graphs(raw: Any, nodes: dict[int, NodeSpec]) -> dict[str, Graph]:
    if not isinstance(raw, dict) or not raw:
        raise ScenarioError("graphs: must be a non-empty object")
    graphs: dict[str, Graph] = {}
    for name, entry in raw.items():
        path = f"graphs.{name}"
        _check_keys(entry, _GRAPH_KEYS, _GRAPH_KEYS, path)
        node_ids = [_integer(v, f"{path}.nodes[{k}]", minimum=0)
                    for k, v in enumerate(_list(entry["nodes"], f"{path}.nodes"))]
        for node in node_ids:
            if node not in nodes:
                raise ScenarioError(f"{path}: node {node} is not declared")
        pairs = [_edge_pair(e, f"{path}.edges[{k}]")
                 for k, e in enumerate(_list(entry["edges"], f"{path}.edges"))]
        try:
            graphs[name] = Graph.from_pairs(node_ids, pairs)
        except PlugnetError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    return graphs


# Each kind's factory; a table takes its bounds, as its exact sector may be invalid.
_COUPLING_FACTORIES = {
    "linear_gain": lambda entry, numbers: linear_gain(numbers["a"]),
    "sat_sine": lambda entry, numbers: saturated_sine(numbers["a"]),
    "sat_sine_smooth": lambda entry, numbers: saturated_sine_smooth(numbers["a"]),
    "tabulated": lambda entry, numbers: tabulated(
        entry["table"], numbers.get("alpha_lower"), numbers.get("alpha_upper")),
}


def _parse_coupling(entry: dict, path: str) -> tuple[tuple[int, int], SectorCoupling]:
    _check_keys(entry, _COUPLING_KEYS, {"edge", "kind"}, path)
    edge = _edge_pair(entry["edge"], f"{path}.edge")
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in _COUPLING_FACTORIES:
        raise ScenarioError(f"{path}: unknown coupling kind {kind!r}")
    numbers = {key: _finite_number(entry[key], f"{path}.{key}")
               for key in ("a", "alpha_lower", "alpha_upper") if key in entry}
    bounds = {key: numbers[key] for key in ("alpha_lower", "alpha_upper") if key in numbers}
    try:
        c = _COUPLING_FACTORIES[kind](entry, numbers)
        if bounds:
            c = replace(c, **bounds)
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing field {exc} for kind {kind!r}") from exc
    except TableError as exc:
        raise ScenarioError(f"{path}.table: {exc}") from exc
    except PlugnetError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return _edge_key(*edge), c


def parse_scenario_dict(raw: dict) -> ScenarioDocument:
    """Validate an in-memory scenario object. See parse_scenario for files."""
    _check_keys(raw, _TOP_KEYS,
                {"version", "nodes", "graphs", "initial", "couplings", "noise", "solver"},
                "scenario")
    if raw["version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"version: expected {SCHEMA_VERSION!r}, got {raw['version']!r}"
        )
    nodes = _parse_nodes(raw["nodes"])
    graphs = _parse_graphs(raw["graphs"], nodes)

    initial = raw["initial"]
    if not isinstance(initial, list) or not initial:
        raise ScenarioError("initial: must be a non-empty list of graph names")
    initial_nodes: tuple[int, ...] = ()
    initial_edges: tuple[tuple[int, int], ...] = ()
    for name in initial:
        if not isinstance(name, str) or name not in graphs:
            raise ScenarioError(f"initial: unknown graph {name!r}")
        g = graphs[name]
        overlap = set(initial_nodes) & set(g.node_ids)
        if overlap:
            raise ScenarioError(
                f"initial: graphs share node(s) {sorted(overlap)}"
            )
        initial_nodes += g.node_ids
        initial_edges += g.edges

    plug_entries = []
    for idx, entry in enumerate(_list(raw.get("plug_events", []), "plug_events")):
        path = f"plug_events[{idx}]"
        _check_keys(entry, _PLUG_KEYS, {"time", "base", "boundary"}, path)
        time = _finite_number(entry["time"], f"{path}.time")
        if ("added" in entry) == ("added_node" in entry):
            raise ScenarioError(f"{path}: exactly one of 'added'/'added_node' required")
        if not isinstance(entry["base"], str) or entry["base"] not in graphs:
            raise ScenarioError(f"{path}: unknown base graph {entry['base']!r}")
        if "added" in entry:
            if not isinstance(entry["added"], str) or entry["added"] not in graphs:
                raise ScenarioError(f"{path}: unknown added graph {entry['added']!r}")
            added = graphs[entry["added"]]
        else:
            added = _integer(entry["added_node"], f"{path}.added_node", minimum=0)
            if added not in nodes:
                raise ScenarioError(f"{path}: added node {added} not declared")
        boundary = [_edge_pair(e, f"{path}.boundary[{k}]")
                    for k, e in enumerate(_list(entry["boundary"], f"{path}.boundary"))]
        try:
            plan = PlugPlan(base=graphs[entry["base"]], added=added, boundary=tuple(boundary))
        except PlugnetError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        plug_entries.append(PlugEntry(time, plan, base=entry["base"], added=entry.get("added")))

    couplings: dict[tuple[int, int], SectorCoupling] = {}
    for idx, entry in enumerate(_list(raw["couplings"], "couplings")):
        key, c = _parse_coupling(entry, f"couplings[{idx}]")
        if key in couplings:
            raise ScenarioError(f"couplings[{idx}]: duplicate coupling for edge {list(key)}")
        couplings[key] = c
    declared_edges = set(couplings)
    needed = {_edge_key(i, j) for g in graphs.values() for i, j in g.edges}
    needed |= {_edge_key(*e) for p in plug_entries for e in p.plan.boundary}
    missing = sorted(needed - declared_edges)
    if missing:
        raise ScenarioError(
            "couplings: no coupling declared for edge(s) "
            + ", ".join(str(list(e)) for e in missing)
        )
    extra = sorted(declared_edges - needed)
    if extra:
        raise ScenarioError(
            "couplings: edge(s) "
            + ", ".join(str(list(e)) for e in extra)
            + " do not appear in any graph"
        )

    for edge, c in couplings.items():
        check = verify_sector(c)
        if not check.within_declared:
            raise ScenarioError(
                f"coupling on edge {list(edge)} violates its declared sector "
                f"bounds: exact [{check.alpha_lower:.6g}, "
                f"{check.alpha_upper:.6g}], declared "
                f"[{c.alpha_lower:.6g}, {c.alpha_upper:.6g}]"
            )

    noise_raw, solver_raw = raw["noise"], raw["solver"]
    _check_keys(noise_raw, _NOISE_KEYS, {"scale", "seed"}, "noise")
    _check_keys(solver_raw, _SOLVER_KEYS, {"dt", "t_end"}, "solver")
    try:
        noise = NoiseSpec(
            scale=_finite_number(noise_raw["scale"], "noise.scale"),
            seed=_integer(noise_raw["seed"], "noise.seed", minimum=0),
            kind=noise_raw.get("kind", "white_gaussian_held"),
        )
        solver = SolverConfig(
            dt=_finite_number(solver_raw["dt"], "solver.dt"),
            t_end=_finite_number(solver_raw["t_end"], "solver.t_end"),
            sample_stride=_integer(solver_raw.get("sample_stride", 1), "solver.sample_stride",
                                   minimum=1),
        )
        phases = topology_phases(Graph(initial_nodes, initial_edges), plug_entries, solver)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    outputs_raw = raw.get("outputs", {})
    _check_keys(outputs_raw, _OUTPUT_KEYS, set(), "outputs")
    for key, value in outputs_raw.items():
        if not isinstance(value, str):
            raise ScenarioError(f"outputs.{key}: must be a string")

    return ScenarioDocument(
        version=raw["version"],
        nodes=nodes,
        graphs=graphs,
        initial_names=tuple(initial),
        couplings=couplings,
        plug_entries=tuple(plug_entries),
        noise=noise,
        solver=solver,
        phases=phases,
        outputs=dict(outputs_raw),
    )


def parse_scenario(path: str | Path) -> ScenarioDocument:
    """Load and validate a scenario file.

    The cost follows the document's distinct content: the distinct
    transfer functions are realized once each, in one batch of stacked
    numpy passes (``passivity.realize_many``), and nodes with equal
    ``num``/``den`` share that immutable ``LtiSystem``.
    ``certificate_inputs`` and ``sweep_indices`` share one memo, filled by
    one batch (``passivity.ifp_indices``) over the distinct systems it
    lacks, so each distinct system's index is computed once per document
    (``certify`` calls both). Nothing is reused across parses.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario_dict(raw)


def write_scenario(doc_or_dict, path: str | Path) -> None:
    raw = doc_or_dict.to_dict() if isinstance(doc_or_dict, ScenarioDocument) else doc_or_dict
    Path(path).write_text(json.dumps(raw, indent=2) + "\n")


def paper_example(seed: int = 22, t_end: float = 30.0) -> dict:
    """The bundled seven-node example: two subnetworks plugged at t = 15 s.

    Four systems form the first network (path-plus-chord on nodes 1-4),
    three the second (path 5-6-7); saturated-sine couplings; the plug joins
    1-5 and 4-7. Declared passivity indices accompany the dynamics.
    """
    dynamics = {
        1: ([1.0, 1.0], [1.0, 0.7, 0.0]),
        2: ([1.0, 0.9], [1.0, 0.65, 0.0]),
        3: ([1.0, 0.5], [1.0, 0.4, 0.0]),
        4: ([1.0, 3.5, 3.0], [1.0, 2.8, 1.8, 0.0]),
        5: ([1.0, 1.2, 0.35], [1.0, 1.1, 0.2925, 0.0]),
        6: ([1.0, 2.4, 1.4], [1.0, 2.0, 0.96, 0.0]),
        7: ([1.0, 3.5, 3.06], [1.0, 2.8, 1.92, 0.0]),
    }
    declared_nu = {1: -0.45, 2: -0.60, 3: -0.63, 4: -0.65, 5: -0.40, 6: -0.54, 7: -0.51}
    y0 = {1: -0.25, 2: -0.55, 3: -1.25, 4: -0.4, 5: -0.0875, 6: 0.2, 7: 1.36}
    gains = {
        (1, 2): 0.40, (2, 3): 0.32, (2, 4): 0.30, (3, 4): 0.35,
        (5, 6): 0.60, (6, 7): 0.55, (1, 5): 0.37, (4, 7): 0.16,
    }
    return {
        "version": SCHEMA_VERSION,
        "nodes": [
            {
                "id": i,
                "dynamics": {"num": dynamics[i][0], "den": dynamics[i][1]},
                "nu": declared_nu[i],
                "y0": y0[i],
            }
            for i in sorted(dynamics)
        ],
        "graphs": {
            "g1": {"nodes": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4], [3, 4]]},
            "g2": {"nodes": [5, 6, 7], "edges": [[5, 6], [6, 7]]},
        },
        "initial": ["g1", "g2"],
        "couplings": [
            {"edge": list(edge), "kind": "sat_sine", "a": gains[edge]}
            for edge in sorted(gains)
        ],
        "plug_events": [
            {"time": 15.0, "base": "g1", "added": "g2", "boundary": [[1, 5], [4, 7]]}
        ],
        "noise": {"scale": 0.5, "seed": seed, "kind": "white_gaussian_held"},
        "solver": {"dt": 0.001, "t_end": t_end, "sample_stride": 10},
    }
