"""Fixed-step time-domain simulation of diffusively coupled networks.

Each node is a strictly proper LTI system; inputs are built from
neighbour output differences passed through sector-bounded couplings,
with per-node noise added inside the coupling argument:

    u_i = -sum_{j in N_i} phi_ij(y_i + w_i - y_j - w_j)

Stacked over the network this is ``dx/dt = A x - B D phi(D^T (C x + w))``
with block-diagonal A, B, C and incidence matrix D. The core never forms
them densely. With step h, ``v_s = D^T (C x_s + w)``, ``f_s = phi(v_s)``
and ``k_s = A x_s - B D f_s``, every RK4 stage state ``x_s`` and the state
after the step are linear in ``(x, f_1, ..., f_{s-1})``. So each topology
phase runs the recurrence once per distinct node system, symbolically in
its state and its four stage inputs, and scatters the result along the
edges into the maps of one step, over one buffer ``z = [w; x; f_1; ...;
f_4]``:

* V_1 .. V_4: ``v_s = V_s [w; x; f_1; ...; f_{s-1}]``, a prefix of z;
* [P | Q] (N x (N + 4p)): ``x+ = P x + Q [f_1; ...; f_4]``, the rest of z.

A step is one product of V_s and one coupling evaluation per stage, which
writes ``f_s`` into z, and one product by [P | Q]. A node's output at
stage s reads its own state, noise and earlier inputs ``u_r = -D f_r``
only, so V_s is kept as two factors for s > 1: D^T, and G_s reading those
(its ``-D`` columns touch the node's edges); their product would hold an
entry for every pair of edges that share a node, so sum(degree^2) of them
at a hub. V_1 reads no coupling output and is the one factor ``[D^T |
H_1]``, whose rows, like the columns of Q, touch one edge's end nodes; P
is block-diagonal. A map with at most ``DENSE_MAX_ENTRIES`` entries in
dense form (its factors' too) is evaluated as one ``ndarray.dot`` by the
product, a larger one as COO triplets, one product per factor, eight per
step. So the maps hold at most 5m + 10 entries per edge end, m per state
and 3m + 3 per node, for the largest node order m, whatever the node
degrees, and a step costs time linear in the number of states and edges.
The couplings are evaluated by kind with the formulas of
``plugnet.passivity``, all edges of one kind in one call that writes into
the buffer. A dense reference in the tests holds this core to a relative
error of 1e-12 with identical NaN masks, and a second test holds the
collapsed step, dense and COO, to the stage-wise recurrence ``dx/dt = S
[x; phi(G x + D^T w)]`` with ``G = D^T C``, ``S = [A | -B D]``.

That stage-wise recurrence also decides divergence. When a step ends in a
state whose squared norm is not finite, it is replayed from the last
finite state stage by stage with COO operators, and the replay names the
node: the collapsed step skips the stage states where a huge state first
overflows, and a dense product spreads one non-finite entry to every row.

Integration is classic RK4 with a fixed step. Noise is piecewise-constant:
one Gaussian draw per node per step, held across the step's internal
stages; each phase gathers its nodes' draws for all its steps at once,
and a step copies its row into z. The draw for (node, step) depends only
on the seed and the node id, so plugging more nodes in never
perturbs existing noise streams. Scheduled plug events swap in the
composed graph mid-run, carrying node states over and initializing newly
added nodes from their declared initial outputs (minimum-norm state).
``topology_phases`` owns the rules on the sequence of topologies and
``_node_initial_state`` those on initial states; ``Scenario`` and the
scenario parser both call them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import SimulationDiverged
from .graph import Graph, PlugPlan, compose
from .passivity import COUPLING_FORMULAS, LtiSystem, SectorCoupling, coupling_parameters

NOISE_KINDS = ("white_gaussian_held", "white_gaussian_sqrt_dt")


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded per-node Gaussian noise, held constant over each dt interval.

    ``white_gaussian_held`` uses standard deviation ``scale`` as-is;
    ``white_gaussian_sqrt_dt`` scales it by 1/sqrt(dt) (the
    Euler-Maruyama-style reading of white noise).
    """

    scale: float
    seed: int
    kind: str = "white_gaussian_held"

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError("noise scale must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    sample_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError("t_end must be an integer number of steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class PlugEvent:
    time: float
    plan: PlugPlan


def topology_phases(initial_graph: Graph, plug_events: Sequence[PlugEvent],
                    solver: SolverConfig) -> tuple[Graph, ...]:
    """The graph of each topology phase: ``initial_graph``, then each plug's composition.

    Plug times lie in ``[0, t_end]``, increase strictly and fall on the step
    grid, and each plug keeps every node and edge of the phase before it.
    Raises ValueError naming ``plug_events[k]`` of the first event that
    breaks a rule.
    """
    phases = [initial_graph]
    last = -1.0
    for k, ev in enumerate(plug_events):
        where = f"plug_events[{k}]"
        t = ev.time
        if not (0.0 <= t <= solver.t_end):
            raise ValueError(f"{where}.time: plug event at t={t} outside [0, t_end]")
        if t <= last:
            raise ValueError(f"{where}.time: plug event times must be strictly increasing")
        steps = t / solver.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError(f"{where}.time: plug event at t={t} not on the step grid")
        last = t
        graph = compose(ev.plan)
        dropped = sorted(set(phases[-1].node_ids) - set(graph.node_ids))
        if dropped:
            raise ValueError(f"{where}.base: plug event drops active node(s) {dropped}")
        dropped = [list(e) for e in phases[-1].edges if not graph.has_edge(*e)]
        if dropped:
            raise ValueError(f"{where}.base: plug event drops active edge(s) {dropped}")
        phases.append(graph)
    return tuple(phases)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full experiment description: dynamics, topology phases, noise, solver."""

    systems: Mapping[int, LtiSystem]
    initial_graph: Graph
    couplings: Mapping[tuple[int, int], SectorCoupling]
    noise: NoiseSpec
    solver: SolverConfig
    initial_outputs: Mapping[int, float] = field(default_factory=dict)
    initial_states: Mapping[int, np.ndarray] = field(default_factory=dict)
    plug_events: tuple[PlugEvent, ...] = ()

    def __post_init__(self):
        if not self.systems:
            raise ValueError("scenario declares no systems")
        if any(i < 0 for i in self.systems):
            raise ValueError("node ids must be nonnegative (they key noise streams)")
        object.__setattr__(self, "plug_events", tuple(self.plug_events))
        phases = topology_phases(self.initial_graph, self.plug_events, self.solver)
        for g in phases:
            for node in g.node_ids:
                if node not in self.systems:
                    raise ValueError(f"no dynamics declared for node {node}")
                _check_strictly_proper(node, self.systems[node])
            for i, j in g.edges:
                _coupling_for(self.couplings, i, j)
        for node, sys in self.systems.items():
            try:
                _node_initial_state(sys, self.initial_outputs.get(node),
                                    self.initial_states.get(node))
            except ValueError as exc:
                raise ValueError(f"node {node}: {exc}") from None
        object.__setattr__(self, "_phases", phases)

    @property
    def phases(self) -> tuple[Graph, ...]:
        return self._phases

    def phase_start_steps(self) -> list[int]:
        starts = [0]
        for ev in self.plug_events:
            starts.append(int(round(ev.time / self.solver.dt)))
        return starts


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Sampled trajectories: outputs, reconstructed inputs and noise per node.

    Columns follow ``node_ids``. Entries are NaN while a node is not yet
    part of the active graph. The topology phases are the scenario's
    (``Scenario.phases`` and ``phase_start_steps``); the record does not
    repeat them.
    """

    node_ids: tuple[int, ...]
    times: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        m = len(self.times)
        n = len(self.node_ids)
        for name in ("outputs", "inputs", "noise"):
            arr = getattr(self, name)
            if arr.shape != (m, n):
                raise ValueError(f"{name} must have shape ({m}, {n}), got {arr.shape}")
        for arr in (self.times, self.outputs, self.inputs, self.noise):
            arr.flags.writeable = False
        # a repeated id keeps its first column
        columns = {node: k for k, node in reversed(tuple(enumerate(self.node_ids)))}
        object.__setattr__(self, "_columns", columns)

    def column(self, node: int) -> int:
        try:
            return self._columns[node]
        except KeyError:
            raise ValueError(f"node {node} not recorded") from None


def _coupling_for(couplings: Mapping, i: int, j: int) -> SectorCoupling:
    for key in ((i, j), (j, i)):
        if key in couplings:
            return couplings[key]
    raise ValueError(f"no coupling declared for edge ({i}, {j})")


def noise_stream(noise: NoiseSpec, node_id: int, n_steps: int, dt: float) -> np.ndarray:
    """Held noise samples for one node; a pure function of (seed, node, step)."""
    rng = np.random.default_rng([noise.seed, node_id])
    z = rng.standard_normal(n_steps)
    scale = noise.scale
    if noise.kind == "white_gaussian_sqrt_dt":
        scale = scale / math.sqrt(dt)
    return scale * z


# An operator whose dense form has at most this many entries is evaluated as
# one ``ndarray.dot``, a larger one as COO triplets (one gather, one multiply,
# one ``bincount``). Measured with one BLAS thread on a 2-core x86-64 host: a
# product with 2-4 % fill took 3.7 us dense against 5.7 us COO at 100 x 250
# and broke even at 120 x 300; whole runs on rings of order-2 nodes were
# faster dense up to 60 nodes ([P | Q] 120 x 360) and slower at 80 nodes.
DENSE_MAX_ENTRIES = 30_000


def _matvec(op: tuple, x: np.ndarray) -> np.ndarray:
    """Sparse product: one gather, one multiply, one bincount.

    ``bincount`` of an empty operator returns integers, hence the cast.
    """
    rows, cols, vals, n_rows = op
    return np.bincount(rows, vals * x[cols], minlength=n_rows).astype(float, copy=False)


def _matvecs(ops: Sequence[tuple], x: np.ndarray) -> np.ndarray:
    """``_matvec`` by each of ``ops`` in turn."""
    for op in ops:
        x = _matvec(op, x)
    return x


class _Triplets:
    """A sparse matrix assembled block by block; entries at one (row, col) add up."""

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self._parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]

    def add(self, rows, cols, vals) -> None:
        """Add the nonzero entries of ``rows``, ``cols`` and ``vals``, broadcast together."""
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        keep = vals != 0.0
        self._parts.append((rows[keep], cols[keep], vals[keep]))

    def coo(self) -> tuple:
        rows, cols, vals = (np.concatenate(a) for a in zip(*self._parts))
        return rows.astype(np.intp), cols.astype(np.intp), vals.astype(float), self.shape[0]

    def dense(self) -> np.ndarray:
        rows, cols, vals, n_rows = self.coo()
        n_cols = self.shape[1]
        dense = np.bincount(rows * n_cols + cols, vals, minlength=n_rows * n_cols)
        return dense.astype(float, copy=False).reshape(self.shape)


def _operator(*factors: _Triplets):
    """``x -> F_1 F_2 ... F_k x``.

    One dense ``dot`` by the product when it and every factor have at most
    ``DENSE_MAX_ENTRIES`` entries in dense form, else one COO product per
    factor, last factor first.
    """
    shapes = [f.shape for f in factors] + [(factors[0].shape[0], factors[-1].shape[1])]
    if all(rows * cols <= DENSE_MAX_ENTRIES for rows, cols in shapes):
        return functools.reduce(np.dot, [f.dense() for f in factors]).dot
    return functools.partial(_matvecs, [f.coo() for f in reversed(factors)])


def _node_steps(a: np.ndarray, b: np.ndarray, c: np.ndarray, orders: np.ndarray,
                h: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 steps of size ``h`` of a stack of systems, as linear maps of ``[x; u_1; ...; u_4]``.

    System k is ``a[k], b[k], c[k]`` zero-padded from order ``orders[k]`` to
    m; ``x`` is its state at the start of the step and ``u_s`` its input at
    stage s. Returns ``(y, x_next)``: ``y[k, s]`` (m + 4 entries) is the
    output at stage s, which reads only ``u_r`` with r < s, and
    ``x_next[k]`` (m x (m + 4)) the state after the step. Padded rows and
    columns of both are zero.
    """
    m = a.shape[-1]
    start = (np.arange(m) < orders[:, None])[:, :, None] * np.eye(m, m + 4)
    ys, ks = [], []
    for s, coef in enumerate((0.0, 0.5, 0.5, 1.0)):
        x_s = start + (coef * h) * ks[-1] if s else start
        ys.append(c[:, None, :] @ x_s)
        k = a @ x_s
        k[:, :, m + s] += b
        ks.append(k)
    return (np.concatenate(ys, axis=1),
            start + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3]))


def _check_strictly_proper(node: int, sys: LtiSystem) -> None:
    if sys.d != 0.0:
        raise ValueError(
            f"node {node} has direct feedthrough; the coupled network "
            "would need an algebraic loop solve (unsupported)"
        )


class _PhaseContext:
    """Step operators and coupling groups for one topology phase, step ``dt``.

    ``rk4`` is the collapsed step of the module docstring. Its four stage
    maps and [P | Q] are built at construction, each evaluated by
    ``_operator``. ``deriv`` is the stage-wise
    derivative ``S [x; phi(G x + dw)]`` with COO operators; S is built on
    first use, since only the divergence replay and the tests call it.
    Edges are held grouped by coupling kind, one slice per kind, so their
    internal order is not that of ``graph.edges``.
    """

    def __init__(self, graph: Graph, systems: Mapping[int, LtiSystem],
                 couplings: Mapping[tuple[int, int], SectorCoupling], dt: float):
        self.dt = dt
        self.node_ids = graph.node_ids
        self.systems = [systems[i] for i in self.node_ids]
        self.slices: dict[int, slice] = {}
        offset = 0
        for node, sys in zip(self.node_ids, self.systems):
            _check_strictly_proper(node, sys)
            self.slices[node] = slice(offset, offset + sys.order)
            offset += sys.order
        self.n_states = offset
        self.n = len(self.node_ids)

        edge_couplings = [_coupling_for(couplings, i, j) for i, j in graph.edges]
        order = sorted(range(graph.p), key=lambda k: edge_couplings[k].kind)
        self.p = graph.p
        self._heads, self._tails = graph.ends[order].T.copy()

        self._kinds = []
        start = 0
        for kind, group in itertools.groupby(order, key=lambda k: edge_couplings[k].kind):
            group_couplings = [edge_couplings[k] for k in group]
            stop = start + len(group_couplings)
            self._kinds.append((slice(start, stop), COUPLING_FORMULAS[kind],
                                coupling_parameters(group_couplings)))
            start = stop

        # Each distinct system once, zero-padded to the largest order: node k
        # runs system _sys[k] from state _first[k]. An edge end is a node, an
        # edge and the sign of that entry of the incidence matrix D.
        distinct = {id(sys): sys for sys in self.systems}
        index = {key: u for u, key in enumerate(distinct)}
        self._sys = np.array([index[id(sys)] for sys in self.systems], dtype=np.intp)
        self._orders = np.array([sys.order for sys in distinct.values()], dtype=np.intp)
        m = int(self._orders.max(initial=0))
        self._a = np.zeros((len(distinct), m, m))
        self._b = np.zeros((len(distinct), m))
        self._c = np.zeros((len(distinct), m))
        for u, sys in enumerate(distinct.values()):
            self._a[u, :sys.order, :sys.order] = sys.a
            self._b[u, :sys.order] = sys.b
            self._c[u, :sys.order] = sys.c
        self._first = np.array([sl.start for sl in self.slices.values()], dtype=np.intp)
        self._end_node = np.concatenate((self._heads, self._tails))
        self._end_edge = np.tile(np.arange(self.p), 2)
        self._end_sign = np.repeat([1.0, -1.0], self.p)

        states = np.arange(m)
        c_op = _Triplets((self.n, self.n_states))
        c_op.add(np.arange(self.n)[:, None], self._first[:, None] + states, self._c[self._sys])
        self.outputs = _operator(c_op)
        g_op = _Triplets((self.p, self.n_states))
        g_op.add(self._end_edge[:, None], self._first[self._end_node][:, None] + states,
                 self._end_sign[:, None] * self._c[self._sys[self._end_node]])
        self._G = g_op.coo()
        self._build_step()

    @functools.cached_property
    def _S(self) -> tuple:
        """``S = [A | -B D]`` as COO triplets."""
        n_states, states = self.n_states, np.arange(self._a.shape[-1])
        first, end_first = self._first[:, None, None], self._first[self._end_node][:, None]
        s_op = _Triplets((n_states, n_states + self.p))
        s_op.add(first + states[:, None], first + states, self._a[self._sys])
        s_op.add(end_first + states, n_states + self._end_edge[:, None],
                 -self._end_sign[:, None] * self._b[self._sys[self._end_node]])
        return s_op.coo()

    def _build_step(self) -> None:
        """The collapsed RK4 step of size ``dt``, scattered from ``_node_steps``.

        A step runs in one buffer ``z = [w; x; f_1; ...; f_4]``: node noise,
        state and the four stages' coupling outputs. Stage s's coupling
        arguments are one product of its map over the prefix ``[w; x; f_1;
        ...; f_{s-1}]``, and the step ends at ``x+ = [P | Q] [x; f_1; ...;
        f_4]``, the rest of the buffer. Every node's output at stage s is
        linear in its own state, noise and earlier inputs ``u_r = -D f_r``,
        so stage s's map is ``D^T G_s`` with G_s (n rows) reading them;
        stage 1 reads no coupling output and is held as the one factor
        ``[D^T | H_1]``. A row of H_1 or a column of Q touches only one
        edge's end nodes and P is block-diagonal, so every factor has O(m)
        entries per state and edge end, whatever the node degrees; the dense
        ``D^T G_s`` has one per pair of edges that share a node.
        """
        n, n_states, p = self.n, self.n_states, self.p
        y, x_next = _node_steps(self._a, self._b, self._c, self._orders, self.dt)
        m = self._a.shape[-1]
        states, stages, nodes = np.arange(m), np.arange(4), np.arange(n)
        first = self._first[:, None, None]
        end_first = self._first[self._end_node][:, None, None]
        end_sys, edge = self._sys[self._end_node], self._end_edge[:, None, None]
        sign = self._end_sign[:, None, None]

        pq_op = _Triplets((n_states, n_states + 4 * p))
        pq_op.add(first + states[:, None], first + states, x_next[self._sys, :, :m])
        pq_op.add(end_first + states[:, None], n_states + stages * p + edge,
                  -sign * x_next[end_sys, :, m:])
        node, edge, sign = self._end_node[:, None], edge[:, 0], sign[:, 0]
        f_start = n + n_states  # where f_1 starts in z
        v_op = _Triplets((p, f_start))  # [D^T | H_1]
        v_op.add(edge, node, sign)
        v_op.add(edge, n + end_first[:, 0] + states, sign * y[end_sys, 0, :m])
        stage_maps = [_operator(v_op)]
        d_t = _Triplets((p, n))
        d_t.add(edge, node, sign)
        for s in (1, 2, 3):
            g_op = _Triplets((n, f_start + s * p))
            g_op.add(nodes, nodes, 1.0)
            g_op.add(nodes[:, None], n + self._first[:, None] + states, y[self._sys, s, :m])
            g_op.add(node, f_start + stages[:s] * p + edge, -sign * y[end_sys, s, m:m + s])
            stage_maps.append(_operator(d_t, g_op))

        self._PQ = _operator(pq_op)
        z = np.empty(f_start + 4 * p)
        self._w, self._x, self._x_on = z[:n], z[n:f_start], z[n:]
        # per stage: its map, the prefix of z the map reads, and the slot of f_s
        self._stages = [(stage_maps[s], z[:f_start + s * p],
                         z[f_start + s * p:f_start + (s + 1) * p]) for s in range(4)]

    def edge_noise(self, w: np.ndarray) -> np.ndarray:
        """``D^T w`` for node noise ``w`` in ``node_ids`` order."""
        return w[self._heads] - w[self._tails]

    def phi(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coupling outputs ``phi(v)``, one formula call per kind, written
        into ``out`` or a fresh array. ``out`` may be ``v`` itself but must
        not overlap it otherwise."""
        if len(self._kinds) == 1:
            _, formula, params = self._kinds[0]
            return formula(*params, v, out=out)
        if out is None:
            out = np.empty_like(v)
        for sl, formula, params in self._kinds:
            formula(*params, v[sl], out=out[sl])
        return out

    def edge_inputs(self, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Coupling arguments ``v = D^T (C x + w)`` given ``dw = D^T w``."""
        return _matvec(self._G, x) + dw

    def inputs(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Node inputs ``u = -D phi(v)`` under node noise ``w``."""
        f = self.phi(self.edge_inputs(x, self.edge_noise(w)))
        return (np.bincount(self._tails, f, minlength=self.n)
                - np.bincount(self._heads, f, minlength=self.n))

    def deriv(self, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        z = np.concatenate((x, self.phi(self.edge_inputs(x, dw))))
        return _matvec(self._S, z)

    def rk4(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """One RK4 step from ``x`` under node noise ``w``: per stage one
        product of its map and one ``phi`` into the step buffer, then [P | Q]."""
        self._w[:] = w
        self._x[:] = x
        for stage_map, reads, f in self._stages:
            self.phi(stage_map(reads), out=f)
        return self._PQ(self._x_on)

    def rk4_by_stages(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The RK4 recurrence that ``rk4`` collapses, one ``deriv`` per stage."""
        dt, dw = self.dt, self.edge_noise(w)
        k1 = self.deriv(x, dw)
        k2 = self.deriv(x + 0.5 * dt * k1, dw)
        k3 = self.deriv(x + 0.5 * dt * k2, dw)
        k4 = self.deriv(x + dt * k3, dw)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def first_nonfinite_node(self, x: np.ndarray) -> int:
        return next(node for node, sl in self.slices.items() if not np.all(np.isfinite(x[sl])))

    def advance(self, x: np.ndarray, w: np.ndarray, time: float, step_no: int) -> np.ndarray:
        """``rk4`` from the finite state ``x`` under node noise ``w``, checked;
        the step ends at ``time``.

        When the new state's squared norm is not finite (a non-finite entry,
        or one beyond about 1e154), the step is replayed stage by stage from
        ``x``. The replay decides divergence and names the node: the
        collapsed step skips the stage states where a huge state first
        overflows, and a dense product spreads one non-finite entry to every
        row.
        """
        x_next = self.rk4(x, w)
        if x_next @ x_next < math.inf:
            return x_next
        x_next = self.rk4_by_stages(x, w)
        if not np.all(np.isfinite(x_next)):
            raise SimulationDiverged(time, self.first_nonfinite_node(x_next), step_no)
        return x_next

    def initial_state(self, outputs: Mapping[int, float],
                      states: Mapping[int, np.ndarray]) -> np.ndarray:
        x = np.zeros(self.n_states)
        for node, sys in zip(self.node_ids, self.systems):
            x[self.slices[node]] = _node_initial_state(sys, outputs.get(node), states.get(node))
        return x


def _node_initial_state(sys: LtiSystem, y0: float | None,
                        x0: np.ndarray | None) -> np.ndarray:
    """Declared state, else the minimum-norm state with output ``y0``.

    Raises ValueError when the declared state does not have one entry per
    state, or when a nonzero ``y0`` cannot be matched because C is zero.
    When ``C C^T`` overflows, C is first scaled by a power of two, exactly.
    """
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (sys.order,):
            raise ValueError(f"initial state must have {sys.order} entries, got {x0.size}")
        return x0
    if sys.order == 0 or y0 is None or y0 == 0.0:
        return np.zeros(sys.order)
    with np.errstate(over="ignore"):
        cc = float(sys.c @ sys.c)
    if cc == 0.0:
        raise ValueError("cannot match a nonzero initial output: C is zero")
    if cc < math.inf:
        return sys.c * (y0 / cc)  # minimum-norm solution of C x = y0
    scale = 2.0 ** math.frexp(float(np.abs(sys.c).max()))[1]  # C / scale has entries below 1
    c = sys.c / scale
    return c * (y0 / float(c @ c)) / scale


def step(
    state: Mapping[int, np.ndarray],
    graph: Graph,
    systems: Mapping[int, LtiSystem],
    couplings: Mapping[tuple[int, int], SectorCoupling],
    w_sample: Mapping[int, float],
    dt: float,
    t0: float = 0.0,
) -> tuple[dict[int, np.ndarray], dict[int, float]]:
    """One RK4 update of the coupled network; noise held across stages.

    Returns the next per-node states and the outputs at the end of the
    step. A divergence is reported as step ``round(t0 / dt) + 1``, the
    number ``run`` gives a step that starts at ``t0``. Convenience wrapper
    over the phase machinery; ``run`` builds the context once per phase
    instead.
    """
    ctx = _PhaseContext(graph, systems, couplings, dt)
    x = np.zeros(ctx.n_states)
    for node, sys in zip(ctx.node_ids, ctx.systems):
        arr = np.asarray(state[node], dtype=float)
        if arr.shape != (sys.order,):
            raise ValueError(f"node {node}: state must have {sys.order} entries")
        x[ctx.slices[node]] = arr
    w = np.array([float(w_sample.get(node, 0.0)) for node in ctx.node_ids])
    with np.errstate(over="ignore", invalid="ignore"):
        x_next = ctx.advance(x, w, t0 + dt, round(t0 / dt) + 1)
    y = ctx.outputs(x_next)
    next_state = {node: x_next[sl].copy() for node, sl in ctx.slices.items()}
    return next_state, {node: float(y[idx]) for idx, node in enumerate(ctx.node_ids)}


def run(scenario: Scenario) -> TrajectoryRecord:
    """Integrate a scenario phase by phase and sample the trajectories.

    Deterministic: the same scenario (same seed) produces bit-identical
    records. Raises SimulationDiverged naming the time, the step and the
    first node whose state leaves the finite range.
    """
    solver = scenario.solver
    dt = solver.dt
    total_steps = solver.n_steps
    stride = solver.sample_stride

    all_ids = tuple(sorted(scenario.systems))
    col_of = {node: k for k, node in enumerate(all_ids)}
    noise = np.column_stack(
        [noise_stream(scenario.noise, node, total_steps, dt) for node in all_ids]
    )

    n_samples = total_steps // stride + 1
    times = np.arange(n_samples) * (stride * dt)
    y_rec = np.full((n_samples, len(all_ids)), np.nan)
    u_rec = np.full((n_samples, len(all_ids)), np.nan)
    w_rec = noise[np.minimum(np.arange(n_samples) * stride, total_steps - 1)]

    starts = scenario.phase_start_steps()
    bounds = starts[1:] + [total_steps]

    x = None
    prev_ctx: _PhaseContext | None = None
    for phase_idx, graph in enumerate(scenario.phases):
        ctx = _PhaseContext(graph, scenario.systems, scenario.couplings, dt)
        x_new = ctx.initial_state(scenario.initial_outputs, scenario.initial_states)
        if prev_ctx is not None:
            for node, sl in prev_ctx.slices.items():
                x_new[ctx.slices[node]] = x[sl]
        x = x_new
        cols = np.array([col_of[node] for node in ctx.node_ids], dtype=np.intp)
        # the phase's node noise, a row per step: a view when its columns are
        # consecutive, as in every benchmark workload, since a copy as long as
        # the phase raised the bundled example's peak memory by 0.9 MB
        steps = slice(starts[phase_idx], bounds[phase_idx])
        if len(cols) and np.array_equal(cols, np.arange(cols[0], cols[0] + len(cols))):
            phase_noise = noise[steps, cols[0]:cols[0] + len(cols)]
        else:
            phase_noise = noise[steps, cols]

        with np.errstate(over="ignore", invalid="ignore"):
            for step_i, w in enumerate(phase_noise, starts[phase_idx]):
                if step_i % stride == 0:
                    s = step_i // stride
                    y_rec[s, cols] = ctx.outputs(x)
                    u_rec[s, cols] = ctx.inputs(x, w)
                x = ctx.advance(x, w, (step_i + 1) * dt, step_i + 1)
        prev_ctx = ctx

    if total_steps % stride == 0:
        ctx = prev_ctx
        cols = [col_of[node] for node in ctx.node_ids]
        s = total_steps // stride
        y_rec[s, cols] = ctx.outputs(x)
        u_rec[s, cols] = ctx.inputs(x, noise[total_steps - 1, cols])

    return TrajectoryRecord(node_ids=all_ids, times=times, outputs=y_rec, inputs=u_rec,
                            noise=w_rec)
