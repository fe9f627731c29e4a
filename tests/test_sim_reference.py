"""The structured simulator core against the dense formulation it replaced.

The reference below builds dense A, B, C and the incidence matrix D and
integrates ``dx/dt = A x - B D phi(D^T (C x + w))`` with the same RK4 and
held noise. Its couplings are evaluated edge by edge in plain Python, so it
shares no formula with the code under test. Sums run in a different order
on the two sides, so trajectories agree to a relative error of 1e-12 (the
largest difference over the largest magnitude of each recorded array), not
bit for bit; NaN masks must match exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from plugnet.graph import Graph, PlugPlan, incidence
from plugnet.passivity import (
    linear_gain,
    realize,
    saturated_sine,
    saturated_sine_smooth,
    tabulated,
)
from plugnet import sim
from plugnet.sim import NoiseSpec, PlugEvent, Scenario, SolverConfig, noise_stream, run

REL_TOL = 1e-12

TRANSFER_FUNCTIONS = (
    ([1.0], [1.0, 0.0]),  # pure integrator: A is all zero
    ([1.0], [1.0, 1.0]),
    ([1.0, 1.0], [1.0, 0.7, 0.0]),
    ([1.0], [1.0, 2.0, 1.0]),  # C = [0, 1]
    ([1.0, 3.5, 3.0], [1.0, 2.8, 1.8, 0.0]),
    ([2.0], [1.0, 3.0, 3.0, 1.0]),
)
INTEGRATOR = realize(*TRANSFER_FUNCTIONS[0])
LAG = realize(*TRANSFER_FUNCTIONS[1])
TABLES = (
    [(0.8, 0.5)],
    [(0.5, 0.2), (2.0, 0.9)],
    [(0.5, 0.2), (2.0, 0.9), (4.0, 1.6)],
)


# --- the dense reference ------------------------------------------------------


def _phi_scalar(c, v: float) -> float:
    if c.kind == "linear_gain":
        return c.gain * v
    if c.kind == "sat_sine":
        return c.gain * (math.sin(v) if abs(v) < math.pi / 2 else v)
    if c.kind == "sat_sine_smooth":
        if abs(v) < math.pi / 2:
            return c.gain * math.sin(v)
        return c.gain * math.copysign(abs(v) - math.pi / 2 + 1.0, v)
    xs = [0.0] + [x for x, _ in c.table]
    ys = [0.0] + [y for _, y in c.table]
    mag = abs(v)
    k = len(xs) - 2
    for seg in range(len(xs) - 1):
        if mag <= xs[seg + 1]:
            k = seg
            break
    value = ys[k] + (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) * (mag - xs[k])
    return math.copysign(value, v)


class _Dense:
    def __init__(self, graph, systems, couplings):
        self.node_ids = graph.node_ids
        self.systems = [systems[i] for i in self.node_ids]
        self.couplings = [couplings.get((i, j), couplings.get((j, i))) for i, j in graph.edges]
        orders = [s.order for s in self.systems]
        self.offsets = np.concatenate(([0], np.cumsum(orders))).astype(int)
        n_states, n = int(self.offsets[-1]), len(self.node_ids)
        self.A = np.zeros((n_states, n_states))
        self.B = np.zeros((n_states, n))
        self.C = np.zeros((n, n_states))
        for idx, s in enumerate(self.systems):
            sl = slice(self.offsets[idx], self.offsets[idx + 1])
            self.A[sl, sl] = s.a
            self.B[sl, idx] = s.b
            self.C[idx, sl] = s.c
        self.D = incidence(graph).astype(float)

    def state_of(self, x, node):
        idx = self.node_ids.index(node)
        return x[self.offsets[idx]:self.offsets[idx + 1]]

    def inputs(self, y, w):
        v = self.D.T @ (y + w)
        return -(self.D @ np.array([_phi_scalar(c, vk) for c, vk in zip(self.couplings, v)]))

    def deriv(self, x, w):
        return self.A @ x + self.B @ self.inputs(self.C @ x, w)

    def rk4(self, x, w, dt):
        k1 = self.deriv(x, w)
        k2 = self.deriv(x + 0.5 * dt * k1, w)
        k3 = self.deriv(x + 0.5 * dt * k2, w)
        k4 = self.deriv(x + dt * k3, w)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dense_run(scenario: Scenario):
    dt, total, stride = scenario.solver.dt, scenario.solver.n_steps, scenario.solver.sample_stride
    ids = sorted(scenario.systems)
    noise = np.column_stack([noise_stream(scenario.noise, i, total, dt) for i in ids])
    n_samples = total // stride + 1
    y_rec = np.full((n_samples, len(ids)), np.nan)
    u_rec = np.full((n_samples, len(ids)), np.nan)
    starts = scenario.phase_start_steps()
    bounds = starts[1:] + [total]
    x, prev = None, None
    for phase, graph in enumerate(scenario.phases):
        ctx = _Dense(graph, scenario.systems, scenario.couplings)
        parts = []
        for node, s in zip(ctx.node_ids, ctx.systems):
            if prev is not None and node in prev.node_ids:
                parts.append(prev.state_of(x, node))
            elif node in scenario.initial_states:
                parts.append(np.asarray(scenario.initial_states[node], dtype=float))
            else:
                y0 = scenario.initial_outputs.get(node, 0.0)
                parts.append(s.c * (y0 / (s.c @ s.c)) if y0 else np.zeros(s.order))
        x = np.concatenate(parts)
        cols = [ids.index(i) for i in ctx.node_ids]
        for k in range(starts[phase], bounds[phase]):
            w = noise[k, cols]
            if k % stride == 0:
                y_rec[k // stride, cols] = ctx.C @ x
                u_rec[k // stride, cols] = ctx.inputs(ctx.C @ x, w)
            x = ctx.rk4(x, w, dt)
        prev = ctx
    if total % stride == 0:
        w = noise[total - 1, cols]
        y_rec[-1, cols] = ctx.C @ x
        u_rec[-1, cols] = ctx.inputs(ctx.C @ x, w)
    return y_rec, u_rec


def _assert_close(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    scale = np.max(np.abs(want[finite]))
    assert np.max(np.abs(got[finite] - want[finite])) <= REL_TOL * scale


# --- random scenarios -----------------------------------------------------------


def _coupling(rng, k: int):
    """Edge k's coupling: the six variants in turn, with a random gain."""
    variant = k % (3 + len(TABLES))
    if variant >= 3:
        return tabulated(TABLES[variant - 3])
    factory = (linear_gain, saturated_sine, saturated_sine_smooth)[variant]
    return factory(float(rng.uniform(0.2, 0.8)))


def _random_scenario(seed: int, tfs=TRANSFER_FUNCTIONS, late: int = 10) -> Scenario:
    """Two paths with chords, joined by a network plug, then one added node.

    With ``late`` below the other ids, the last phase's nodes are not in
    id order, so ``run`` gathers that phase's noise instead of a view."""
    rng = np.random.default_rng(seed)
    g1_ids, g2_ids = [1, 2, 3, 4, 5], [6, 7, 8, 9]

    def path_with_chord(ids):
        pairs = list(zip(ids, ids[1:])) + [(ids[0], ids[2])]
        return Graph.from_pairs(ids, pairs)

    g1, g2 = path_with_chord(g1_ids), path_with_chord(g2_ids)
    initial = Graph(g1.node_ids + g2.node_ids, g1.edges + g2.edges)
    plug1 = PlugPlan(base=g1, added=g2, boundary=((1, 6), (4, 9)))
    joined = Graph(initial.node_ids, initial.edges + ((1, 6), (4, 9)))
    plug2 = PlugPlan(base=joined, added=late, boundary=((late, 3),))

    all_ids = g1_ids + g2_ids + [late]
    systems = {i: realize(*tfs[rng.integers(len(tfs))]) for i in all_ids}
    edges = joined.edges + ((3, late),)
    couplings = {e: _coupling(rng, k + seed) for k, e in enumerate(edges)}
    outputs = {i: float(rng.uniform(-3.0, 3.0)) for i in all_ids}
    first = all_ids[0]
    states = {first: rng.uniform(-1.0, 1.0, systems[first].order)}
    return Scenario(
        systems=systems,
        initial_graph=initial,
        couplings=couplings,
        noise=NoiseSpec(scale=0.4, seed=seed),
        solver=SolverConfig(dt=0.02, t_end=6.0, sample_stride=4),
        initial_outputs=outputs,
        initial_states=states,
        plug_events=(PlugEvent(time=2.0, plan=plug1), PlugEvent(time=4.0, plan=plug2)),
    )


@pytest.mark.parametrize("seed, tfs, late", [(seed, TRANSFER_FUNCTIONS, 10) for seed in range(6)]
                         + [(11, TRANSFER_FUNCTIONS[:1], 10), (3, TRANSFER_FUNCTIONS, 0)],
                         ids=[f"mixed-{seed}" for seed in range(6)]
                         + ["integrators", "late_node_first_by_id"])
def test_run_matches_dense_reference(seed, tfs, late):
    scenario = _random_scenario(seed, tfs, late)
    traj = run(scenario)
    y_ref, u_ref = _dense_run(scenario)
    _assert_close(traj.outputs, y_ref)
    _assert_close(traj.inputs, u_ref)
    assert np.isnan(traj.outputs[0, traj.column(late)])  # plugged in later


@pytest.mark.parametrize("systems", [
    {1: INTEGRATOR, 2: INTEGRATOR},
    {1: INTEGRATOR, 2: LAG, 3: realize(*TRANSFER_FUNCTIONS[4])},
])
def test_edgeless_step_matches_dense_reference(systems):
    # one step: the outputs through ``run``, the state through the phase's
    # step of the same validated scenario
    graph = Graph(tuple(systems), ())
    rng = np.random.default_rng(5)
    state = {i: rng.uniform(-1.0, 1.0, s.order) for i, s in systems.items()}
    scenario = Scenario(systems=systems, initial_graph=graph, couplings={},
                        noise=NoiseSpec(scale=0.3, seed=5), solver=SolverConfig(dt=0.05, t_end=0.05),
                        initial_states=state)
    traj = run(scenario)
    ctx = sim._PhaseContext(scenario.phases[0], scenario.systems, scenario.couplings, 0.05)
    x0, w = np.concatenate([state[i] for i in graph.node_ids]), traj.noise[0]
    x_next = ctx.advance(x0, w, 0.05, 1)

    ref = _Dense(graph, systems, {})
    x_ref = ref.rk4(x0, w, 0.05)
    for node in graph.node_ids:
        _assert_close(x_next[ctx.slices[node]], ref.state_of(x_ref, node))
    _assert_close(traj.outputs[-1], ref.C @ x_ref)
