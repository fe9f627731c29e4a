"""The collapsed RK4 step against the stage-wise recurrence it replaces.

``_PhaseContext.rk4`` evaluates a step as one product of a precomputed
stage map and one coupling evaluation per stage, then one product by
[P | Q]. The reference is ``rk4_by_stages``,
the textbook recurrence through ``deriv``, one stage at a time. Both run the same
scenario through ``run``; the sums are ordered differently, so the recorded
arrays agree to a relative error of 1e-12 (the largest difference over the
largest magnitude of each array), with identical NaN masks. Each case runs
twice: with every operator evaluated dense and with every operator COO.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plugnet import sim
from plugnet.graph import Graph, PlugPlan
from plugnet.passivity import (
    linear_gain,
    realize,
    saturated_sine,
    saturated_sine_smooth,
    tabulated,
)
from plugnet.scenario import parse_scenario_dict, paper_example
from plugnet.sim import NoiseSpec, PlugEvent, Scenario, SolverConfig, run

REL_TOL = 1e-12

# orders 1 to 3: a pure integrator (A = 0) and C = [0, 1] among them
SYSTEMS = tuple(realize(num, den) for num, den in (
    ([1.0], [1.0, 0.0]),
    ([1.0], [1.0, 1.0]),
    ([1.0], [1.0, 2.0, 1.0]),
    ([1.0, 1.0], [1.0, 0.7, 0.0]),
    ([2.0], [1.0, 3.0, 3.0, 1.0]),
))
TABLES = ([(0.8, 0.5)], [(0.5, 0.2), (2.0, 0.9), (4.0, 1.6)])


def _couplings():
    gain = st.floats(0.1, 1.5)
    return st.one_of(gain.map(linear_gain), gain.map(saturated_sine),
                     gain.map(saturated_sine_smooth), st.sampled_from(TABLES).map(tabulated))


@st.composite
def _scenarios(draw):
    """A path with chords; a second path plugs in mid-run through 1-3 boundary edges."""
    n1, n2 = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    ids1, ids2 = list(range(1, n1 + 1)), list(range(n1 + 1, n1 + n2 + 1))

    def connected(ids):
        chords = [(a, b) for a in ids for b in ids if b > a + 1]
        extra = draw(st.lists(st.sampled_from(chords), unique=True, max_size=2)) if chords else []
        return Graph.from_pairs(ids, list(zip(ids, ids[1:])) + extra)

    g1, g2 = connected(ids1), connected(ids2)
    boundary = tuple(draw(st.lists(st.tuples(st.sampled_from(ids1), st.sampled_from(ids2)),
                                   min_size=1, max_size=3, unique=True)))
    edges = g1.edges + g2.edges + boundary
    dt, n_steps = 0.05, 40
    return Scenario(
        systems={i: draw(st.sampled_from(SYSTEMS)) for i in ids1 + ids2},
        initial_graph=g1,
        couplings={e: draw(_couplings()) for e in edges},
        noise=NoiseSpec(scale=0.3, seed=draw(st.integers(0, 1000))),
        solver=SolverConfig(dt=dt, t_end=n_steps * dt, sample_stride=draw(st.integers(1, 3))),
        initial_outputs={i: draw(st.floats(-2.0, 2.0)) for i in ids1 + ids2},
        plug_events=(PlugEvent(time=draw(st.integers(1, n_steps - 1)) * dt,
                               plan=PlugPlan(base=g1, added=g2, boundary=boundary)),),
    )


def _assert_close(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    scale = np.max(np.abs(want[finite]))
    assert np.max(np.abs(got[finite] - want[finite])) <= REL_TOL * scale


@pytest.mark.parametrize("dense_max_entries", [0, 10**9], ids=["coo", "dense"])
@settings(max_examples=40, deadline=None)
@given(_scenarios())
def test_collapsed_step_matches_stagewise_recurrence(dense_max_entries, scenario):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "DENSE_MAX_ENTRIES", dense_max_entries)
        traj = run(scenario)
        mp.setattr(sim._PhaseContext, "rk4", sim._PhaseContext.rk4_by_stages)
        ref = run(scenario)
    _assert_close(traj.outputs, ref.outputs)
    _assert_close(traj.inputs, ref.inputs)
    assert np.isnan(traj.outputs[0, -1])  # the second path joins later


def _operators(ctx):
    return [*(stage_map for stage_map, _, _ in ctx._stages), ctx._PQ, ctx.outputs]


def test_small_phases_go_dense_and_large_ones_coo():
    # the bundled example is small; a 200-node ring's maps are not
    doc = parse_scenario_dict(paper_example())
    scenario = doc.build_scenario()
    for graph in scenario.phases:
        ctx = sim._PhaseContext(graph, scenario.systems, scenario.couplings, scenario.solver.dt)
        assert not any(isinstance(op, functools.partial) for op in _operators(ctx))
    ids = list(range(200))
    ring = Graph.from_pairs(ids, [(i, (i + 1) % 200) for i in ids])
    ctx = sim._PhaseContext(ring, dict.fromkeys(ids, SYSTEMS[3]),
                            dict.fromkeys(ring.edges, linear_gain(0.5)), 1e-3)
    assert all(isinstance(op, functools.partial) for op in _operators(ctx))


def test_a_hub_keeps_the_maps_linear_in_states_and_edges():
    # one node joined to 500 leaves: the maps of stages 2-4 stay factored
    # through the nodes, so no map holds an entry per pair of edges at the hub
    leaves = range(1, 501)
    star = Graph.from_pairs([0, *leaves], [(0, i) for i in leaves])
    systems = {i: SYSTEMS[i % len(SYSTEMS)] for i in star.node_ids}
    ctx = sim._PhaseContext(star, systems, dict.fromkeys(star.edges, saturated_sine(0.5)), 1e-3)
    entries = sum(coo[2].size for op in _operators(ctx) for coo in op.args[0])
    assert entries <= 40 * (ctx.n_states + ctx.p)
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal(ctx.n_states), 0.1 * rng.standard_normal(ctx.n)
    _assert_close(ctx.rk4(x, w), ctx.rk4_by_stages(x, w))


def test_a_coo_step_takes_eight_products():
    # stage 1 reads no coupling output: one factor; stages 2-4 read the earlier
    # ones through the nodes: two factors each; then [P | Q]
    ids = list(range(200))
    ring = Graph.from_pairs(ids, [(i, (i + 1) % 200) for i in ids])
    ctx = sim._PhaseContext(ring, dict.fromkeys(ids, SYSTEMS[4]),
                            dict.fromkeys(ring.edges, saturated_sine(0.5)), 1e-3)
    factors = [len(stage_map.args[0]) for stage_map, _, _ in ctx._stages]
    assert factors + [len(ctx._PQ.args[0])] == [1, 2, 2, 2, 1]


def test_run_takes_one_rk4_step_per_solver_step(monkeypatch):
    raw = paper_example(t_end=16.0)
    raw["solver"]["dt"] = 0.01
    scenario = parse_scenario_dict(raw).build_scenario()
    edges_per_step = []
    rk4 = sim._PhaseContext.rk4

    def counted(ctx, x, w):
        edges_per_step.append(ctx.p)
        return rk4(ctx, x, w)

    monkeypatch.setattr(sim._PhaseContext, "rk4", counted)
    run(scenario)
    # the plug at t = 15 adds the edges 1-5 and 4-7 to the two subnetworks
    assert edges_per_step == [6] * 1500 + [8] * 100
    assert len(edges_per_step) == scenario.solver.n_steps
