from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import first_plugged_sample
from test_passivity import _SPECIAL_POINTS, _reference_phi, _same_bits

from plugnet import sim
from plugnet.errors import SimulationDiverged
from plugnet.graph import Graph, PlugPlan
from plugnet.metrics import disagreement
from plugnet.passivity import (COUPLING_FORMULAS, linear_gain, realize, saturated_sine,
                               saturated_sine_smooth, tabulated)
from plugnet.sim import (
    NoiseSpec,
    PlugEvent,
    Scenario,
    SolverConfig,
    TrajectoryRecord,
    noise_stream,
    run,
    step,
)

INTEGRATOR = realize([1], [1, 0])
LAG = realize([1], [1, 1])

NO_NOISE = NoiseSpec(scale=0.0, seed=0)


def _two_node_scenario(system, coupling, y0, dt=1e-3, t_end=5.0, stride=10, noise=NO_NOISE):
    return Scenario(
        systems={1: system, 2: system},
        initial_graph=Graph([1, 2], [(1, 2)]),
        couplings={(1, 2): coupling},
        noise=noise,
        solver=SolverConfig(dt=dt, t_end=t_end, sample_stride=stride),
        initial_outputs={1: y0[0], 2: y0[1]},
    )


def test_step_free_response_matches_exponential():
    # single lag, no edges: one RK4 step of the free response
    dt = 0.01
    state = {1: np.array([1.0])}
    next_state, outputs = step(
        state, Graph([1], []), {1: LAG}, {}, {1: 0.0}, dt
    )
    assert abs(outputs[1] - math.exp(-dt)) < dt**5
    assert abs(next_state[1][0] - math.exp(-dt)) < dt**5


def test_identical_nodes_stay_identical():
    scenario = _two_node_scenario(LAG, saturated_sine(0.5), (0.7, 0.7), t_end=2.0)
    traj = run(scenario)
    assert np.array_equal(traj.outputs[:, 0], traj.outputs[:, 1])
    assert np.all(traj.inputs == 0.0)  # diffusive coupling of equal outputs


def test_coupled_integrators_match_closed_form():
    # y1 - y2 obeys d(delta)/dt = -2 a delta
    a = 1.0
    scenario = _two_node_scenario(INTEGRATOR, linear_gain(a), (1.0, -1.0))
    traj = run(scenario)
    delta = traj.outputs[:, 0] - traj.outputs[:, 1]
    exact = 2.0 * np.exp(-2.0 * a * traj.times)
    rel = np.abs(delta - exact) / np.abs(exact)
    assert rel.max() < 1e-5


def test_integrator_path_reaches_consensus():
    g = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    scenario = Scenario(
        systems={i: INTEGRATOR for i in (1, 2, 3)},
        initial_graph=g,
        couplings={(1, 2): linear_gain(0.8), (2, 3): linear_gain(0.6)},
        noise=NO_NOISE,
        solver=SolverConfig(dt=1e-3, t_end=50.0, sample_stride=100),
        initial_outputs={1: 1.0, 2: 0.0, 3: -1.0},
    )
    traj = run(scenario)
    assert disagreement(traj, g)[-1] < 1e-6


def test_run_is_deterministic():
    noise = NoiseSpec(scale=0.5, seed=99)
    s = _two_node_scenario(LAG, saturated_sine(0.5), (1.0, -1.0), t_end=1.0, noise=noise)
    t1, t2 = run(s), run(s)
    assert np.array_equal(t1.outputs, t2.outputs)
    assert np.array_equal(t1.noise, t2.noise)
    assert np.array_equal(t1.inputs, t2.inputs)


def test_noise_stream_depends_only_on_seed_node_step():
    spec = NoiseSpec(scale=0.5, seed=7)
    a = noise_stream(spec, node_id=3, n_steps=100, dt=0.01)
    b = noise_stream(spec, node_id=3, n_steps=150, dt=0.01)
    assert np.array_equal(a, b[:100])  # longer runs extend, never rewrite
    c = noise_stream(spec, node_id=4, n_steps=100, dt=0.01)
    assert not np.array_equal(a, c)


def test_noise_sqrt_dt_kind_scaling():
    held = noise_stream(NoiseSpec(0.5, 7, "white_gaussian_held"), 1, 50, dt=0.04)
    em = noise_stream(NoiseSpec(0.5, 7, "white_gaussian_sqrt_dt"), 1, 50, dt=0.04)
    assert np.allclose(em, held / math.sqrt(0.04))


def test_sample_stride_does_not_change_dynamics():
    noise = NoiseSpec(scale=0.3, seed=5)
    dense = run(_two_node_scenario(LAG, saturated_sine(0.5), (1.0, -1.0),
                                   t_end=1.0, stride=1, noise=noise))
    sparse = run(_two_node_scenario(LAG, saturated_sine(0.5), (1.0, -1.0),
                                    t_end=1.0, stride=5, noise=noise))
    assert np.array_equal(dense.outputs[::5], sparse.outputs)


def test_automorphism_permutes_trajectories():
    # the path 1-2-3 maps onto itself under 1 <-> 3; swapping the initial
    # outputs must swap the outputs for all time (zero noise)
    def scenario(y0):
        return Scenario(
            systems={i: LAG for i in (1, 2, 3)},
            initial_graph=Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)]),
            couplings={(1, 2): linear_gain(0.5), (2, 3): linear_gain(0.5)},
            noise=NO_NOISE,
            solver=SolverConfig(dt=1e-3, t_end=2.0, sample_stride=10),
            initial_outputs=dict(zip((1, 2, 3), y0)),
        )

    fwd = run(scenario((1.0, 0.25, -1.0)))
    rev = run(scenario((-1.0, 0.25, 1.0)))
    assert np.allclose(fwd.outputs[:, 0], rev.outputs[:, 2], atol=1e-12)
    assert np.allclose(fwd.outputs[:, 2], rev.outputs[:, 0], atol=1e-12)
    assert np.allclose(fwd.outputs[:, 1], rev.outputs[:, 1], atol=1e-12)


def test_plug_event_adds_node_and_carries_states():
    base = Graph([1, 2], [(1, 2)])
    plan = PlugPlan(base=base, added=3, boundary=((3, 2),))
    scenario = Scenario(
        systems={1: LAG, 2: LAG, 3: LAG},
        initial_graph=base,
        couplings={(1, 2): linear_gain(0.5), (2, 3): linear_gain(0.5)},
        noise=NO_NOISE,
        solver=SolverConfig(dt=1e-3, t_end=2.0, sample_stride=10),
        initial_outputs={1: 1.0, 2: -1.0, 3: 2.0},
        plug_events=(PlugEvent(time=1.0, plan=plan),),
    )
    traj = run(scenario)
    col3 = traj.column(3)
    first_active = first_plugged_sample(scenario)
    assert first_active == 100
    assert np.all(np.isnan(traj.outputs[:first_active, col3]))
    assert traj.outputs[first_active, col3] == pytest.approx(2.0)
    # existing nodes keep their states across the boundary: no jump larger
    # than one step's worth of motion
    col1 = traj.column(1)
    jump = abs(traj.outputs[first_active, col1] - traj.outputs[first_active - 1, col1])
    assert jump < 0.05
    assert len(scenario.phases) == 2 and scenario.phases[1].p == 2


def test_column_is_each_node_position():
    zeros = np.zeros((1, 4))
    traj = TrajectoryRecord(node_ids=(30, 1, 7, 1), times=np.zeros(1), outputs=zeros,
                            inputs=zeros, noise=zeros)
    assert [traj.column(node) for node in (30, 1, 7)] == [0, 1, 2]  # a repeated id: its first
    with pytest.raises(ValueError, match=r"^node 5 not recorded$"):
        traj.column(5)


def test_divergence_raises_with_time():
    unstable = realize([1], [1, -100.0])  # pole at +100
    scenario = Scenario(
        systems={1: unstable},
        initial_graph=Graph([1], []),
        couplings={},
        noise=NO_NOISE,
        solver=SolverConfig(dt=0.01, t_end=20.0, sample_stride=10),
        initial_outputs={1: 1.0},
    )
    with pytest.raises(SimulationDiverged) as exc:
        run(scenario)
    assert 0.0 < exc.value.time <= 20.0


def test_divergence_names_node_and_step():
    # node 1 is a stable lag, node 2 has a pole at +100; no edge joins them
    unstable = realize([1], [1, -100.0])
    kwargs = dict(
        systems={1: LAG, 2: unstable},
        initial_graph=Graph([1, 2], []),
        couplings={},
        noise=NO_NOISE,
        initial_outputs={1: 0.5, 2: 1.0},
    )
    dt = 0.01
    with pytest.raises(SimulationDiverged) as exc:
        run(Scenario(solver=SolverConfig(dt=dt, t_end=20.0), **kwargs))
    err = exc.value
    assert err.node == 2
    assert err.time == pytest.approx(err.step * dt)
    assert f"node 2, step {err.step}," in str(err)
    # the step named is the first whose state is non-finite
    before = run(Scenario(solver=SolverConfig(dt=dt, t_end=(err.step - 1) * dt), **kwargs))
    assert np.all(np.isfinite(before.outputs))

    with pytest.raises(SimulationDiverged) as exc:
        step({1: np.zeros(1), 2: np.array([1e306])}, Graph([1, 2], []),
             {1: LAG, 2: unstable}, {}, {}, dt, t0=0.5)
    assert (exc.value.node, exc.value.step) == (2, 51)
    assert exc.value.time == pytest.approx(0.51)


def test_divergence_inside_a_stage_names_the_node():
    # node 2's first stage derivative 100 * 1e307 overflows, although the
    # step's end state, about 2.7e307, would not; the stable node 1 has the
    # lower id and stays finite
    unstable = realize([1], [1, -100.0])
    systems = {1: LAG, 2: unstable}
    states = {1: np.zeros(1), 2: np.array([1e307])}
    with pytest.raises(SimulationDiverged) as exc:
        step(states, Graph([1, 2], []), systems, {}, {}, 0.01, t0=0.5)
    assert (exc.value.node, exc.value.step) == (2, 51)

    scenario = Scenario(systems=systems, initial_graph=Graph([1, 2], []), couplings={},
                        noise=NO_NOISE, solver=SolverConfig(dt=0.01, t_end=1.0),
                        initial_states=states)
    with pytest.raises(SimulationDiverged) as exc:
        run(scenario)
    assert (exc.value.node, exc.value.step) == (2, 1)
    assert exc.value.time == pytest.approx(0.01)


def test_feedthrough_nodes_are_rejected():
    static = realize([2], [1])
    scenario_kwargs = dict(
        systems={1: static, 2: LAG},
        initial_graph=Graph([1, 2], [(1, 2)]),
        couplings={(1, 2): linear_gain(0.5)},
        noise=NO_NOISE,
        solver=SolverConfig(dt=0.01, t_end=1.0),
    )
    with pytest.raises(ValueError, match="feedthrough"):
        run(Scenario(**scenario_kwargs))


def test_scenario_validates_event_grid_alignment():
    base = Graph([1, 2], [(1, 2)])
    plan = PlugPlan(base=base, added=3, boundary=((3, 2),))
    with pytest.raises(ValueError, match="step grid"):
        Scenario(
            systems={1: LAG, 2: LAG, 3: LAG},
            initial_graph=base,
            couplings={(1, 2): linear_gain(0.5), (2, 3): linear_gain(0.5)},
            noise=NO_NOISE,
            solver=SolverConfig(dt=1e-3, t_end=2.0),
            plug_events=(PlugEvent(time=1.0005001, plan=plan),),
        )


def test_mixed_kind_phi_writes_each_kind_into_its_slice_of_out():
    ids = list(range(9))
    g = Graph.from_pairs(ids, list(zip(ids, ids[1:])))
    # every kind, interleaved along the path; two tables of different lengths
    couplings = [saturated_sine(0.5), linear_gain(0.3),
                 tabulated([(0.5, 0.2), (2.0, 0.9), (4.0, 1.6)]), saturated_sine_smooth(0.4),
                 tabulated([(1.0, 0.7)]), saturated_sine(0.2), linear_gain(1.1),
                 saturated_sine_smooth(0.9)]
    ctx = sim._PhaseContext(g, {i: LAG for i in ids}, dict(zip(g.edges, couplings)), 0.01)
    kind_of = {formula: kind for kind, formula in COUPLING_FORMULAS.items()}
    assert sorted(kind_of[formula] for _, formula, _ in ctx._kinds) == sorted(COUPLING_FORMULAS)
    p = ctx.p
    for shift in range(len(_SPECIAL_POINTS)):
        v = np.roll(_SPECIAL_POINTS, shift)[:p]
        buffer = np.full(3 * p, 7.0)
        with np.errstate(invalid="ignore"):
            out = ctx.phi(v, out=buffer[p:2 * p])
            fresh = ctx.phi(v)
        assert np.shares_memory(out, buffer) and out.shape == (p,)
        assert np.all(buffer[:p] == 7.0) and np.all(buffer[2 * p:] == 7.0)
        assert _same_bits(fresh, out)
        for sl, formula, params in ctx._kinds:
            with np.errstate(invalid="ignore"):
                want = _reference_phi(kind_of[formula], params, v[sl])
            assert _same_bits(out[sl], want)


def test_mixed_coupling_kinds_match_scalar_evaluation():
    # recorded inputs at t = 0 equal -D phi(D^T y0) computed edge by edge
    # with the scalar evaluator, covering every coupling code path at once
    from plugnet.graph import incidence
    from plugnet.passivity import evaluate_coupling, saturated_sine_smooth, tabulated

    g = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    couplings = {
        (1, 2): saturated_sine(0.5),
        (2, 3): saturated_sine_smooth(0.4),
        (3, 4): tabulated([(0.5, 0.2), (2.0, 0.9), (4.0, 1.6)]),
    }
    y0 = {1: 2.0, 2: -1.0, 3: 0.5, 4: -2.5}
    traj = run(Scenario(
        systems={i: LAG for i in g.node_ids},
        initial_graph=g,
        couplings=couplings,
        noise=NO_NOISE,
        solver=SolverConfig(dt=0.01, t_end=1.0, sample_stride=10),
        initial_outputs=y0,
    ))
    d = incidence(g).astype(float)
    v = d.T @ np.array([y0[i] for i in g.node_ids])
    phi = np.array([evaluate_coupling(couplings[e], v[k]) for k, e in enumerate(g.edges)])
    assert np.allclose(traj.inputs[0], -(d @ phi), atol=1e-14)
    assert np.all(np.isfinite(traj.outputs))


def test_energy_inequality_on_certified_zero_noise_run():
    # aggregate dissipation check with sweep indices: the running surplus
    # <V, -D^T Y>_T - sum_i nu_i |u_i|_T^2 is bounded below by a constant
    # offset fitted on the first half of the horizons
    from plugnet.certificates import certify_fixed_network
    from plugnet.graph import incidence
    from plugnet.passivity import estimate_ifp_index, evaluate_coupling

    g = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    systems = {
        1: realize([1, 1], [1, 0.7, 0]),
        2: realize([1, 0.9], [1, 0.65, 0]),
        3: realize([1, 0.5], [1, 0.4, 0]),
    }
    nus = {i: estimate_ifp_index(s).nu for i, s in systems.items()}
    couplings = {(1, 2): linear_gain(0.3), (2, 3): linear_gain(0.25)}
    alphas = {e: c.alpha_upper for e, c in couplings.items()}
    assert certify_fixed_network(g, nus, alphas).verdict == "certified"

    traj = run(Scenario(
        systems=systems,
        initial_graph=g,
        couplings=couplings,
        noise=NO_NOISE,
        solver=SolverConfig(dt=1e-3, t_end=20.0, sample_stride=5),
        initial_outputs={1: 1.0, 2: -0.5, 3: 0.25},
    ))
    d = incidence(g).astype(float)
    edge_in = traj.outputs @ d  # zero noise: D^T (Y + W) = D^T Y
    v = np.column_stack([
        evaluate_coupling(couplings[e], edge_in[:, k]) for k, e in enumerate(g.edges)
    ])
    # identity <V, -D^T Y> = <U, Y> holds sample-wise by construction
    lhs_integrand = np.sum(v * (-edge_in), axis=1)
    uy_integrand = np.sum(traj.inputs * traj.outputs, axis=1)
    assert np.allclose(lhs_integrand, uy_integrand, atol=1e-10)

    nu_arr = np.array([nus[i] for i in traj.node_ids])
    rhs_integrand = (traj.inputs**2) @ nu_arr
    dt_s = np.diff(traj.times)
    cum = lambda f: np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * dt_s)))
    surplus = cum(lhs_integrand) - cum(rhs_integrand)
    horizons = np.linspace(1, len(surplus) - 1, 40, dtype=int)
    half = horizons[: len(horizons) // 2]
    delta_bar = surplus[half].min()
    # tolerance covers the trapezoid error plus the exponential tail that
    # keeps accumulating after the fit window
    assert np.all(surplus[horizons] >= delta_bar - 1e-4)


def test_initial_state_matches_y0_when_c_c_overflows():
    # C = [1e200, 1]: c @ c overflows, which used to give a zero state
    system = realize([1e200, 1], [1, 2, 1])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        x0 = sim._node_initial_state(system, -0.55, None)
    assert abs(float(system.c @ x0) + 0.55) <= 1e-12 * 0.55
    assert np.array_equal(sim._node_initial_state(LAG, -0.55, None), LAG.c * (-0.55 / 1.0))

