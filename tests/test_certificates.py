from __future__ import annotations

import dataclasses
import json
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plugnet import certificates
from plugnet.certificates import (
    CertificateProblem,
    PassivityIndices,
    SectorBounds,
    VERDICT_CERTIFIED,
    VERDICT_NOT_PD,
    VERDICT_ORACLE_PD,
    certify_fixed_network,
    certify_network_plug,
    certify_single_node_plug,
    certificate_matrix,
    check_edge_condition,
    compute_gamma_single,
    gershgorin_pd_check,
    intra_edge_margins,
    pd_oracle,
)
from plugnet.errors import AssumptionViolation, DegenerateInput, GraphError
from plugnet.graph import Graph, PlugPlan, assumption_1_violation, compose, incidence
from plugnet.scenario import parse_scenario_dict

# seven-node example data
G1 = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
G2 = Graph.from_pairs([5, 6, 7], [(5, 6), (6, 7)])
NUS = {1: -0.45, 2: -0.60, 3: -0.63, 4: -0.65, 5: -0.40, 6: -0.54, 7: -0.51}
ALPHAS = {
    (1, 2): 0.40, (2, 3): 0.32, (2, 4): 0.30, (3, 4): 0.35,
    (5, 6): 0.60, (6, 7): 0.55, (1, 5): 0.37, (4, 7): 0.16,
}
PLAN = PlugPlan(base=G1, added=G2, boundary=((1, 5), (4, 7)))


def _random_connected_graph(rng, max_nodes=8, max_edges=14):
    n = int(rng.integers(2, max_nodes + 1))
    nodes = list(range(n))
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]  # spanning tree
    extra = {(i, j) for i in nodes for j in nodes[i + 1:]} - set(pairs)
    for e in sorted(extra):
        if len(pairs) >= max_edges:
            break
        if rng.random() < 0.25:
            pairs.append(e)
    return Graph.from_pairs(nodes, pairs)


# --- Gershgorin check and oracle ------------------------------------------------


def test_gershgorin_path_unit_data():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    prob = CertificateProblem(g, theta=(1, 1, 1), sigma=(0, 0), s_weights=(1, 1))
    res = gershgorin_pd_check(prob)
    assert res.margins == (1.0, 1.0)
    assert res.ok_strict and res.ok_nonstrict


def test_gershgorin_single_edge_negative():
    g = Graph([1, 2], [(1, 2)])
    prob = CertificateProblem(g, theta=(-1, -1), sigma=(1,), s_weights=(1,))
    res = gershgorin_pd_check(prob)
    assert res.margins == (-1.0,)
    assert not res.ok_strict and not res.ok_nonstrict


def test_gershgorin_dimension_mismatch():
    g = Graph([1, 2], [(1, 2)])
    with pytest.raises(GraphError):
        CertificateProblem(g, theta=(1,), sigma=(0,), s_weights=(1,))


@pytest.mark.parametrize("field", ["theta", "sigma", "s_weights"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_problem_rejects_non_finite_data(field, value):
    g = Graph([1, 2], [(1, 2)])
    data = {"theta": [1.0, 1.0], "sigma": [1.0], "s_weights": [1.0]}
    data[field][0] = value
    with pytest.raises(DegenerateInput, match=field):
        CertificateProblem(g, **data)


def test_nan_index_is_a_typed_error_not_a_linalg_failure():
    with pytest.raises(DegenerateInput):
        certify_fixed_network(G1, {**NUS, 3: float("nan")}, ALPHAS)


@pytest.mark.filterwarnings("error")
def test_public_margin_checks_name_an_overflowing_edge_without_warnings():
    # theta_1 + theta_2 overflows on edge (1, 2), and so does its disc margin
    path = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    nus = {1: 1e308, 2: 1e308, 3: 1.0}
    with pytest.raises(DegenerateInput, match=re.escape(
            "edge (1, 2): interface margin is beyond the float range")):
        intra_edge_margins(path, nus, {(1, 2): 1.0, (2, 3): 1.0})
    prob = CertificateProblem(path, [1e308, 1e308, 1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DegenerateInput, match=re.escape(
            "edge (1, 2): disc margin is beyond the float range")):
        gershgorin_pd_check(prob)


def test_pd_oracle_single_edge():
    g = Graph([1, 2], [(1, 2)])
    prob = CertificateProblem(g, theta=(1, 0), sigma=(0,), s_weights=(1,))
    assert pd_oracle(prob) == pytest.approx(1.0)


def test_pd_oracle_path_identity_theta():
    # M = [[2, -1], [-1, 2]], eigenvalues 1 and 3
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    prob = CertificateProblem(g, theta=(1, 1, 1), sigma=(0, 0), s_weights=(1, 1))
    assert pd_oracle(prob) == pytest.approx(1.0)


def test_seven_node_problem_gershgorin_and_oracle():
    from plugnet.graph import compose

    g = compose(PLAN)
    gamma_15 = 0.25 / 0.45
    gamma_15 = min(gamma_15, (1 / 0.60 - 0.40 - 0.54 - 0.54) / 0.40)
    theta = tuple(NUS[i] for i in g.node_ids)
    sigma = tuple(1 / ALPHAS[e] for e in g.edges)
    s = (1.0,) * 6 + (0.4666666666666663, 0.3589743589743592)
    prob = CertificateProblem(g, theta, sigma, s)
    res = gershgorin_pd_check(prob)
    assert res.ok_nonstrict  # two margins are exactly zero by construction
    assert not res.ok_strict
    assert pd_oracle(prob) > 0.0


# --- edge condition and gamma ----------------------------------------------------


def test_edge_condition_trivial():
    assert check_edge_condition(0.0, 0.0, 1, 1, 1.0) == 1.0


def test_edge_condition_example_edges():
    # hand arithmetic from the example's constants
    assert check_edge_condition(-0.45, -0.60, 1, 3, 0.40) == pytest.approx(0.25)
    assert check_edge_condition(-0.54, -0.51, 2, 1, 0.55) == pytest.approx(0.2281818181818)


@given(
    st.floats(-1, 1), st.floats(-1, 1),
    st.integers(1, 5), st.integers(1, 5),
    st.floats(0.1, 10),
)
def test_edge_condition_symmetric(nu_i, nu_j, r_i, r_j, alpha):
    assert check_edge_condition(nu_i, nu_j, r_i, r_j, alpha) == pytest.approx(
        check_edge_condition(nu_j, nu_i, r_j, r_i, alpha)
    )


def test_gamma_single_neighbour():
    base = Graph([1, 2], [(1, 2)])
    gamma = compute_gamma_single(1, base, {1: -0.5, 2: 0.0}, {(1, 2): 1.0})
    assert gamma == pytest.approx(1.0)


def test_gamma_on_example_boundary_nodes():
    assert compute_gamma_single(1, G1, NUS, ALPHAS) == pytest.approx(0.25 / 0.45, abs=1e-12)
    assert compute_gamma_single(5, G2, NUS, ALPHAS) == pytest.approx(0.4667, abs=1e-4)


def test_gamma_rejects_zero_index():
    base = Graph([1, 2], [(1, 2)])
    with pytest.raises(DegenerateInput):
        compute_gamma_single(1, base, {1: 0.0, 2: -0.5}, {(1, 2): 1.0})


def test_gamma_rejects_isolated_node():
    base = Graph([1, 2, 3], [(2, 3)])
    with pytest.raises(DegenerateInput):
        compute_gamma_single(1, base, {1: -0.5, 2: -0.5, 3: -0.5}, {(2, 3): 1.0})


def test_gamma_names_an_edge_without_a_sector_bound():
    base = Graph([1, 2, 3], [(1, 2), (1, 3)])
    with pytest.raises(DegenerateInput, match=re.escape("no upper sector bound for edge (1, 3)")):
        compute_gamma_single(1, base, {1: -0.5, 2: -0.5, 3: -0.5}, {(2, 1): 1.0})


@pytest.mark.parametrize("missing", [1, 3], ids=["node", "neighbour"])
def test_gamma_names_a_node_without_an_index(missing):
    base = Graph([1, 2, 3], [(1, 2), (1, 3)])
    nus = {1: -0.5, 2: -0.5, 3: -0.5}
    del nus[missing]
    with pytest.raises(DegenerateInput, match=f"no passivity index for node {missing}"):
        compute_gamma_single(1, base, nus, {(1, 2): 1.0, (1, 3): 1.0})


# --- single-node certificate ------------------------------------------------------


def test_single_node_plug_rejects_edgeless_base():
    plan = PlugPlan(base=Graph([1], []), added=2, boundary=((2, 1),))
    with pytest.raises(DegenerateInput):
        certify_single_node_plug(plan, {1: -0.1, 2: -0.1}, {(1, 2): 1.0})


def test_single_node_plug_hand_example():
    # base 1-2, new node 3 on node 2, all indices -0.1, unit sector bounds:
    # gamma = 0.8/0.1 = 8, boundary margin = 8*(1 - 0.2) - 1*0.1 = 6.3
    base = Graph.from_pairs([1, 2], [(1, 2)])
    plan = PlugPlan(base=base, added=3, boundary=((3, 2),))
    rep = certify_single_node_plug(
        plan, {1: -0.1, 2: -0.1, 3: -0.1}, {(1, 2): 1.0, (2, 3): 1.0}
    )
    assert rep.boundary[0].gamma == pytest.approx(8.0)
    assert rep.boundary[0].margin == pytest.approx(6.3)
    assert rep.verdict == VERDICT_CERTIFIED
    assert rep.s_weights == (1.0, 8.0)
    # with a zero boundary index the construction degenerates
    with pytest.raises(DegenerateInput):
        certify_single_node_plug(plan, {1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0})


def test_single_node_plug_rejects_disconnected_base():
    base = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    plan = PlugPlan(base=base, added=5, boundary=((5, 1),))
    with pytest.raises(DegenerateInput):
        certify_single_node_plug(
            plan, {i: -0.1 for i in range(1, 6)},
            {(1, 2): 1.0, (3, 4): 1.0, (1, 5): 1.0},
        )


def test_certified_single_node_instances_are_positive_definite():
    # randomized soundness: whenever the verdict is certified, the oracle
    # agrees on the composed problem
    rng = np.random.default_rng(90)
    certified = 0
    for _ in range(400):
        base = _random_connected_graph(rng, max_nodes=6, max_edges=9)
        nus = {i: float(rng.uniform(-0.5, -0.01)) for i in base.node_ids}
        new = max(base.node_ids) + 1
        nus[new] = float(rng.uniform(-0.5, 0.5))
        c = int(rng.choice(base.node_ids))
        alphas = {e: float(rng.uniform(0.2, 1.0)) for e in base.edges}
        alphas[(new, c)] = float(rng.uniform(0.2, 1.0))
        plan = PlugPlan(base=base, added=new, boundary=((new, c),))
        rep = certify_single_node_plug(plan, nus, alphas)
        if rep.verdict == VERDICT_CERTIFIED:
            certified += 1
            assert rep.oracle_min_eigenvalue > 0.0
            assert rep.gershgorin_ok  # nonstrict disc test holds with the proof weights
    assert certified > 10  # the premise must not be vacuous


# --- network certificate -----------------------------------------------------------


def test_network_plug_reproduces_example_values():
    rep = certify_network_plug(PLAN, NUS, ALPHAS)
    assert rep.verdict == VERDICT_CERTIFIED
    by_edge = {bc.edge: bc for bc in rep.boundary}
    assert by_edge[(1, 5)].gamma == pytest.approx(0.4667, abs=1e-4)
    assert by_edge[(4, 7)].gamma == pytest.approx(0.3589, abs=1e-4)
    assert by_edge[(1, 5)].margin == pytest.approx(0.0147, abs=5e-4)
    assert by_edge[(4, 7)].margin == pytest.approx(0.0168, abs=5e-4)
    assert by_edge[(1, 5)].gamma_p == pytest.approx(0.25 / 0.45, abs=1e-12)
    assert by_edge[(4, 7)].gamma_q == pytest.approx(0.4474, abs=1e-4)
    assert all(em.margin > 0 for em in rep.edge_margins)
    assert rep.oracle_min_eigenvalue > 0.0


def test_network_plug_rejects_two_isolated_nodes():
    plan = PlugPlan(base=Graph([1], []), added=Graph([2], []), boundary=((1, 2),))
    with pytest.raises(DegenerateInput):
        certify_network_plug(plan, {1: -0.1, 2: -0.1}, {(1, 2): 1.0})


def test_network_plug_raises_on_adjacent_boundary_nodes():
    g1 = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    g2 = Graph.from_pairs([4, 5, 6], [(4, 5), (5, 6)])
    plan = PlugPlan(base=g1, added=g2, boundary=((1, 4), (2, 6)))
    nus = {i: -0.1 for i in range(1, 7)}
    alphas = {e: 1.0 for e in [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 6)]}
    with pytest.raises(AssumptionViolation) as exc:
        certify_network_plug(plan, nus, alphas)
    assert "(1, 4)" in str(exc.value) and "(2, 6)" in str(exc.value)


def test_network_plug_rejects_disconnected_part():
    g1 = Graph([1, 2, 3], [(1, 2)])  # node 3 unreachable
    g2 = Graph.from_pairs([4, 5], [(4, 5)])
    plan = PlugPlan(base=g1, added=g2, boundary=((1, 4),))
    with pytest.raises(DegenerateInput):
        certify_network_plug(
            plan, {i: -0.1 for i in range(1, 6)},
            {(1, 2): 1.0, (4, 5): 1.0, (1, 4): 1.0},
        )


def test_network_plug_with_single_node_side_matches_single_node_certificate():
    # added part with no intra edges drops its gamma term and reduces to the
    # single-node construction on matched inputs
    nus = dict(NUS)
    nus[8] = -0.45
    alphas = dict(ALPHAS)
    alphas[(5, 8)] = 0.37
    net_plan = PlugPlan(base=G2, added=Graph([8], []), boundary=((5, 8),))
    single_plan = PlugPlan(base=G2, added=8, boundary=((8, 5),))
    net = certify_network_plug(net_plan, nus, alphas)
    single = certify_single_node_plug(single_plan, nus, alphas)
    assert net.boundary[0].gamma == pytest.approx(single.boundary[0].gamma)
    assert net.boundary[0].margin == pytest.approx(single.boundary[0].margin)
    assert net.boundary[0].gamma_q is None
    assert net.verdict == single.verdict


def _single_node_plug_as_written_alone(plan, nus, alphas,
                                      tol=certificates.DEFAULT_STRICTNESS_TOL):
    # the single-node construction as it stood before it shared the
    # network plug's, kept as the oracle for the shared one
    if not plan.is_single_node:
        raise GraphError("expected a single-node plug plan")
    base = plan.base
    if base.p == 0:
        raise DegenerateInput(
            "base network has no edges: gamma has no edge conditions to draw on"
        )
    if not certificates.is_connected(base):
        raise DegenerateInput("base network must be connected")
    new, c = plan.boundary[0]
    margins = intra_edge_margins(base, nus, alphas)
    gamma = compute_gamma_single(c, base, nus, alphas)
    boundary_margin = gamma * (
        1.0 / certificates._alpha_for(alphas, new, c) + float(nus[new]) + float(nus[c])
    ) - base.degree(c) * abs(float(nus[c]))
    composed = compose(plan)
    s_last = gamma if gamma > 0.0 else 1.0  # disc test needs positive weights
    s_weights = (1.0,) * base.p + (s_last,)
    boundary = [certificates.BoundaryCheck(edge=(new, c), gamma=gamma, margin=boundary_margin)]
    theta = [float(nus[i]) for i in composed.node_ids]
    sigma = [1.0 / certificates._alpha_for(alphas, i, j) for i, j in composed.edges]
    return certificates._finish_report(
        "single_node", np.array(list(margins.values())), boundary, composed,
        np.array(theta), np.array(sigma), np.array(s_weights), tol
    )


def _random_single_node_plug(rng):
    # connected, disconnected and edgeless bases; indices of both signs, a
    # sixth of them zero, so that gamma is undefined, negative or positive
    n = int(rng.integers(1, 7))
    shape = rng.choice(3, p=[0.6, 0.3, 0.1])
    if shape == 0:
        base = _random_connected_graph(rng, max_nodes=6, max_edges=9)
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < (0.4 if shape == 1 else 0.0)
        base = Graph.from_pairs(range(n), [e for e, k in zip(pairs, keep) if k])
    new = base.n
    c = int(rng.choice(base.node_ids))
    nus = {i: 0.0 if rng.random() < 1 / 6 else float(rng.uniform(-0.6, 0.4))
           for i in base.node_ids + (new,)}
    alphas = {e: float(rng.uniform(0.1, 2.0)) for e in base.edges + ((new, c),)}
    return PlugPlan(base=base, added=new, boundary=((c, new),)), nus, alphas


def _outcome(certify, plan, nus, alphas):
    try:
        report = certify(plan, nus, alphas)
    except Exception as exc:  # the error's type and message must match too
        return type(exc), str(exc)
    return json.dumps(report.to_dict()), report.render_table()


def test_single_node_plug_matches_the_construction_written_alone():
    rng = np.random.default_rng(15)
    raised = nonpositive_gamma = 0
    for _ in range(1000):
        plan, nus, alphas = _random_single_node_plug(rng)
        expected = _outcome(_single_node_plug_as_written_alone, plan, nus, alphas)
        assert _outcome(certify_single_node_plug, plan, nus, alphas) == expected
        if isinstance(expected[0], type):
            raised += 1
        else:
            nonpositive_gamma += json.loads(expected[0])["boundary"][0]["gamma"] <= 0.0
    assert raised > 100 and nonpositive_gamma > 20  # both kinds of plan occur


def test_scaling_covariance():
    # multiplying theta and sigma by c > 0 scales margins and kappa by c
    g = Graph.from_pairs([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)])
    rng = np.random.default_rng(5)
    theta = tuple(rng.uniform(-1, 1, size=4))
    sigma = tuple(rng.uniform(0, 2, size=4))
    s = tuple(rng.uniform(0.1, 2, size=4))
    c = 3.7
    p1 = CertificateProblem(g, theta, sigma, s)
    p2 = CertificateProblem(g, tuple(c * t for t in theta), tuple(c * v for v in sigma), s)
    m1 = np.array(gershgorin_pd_check(p1).margins)
    m2 = np.array(gershgorin_pd_check(p2).margins)
    assert np.allclose(m2, c * m1)
    assert pd_oracle(p2) == pytest.approx(c * pd_oracle(p1))


def test_reports_are_pure_functions_of_inputs():
    a = certify_network_plug(PLAN, NUS, ALPHAS)
    b = certify_network_plug(PLAN, NUS, ALPHAS)
    assert a == b


def test_fixed_network_gershgorin_failure_with_pd_oracle():
    # frozen instance: one edge condition fails yet M is positive definite,
    # so the verdict records that only the sufficient test failed
    g = Graph.from_pairs([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    nus = {1: -0.242, 2: 0.29, 3: 0.267}
    alphas = {(1, 2): 1.484, (1, 3): 4.234, (2, 3): 3.459}
    assert min(intra_edge_margins(g, nus, alphas).values()) < 0
    rep = certify_fixed_network(g, nus, alphas)
    assert rep.verdict == VERDICT_ORACLE_PD
    assert rep.oracle_min_eigenvalue > 0.0


def test_fixed_network_not_pd_verdict():
    g = Graph([1, 2], [(1, 2)])
    rep = certify_fixed_network(g, {1: -1.0, 2: -1.0}, {(1, 2): 1.0})
    assert rep.verdict == VERDICT_NOT_PD
    assert rep.oracle_min_eigenvalue < 0.0
    assert rep.failing_edges() == ((1, 2),)


def test_gershgorin_margins_match_scaled_matrix_discs():
    # independent oracle for the edge-wise formula: build S M S literally
    # and read the disc margins off its rows (divided back by s_k)
    from plugnet.certificates import certificate_matrix

    rng = np.random.default_rng(17)
    for _ in range(200):
        g = _random_connected_graph(rng)
        prob = CertificateProblem(
            g,
            theta=tuple(rng.uniform(-1, 1, g.n)),
            sigma=tuple(rng.uniform(0, 2, g.p)),
            s_weights=tuple(rng.uniform(0.1, 3.0, g.p)),
        )
        s = np.array(prob.s_weights)
        sms = np.diag(s) @ certificate_matrix(prob) @ np.diag(s)
        radii = np.sum(np.abs(sms), axis=1) - np.abs(np.diag(sms))
        expected = (np.diag(sms) - radii) / s
        assert np.allclose(gershgorin_pd_check(prob).margins, expected, atol=1e-12)


def test_report_serialization_round_trip_fields():
    rep = certify_network_plug(PLAN, NUS, ALPHAS)
    d = rep.to_dict()
    assert d["verdict"] == VERDICT_CERTIFIED
    assert len(d["edge_margins"]) == 6
    assert len(d["boundary"]) == 2
    assert d["gershgorin"]["ok_nonstrict"] is True
    assert d["gershgorin"]["ok_strict"] is False  # zero margins by construction
    assert isinstance(rep.render_table(), str)


# --- scattered matrix and Cholesky verdict against the dense eigensolve ---------


def _reference_matrix(prob: CertificateProblem) -> np.ndarray:
    """M = D^T Theta D + Sigma from the dense incidence matrix, as first written."""
    d = incidence(prob.graph).astype(float)
    m = (d.T * prob.theta) @ d
    m.ravel()[:: len(m) + 1] += prob.sigma
    return m


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def _certificate_problems(draw):
    """Connected graphs (<= 40 nodes) on shuffled labels with random orientations."""
    n = draw(st.integers(2, 40))
    labels = draw(st.lists(st.integers(-1000, 1000), unique=True, min_size=n, max_size=n))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}  # spanning tree
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if i != j and (j, i) not in pairs:
            pairs.add((i, j))
    edges = [(labels[j], labels[i]) if draw(st.booleans()) else (labels[i], labels[j])
             for i, j in sorted(pairs)]
    graph = Graph(labels, draw(st.permutations(edges)))
    theta = draw(st.lists(st.floats(-1, 1) | _SIGNED_ZEROS, min_size=n, max_size=n))
    sigma = draw(st.lists(st.floats(0, 2) | _SIGNED_ZEROS, min_size=graph.p, max_size=graph.p))
    return CertificateProblem(graph, tuple(theta), tuple(sigma), (1.0,) * graph.p)


@settings(max_examples=300, deadline=None)
@given(_certificate_problems())
def test_scattered_matrix_and_cholesky_match_dense_eigensolve(prob):
    reference = _reference_matrix(prob)
    m = certificate_matrix(prob)
    assert np.array_equal(m, reference)
    assert not np.any(np.signbit(m[m == 0.0]))
    kappa = pd_oracle(prob)
    assert kappa == np.linalg.eigvalsh(reference)[0]  # bit-identical
    if abs(kappa) > 1e-9 * np.abs(m).max():
        assert certificates._cholesky_succeeds(m) == (kappa > 0.0)


# --- kappa on demand -------------------------------------------------------------


@pytest.fixture
def oracle_calls(monkeypatch):
    """Every pd_oracle call made through the module global, in order."""
    calls = []
    real = certificates.pd_oracle

    def counting(prob):
        calls.append(prob)
        return real(prob)

    monkeypatch.setattr(certificates, "pd_oracle", counting)
    return calls


_CERTIFIED_CASES = [
    (certify_network_plug, PLAN),
    (certify_single_node_plug, PlugPlan(base=G2, added=8, boundary=((8, 5),))),
    (certify_fixed_network, G1),
]


@pytest.mark.parametrize("certify, subject", _CERTIFIED_CASES,
                         ids=["network", "single_node", "fixed"])
def test_verdict_alone_makes_no_oracle_call(oracle_calls, certify, subject):
    nus, alphas = {**NUS, 8: -0.45}, {**ALPHAS, (5, 8): 0.37}
    rep = certify(subject, nus, alphas)
    assert rep.verdict == VERDICT_CERTIFIED
    assert oracle_calls == []


def test_kappa_is_computed_once_on_first_access(oracle_calls):
    rep = certify_network_plug(PLAN, NUS, ALPHAS)
    first, second = rep.oracle_min_eigenvalue, rep.oracle_min_eigenvalue
    assert len(oracle_calls) == 1 and oracle_calls[0] is rep.problem
    assert first == second == pd_oracle(rep.problem)


def test_not_pd_verdict_makes_exactly_one_oracle_call(oracle_calls):
    rep = certify_fixed_network(Graph([1, 2], [(1, 2)]), {1: -1.0, 2: -1.0}, {(1, 2): 1.0})
    assert rep.verdict == VERDICT_NOT_PD
    assert len(oracle_calls) == 1
    assert rep.oracle_min_eigenvalue < 0.0
    assert len(oracle_calls) == 1  # the verdict's eigensolve is the one kept


def test_to_dict_is_unchanged_by_computing_kappa_on_demand():
    eager = certify_network_plug(PLAN, NUS, ALPHAS)
    kappa = eager.oracle_min_eigenvalue
    lazy = certify_network_plug(PLAN, NUS, ALPHAS)
    d = lazy.to_dict()
    assert list(d) == [
        "plan_kind", "verdict", "edge_margins", "boundary", "composed_edges",
        "s_weights", "gershgorin", "oracle_min_eigenvalue", "strictness_tol",
    ]
    assert json.dumps(d) == json.dumps(eager.to_dict())
    assert d["oracle_min_eigenvalue"] == kappa == pd_oracle(lazy.problem)


# --- matrix-free verdicts: a margin rounded below zero ---------------------------


def _paper_ring_pair(seed: int, sizes=(30, 10)):
    """Two rings of nodes with the paper's indices, joined by two boundary edges."""
    rng = np.random.default_rng(seed)
    indices = (-0.45, -0.60, -0.63, -0.65, -0.54)
    ids = list(range(1, sum(sizes) + 1))
    nus = {i: indices[k] for i, k in zip(ids, rng.permutation(np.arange(len(ids)) % 5))}
    r1, r2 = ids[: sizes[0]], ids[sizes[0]:]
    rings = [[(r[k], r[(k + 1) % len(r)]) for k in range(len(r))] for r in (r1, r2)]
    boundary = ((r1[0], r2[0]), (r1[sizes[0] // 2], r2[sizes[1] // 2]))
    alphas = {e: round(float(rng.uniform(0.1, 0.28)), 6) for e in rings[0] + rings[1]}
    alphas.update({e: round(float(rng.uniform(0.1, 0.15)), 6) for e in boundary})
    plan = PlugPlan(Graph(r1, rings[0]), Graph(r2, rings[1]), boundary)
    return plan, nus, alphas


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


def test_margin_rounded_below_zero_is_certified_without_a_factorisation(
    cholesky_calls, oracle_calls
):
    plan, nus, alphas = _paper_ring_pair(seed=1)
    rep = certify_network_plug(plan, nus, alphas)
    # The row that is zero by construction reads below zero: a test asking
    # for margins exactly >= 0 would fail here.
    assert -1e-15 < min(rep.gershgorin_margins) < 0.0
    assert rep.verdict == VERDICT_CERTIFIED
    fixed = certify_fixed_network(compose(plan), nus, alphas)
    assert fixed.verdict == VERDICT_CERTIFIED and fixed.gershgorin_ok_strict
    assert cholesky_calls == [] and oracle_calls == []
    assert rep.oracle_min_eigenvalue > 0.0 and fixed.oracle_min_eigenvalue > 0.0


# --- matrix-free verdicts: the disc proof against the matrix path ----------------

_MAGNITUDE = st.floats(1e-3, 1e3)


def _signed(magnitude):
    return st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())


# Target interface margins: comfortable only, or comfortable, tight, zero
# and failing mixed.
_COMFORTABLE = st.floats(1e-6, 1e3)
_MIXED = st.one_of(
    _COMFORTABLE, st.floats(1e-13, 1e-6), _SIGNED_ZEROS, st.floats(-1e3, -1e-13)
)


def _connected(draw, labels):
    """A connected graph on ``labels``: a random spanning tree plus extra edges."""
    n = len(labels)
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j and (j, i) not in pairs:
            pairs.add((i, j))
    return Graph(labels, [(labels[i], labels[j]) for i, j in sorted(pairs)])


def _sigma_for(draw, slack, need, gamma=1.0):
    """Coupling sigma = 1/alpha putting an interface margin at ``slack``.

    The margin reads ``gamma * (sigma + c) - d`` with ``need = (c, d)``;
    when that sigma lies outside [1e-3, 1e3], or gamma is not positive,
    sigma is drawn.
    """
    c, d = need
    sigma = (slack + d) / gamma - c if gamma > 0.0 else 0.0
    return sigma if 1e-3 <= sigma <= 1e3 else draw(_MAGNITUDE)


def _intra_alphas(draw, slack, graph, nus, alphas):
    for i, j in graph.edges:
        need = (nus[i] + nus[j],
                (graph.degree(i) - 1) * abs(nus[i]) + (graph.degree(j) - 1) * abs(nus[j]))
        alphas[(i, j)] = 1.0 / _sigma_for(draw, draw(slack), need)


@st.composite
def _interface_problems(draw):
    """Fixed, single-node and network certificates on 2-40 nodes.

    Each edge's coupling is solved for a drawn interface margin, so the
    problems span comfortable, tight, zero and failing margins. Attachment
    nodes have nonzero indices (gamma divides by them). A fixed network
    may carry an edge whose M entry is zero (theta_i + theta_j = -sigma).
    """
    kind = draw(st.sampled_from(["fixed", "single_node", "network"]))
    slack = draw(st.sampled_from([_COMFORTABLE, _MIXED]))
    n = draw(st.integers(3 if kind == "single_node" else 2, 40))
    # Indices up to 1 or up to 1e3: with the larger ones, most couplings
    # solved for a margin fall outside [1e-3, 1e3] and are drawn instead.
    nonzero = _signed(st.floats(1e-3, draw(st.sampled_from([1.0, 1e3]))))
    nus = {i: draw(nonzero | _SIGNED_ZEROS) for i in range(n)}
    alphas: dict[tuple[int, int], float] = {}
    if kind == "fixed":
        graph = _connected(draw, list(range(n)))
        _intra_alphas(draw, slack, graph, nus, alphas)
        if draw(st.booleans()):  # an edge with a zero diagonal entry of M
            i, j = draw(st.sampled_from(graph.edges))
            if draw(st.booleans()):
                h = 2.0 ** draw(st.integers(-9, 9))
                nus[i] = nus[j] = -h
                alphas[(i, j)] = 1.0 / (2.0 * h)  # exactly representable
            elif nus[i] + nus[j] < 0.0:
                alphas[(i, j)] = -1.0 / (nus[i] + nus[j])
        return certify_fixed_network, graph, nus, alphas
    if kind == "single_node":
        base = _connected(draw, list(range(n - 1)))
        c = draw(st.sampled_from(base.node_ids))
        nus[c] = draw(nonzero)
        _intra_alphas(draw, slack, base, nus, alphas)
        gamma = compute_gamma_single(c, base, nus, alphas)
        need = (nus[n - 1] + nus[c], base.degree(c) * abs(nus[c]))
        alphas[(n - 1, c)] = 1.0 / _sigma_for(draw, draw(slack), need, gamma)
        return certify_single_node_plug, PlugPlan(base, n - 1, ((n - 1, c),)), nus, alphas
    split = draw(st.integers(1, n - 1))
    base = _connected(draw, list(range(split)))
    added = _connected(draw, list(range(split, n)))
    k = draw(st.integers(1, min(2, split, n - split)))
    ps = draw(st.lists(st.sampled_from(base.node_ids), min_size=k, max_size=k, unique=True))
    qs = draw(st.lists(st.sampled_from(added.node_ids), min_size=k, max_size=k, unique=True))
    for v in ps + qs:
        nus[v] = draw(nonzero)
    _intra_alphas(draw, slack, base, nus, alphas)
    _intra_alphas(draw, slack, added, nus, alphas)
    for p, q in zip(ps, qs):
        gammas = [compute_gamma_single(v, g, nus, alphas)
                  for v, g in ((p, base), (q, added)) if g.degree(v) > 0]
        gamma = min(gammas) if gammas else 0.0
        need = (nus[p] + nus[q], base.degree(p) * abs(nus[p]) + added.degree(q) * abs(nus[q]))
        alphas[(p, q)] = 1.0 / _sigma_for(draw, draw(slack), need, gamma)
    plan = PlugPlan(base, added, tuple(zip(ps, qs)))
    return certify_network_plug, plan, nus, alphas


def _proof_must_fire(report) -> bool:
    """Whether the exact row margins of the disc proof clear its rounding.

    With the proof weights (module docstring) a row away from the
    attachment nodes keeps its interface margin m, a boundary row keeps
    m_k / 2, and a row at an attachment node v of boundary edge k keeps at
    least |theta_v| m_k / (2 M_kk), each up to a rounding bound r of the
    reported test (the proof weights are no larger, and neither is their
    bound). Each must exceed tol by several r for the proof to fire.
    """
    prob = report.problem
    floor = 2.0 * report.strictness_tol + 10.0 * gershgorin_pd_check(prob).rounding
    margins = [em.margin for em in report.edge_margins] + [bc.margin for bc in report.boundary]
    if min(margins) <= floor:
        return False
    theta = dict(zip(prob.graph.node_ids, prob.theta))
    first = prob.graph.p - len(report.boundary)
    for k, bc in enumerate(report.boundary, start=first):
        i, j = prob.graph.edges[k]
        m_kk = theta[i] + theta[j] + prob.sigma[k]  # positive, as bc.margin is
        if any(abs(theta[v]) * bc.margin / (2.0 * m_kk) <= floor
               for v in (i, j) if prob.graph.degree(v) > 1):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(_interface_problems())
def test_disc_proof_is_sound_fires_on_margins_and_matches_the_matrix_path(case):
    certify, subject, nus, alphas = case
    claims = []
    real = certificates._disc_proves_pd

    def recording(*args):
        claims.append(real(*args))
        return claims[-1]

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certificates, "_disc_proves_pd", recording)
            report = certify(subject, nus, alphas)
    except DegenerateInput:  # Assumption 1, or no intra edges on either side
        return
    (claimed,) = claims
    if claimed:
        # Read M's inertia from the congruent unit-diagonal matrix: eigvalsh
        # errs by about eps * max|M|, and a tiny sector bound puts max|M|
        # near 1e12, where it reads a proven-positive kappa below zero.
        m = certificate_matrix(report.problem)
        assert np.all(np.diag(m) > 0.0)
        scale = 1.0 / np.sqrt(np.diag(m))
        assert np.linalg.eigvalsh(m * np.outer(scale, scale))[0] > 0.0
    if _proof_must_fire(report):
        assert claimed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "_disc_proves_pd", lambda *args: False)
        forced = certify(subject, nus, alphas)
    assert json.dumps(report.to_dict()) == json.dumps(forced.to_dict())
    assert report.render_table() == forced.render_table()


# --- the disc proof in exact arithmetic ------------------------------------------


def _exact_margins(prob: CertificateProblem) -> list[Fraction]:
    """The disc margins of ``prob`` in rational arithmetic."""
    g = prob.graph
    theta = {v: Fraction(t) for v, t in zip(g.node_ids, prob.theta)}
    total = dict.fromkeys(g.node_ids, Fraction(0))
    for (i, j), s_k in zip(g.edges, prob.s_weights):
        total[i] += Fraction(s_k)
        total[j] += Fraction(s_k)
    return [
        Fraction(s_k) * (theta[i] + theta[j] + Fraction(sigma_k))
        - abs(theta[i]) * (total[i] - Fraction(s_k))
        - abs(theta[j]) * (total[j] - Fraction(s_k))
        for (i, j), s_k, sigma_k in zip(g.edges, prob.s_weights, prob.sigma)
    ]


def test_reported_strict_test_is_no_proof_at_scale():
    # Both rows are exactly zero, so M is singular, yet rounding lifts both
    # computed margins above tol.
    prob = CertificateProblem(
        Graph([0, 1, 2], [(0, 1), (1, 2)]),
        (-8954.2, -8770.49573, -9178.95),
        (26495.191460000002, 26719.941460000002),
        (1.0, 1.0),
    )
    theta = [Fraction(t) for t in prob.theta]
    sigma = [Fraction(x) for x in prob.sigma]
    m00, m11 = theta[0] + theta[1] + sigma[0], theta[1] + theta[2] + sigma[1]
    assert m00 * m11 - theta[1] ** 2 == 0
    assert _exact_margins(prob) == [0, 0]
    res = gershgorin_pd_check(prob)
    assert res.ok_strict and min(res.margins) >= res.tol
    assert not res.proves_pd


@pytest.mark.parametrize("tol, nu_2", [(0.0, -0.5), (-1e-3, -0.5005)],
                         ids=["zero_tol_singular", "negative_tol_indefinite"])
def test_disc_proof_needs_a_positive_margin_whatever_the_tolerance(cholesky_calls, tol,
                                                                  nu_2):
    # M = [[nu_1 + nu_2 + 1/alpha]] is 0, or -5e-4: the reported strict test
    # accepts it at this tol, the proof may not.
    rep = certify_fixed_network(Graph([1, 2], [(1, 2)]), {1: -0.5, 2: nu_2}, {(1, 2): 1.0},
                                tol=tol)
    assert rep.gershgorin_ok_strict
    assert rep.verdict == VERDICT_NOT_PD
    assert len(cholesky_calls) == 1
    assert rep.oracle_min_eigenvalue == pytest.approx(rep.gershgorin_margins[0], abs=1e-15)
    assert rep.oracle_min_eigenvalue <= 0.0


@st.composite
def _cancelling_problems(draw):
    """Disc rows tuned to cancel, with node values up to 1e8 in magnitude.

    Each sigma_k is solved in floating point for a zero margin of row k and
    moved by a few ulps, so that the computed margin is mostly rounding
    error, or by a small relative amount, so that the row is dominant.
    """
    n = draw(st.integers(2, 12))
    graph = _connected(draw, list(range(n)))
    theta = [draw(_signed(st.floats(1e-3, 1e8)) | _SIGNED_ZEROS) for _ in range(n)]
    weights = [draw(st.just(1.0) | st.floats(1e-3, 1e3)) for _ in graph.edges]
    total = [0.0] * n
    for (i, j), s_k in zip(graph.edges, weights):
        total[i] += s_k
        total[j] += s_k
    sigma = []
    for (i, j), s_k in zip(graph.edges, weights):
        zero = (abs(theta[i]) * (total[i] - s_k) + abs(theta[j]) * (total[j] - s_k)) / s_k
        zero -= theta[i] + theta[j]
        nudge = draw(st.one_of(
            st.integers(-4, 4).map(lambda k: k * math.ulp(zero)),
            st.floats(1e-12, 1e-3).map(lambda f: f * (abs(zero) + 1.0)),
        ))
        sigma.append(zero + nudge)
    return CertificateProblem(graph, tuple(theta), tuple(sigma), tuple(weights))


@settings(max_examples=300, deadline=None)
@given(_cancelling_problems(), st.sampled_from([1e-12, 0.0, -1e-3]))
def test_disc_rounding_bound_holds_in_exact_arithmetic(prob, tol):
    res = gershgorin_pd_check(prob, tol)
    exact = _exact_margins(prob)
    bound = Fraction(res.rounding)
    assert all(abs(Fraction(m) - e) <= bound for m, e in zip(res.margins, exact))
    if res.proves_pd:
        assert min(exact) > max(tol, 0.0)


# --- the array verdict against the scalar formulas --------------------------------


def _scalar_disc(graph, theta, sigma, s_weights):
    """Disc margins and rounding bound, one edge at a time."""
    theta = dict(zip(graph.node_ids, theta))
    total = dict.fromkeys(graph.node_ids, 0.0)
    for (i, j), s_k in zip(graph.edges, s_weights):
        total[i] += s_k
        total[j] += s_k
    margins = [
        s_k * (theta[i] + theta[j] + sigma_k)
        - abs(theta[i]) * (total[i] - s_k)
        - abs(theta[j]) * (total[j] - s_k)
        for (i, j), s_k, sigma_k in zip(graph.edges, s_weights, sigma)
    ]
    largest = max((abs(s_k * sigma_k) for s_k, sigma_k in zip(s_weights, sigma)), default=0.0)
    largest += 6.0 * max(abs(theta[v]) * total[v] for v in graph.node_ids)
    degree = max(len(graph.neighbors(v)) for v in graph.node_ids)
    return margins, (2 * degree + 4) * (np.finfo(float).eps * largest + math.ulp(0.0))


def _require_finite(values, edges, what):
    for (i, j), value in zip(edges, values):
        if not math.isfinite(value):
            raise DegenerateInput(f"edge ({i}, {j}): {what} is beyond the float range")


def _scalar_verdict(certify, subject, nus, alphas, tol):
    """Everything a verdict computes, by the scalar formulas, edge by edge.

    An infinite boundary gamma or margin, then (after the problem's own
    checks) a non-finite interface or disc margin raises DegenerateInput
    naming its edge.
    """
    if certify is certify_fixed_network:
        sides, plan_boundary, composed = [subject], (), subject
    else:
        sides, plan_boundary = [subject.base, subject.added_graph], subject.boundary
        composed = Graph(subject.base.node_ids + subject.added_graph.node_ids,
                         subject.base.edges + subject.added_graph.edges + subject.boundary)
    margins = [
        check_edge_condition(nus[i], nus[j], side.degree(i), side.degree(j),
                             certificates._alpha_for(alphas, i, j))
        for side in sides for i, j in side.edges
    ]
    boundary = []
    for i, j in plan_boundary:
        b, a = (j, i) if subject.is_single_node else (i, j)
        base, added = sides
        gammas = [compute_gamma_single(v, side, nus, alphas) if side.degree(v) else None
                  for v, side in ((b, base), (a, added))]
        if gammas == [None, None]:
            raise DegenerateInput(f"boundary edge ({i}, {j}): neither attachment node has "
                                  "intra-network edges")
        gamma = min(g for g in gammas if g is not None)
        margin = gamma * (1.0 / certificates._alpha_for(alphas, i, j) + nus[i] + nus[j]) \
            - base.degree(b) * abs(nus[b]) - added.degree(a) * abs(nus[a])
        boundary.append((gamma, margin))
    for (gamma, margin), (i, j) in zip(boundary, plan_boundary):
        if math.isinf(gamma) or math.isinf(margin):
            raise DegenerateInput(f"edge ({i}, {j}): boundary gamma or margin is beyond the "
                                  "float range")
    s_weights = [1.0] * len(margins) + [g if g > 0.0 else 1.0 for g, _ in boundary]
    theta = [float(nus[v]) for v in composed.node_ids]
    sigma = [1.0 / certificates._alpha_for(alphas, i, j) for i, j in composed.edges]
    prob = CertificateProblem(composed, theta, sigma, s_weights)
    _require_finite(margins, composed.edges, "interface margin")
    disc, rounding = _scalar_disc(composed, theta, sigma, s_weights)
    _require_finite(disc, composed.edges, "disc margin")
    proved = all(m > max(tol, 0.0) + rounding for m in disc)
    if not proved and boundary:
        at = dict(zip(composed.node_ids, theta))
        weights = list(s_weights)
        for k in range(composed.p - len(boundary), composed.p):
            if disc[k] > 0.0:
                i, j = composed.edges[k]
                weights[k] -= disc[k] / (2.0 * (at[i] + at[j] + sigma[k]))
        retry, retry_rounding = _scalar_disc(composed, theta, sigma, weights)
        proved = all(m > max(tol, 0.0) + retry_rounding for m in retry)
    positive_definite = proved or certificates._cholesky_succeeds(certificate_matrix(prob)) \
        or pd_oracle(prob) > 0.0
    conditions = all(m > tol for m in margins + [m for _, m in boundary])
    if not positive_definite:
        verdict = VERDICT_NOT_PD
    else:
        verdict = VERDICT_CERTIFIED if conditions else VERDICT_ORACLE_PD
    return margins, boundary, disc, rounding, proved, verdict, prob


def _hub_graph(draw, labels):
    """A connected graph on ``labels`` whose first label is often a hub.

    A spanning tree, the hub's edges to a drawn share of the other nodes and
    a few more edges; each edge randomly oriented, the edge order shuffled.
    """
    n = len(labels)
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    pairs |= {(0, k) for k in range(1, n) if draw(st.floats(0, 1)) < share}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = [(labels[j], labels[i]) if draw(st.booleans()) else (labels[i], labels[j])
             for i, j in sorted(pairs)]
    return Graph(labels, draw(st.permutations(edges)))


# Indices and sector bounds that mostly certify, with gamma near the
# degrees (so that a node's total weight rounds as it accumulates) or far
# above them, or of any size and sign.
_INDICES = {"near": st.floats(-0.7, 0.1), "far": st.floats(-0.7, 0.1),
            "wide": st.floats(-2.0, 2.0) | _signed(st.floats(1e-3, 1e3))}
_BOUNDS = {"near": st.floats(-2.0, -0.5).map(lambda e: 10.0 ** e),
           "far": st.floats(-12.0, -0.5).map(lambda e: 10.0 ** e),
           "wide": st.floats(-12.0, 2.0).map(lambda e: 10.0 ** e)}


@st.composite
def _verdict_cases(draw):
    """Fixed networks and plugs of both kinds on hub graphs; indices of
    either sign, one in ten zero, and sector bounds from 1e-12 up, keyed
    either way."""
    regime = draw(st.sampled_from(sorted(_INDICES)))
    kind = draw(st.sampled_from(["fixed", "single_node", "network"]))
    n = draw(st.integers(2, 24))
    if kind == "fixed":
        subject, certify = _hub_graph(draw, list(range(n))), certify_fixed_network
    elif kind == "single_node":
        base = _hub_graph(draw, list(range(n)))
        c = draw(st.sampled_from([0, draw(st.sampled_from(base.node_ids))]))
        subject = PlugPlan(base, n, ((n, c),))
        certify = certify_single_node_plug
    else:
        split = draw(st.integers(1, n - 1))
        base = _hub_graph(draw, list(range(split)))
        added = _hub_graph(draw, list(range(split, n)))
        k = draw(st.integers(1, min(2, split, n - split)))
        ps = draw(st.lists(st.sampled_from(base.node_ids), min_size=k, max_size=k, unique=True))
        qs = draw(st.lists(st.sampled_from(added.node_ids), min_size=k, max_size=k, unique=True))
        subject = PlugPlan(base, added, tuple(zip(ps, qs)))
        assume(assumption_1_violation(subject) is None)
        certify = certify_network_plug
    graph = subject if kind == "fixed" else compose(subject)
    nus = {v: draw(_SIGNED_ZEROS if draw(st.integers(0, 9)) == 0 else _INDICES[regime])
           for v in graph.node_ids}
    alphas = {(j, i) if draw(st.booleans()) else (i, j): draw(_BOUNDS[regime])
              for i, j in graph.edges}
    # disc weights of every size, under which a hub's total rounds as it grows
    weights = draw(st.lists(_MAGNITUDE, min_size=graph.p, max_size=graph.p))
    return certify, subject, nus, alphas, draw(st.sampled_from([1e-12, 0.0, -1e-3])), weights


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=400, deadline=None)
@given(_verdict_cases())
def test_array_verdict_is_bit_identical_to_the_scalar_formulas(case):
    certify, subject, nus, alphas, tol, weights = case
    graph = subject if certify is certify_fixed_network else compose(subject)
    theta = [float(nus[v]) for v in graph.node_ids]
    sigma = [1.0 / certificates._alpha_for(alphas, i, j) for i, j in graph.edges]
    weighted = gershgorin_pd_check(CertificateProblem(graph, theta, sigma, weights), tol)
    disc, rounding = _scalar_disc(graph, theta, sigma, weights)
    assert _bits(weighted.margins) == _bits(disc)
    assert _bits([weighted.rounding]) == _bits([rounding])
    claims = []
    real = certificates._disc_proves_pd

    def recording(*args):
        claims.append(real(*args))
        return claims[-1]

    try:
        want = _scalar_verdict(certify, subject, nus, alphas, tol)
    except DegenerateInput as exc:  # gamma is undefined at a zero index
        with pytest.raises(DegenerateInput, match=re.escape(str(exc))):
            certify(subject, nus, alphas, tol)
        return
    margins, boundary, disc, rounding, proved, verdict, _ = want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "_disc_proves_pd", recording)
        report = certify(subject, nus, alphas, tol)
    assert _bits([em.margin for em in report.edge_margins]) == _bits(margins)
    assert _bits([(bc.gamma, bc.margin) for bc in report.boundary]) == _bits(boundary)
    assert _bits(report.gershgorin_margins) == _bits(disc)
    assert _bits([gershgorin_pd_check(report.problem, tol).rounding]) == _bits([rounding])
    assert claims == [proved]
    assert report.verdict == verdict


@pytest.mark.parametrize("certify, subject", _CERTIFIED_CASES,
                         ids=["network", "single_node", "fixed"])
def test_a_node_without_an_index_is_a_typed_error(certify, subject):
    nus = {**NUS, 8: -0.45}
    missing = 2 if certify is certify_fixed_network else 6
    del nus[missing]
    with pytest.raises(DegenerateInput, match=f"no passivity index for node {missing}"):
        certify(subject, nus, {**ALPHAS, (5, 8): 0.37})


@pytest.mark.parametrize("certify, subject", _CERTIFIED_CASES,
                         ids=["network", "single_node", "fixed"])
def test_an_edge_without_a_sector_bound_is_a_typed_error(certify, subject):
    alphas = {**ALPHAS, (8, 5): 0.37}  # keyed against the edge's orientation
    missing = (6, 7) if certify is certify_single_node_plug else (2, 3)
    del alphas[missing]
    message = f"no upper sector bound for edge {missing}"
    with pytest.raises(DegenerateInput, match=re.escape(message)):
        certify(subject, {**NUS, 8: -0.45}, alphas)


def test_a_zero_sector_bound_is_a_typed_error():
    message = "upper sector bound of edge (2, 3) is zero"
    with pytest.raises(DegenerateInput, match=re.escape(message)):
        certify_fixed_network(G1, NUS, {**ALPHAS, (2, 3): 0.0})


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


# Certificate inputs as plain dicts and as the read-only array-backed mappings.
_INPUT_FORMS = {"dicts": lambda nus, alphas: (nus, alphas),
                "mappings": lambda nus, alphas: (PassivityIndices(nus), SectorBounds(alphas))}


@pytest.mark.parametrize("certify, subject", _CERTIFIED_CASES,
                         ids=["network", "single_node", "fixed"])
def test_missing_inputs_are_the_same_typed_errors_from_the_read_only_mappings(certify, subject):
    nus, alphas = {**NUS, 8: -0.45}, {**ALPHAS, (8, 5): 0.37}
    node = 2 if certify is certify_fixed_network else 6
    edge = (6, 7) if certify is certify_single_node_plug else (2, 3)
    for nus_given, alphas_given, message in (
            (_without(nus, node), alphas, f"no passivity index for node {node}"),
            (nus, _without(alphas, edge), f"no upper sector bound for edge {edge}")):
        with pytest.raises(DegenerateInput, match=re.escape(message)):
            certify(subject, PassivityIndices(nus_given), SectorBounds(alphas_given))


_NAN = float("nan")


@pytest.mark.parametrize("form", sorted(_INPUT_FORMS))
@pytest.mark.parametrize("nus, alphas, message", [
    (NUS, {**ALPHAS, (2, 3): 0.0}, "upper sector bound of edge (2, 3) is zero"),
    (NUS, {**ALPHAS, (2, 4): -0.0}, "upper sector bound of edge (2, 4) is zero"),
    (NUS, {**ALPHAS, (2, 3): _NAN}, "sigma must be finite"),
    (NUS, {**_without(ALPHAS, (2, 3)), (3, 2): _NAN}, "sigma must be finite"),
    ({**NUS, 2: _NAN}, {**ALPHAS, (2, 3): _NAN}, "theta must be finite"),
    # a missing index comes before a missing bound, a missing bound before a zero one
    (_without(NUS, 3), _without(ALPHAS, (1, 2)), "no passivity index for node 3"),
    (NUS, {**_without(ALPHAS, (3, 4)), (1, 2): 0.0}, "no upper sector bound for edge (3, 4)"),
    (NUS, {**ALPHAS, (1, 2): _NAN, (3, 4): 0.0}, "upper sector bound of edge (3, 4) is zero"),
], ids=["zero", "negative_zero", "nan", "nan_reversed", "nan_index", "index_first",
        "missing_first", "zero_after_nan"])
def test_degenerate_inputs_are_typed_errors_in_order(nus, alphas, message, form):
    with pytest.raises(DegenerateInput, match=re.escape(message)):
        certify_fixed_network(G1, *_INPUT_FORMS[form](nus, alphas))


def test_a_bound_keyed_both_ways_is_read_in_the_edges_orientation():
    # the edge (2, 3) reads its own key; the reverse key alone would fail it
    for nus, alphas in (_INPUT_FORMS[form](NUS, {**ALPHAS, (3, 2): 0.0}) for form in _INPUT_FORMS):
        assert certify_fixed_network(G1, nus, alphas).verdict == VERDICT_CERTIFIED
        assert alphas[2, 3] == 0.32 and alphas[3, 2] == 0.0


def test_input_mappings_are_read_only_and_read_as_their_dicts():
    nus, alphas = PassivityIndices(NUS), SectorBounds(ALPHAS)
    with pytest.raises(TypeError):
        nus[1] = 0.0
    with pytest.raises(TypeError):
        alphas[1, 2] = 0.0
    assert dict(nus) == NUS and dict(alphas) == ALPHAS and len(alphas) == len(ALPHAS)
    # a key lookup is the dict's own; the graph lookup reads either orientation
    assert (2, 1) not in alphas and (1, 3) not in alphas and 8 not in nus
    with pytest.raises(KeyError):
        alphas[2, 1]
    reversed_g1 = Graph.from_pairs(G1.node_ids, [(j, i) for i, j in G1.edges])
    assert alphas.alpha(reversed_g1).tolist() == alphas.alpha(G1).tolist() == [
        certificates._alpha_for(ALPHAS, j, i) for i, j in reversed_g1.edges]
    assert not nus._nu.flags.writeable and not alphas._alpha.flags.writeable


def test_node_ids_beyond_int64_keep_working():
    big = 2**70
    graph = Graph.from_pairs([v + big for v in G1.node_ids],
                             [(i + big, j + big) for i, j in G1.edges])
    nus = {v + big: nu for v, nu in NUS.items()}
    alphas = {(i + big, j + big): a for (i, j), a in ALPHAS.items()}
    want = certify_fixed_network(G1, NUS, ALPHAS)
    for form in _INPUT_FORMS:
        got = certify_fixed_network(graph, *_INPUT_FORMS[form](nus, alphas))
        assert _bits(got.gershgorin_margins) == _bits(want.gershgorin_margins)
        assert got.oracle_min_eigenvalue == want.oracle_min_eigenvalue
    # a graph mixing ids in and beyond the int64 range, against int64 mappings and back
    plan = PlugPlan(G1, big, ((big, 1),))
    mixed = certify_single_node_plug(plan, {**NUS, big: -0.4}, {**ALPHAS, (1, big): 0.3})
    small = certify_single_node_plug(PlugPlan(G1, 8, ((8, 1),)), {**NUS, 8: -0.4},
                                     {**ALPHAS, (1, 8): 0.3})
    assert _bits(mixed.gershgorin_margins) == _bits(small.gershgorin_margins)
    with pytest.raises(DegenerateInput, match=f"no passivity index for node {big}"):
        certify_single_node_plug(plan, PassivityIndices(NUS), {**ALPHAS, (1, big): 0.3})


def test_problem_and_report_tuples_are_built_on_first_read():
    report = certify_network_plug(PLAN, NUS, ALPHAS)
    assert "intra_margins" not in vars(report) and "theta" not in vars(report.problem)
    assert isinstance(report.intra_margins, tuple) and report.intra_margins is report.intra_margins
    assert all(type(m) is float for m in report.gershgorin_margins + report.problem.theta)
    assert not report._s_weights.flags.writeable and not report.problem._theta.flags.writeable
    assert report == certify_network_plug(PLAN, NUS, ALPHAS)
    assert dataclasses.replace(report.problem).theta == report.problem.theta


# --- array-backed inputs: plug chains from every input form against the scalar formulas


def _bitwise(value):
    """``value`` with every float as its bytes, recursing into tuples and compared
    dataclass fields."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(map(_bitwise, value))
    if dataclasses.is_dataclass(value):
        return tuple(_bitwise(getattr(value, f.name)) for f in dataclasses.fields(value)
                     if f.compare)
    return value


def _document_inputs(graph, nus, alphas):
    """``certificate_inputs()`` of a document declaring ``nus`` and a linear gain
    ``alphas`` on each edge of ``graph``."""
    raw = {
        "version": "1",
        "nodes": [{"id": v, "nu": nus[v]} for v in graph.node_ids],
        "graphs": {"all": {"nodes": list(graph.node_ids), "edges": [list(e) for e in graph.edges]}},
        "initial": ["all"],
        "couplings": [{"edge": list(e), "kind": "linear_gain",
                       "a": certificates._alpha_for(alphas, *e)} for e in graph.edges],
        "noise": {"scale": 0.0, "seed": 0},
        "solver": {"dt": 0.1, "t_end": 1.0},
    }
    return parse_scenario_dict(raw).certificate_inputs()


@st.composite
def _plug_chains(draw):
    """A hub base network grown one plug at a time, as ``plug_chain`` grows it:
    single nodes joining through one edge, and small networks through one
    or two boundary edges; indices and bounds on every node and edge of the
    grown network, keyed either way in the dicts."""
    regime = draw(st.sampled_from(sorted(_INDICES)))
    n = draw(st.integers(2, 12))
    grown, next_id, plans = _hub_graph(draw, list(range(n))), n, []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            c = draw(st.sampled_from(grown.node_ids))
            plan, next_id = PlugPlan(grown, next_id, ((next_id, c),)), next_id + 1
        else:
            size = draw(st.integers(1, 5))
            added = _hub_graph(draw, list(range(next_id, next_id + size)))
            next_id += size
            k = draw(st.integers(1, min(2, size)))
            ps, qs = (draw(st.lists(st.sampled_from(side.node_ids), min_size=k, max_size=k,
                                    unique=True)) for side in (grown, added))
            plan = PlugPlan(grown, added, tuple(zip(ps, qs)))
            if assumption_1_violation(plan) is not None:
                plan = PlugPlan(grown, added, plan.boundary[:1])
        plans.append(plan)
        grown = compose(plan)
    nus = {v: draw(_SIGNED_ZEROS if draw(st.integers(0, 9)) == 0 else _INDICES[regime])
           for v in grown.node_ids}
    alphas = {(j, i) if draw(st.booleans()) else (i, j): draw(_BOUNDS[regime])
              for i, j in grown.edges}
    return plans, grown, nus, alphas, draw(st.sampled_from([1e-12, 0.0, -1e-3]))


def _verdict_bits(certify, plan, nus, alphas, tol):
    """A report with its kappa as bits, or the DegenerateInput message."""
    try:
        report = certify(plan, nus, alphas, tol)
    except DegenerateInput as exc:
        return str(exc)
    return _bitwise(report), _bitwise(report.oracle_min_eigenvalue)


@settings(max_examples=300, deadline=None)
@given(_plug_chains())
def test_plug_chain_reports_are_bit_identical_from_every_input_form(case):
    plans, grown, nus, alphas, tol = case
    forms = [_document_inputs(grown, nus, alphas), (nus, alphas),
             (PassivityIndices(nus), SectorBounds(alphas))]
    for plan in plans:
        certify = certify_single_node_plug if plan.is_single_node else certify_network_plug
        got = [_verdict_bits(certify, plan, *form, tol) for form in forms]
        assert got[1:] == got[:-1]
        try:
            margins, boundary, disc, _, _, verdict, prob = _scalar_verdict(
                certify, plan, nus, alphas, tol)
        except DegenerateInput as exc:
            assert got[0] == str(exc)
            continue
        report = certify(plan, nus, alphas, tol)
        assert report.verdict == verdict
        assert _bits(report.intra_margins) == _bits(margins)
        assert _bits([(bc.gamma, bc.margin) for bc in report.boundary]) == _bits(boundary)
        assert _bits(report.gershgorin_margins) == _bits(disc)
        for name in ("theta", "sigma", "s_weights"):
            assert _bits(getattr(report.problem, name)) == _bits(getattr(prob, name))
        assert _bits(report.s_weights) == _bits(prob.s_weights)
        kappa = np.linalg.eigvalsh(_reference_matrix(prob))[0]
        assert _bits([report.oracle_min_eigenvalue]) == _bits([kappa])
