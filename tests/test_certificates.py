from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plugnet import certificates
from plugnet.certificates import (
    CertificateProblem,
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
from plugnet.graph import Graph, PlugPlan, incidence

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
