from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plugnet.errors import GraphError
from plugnet.graph import (
    Graph,
    PlugPlan,
    assumption_1_violation,
    compose,
    incidence,
    is_connected,
)

PATH3 = Graph([1, 2, 3], [(1, 2), (2, 3)])


def test_incidence_path():
    d = incidence(PATH3)
    assert d.tolist() == [[1, 0], [-1, 1], [0, -1]]


def test_incidence_single_edge():
    d = incidence(Graph([1, 2], [(1, 2)]))
    assert d.tolist() == [[1], [-1]]


def test_incidence_column_sums_zero_on_example_graph():
    g = Graph.from_pairs(
        range(1, 8),
        [(1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (6, 7), (1, 5), (4, 7)],
    )
    d = incidence(g)
    assert d.shape == (7, 8)
    assert np.all(d.T @ np.ones(7, dtype=int) == 0)


def test_incidence_is_integer_valued():
    assert incidence(PATH3).dtype == int


@pytest.mark.parametrize(
    "g, expected",
    [
        (PATH3, True),
        (Graph([1, 2, 3, 4], [(1, 2), (3, 4)]), False),
        (Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)]), True),
        (Graph.from_pairs([5, 6, 7], [(5, 6), (6, 7)]), True),
        (Graph([1], []), True),
    ],
)
def test_is_connected(g, expected):
    assert is_connected(g) is expected


def test_degree_and_neighbors():
    g = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
    assert g.degree(2) == 3
    assert g.neighbors(2) == frozenset({1, 3, 4})
    assert g.degree(1) == 1


@st.composite
def _graphs(draw):
    """Graphs on sparse, unsorted labels with randomly oriented edges."""
    nodes = draw(st.lists(st.integers(-50, 500), unique=True, max_size=9))
    pairs = list(itertools.combinations(nodes, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return Graph(nodes, [(j, i) if flip else (i, j) for (i, j), flip in zip(chosen, flips)])


@given(_graphs())
def test_lookups_match_scans_over_node_ids_and_edges(g):
    keys = {frozenset(e) for e in g.edges}
    for node in g.node_ids:
        scanned = {j for i, j in g.edges if i == node} | {i for i, j in g.edges if j == node}
        assert g.index(node) == list(g.node_ids).index(node)
        assert g.neighbors(node) == frozenset(scanned)
        assert g.degree(node) == len(scanned)
        assert g.degrees[list(g.node_ids).index(node)] == len(scanned)
    assert g.ends.dtype == np.intp and g.ends.shape == (g.p, 2)
    assert g.ends.tolist() == [[list(g.node_ids).index(v) for v in e] for e in g.edges]
    assert g.degrees.dtype == np.intp and g.degrees.shape == (g.n,)
    assert g.max_degree == max((len(g.neighbors(v)) for v in g.node_ids), default=0)
    for i in g.node_ids:
        for j in g.node_ids:
            assert g.has_edge(i, j) == g.has_edge(j, i) == (frozenset((i, j)) in keys)

    absent = max(g.node_ids, default=0) + 1
    for node in g.node_ids:
        assert not g.has_edge(node, absent) and not g.has_edge(absent, node)
    for query in (g.index, g.neighbors, g.degree):
        with pytest.raises(GraphError, match="not in graph"):
            query(absent)

    reached = set(g.node_ids[:1])
    frontier = list(reached)
    while frontier:
        node = frontier.pop(0)
        for i, j in g.edges:
            for a, b in ((i, j), (j, i)):
                if a == node and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    assert is_connected(g) == (len(reached) == g.n)

    d = np.zeros((g.n, g.p), dtype=int)
    for k, (i, j) in enumerate(g.edges):
        for row, node in enumerate(g.node_ids):
            if node == i:
                d[row, k] = 1
            if node == j:
                d[row, k] = -1
    assert np.array_equal(incidence(g), d)


def test_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph([1, 2], [(1, 1)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        Graph([1, 2], [(1, 2), (2, 1)])


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError):
        Graph([1, 2], [(1, 3)])


def test_from_pairs_orients_smaller_label_positive():
    g = Graph.from_pairs([1, 2, 3], [(3, 1), (2, 3)])
    assert g.edges == ((1, 3), (2, 3))


# --- plug plans and the interconnection rule ---------------------------------

G1_FIG2 = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
G2_FIG2 = Graph.from_pairs([4, 5, 6], [(4, 5), (5, 6)])


def test_assumption_satisfied_case():
    plan = PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((1, 4), (3, 6)))
    assert assumption_1_violation(plan) is None


def test_assumption_violated_case():
    plan = PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((1, 4), (2, 6)))
    assert assumption_1_violation(plan) == ((1, 4), (2, 6))


def test_assumption_vacuous_for_single_boundary_edge():
    plan = PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((1, 4),))
    assert assumption_1_violation(plan) is None


def test_assumption_on_seven_node_example():
    g1 = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
    g2 = Graph.from_pairs([5, 6, 7], [(5, 6), (6, 7)])
    plan = PlugPlan(base=g1, added=g2, boundary=((1, 5), (4, 7)))
    # oracle: direct adjacency lookups on both sides
    assert not g1.has_edge(1, 4) and not g2.has_edge(5, 7)
    assert assumption_1_violation(plan) is None


def test_assumption_symmetric_in_boundary_listing_order():
    for boundary in [((1, 4), (3, 6)), ((3, 6), (1, 4))]:
        assert assumption_1_violation(PlugPlan(G1_FIG2, G2_FIG2, boundary)) is None
    for boundary in [((1, 4), (2, 6)), ((2, 6), (1, 4))]:
        assert assumption_1_violation(PlugPlan(G1_FIG2, G2_FIG2, boundary)) == boundary


def test_assumption_rejects_shared_attachment_node():
    plan = PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((1, 4), (1, 6)))
    assert assumption_1_violation(plan) == ((1, 4), (1, 6))


def test_assumption_requires_network_plan():
    plan = PlugPlan(base=G1_FIG2, added=9, boundary=((9, 1),))
    with pytest.raises(GraphError):
        assumption_1_violation(plan)


def test_plan_rejects_boundary_with_unknown_node():
    with pytest.raises(GraphError):
        PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((1, 99),))


def test_plan_rejects_overlapping_node_labels():
    with pytest.raises(GraphError):
        PlugPlan(base=G1_FIG2, added=Graph([3, 7], [(3, 7)]), boundary=((1, 7),))


def test_single_node_plan_requires_exactly_one_edge():
    with pytest.raises(GraphError):
        PlugPlan(base=G1_FIG2, added=9, boundary=((9, 1), (9, 3)))


@pytest.mark.parametrize("added, boundary, message", [
    (Graph([3, 7], [(3, 7)]), ((1, 7),), r"node labels shared between parts: \[3\]"),
    (3, ((3, 1),), r"node labels shared between parts: \[3\]"),
    (G2_FIG2, ((1, 99),), r"boundary edge \(1, 99\) must join the base to the added side"),
    (9, ((1, 2),), r"boundary edge \(1, 2\) must join the base to the added side"),
    (G2_FIG2, ((1, 4), (4, 1)), "duplicate boundary edge"),
    (9, ((9, 1), (3, 9)), r"single-node plug connects through exactly one edge \(got 2\)"),
], ids=["shared_network", "shared_node", "not_joining_network", "not_joining_node",
        "duplicate_network", "two_edges_node"])
def test_invalid_plans_of_both_kinds_get_the_same_messages(added, boundary, message):
    with pytest.raises(GraphError, match=message):
        PlugPlan(base=G1_FIG2, added=added, boundary=boundary)


def test_single_node_is_a_one_node_added_side():
    single = PlugPlan(base=G1_FIG2, added=9, boundary=((1, 9),))
    assert single.added_graph == Graph((9,))
    assert compose(single) == Graph((1, 2, 3, 9), G1_FIG2.edges + ((9, 1),))
    network = PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((1, 4),))
    assert network.added_graph is G2_FIG2


def test_plan_normalizes_boundary_orientation():
    plan = PlugPlan(base=G1_FIG2, added=G2_FIG2, boundary=((4, 1), (3, 6)))
    assert plan.boundary == ((1, 4), (3, 6))  # base side positive
    single = PlugPlan(base=G1_FIG2, added=9, boundary=((1, 9),))
    assert single.boundary == ((9, 1),)  # new node positive


# --- composition --------------------------------------------------------------


def test_compose_single_node_orientation():
    plan = PlugPlan(base=Graph([1], []), added=2, boundary=((2, 1),))
    g = compose(plan)
    assert g.node_ids == (1, 2)
    assert incidence(g).tolist() == [[-1], [1]]


def test_compose_seven_node_example():
    g1 = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
    g2 = Graph.from_pairs([5, 6, 7], [(5, 6), (6, 7)])
    plan = PlugPlan(base=g1, added=g2, boundary=((1, 5), (4, 7)))
    g = compose(plan)
    assert g.node_ids == (1, 2, 3, 4, 5, 6, 7)
    assert g.edges == ((1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (6, 7), (1, 5), (4, 7))
    assert is_connected(g)


def test_compose_round_trip_recovers_parts():
    g1 = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
    g2 = Graph.from_pairs([5, 6, 7], [(5, 6), (6, 7)])
    plan = PlugPlan(base=g1, added=g2, boundary=((1, 5), (4, 7)))
    g = compose(plan)
    kept = tuple(e for e in g.edges if frozenset(e) not in {frozenset(b) for b in plan.boundary})
    assert kept == g1.edges + g2.edges


def test_compose_keeps_base_incidence_as_leading_block():
    g1 = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    g2 = Graph.from_pairs([4, 5], [(4, 5)])
    plan = PlugPlan(base=g1, added=g2, boundary=((3, 4),))
    d = incidence(compose(plan))
    assert np.array_equal(d[: g1.n, : g1.p], incidence(g1))


def test_incidence_gram_matrix_is_laplacian():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        nodes = list(range(n))
        pairs = [(i, j) for i in nodes for j in nodes[i + 1:] if rng.random() < 0.4]
        if not pairs:
            continue
        g = Graph.from_pairs(nodes, pairs)
        d = incidence(g)
        laplacian = np.zeros((n, n), dtype=int)
        for i, j in g.edges:
            laplacian[i, i] += 1
            laplacian[j, j] += 1
            laplacian[i, j] -= 1
            laplacian[j, i] -= 1
        assert np.array_equal(d @ d.T, laplacian)


# --- composition against a graph built from scratch ------------------------------


@st.composite
def _plug_chains(draw):
    """A base graph and plugs of both kinds, each on the last composition.

    Bases and added sides may be disconnected; a network plug's boundary
    reaches some of its added side's components or all of them, so that
    a disconnected side may or may not end up connected.
    """
    def graph_on(labels):
        pairs = list(itertools.combinations(labels, 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(labels, [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen])

    base = graph_on(list(range(draw(st.integers(1, 6)))))
    plans, grown, label = [], base, 100
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            boundary = ((draw(st.sampled_from(grown.node_ids)), label),)
            plan = PlugPlan(base=grown, added=label, boundary=boundary)
            label += 1
        else:
            added = graph_on(list(range(label, label + draw(st.integers(1, 5)))))
            label += added.n
            reached = draw(st.lists(st.sampled_from(added.node_ids), min_size=1, unique=True))
            boundary = tuple((draw(st.sampled_from(grown.node_ids)), q) for q in reached)
            plan = PlugPlan(base=grown, added=added, boundary=boundary)
        plans.append(plan)
        grown = compose(plan)
    return plans


@settings(max_examples=300)
@given(_plug_chains())
def test_compose_equals_the_graph_built_from_scratch(plans):
    for plan in plans:
        composed = compose(plan)
        assert compose(plan) is composed  # built once per plan
        fresh = Graph(plan.base.node_ids + plan.added_graph.node_ids,
                      plan.base.edges + plan.added_graph.edges + plan.boundary)
        assert composed == fresh
        assert composed._position == fresh._position
        assert composed._adjacency == fresh._adjacency
        assert composed.ends.dtype == fresh.ends.dtype == np.intp
        assert np.array_equal(composed.ends, fresh.ends)
        assert np.array_equal(composed.degrees, fresh.degrees)
        assert composed.max_degree == fresh.max_degree
        assert is_connected(composed) is is_connected(fresh)
        assert not composed.ends.flags.writeable and not composed.degrees.flags.writeable


def test_a_disconnected_added_side_joined_at_each_component_composes_connected():
    added = Graph([4, 5, 6, 7], [(4, 5), (6, 7)])
    plan = PlugPlan(base=PATH3, added=added, boundary=((1, 4), (3, 7)))
    assert not is_connected(added)
    assert is_connected(compose(plan))
    plan = PlugPlan(base=PATH3, added=added, boundary=((1, 4),))
    assert not is_connected(compose(plan))
