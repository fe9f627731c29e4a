"""Undirected graphs with oriented-edge incidence algebra and plug composition.

Every edge carries a fixed orientation chosen at construction: the first
node of the pair is the positive end, the second the negative end. The
orientation is arbitrary but stable, so incidence matrices and edge-indexed
quantities are reproducible. Graphs are immutable values; composing a plug
plan returns a new graph. A graph builds its node index and adjacency once,
at construction, so every query on it is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import GraphError


@dataclass(frozen=True)
class Graph:
    """Undirected graph with integer node labels and oriented edges.

    ``edges[k] = (i, j)`` means node ``i`` is the positive end and node
    ``j`` the negative end of edge ``k``. No self-loops, no duplicate
    undirected edges. ``index``, ``neighbors``, ``degree`` and ``has_edge``
    are lookups into a node-position map and a node-to-neighbours map that
    construction builds while it validates the edges.
    """

    node_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(int(i) for i in self.node_ids))
        object.__setattr__(
            self, "edges", tuple((int(i), int(j)) for i, j in self.edges)
        )
        position = {i: k for k, i in enumerate(self.node_ids)}
        if len(position) != len(self.node_ids):
            raise GraphError(f"duplicate node ids in {self.node_ids}")
        adjacency: dict[int, set[int]] = {i: set() for i in self.node_ids}
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if i not in adjacency or j not in adjacency:
                raise GraphError(f"edge ({i}, {j}) references an unknown node")
            if j in adjacency[i]:
                raise GraphError(f"duplicate undirected edge ({i}, {j})")
            adjacency[i].add(j)
            adjacency[j].add(i)
        object.__setattr__(self, "_position", position)
        object.__setattr__(
            self, "_adjacency", {i: frozenset(nbrs) for i, nbrs in adjacency.items()}
        )

    @classmethod
    def from_pairs(cls, node_ids: Iterable[int], pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph orienting every edge with the smaller label positive."""
        edges = tuple((min(i, j), max(i, j)) for i, j in pairs)
        return cls(tuple(node_ids), edges)

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def p(self) -> int:
        return len(self.edges)

    def index(self, node: int) -> int:
        try:
            return self._position[node]
        except KeyError:
            raise GraphError(f"node {node} not in graph") from None

    def neighbors(self, node: int) -> frozenset[int]:
        try:
            return self._adjacency[node]
        except KeyError:
            raise GraphError(f"node {node} not in graph") from None

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    @property
    def max_degree(self) -> int:
        """Largest node degree, 0 without edges."""
        return max(map(len, self._adjacency.values()), default=0)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adjacency.get(i, ())

    def edge_keys(self) -> set[frozenset[int]]:
        return {frozenset(e) for e in self.edges}


def incidence(g: Graph) -> np.ndarray:
    """Node-by-edge incidence matrix with +1 at positive ends, -1 at negative.

    Integer-valued; column sums are exactly zero.
    """
    d = np.zeros((g.n, g.p), dtype=int)
    for k, (i, j) in enumerate(g.edges):
        d[g.index(i), k] = 1
        d[g.index(j), k] = -1
    return d


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from every other (empty graph: True)."""
    if g.n <= 1:
        return True
    start = g.node_ids[0]
    visited = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for nxt in g.neighbors(current) - visited:
            visited.add(nxt)
            stack.append(nxt)
    return len(visited) == g.n


@dataclass(frozen=True)
class PlugPlan:
    """Description of a plug operation: a node or a whole graph joins ``base``.

    A single node is a one-node added side, ``added_graph``, and every
    boundary rule reads both kinds alike. Boundary pairs may be written in
    either order; they are normalized to ``(base_node, added_node)``, except
    that a single node joins through exactly one edge as its positive end,
    ``(added_node, base_node)``, the orientation its certificate uses.
    """

    base: Graph
    added: Union[Graph, int]
    boundary: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.boundary:
            raise GraphError("plug plan needs at least one boundary edge")
        if self.is_single_node:
            object.__setattr__(self, "added", int(self.added))
        base, added = set(self.base.node_ids), set(self.added_graph.node_ids)
        if base & added:
            raise GraphError(f"node labels shared between parts: {sorted(base & added)}")
        boundary = []
        for a, b in self.boundary:
            a, b = int(a), int(b)
            if b in base and a in added:
                a, b = b, a
            elif not (a in base and b in added):
                raise GraphError(f"boundary edge ({a}, {b}) must join the base to the added side")
            boundary.append((a, b))
        if len(set(boundary)) != len(boundary):  # pairs are base-first by now
            raise GraphError("duplicate boundary edge")
        if self.is_single_node:
            if len(boundary) != 1:
                raise GraphError(
                    f"single-node plug connects through exactly one edge (got {len(boundary)})"
                )
            boundary = [boundary[0][::-1]]
        object.__setattr__(self, "boundary", tuple(boundary))

    @property
    def is_single_node(self) -> bool:
        return not isinstance(self.added, Graph)

    @cached_property
    def added_graph(self) -> Graph:
        """The added side: ``added``, or the one-node graph of a single node."""
        return Graph((self.added,)) if self.is_single_node else self.added


def assumption_1_violation(plan: PlugPlan) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Return the first offending pair of boundary edges, or None if compliant.

    Two distinct boundary edges must attach to distinct, non-adjacent nodes
    on each side. Sharing an attachment node counts as a violation: the
    certificate's weight bookkeeping assumes one boundary edge per node.
    """
    if not isinstance(plan.added, Graph):
        raise GraphError("the interconnection rule applies to network plug plans")
    edges = plan.boundary
    for r in range(len(edges)):
        for s in range(r + 1, len(edges)):
            (pr, qr), (ps, qs) = edges[r], edges[s]
            if pr == ps or plan.base.has_edge(pr, ps):
                return edges[r], edges[s]
            if qr == qs or plan.added.has_edge(qr, qs):
                return edges[r], edges[s]
    return None


def check_assumption_1(plan: PlugPlan) -> bool:
    """True iff boundary attachment nodes are pairwise non-adjacent on both sides.

    Vacuously true for a single boundary edge.
    """
    return assumption_1_violation(plan) is None


def compose(plan: PlugPlan) -> Graph:
    """Augmented graph: base edges first, added edges next, boundary edges last.

    Node labels are preserved and the base's edge orientation and column
    order survive as the leading block of the incidence matrix. A single
    node is its plan's one-node ``added_graph``.
    """
    return Graph(plan.base.node_ids + plan.added_graph.node_ids,
                 plan.base.edges + plan.added_graph.edges + plan.boundary)
