"""Undirected graphs with oriented-edge incidence algebra and plug composition.

Every edge carries a fixed orientation chosen at construction: the first
node of the pair is the positive end, the second the negative end. The
orientation is arbitrary but stable, so incidence matrices and edge-indexed
quantities are reproducible. Graphs are immutable values; composing a plug
plan returns a new graph. A graph builds its node index and adjacency once,
at construction, so every query on it is a lookup. Its node-id array, its
edge-end positions, its degrees and its connectivity are computed on first
use and then kept; the graph a plug plan composes is built once per plan,
from its parts, its arrays by concatenating theirs.
"""

from __future__ import annotations

import itertools
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
    construction builds while it validates the edges. ``ids``, ``ends`` and
    ``degrees`` are the same facts as read-only arrays, for array code.
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
    def _joined(cls, base: "Graph", added: "Graph", boundary) -> "Graph":
        """``compose``'s graph, merged from two graphs and their boundary.

        Checks nothing: ``PlugPlan`` has proved the labels disjoint and each
        boundary edge unique and across the sides, so no self-loop or
        duplicate edge can arise. Connected when both parts are.
        """
        g = object.__new__(cls)
        offset = base.n
        position = dict(base._position)
        position.update((v, k + offset) for v, k in added._position.items())
        adjacency = {**base._adjacency, **added._adjacency}
        for i, j in boundary:
            adjacency[i] = adjacency[i] | {j}
            adjacency[j] = adjacency[j] | {i}
        crossing = np.array([(position[i], position[j]) for i, j in boundary], dtype=np.intp)
        for name, value in (
            ("node_ids", base.node_ids + added.node_ids),
            ("edges", base.edges + added.edges + boundary),
            ("_position", position),
            ("_adjacency", adjacency),
            ("ids", _read_only(np.concatenate((base.ids, added.ids)))),
            ("ends", _read_only(np.concatenate((base.ends, added.ends + offset, crossing)))),
        ):
            object.__setattr__(g, name, value)
        if base._connected and added._connected:
            g.__dict__["_connected"] = True  # the cached_property's slot
        return g

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

    @cached_property
    def ids(self) -> np.ndarray:
        """``node_ids`` as a read-only array: int64, or object when an id is beyond int64."""
        return _read_only(id_array(self.node_ids))

    @cached_property
    def ends(self) -> np.ndarray:
        """``ends[k] = (index(i), index(j))`` for edge k = (i, j): a (p, 2) intp array."""
        flat = map(self._position.__getitem__, itertools.chain.from_iterable(self.edges))
        return _read_only(np.fromiter(flat, np.intp, 2 * self.p).reshape(self.p, 2))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Node degrees in ``node_ids`` order, an intp array."""
        return _read_only(np.bincount(self.ends.ravel(), minlength=self.n))

    @property
    def max_degree(self) -> int:
        """Largest node degree, 0 without edges."""
        return int(self.degrees.max(initial=0))

    @cached_property
    def _connected(self) -> bool:
        if self.n <= 1:
            return True
        start = self.node_ids[0]
        visited = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for nxt in self.neighbors(current) - visited:
                visited.add(nxt)
                stack.append(nxt)
        return len(visited) == self.n

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


def id_array(ids) -> np.ndarray:
    """Integer node ids (or (p, 2) pairs of them) as an int64 array, or as
    an object array of Python ints when one is beyond the int64 range."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from every other (empty graph: True).

    Searched once per graph and then kept.
    """
    return g._connected


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
        base, added = self.base._position, self.added_graph._position
        shared = [v for v in added if v in base]
        if shared:
            raise GraphError(f"node labels shared between parts: {sorted(shared)}")
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

    @cached_property
    def _composed(self) -> Graph:
        return Graph._joined(self.base, self.added_graph, self.boundary)


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
    node is its plan's one-node ``added_graph``. Built once per plan, so
    every caller composing one plan gets the same graph.
    """
    return plan._composed
