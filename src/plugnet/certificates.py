"""Interface-condition certificates for plug-and-play consensus.

Three layers:

* a weighted Gershgorin sufficient test for positive definiteness of
  ``M = D^T Theta D + Sigma`` phrased per edge, next to an exact
  eigenvalue oracle for the same matrix;
* the per-edge interface condition
  ``1/alpha_ij + nu_i + nu_j - (r_i - 1)|nu_i| - (r_j - 1)|nu_j| > 0``;
* plug certifiers for a single added node and for an added subnetwork,
  which combine the edge conditions with the boundary-edge weight
  construction (gamma) and cross-check the composed problem against both
  the Gershgorin test and an exact positive-definiteness check.

The edge conditions are what a certificate verdict rests on. The composed
Gershgorin margins are recorded for transparency: with the minimizing
gamma weight one of them is zero by construction, which is why both the
strict and the non-strict reading are reported.

A verdict proves positive definiteness of M without building it whenever
it can. The disc margin of edge k with positive weights s is the row
margin of ``M S``, ``S = diag(s)``; when every margin is strictly positive
``M S`` is strictly diagonally dominant, and so is ``(M - t I) S`` for
every t <= 0, so by Levy-Desplanques no t <= 0 is an eigenvalue of the
symmetric M, which is therefore positive definite. The margins are
computed from M's own entries (``M[k, k] = theta_i + theta_j + sigma_k``
bit-identical to ``certificate_matrix``), so the proof rests on the disc
test itself, not on the algebra that predicts its outcome. A computed
margin proves its exact counterpart positive only when it exceeds
``max(tol, 0)`` plus a bound on its rounding error
(``GershgorinResult.rounding``, a few eps times the largest terms of a
row; ``GershgorinResult.proves_pd``), so the proof holds for M in exact
arithmetic. The reported ``ok_strict`` reads ``margin >= tol`` and proves
nothing at large scale or at ``tol <= 0``.

* With the reported weights the test proves when every edge margin clears
  that bound, which covers certified fixed networks (unit weights).
* A plug's reported weights put a boundary edge k at ``s_k = gamma_k``,
  which zeroes the tightest intra-network row at its attachment node. The
  row margin of k is linear in s_k with slope ``M[k, k]`` and root
  ``gamma_k - m_k / M[k, k]``, where m_k is its reported margin. The proof
  weights lower s_k to the midpoint, ``gamma_k - m_k / (2 M[k, k])``: row k
  keeps half its margin, and every intra row at the attachment gains
  ``|theta| (gamma_k - s'_k) = |theta| m_k / (2 M[k, k])``. So when every
  interface margin exceeds twice the tolerance and that gain exceeds it,
  each by a few rounding bounds, the disc test with these weights proves.
  The proof weights stay internal; the report keeps the reported weights
  and margins.

Only when neither disc test proves is M scattered from the edge ends
(time linear in its nonzeros) and factorised by Cholesky; when that fails
too, the eigenvalue oracle decides, so that a ``not_pd`` verdict and its
kappa come from one eigensolve. Otherwise the smallest eigenvalue kappa of
M is computed on first access of ``CertificateReport.oracle_min_eigenvalue``.

A verdict touches no node or edge of the grown network as a Python
object. Its inputs are two read-only mappings that also hold their values
as arrays, ``PassivityIndices`` (node id to nu) and ``SectorBounds`` (edge
to upper alpha, read in either orientation); ``ScenarioDocument.certificate_inputs``
builds them once per document, and any other mapping is converted to them
when a verdict receives it. nu and 1/alpha of a whole graph are then one
sorted search each over the graph's node-id array (``Graph.ids``). Every
interface margin of both sides is one array pass over the composed graph's
edge ends (``Graph.ends``), and the disc totals, margins and rounding bound
are one pass per weight set; only the boundary edges (gamma and their
margins) are visited one at a time. Each pass sums in the order of the
scalar formula it replaces, so every value is the formula's, bit for bit.
The problem, the disc result and the report keep these arrays, read-only;
their tuple fields are built from them on first read.

The proof does not ask for the reported margins to be exactly >= 0 and
reuse Taussky's theorem on irreducibly diagonally dominant matrices: the
zero row is zero only in exact arithmetic and reads a few 1e-16 below zero
about as often as it reads zero, so that test would decide by rounding.
The midpoint weights give the zero row a slack that scales with the
boundary margin instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .errors import AssumptionViolation, DegenerateInput, GraphError
from .graph import (Graph, PlugPlan, _read_only, assumption_1_violation, compose, id_array,
                    is_connected)

DEFAULT_STRICTNESS_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = math.ulp(0.0)  # the smallest subnormal
# A margin beyond the float range raises DegenerateInput naming its edge; the
# verdicts and the public margin checks each run under one errstate (a few
# microseconds each) so numpy does not also warn.
_QUIET = np.errstate(over="ignore", invalid="ignore")

VERDICT_CERTIFIED = "certified"
VERDICT_ORACLE_PD = "gershgorin_failed_oracle_pd"
VERDICT_NOT_PD = "not_pd"


class _FloatArray:
    """A dataclass field of floats held as a read-only float array.

    Assigning the field keeps ``np.array(value, dtype=float)``, read-only,
    as the attribute ``_<name>``, the form array code reads. Reading the
    field gives the tuple of its floats, built on the first read and kept.
    """

    def __init__(self, name: str):
        self._name, self._array = name, "_" + name

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._array] = _read_only(np.array(value, dtype=float))

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        values = obj.__dict__.get(self._name)
        if values is None:
            values = obj.__dict__[self._name] = tuple(obj.__dict__[self._array].tolist())
        return values


def _float_arrays(*names: str):
    """Class decorator: hold each of the dataclass fields ``names`` as a ``_FloatArray``."""
    def install(cls):
        for name in names:
            setattr(cls, name, _FloatArray(name))
        return cls
    return install


@_float_arrays("theta", "sigma", "s_weights")
@dataclass(frozen=True)
class CertificateProblem:
    """Data of one positive-definiteness question: graph, node and edge weights.

    ``theta`` aligns with ``graph.node_ids``, ``sigma`` and ``s_weights``
    with ``graph.edges``. Every entry must be finite (DegenerateInput
    otherwise), and all ``s_weights`` positive.
    """

    graph: Graph
    theta: tuple[float, ...]
    sigma: tuple[float, ...]
    s_weights: tuple[float, ...]

    def __post_init__(self):
        theta, sigma, s_weights = self._arrays
        if theta.shape != (self.graph.n,):
            raise GraphError(f"theta has {theta.size} entries for {self.graph.n} nodes")
        if sigma.shape != (self.graph.p,) or s_weights.shape != (self.graph.p,):
            raise GraphError(
                f"sigma/s_weights must have one entry per edge ({self.graph.p})"
            )
        for name, values in zip(("theta", "sigma", "s_weights"), self._arrays):
            if not _all(np.isfinite(values)):
                raise DegenerateInput(f"{name} must be finite")
        if not _all(s_weights > 0.0):
            raise GraphError("s_weights must be strictly positive")

    @property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """theta, sigma and s_weights as the read-only arrays array code reads."""
        return self._theta, self._sigma, self._s_weights


@_float_arrays("margins")
@dataclass(frozen=True)
class GershgorinResult:
    """Per-edge margins of the weighted disc condition plus both verdicts.

    ``margins[k]`` is the left side minus the right side of the disc
    inequality for edge k. ``ok_nonstrict`` tolerates zero margins (the
    inequality as written), ``ok_strict`` demands them above ``tol`` (what
    the plug theorems actually need). ``rounding`` bounds the rounding error
    of every margin, and ``proves_pd`` reads the margins as a proof.
    """

    margins: tuple[float, ...]
    ok_strict: bool
    ok_nonstrict: bool
    tol: float
    rounding: float

    @property
    def proves_pd(self) -> bool:
        """Whether the margins prove M positive definite in exact arithmetic.

        Each margin must exceed ``max(tol, 0)`` plus the rounding bound:
        only strictly positive exact margins make ``M S`` strictly
        diagonally dominant.
        """
        return _proves_pd(self._margins, self.tol, self.rounding)


def _proves_pd(margins: np.ndarray, tol: float, rounding: float) -> bool:
    return _all(margins > max(tol, 0.0) + rounding)


@_QUIET
def gershgorin_pd_check(
    prob: CertificateProblem, tol: float = DEFAULT_STRICTNESS_TOL
) -> GershgorinResult:
    """Edge-wise disc test: does the scaled matrix have all discs right of zero?

    For edge k = (i, j):
    ``s_k (theta_i + theta_j + sigma_k) - |theta_i| (t_i - s_k) - |theta_j| (t_j - s_k)``
    with ``t_i`` the total s-weight of edges at node i. Sufficient only;
    the oracle gives the exact answer.

    ``rounding`` bounds the rounding error of every margin: twice the
    standard bound for a margin's sums and products, ``(d_i + d_j + 4) eps``
    times the sum of the magnitudes of its terms, taken at the largest
    degree d and, per term, at its largest value over the rows
    (``s_k |theta_i| + |theta_i| (t_i + s_k) <= 3 |theta_i| t_i``), plus
    as many smallest subnormals for underflow.

    A margin beyond the float range raises DegenerateInput naming its edge.
    No verdict calls it (they call ``_gershgorin_check``); the acceptance
    tests (``tests/test_acceptance.py``) and the benchmark tracer
    (``perfbench/spans.py``) read it.
    """
    return _gershgorin_check(prob, tol)


def _gershgorin_check(prob: CertificateProblem, tol: float) -> GershgorinResult:
    """``gershgorin_pd_check`` for a caller already under ``_QUIET``."""
    margins, rounding = _disc_margins(prob.graph, *prob._arrays)
    _require_finite(margins, prob.graph.edges, "disc margin")
    return GershgorinResult(
        margins=margins,
        ok_strict=_all(margins >= tol),
        ok_nonstrict=_all(margins >= -tol),
        tol=tol,
        rounding=rounding,
    )


def _disc_margins(
    g: Graph, theta: np.ndarray, sigma: np.ndarray, s_weights: np.ndarray
) -> tuple[np.ndarray, float]:
    """Disc margins and their rounding bound, one pass over the edge ends.

    Each node's total weight accumulates in edge order, each margin in the
    order the formula reads, so the values are the ones a loop over the
    edges computes, bit for bit.
    """
    total = np.bincount(g.ends.ravel(), np.repeat(s_weights, 2), g.n)
    at_ends = theta[g.ends]
    off = np.abs(at_ends) * (total[g.ends] - s_weights[:, None])
    margins = s_weights * (at_ends[:, 0] + at_ends[:, 1] + sigma) - off[:, 0] - off[:, 1]
    largest_terms = float(np.abs(s_weights * sigma).max(initial=0.0))
    largest_terms += 6.0 * float((np.abs(theta) * total).max(initial=0.0))
    rounding = (2 * g.max_degree + 4) * (_EPS * largest_terms + _TINY)
    return margins, rounding


_END_SIGN = np.array([1.0, -1.0])  # incidence entry at an edge's positive, negative end


def certificate_matrix(prob: CertificateProblem) -> np.ndarray:
    """M = D^T Theta D + Sigma, the matrix whose definiteness is in question.

    Scattered from the edge ends without forming D: ``M[k, k] = theta_i +
    theta_j + sigma_k`` for edge k = (i, j), and ``M[k, l] = +-theta_v``
    when edges k and l share node v, the sign being the product of their
    incidence entries at v. Every entry is summed from +0.0, so none is a
    negative zero.
    """
    g = prob.graph
    p = g.p
    if p == 0:
        return np.zeros((0, 0))  # bincount of no pairs would come back integer
    theta, sigma, _ = prob._arrays
    # Position of the node at end 2k (positive) and 2k + 1 (negative) of edge k.
    ends = g.ends.ravel()
    order = ends.argsort(kind="stable")  # ends grouped by node
    edge = order >> 1
    sign = _END_SIGN[order & 1]
    weight = sign * theta[ends[order]]
    # Each end pairs with every end at its node, itself included: the end at
    # sorted position a owns size[a] consecutive pairs, and pair t of them
    # (counted over all pairs) has its partner at sorted position offset[a] + t.
    counts = np.bincount(ends)
    size = counts.repeat(counts)
    offset = counts.cumsum().repeat(counts) - size.cumsum()
    partner = offset.repeat(size) + np.arange(size.sum())
    flat = (edge * p).repeat(size) + edge[partner]
    m = np.bincount(flat, weight.repeat(size) * sign[partner], p * p).reshape(p, p)
    m.ravel()[:: p + 1] += sigma  # ravel of the fresh array is a view
    return m


def pd_oracle(prob: CertificateProblem) -> float:
    """Smallest eigenvalue kappa of M, computed exactly (symmetric eigensolve).

    Verdicts call it only when neither disc test nor a Cholesky
    factorisation settles positive definiteness; a report computes kappa
    on first access.
    """
    m = certificate_matrix(prob)
    if m.shape[0] == 0:
        raise DegenerateInput("no edges: positive definiteness is vacuous")
    return float(np.linalg.eigvalsh(m)[0])


def _cholesky_succeeds(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def check_edge_condition(
    nu_i: float, nu_j: float, r_i: int, r_j: int, alpha_upper: float
) -> float:
    """Margin of the per-edge interface condition; positive means satisfied."""
    return (
        1.0 / alpha_upper
        + nu_i
        + nu_j
        - (r_i - 1) * abs(nu_i)
        - (r_j - 1) * abs(nu_j)
    )


def _alpha_for(alphas: Mapping, i: int, j: int) -> float:
    """The upper sector bound of edge (i, j), keyed either way round in ``alphas``."""
    for key in ((i, j), (j, i)):
        if key in alphas:
            return float(alphas[key])
    raise DegenerateInput(f"no upper sector bound for edge ({i}, {j})")


def _index_of(nus: Mapping[int, float], node: int) -> float:
    """``nus[node]``; a node without an index raises DegenerateInput naming it."""
    try:
        return nus[node]
    except KeyError:
        raise DegenerateInput(f"no passivity index for node {node}") from None


def _node_id(key) -> int | None:
    """The node id a mapping key matches, None for a key no node id equals."""
    try:
        return operator.index(key)
    except TypeError:
        return int(key) if isinstance(key, float) and key.is_integer() else None


def _edge_id(key) -> tuple[int, int] | None:
    """The pair of node ids a mapping key matches, None for any other key."""
    if not isinstance(key, tuple) or len(key) != 2:
        return None
    i, j = map(_node_id, key)
    return None if i is None or j is None else (i, j)


def _id_keys(items: dict, pairs: bool) -> tuple[np.ndarray, np.ndarray]:
    """The keys of ``items`` that a node id (a pair of them when ``pairs``)
    can equal, as an id array, and their values as floats.

    Integer keys convert in one pass; keys of any other form are read one
    at a time (``_node_id``, ``_edge_id``), and the keys no id equals are
    left out.
    """
    shape = (len(items), 2) if pairs else (len(items),)
    try:
        ids = np.array(list(items))
    except ValueError:  # keys of different lengths
        ids = None
    if ids is not None and ids.dtype == np.int64 and ids.shape == shape:
        return ids, np.array(list(items.values()), dtype=float)
    read = _edge_id if pairs else _node_id
    kept = [(key, value) for key, value in zip(map(read, items), items.values())
            if key is not None]
    ids = id_array([key for key, _ in kept]).reshape((-1, 2) if pairs else (-1,))
    return ids, np.array([value for _, value in kept], dtype=float)


def _all(values: np.ndarray) -> bool:
    """``values.all()`` in one C call: a verdict reduces a dozen small arrays,
    and the method's Python-level wrapper costs more than the reduction."""
    return bool(np.count_nonzero(values) == values.size)


def _search(keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of each of ``ids`` in the sorted ``keys``, and whether it is there.

    Arrays of different kinds (an id beyond int64 on one side) are compared
    as Python ints.
    """
    if keys.dtype != ids.dtype:
        keys, ids = keys.astype(object), ids.astype(object)
    at = np.searchsorted(keys, ids)
    if not len(keys):
        return at, np.zeros(len(ids), dtype=bool)
    return at, keys.take(at, mode="clip") == ids


class _InputMapping(Mapping):
    """A read-only copy of a mapping; subclasses also hold its values as arrays."""

    def __init__(self, items: Mapping):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __contains__(self, key) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._items!r})"


class PassivityIndices(_InputMapping):
    """Read-only mapping node id -> passivity index nu, also held as arrays.

    Reads like the mapping it is built from. ``_ids`` (sorted) and ``_nu``
    hold the integer keys and their values as floats, read-only, so that a
    certificate reads the indices of a whole graph in one search.
    """

    def __init__(self, nus: Mapping):
        super().__init__(nus)
        ids, nu = _id_keys(self._items, pairs=False)
        order = np.argsort(ids, kind="stable")
        self._ids = _read_only(ids[order])
        self._nu = _read_only(nu[order])

    def theta(self, graph: Graph) -> np.ndarray:
        """nu of every node of ``graph``, in ``node_ids`` order; a node
        without an index raises DegenerateInput naming the first one."""
        at, found = _search(self._ids, graph.ids)
        if not _all(found):
            node = graph.node_ids[int(np.argmin(found))]
            raise DegenerateInput(f"no passivity index for node {node}")
        return self._nu[at]


class SectorBounds(_InputMapping):
    """Read-only mapping edge (i, j) -> upper sector bound alpha, also held as arrays.

    Reads like the mapping it is built from, key for key; ``alpha(graph)``
    answers either orientation, (i, j) first, then (j, i), as
    ``_alpha_for`` does for a single edge. ``_ids`` holds the
    distinct node ids of the keys, sorted; ``_codes`` (sorted) and
    ``_alpha`` hold each edge in both orientations, coded as
    ``rank(i) * (len(_ids) + 1) + rank(j)``, with its bound, a key's own
    orientation taking precedence over the reverse of another. So a
    certificate reads the bounds of a whole graph in one search.
    """

    def __init__(self, alphas: Mapping):
        super().__init__(alphas)
        pairs, alpha = _id_keys(self._items, pairs=True)
        ids = np.sort(pairs, axis=None)
        distinct = np.ones(len(ids), dtype=bool)
        distinct[1:] = ids[1:] != ids[:-1]
        self._ids = _read_only(ids[distinct])
        rank, base = np.searchsorted(self._ids, pairs), len(self._ids) + 1
        forward = rank[:, 0] * base + rank[:, 1]
        backward = rank[:, 1] * base + rank[:, 0]
        codes, first = np.unique(np.concatenate((forward, backward)), return_index=True)
        self._codes = _read_only(codes)
        self._alpha = _read_only(np.concatenate((alpha, alpha))[first])

    def alpha(self, graph: Graph) -> np.ndarray:
        """The bound of every edge of ``graph``, in ``edges`` order. The first
        edge without one, else the first with a zero bound, raises
        DegenerateInput naming it."""
        rank, known = _search(self._ids, graph.ids)
        if not _all(known):
            rank = np.where(known, rank, len(self._ids))  # an unknown node ranks past every id
        heads, tails = graph.ends.T
        at, found = _search(self._codes, rank[heads] * (len(self._ids) + 1) + rank[tails])
        if not _all(found):
            i, j = graph.edges[int(np.argmin(found))]
            raise DegenerateInput(f"no upper sector bound for edge ({i}, {j})")
        alpha = self._alpha[at]
        if not _all(alpha):
            i, j = graph.edges[int(np.argmin(alpha != 0.0))]
            raise DegenerateInput(f"upper sector bound of edge ({i}, {j}) is zero")
        return alpha


def _gather(graph: Graph, nus: Mapping, alphas: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """theta (nu per node) and sigma (1/alpha per edge) of ``graph``, as arrays.

    ``nus`` and ``alphas`` are read as ``PassivityIndices`` and
    ``SectorBounds``, converted when they are other mappings. A missing
    index, then a missing bound, then a zero bound raises DegenerateInput
    naming its node or edge.
    """
    if not isinstance(nus, PassivityIndices):
        nus = PassivityIndices(nus)
    if not isinstance(alphas, SectorBounds):
        alphas = SectorBounds(alphas)
    theta = nus.theta(graph)
    return theta, 1.0 / alphas.alpha(graph)


def _edge_margins(
    ends: np.ndarray, theta: np.ndarray, sigma: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """``check_edge_condition`` of every edge in one pass, bit for bit.

    Edge k joins the nodes at positions ``ends[k]``, whose degrees are read
    from ``degrees``; its terms are summed in the order the scalar formula
    sums them.
    """
    at_ends = theta[ends]
    slack = (degrees[ends] - 1) * np.abs(at_ends)
    return sigma + at_ends[:, 0] + at_ends[:, 1] - slack[:, 0] - slack[:, 1]


def _require_finite(values: np.ndarray, edges, what: str) -> None:
    """DegenerateInput naming the first of ``edges`` whose value is not finite."""
    finite = np.isfinite(values)
    if not _all(finite):
        i, j = edges[int(np.argmin(finite))]
        raise DegenerateInput(f"edge ({i}, {j}): {what} is beyond the float range")


@_QUIET
def intra_edge_margins(
    graph: Graph, nus: Mapping[int, float], alphas: Mapping
) -> dict[tuple[int, int], float]:
    """Interface-condition margin for every edge of a fixed graph; a margin
    beyond the float range raises DegenerateInput naming its edge. No
    verdict calls it (they call ``_edge_margins``); the benchmark tracer
    (``perfbench/spans.py``) and the tests read it."""
    theta, sigma = _gather(graph, nus, alphas)
    margins = _edge_margins(graph.ends, theta, sigma, graph.degrees)
    _require_finite(margins, graph.edges, "interface margin")
    return dict(zip(graph.edges, margins.tolist()))


def compute_gamma_single(
    c: int, base: Graph, nus: Mapping[int, float], alphas: Mapping
) -> float:
    """Spare-margin weight at node c: min over its neighbours of margin/|nu_c|.

    Undefined when nu_c = 0 (the construction divides by |nu_c|) or when c
    has no neighbours; both raise DegenerateInput.
    """
    nu_c = float(_index_of(nus, c))
    if nu_c == 0.0:
        raise DegenerateInput(
            f"gamma is undefined at node {c}: its passivity index is zero"
        )
    neighbours = base.neighbors(c)
    if not neighbours:
        raise DegenerateInput(f"gamma is undefined at node {c}: it has no neighbours")
    r_c = base.degree(c)
    return min(
        check_edge_condition(
            nu_c, _index_of(nus, j), r_c, base.degree(j), _alpha_for(alphas, c, j)
        )
        / abs(nu_c)
        for j in neighbours
    )


@dataclass(frozen=True)
class EdgeMargin:
    edge: tuple[int, int]
    margin: float


@dataclass(frozen=True)
class BoundaryCheck:
    """Weight construction and interface margin for one boundary edge.

    Both plug certifiers build it alike: ``gamma`` is the min of the per-side
    minima, dropping a side whose attachment node has no intra-network edges
    (always the new node of a single-node plug). Only a network plug records
    them, as ``gamma_p`` (base side) and ``gamma_q`` (added side), None if dropped.
    """

    edge: tuple[int, int]
    gamma: float
    margin: float
    gamma_p: float | None = None
    gamma_q: float | None = None


@_float_arrays("s_weights", "gershgorin_margins", "intra_margins")
@dataclass(frozen=True)
class CertificateReport:
    """Everything a verdict rests on, in one serializable record.

    The verdict's positive-definiteness reading comes from a disc test
    that proves it when one does, else from a Cholesky factorisation of M (see
    ``_finish_report``). ``oracle_min_eigenvalue`` (kappa) is computed from
    ``problem`` on first access and then kept; a ``not_pd`` report already
    holds it, from the eigensolve its verdict needed. ``edge_margins`` is
    built on first read too, from ``composed_edges``, whose leading edges
    are the intra-network ones, and their margins. The float tuples are
    held as read-only arrays and built on first read.
    """

    plan_kind: str
    boundary: tuple[BoundaryCheck, ...]
    composed_edges: tuple[tuple[int, int], ...]
    s_weights: tuple[float, ...]
    gershgorin_margins: tuple[float, ...]
    gershgorin_ok: bool
    gershgorin_ok_strict: bool
    verdict: str
    strictness_tol: float
    intra_margins: tuple[float, ...] = field(repr=False)
    problem: CertificateProblem = field(compare=False, repr=False)

    @cached_property
    def edge_margins(self) -> tuple[EdgeMargin, ...]:
        return tuple(map(EdgeMargin, self.composed_edges, self.intra_margins))

    @cached_property
    def oracle_min_eigenvalue(self) -> float:
        return pd_oracle(self.problem)

    def failing_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (intra or boundary) whose interface margin is not strictly positive."""
        bad = [em.edge for em in self.edge_margins if em.margin <= self.strictness_tol]
        bad += [bc.edge for bc in self.boundary if bc.margin <= self.strictness_tol]
        return tuple(bad)

    def to_dict(self) -> dict:
        return {
            "plan_kind": self.plan_kind,
            "verdict": self.verdict,
            "edge_margins": [
                {"edge": list(em.edge), "margin": em.margin} for em in self.edge_margins
            ],
            "boundary": [
                {
                    "edge": list(bc.edge),
                    "gamma": bc.gamma,
                    "gamma_p": bc.gamma_p,
                    "gamma_q": bc.gamma_q,
                    "margin": bc.margin,
                }
                for bc in self.boundary
            ],
            "composed_edges": [list(e) for e in self.composed_edges],
            "s_weights": list(self.s_weights),
            "gershgorin": {
                "margins": list(self.gershgorin_margins),
                "ok_nonstrict": self.gershgorin_ok,
                "ok_strict": self.gershgorin_ok_strict,
            },
            "oracle_min_eigenvalue": self.oracle_min_eigenvalue,
            "strictness_tol": self.strictness_tol,
        }

    def render_table(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines.append(f"{'edge':>10}  {'margin':>12}")
        for em in self.edge_margins:
            lines.append(f"{str(em.edge):>10}  {em.margin:>12.6f}")
        for bc in self.boundary:
            parts = [f"{str(bc.edge):>10}  {bc.margin:>12.6f}  gamma={bc.gamma:.6f}"]
            if bc.gamma_p is not None:
                parts.append(f"gamma_p={bc.gamma_p:.6f}")
            if bc.gamma_q is not None:
                parts.append(f"gamma_q={bc.gamma_q:.6f}")
            lines.append("  ".join(parts) + "  [boundary]")
        lines.append(
            f"gershgorin: min margin {min(self.gershgorin_margins):.3e}  "
            f"nonstrict={'ok' if self.gershgorin_ok else 'FAIL'}  "
            f"strict={'ok' if self.gershgorin_ok_strict else 'FAIL'}"
        )
        lines.append(f"oracle min eigenvalue: {self.oracle_min_eigenvalue:.6g}")
        return "\n".join(lines)


def _disc_proves_pd(
    prob: CertificateProblem, gersh: GershgorinResult, n_boundary: int, tol: float
) -> bool:
    """Disc proof with the reported weights, else with the proof weights.

    ``gersh`` is the reported test; a test proves only when
    ``GershgorinResult.proves_pd``. Boundary edges are the last
    ``n_boundary`` of the composed graph; each with reported margin
    m_k > 0 gets the proof weight ``s_k - m_k / (2 M[k, k])``, the midpoint
    between s_k and the root of its own row margin (positive, since that
    root is nonnegative). All other weights stay as reported.
    """
    proved = gersh.proves_pd
    if proved or not n_boundary:
        return proved
    g = prob.graph
    theta, sigma, weights = prob._arrays
    weights = weights.copy()
    for k in range(g.p - n_boundary, g.p):
        margin = gersh._margins[k]
        if margin > 0.0:
            i, j = g.ends[k]
            weights[k] -= margin / (2.0 * (theta[i] + theta[j] + sigma[k]))
    return _proves_pd(*_disc_margins(g, theta, sigma, weights), tol)


def _finish_report(
    plan_kind: str,
    margins: np.ndarray,
    boundary: list[BoundaryCheck],
    composed: Graph,
    theta: np.ndarray,
    sigma: np.ndarray,
    s_weights: np.ndarray,
    tol: float,
) -> CertificateReport:
    """Verdict and report for the composed problem.

    ``margins`` are the interface margins of the intra-network edges, which
    lead ``composed.edges``; ``theta``, ``sigma`` and ``s_weights`` are the
    problem's data. Positive definiteness comes from the first of these
    that settles it: the reported disc test when it proves; for a plug, the
    disc test with the proof weights (see the module docstring) when it
    proves; a Cholesky factorisation of M; the eigenvalue oracle. Only the
    last computes kappa, and keeps it in the report; otherwise kappa is
    computed on the first read of ``oracle_min_eigenvalue``. The report
    holds the reported weights and margins whichever step decided. A gamma
    or margin beyond the float range is a DegenerateInput naming its edge.
    """
    for bc in boundary:
        if math.isinf(bc.gamma) or math.isinf(bc.margin):
            i, j = bc.edge
            raise DegenerateInput(
                f"edge ({i}, {j}): boundary gamma or margin is beyond the float range")
    prob = CertificateProblem(composed, theta, sigma, s_weights)
    _require_finite(margins, composed.edges, "interface margin")
    gersh = _gershgorin_check(prob, tol)
    kappa = None
    positive_definite = _disc_proves_pd(
        prob, gersh, len(boundary), tol
    ) or _cholesky_succeeds(certificate_matrix(prob))
    if not positive_definite:
        kappa = pd_oracle(prob)
        positive_definite = kappa > 0.0
    conditions_hold = _all(margins > tol) and all(bc.margin > tol for bc in boundary)
    if not positive_definite:
        verdict = VERDICT_NOT_PD
    else:
        verdict = VERDICT_CERTIFIED if conditions_hold else VERDICT_ORACLE_PD
    report = CertificateReport(
        plan_kind=plan_kind,
        boundary=tuple(boundary),
        composed_edges=composed.edges,
        s_weights=prob._s_weights,
        gershgorin_margins=gersh._margins,
        gershgorin_ok=gersh.ok_nonstrict,
        gershgorin_ok_strict=gersh.ok_strict,
        verdict=verdict,
        strictness_tol=tol,
        intra_margins=margins,
        problem=prob,
    )
    if kappa is not None:
        report.__dict__["oracle_min_eigenvalue"] = kappa  # the cached_property's slot
    return report


@_QUIET
def certify_fixed_network(
    graph: Graph,
    nus: Mapping[int, float],
    alphas: Mapping,
    tol: float = DEFAULT_STRICTNESS_TOL,
) -> CertificateReport:
    """Certificate for a fixed connected network: edge conditions with unit weights."""
    if graph.p == 0:
        raise DegenerateInput("network has no edges to certify")
    if not is_connected(graph):
        raise DegenerateInput("network must be connected")
    theta, sigma = _gather(graph, nus, alphas)
    margins = _edge_margins(graph.ends, theta, sigma, graph.degrees)
    return _finish_report(
        "fixed_network", margins, [], graph, theta, sigma, np.ones(graph.p), tol
    )


@_QUIET
def _plug_report(
    plan: PlugPlan, nus: Mapping[int, float], alphas: Mapping, tol: float
) -> CertificateReport:
    """``certify_network_plug``'s construction on ``plan.base`` and ``plan.added_graph``.

    One pass gives the margins of both sides' edges: a node's degree within
    its side is its composed degree less its boundary edges. Only the
    boundary edges are visited one at a time.
    """
    base, added = plan.base, plan.added_graph
    composed = compose(plan)
    theta, sigma = _gather(composed, nus, alphas)
    intra = base.p + added.p  # the composed graph's leading edges
    crossing = composed.ends[intra:]
    degrees = composed.degrees - np.bincount(crossing.ravel(), minlength=composed.n)
    margins = _edge_margins(composed.ends[:intra], theta, sigma[:intra], degrees)
    attached = [v for edge in plan.boundary for v in edge]
    nu = dict(zip(attached, theta[crossing].ravel().tolist()))
    r = dict(zip(attached, degrees[crossing].ravel().tolist()))
    boundary: list[BoundaryCheck] = []
    for (i, j), sigma_k in zip(plan.boundary, sigma[intra:].tolist()):
        b, a = (j, i) if plan.is_single_node else (i, j)  # base-side end, added-side end
        gamma_b = compute_gamma_single(b, base, nus, alphas) if r[b] else None
        gamma_a = compute_gamma_single(a, added, nus, alphas) if r[a] else None
        candidates = [g for g in (gamma_b, gamma_a) if g is not None]
        if not candidates:
            raise DegenerateInput(
                f"boundary edge ({i}, {j}): neither attachment node has "
                "intra-network edges"
            )
        gamma = min(candidates)
        margin = gamma * (sigma_k + nu[i] + nu[j]) - r[b] * abs(nu[b]) - r[a] * abs(nu[a])
        sides = {} if plan.is_single_node else {"gamma_p": gamma_b, "gamma_q": gamma_a}
        boundary.append(BoundaryCheck(edge=(i, j), gamma=gamma, margin=margin, **sides))
    s_weights = np.concatenate((  # disc test needs positive weights
        np.ones(intra), [bc.gamma if bc.gamma > 0.0 else 1.0 for bc in boundary]
    ))
    kind = "single_node" if plan.is_single_node else "network"
    return _finish_report(kind, margins, boundary, composed, theta, sigma, s_weights, tol)


def certify_single_node_plug(
    plan: PlugPlan,
    nus: Mapping[int, float],
    alphas: Mapping,
    tol: float = DEFAULT_STRICTNESS_TOL,
) -> CertificateReport:
    """Certificate for one node joining a network through a single edge.

    The network-plug construction with the one-node ``plan.added_graph``:
    gamma comes from the attachment node c alone, and the boundary
    condition reads ``gamma (1/alpha + nu_new + nu_c) - r_c |nu_c|``.
    """
    if not plan.is_single_node:
        raise GraphError("expected a single-node plug plan")
    if plan.base.p == 0:
        raise DegenerateInput(
            "base network has no edges: gamma has no edge conditions to draw on"
        )
    if not is_connected(plan.base):
        raise DegenerateInput("base network must be connected")
    return _plug_report(plan, nus, alphas, tol)


def certify_network_plug(
    plan: PlugPlan,
    nus: Mapping[int, float],
    alphas: Mapping,
    tol: float = DEFAULT_STRICTNESS_TOL,
) -> CertificateReport:
    """Certificate for joining two networks through boundary edges.

    Every boundary edge (p, q) gets gamma_p from p's intra-network edge
    conditions and gamma_q from q's; when one attachment node has no
    intra-network edges its term is dropped (that side degenerates to the
    single-node case). Both missing is rejected. The boundary condition is
    ``gamma_pq (1/alpha_pq + nu_p + nu_q) - r_p |nu_p| - r_q |nu_q|`` with
    degrees taken within each node's own subnetwork.
    """
    if plan.is_single_node:
        raise GraphError("expected a network plug plan")
    violation = assumption_1_violation(plan)
    if violation is not None:
        raise AssumptionViolation(
            f"boundary edges {violation[0]} and {violation[1]} attach to "
            "shared or adjacent nodes"
        )
    if not is_connected(plan.base) or not is_connected(plan.added):
        raise DegenerateInput("both subnetworks must be connected")
    return _plug_report(plan, nus, alphas, tol)
