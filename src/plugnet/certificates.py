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

The proof does not ask for the reported margins to be exactly >= 0 and
reuse Taussky's theorem on irreducibly diagonally dominant matrices: the
zero row is zero only in exact arithmetic and reads a few 1e-16 below zero
about as often as it reads zero, so that test would decide by rounding.
The midpoint weights give the zero row a slack that scales with the
boundary margin instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import mul
from typing import Mapping

import numpy as np

from .errors import AssumptionViolation, DegenerateInput, GraphError
from .graph import Graph, PlugPlan, assumption_1_violation, compose, is_connected

DEFAULT_STRICTNESS_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = math.ulp(0.0)  # the smallest subnormal

VERDICT_CERTIFIED = "certified"
VERDICT_ORACLE_PD = "gershgorin_failed_oracle_pd"
VERDICT_NOT_PD = "not_pd"


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
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "sigma", tuple(float(v) for v in self.sigma))
        object.__setattr__(self, "s_weights", tuple(float(v) for v in self.s_weights))
        if len(self.theta) != self.graph.n:
            raise GraphError(
                f"theta has {len(self.theta)} entries for {self.graph.n} nodes"
            )
        if len(self.sigma) != self.graph.p or len(self.s_weights) != self.graph.p:
            raise GraphError(
                f"sigma/s_weights must have one entry per edge ({self.graph.p})"
            )
        for name in ("theta", "sigma", "s_weights"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise DegenerateInput(f"{name} must be finite")
        if any(s <= 0.0 for s in self.s_weights):
            raise GraphError("s_weights must be strictly positive")


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
        bound = max(self.tol, 0.0) + self.rounding
        return all(m > bound for m in self.margins)


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
    """
    g = prob.graph
    theta = dict(zip(g.node_ids, prob.theta))
    total = dict.fromkeys(g.node_ids, 0.0)
    for (i, j), s_k in zip(g.edges, prob.s_weights):
        total[i] += s_k
        total[j] += s_k
    margins = tuple(
        s_k * (theta[i] + theta[j] + sigma_k)
        - abs(theta[i]) * (total[i] - s_k)
        - abs(theta[j]) * (total[j] - s_k)
        for (i, j), s_k, sigma_k in zip(g.edges, prob.s_weights, prob.sigma)
    )
    # theta and total both follow node_ids
    largest_terms = max(map(abs, map(mul, prob.s_weights, prob.sigma)), default=0.0)
    largest_terms += 6.0 * max(map(mul, map(abs, prob.theta), total.values()), default=0.0)
    rounding = (2 * g.max_degree + 4) * (_EPS * largest_terms + _TINY)
    return GershgorinResult(
        margins=margins,
        ok_strict=all(m >= tol for m in margins),
        ok_nonstrict=all(m >= -tol for m in margins),
        tol=tol,
        rounding=rounding,
    )


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
    # Position of the node at end 2k (positive) and 2k + 1 (negative) of edge k.
    ends = np.array([g.index(v) for edge in g.edges for v in edge], dtype=np.intp)
    order = ends.argsort(kind="stable")  # ends grouped by node
    edge = order >> 1
    sign = _END_SIGN[order & 1]
    weight = sign * np.array(prob.theta)[ends[order]]
    # Each end pairs with every end at its node, itself included: the end at
    # sorted position a owns size[a] consecutive pairs, and pair t of them
    # (counted over all pairs) has its partner at sorted position offset[a] + t.
    counts = np.bincount(ends)
    size = counts.repeat(counts)
    offset = counts.cumsum().repeat(counts) - size.cumsum()
    partner = offset.repeat(size) + np.arange(size.sum())
    flat = (edge * p).repeat(size) + edge[partner]
    m = np.bincount(flat, weight.repeat(size) * sign[partner], p * p).reshape(p, p)
    m.ravel()[:: p + 1] += prob.sigma  # ravel of the fresh array is a view
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
    for key in ((i, j), (j, i)):
        if key in alphas:
            return float(alphas[key])
    raise KeyError(f"no upper sector bound for edge ({i}, {j})")


def intra_edge_margins(
    graph: Graph, nus: Mapping[int, float], alphas: Mapping
) -> dict[tuple[int, int], float]:
    """Interface-condition margin for every edge of a fixed graph."""
    return {
        (i, j): check_edge_condition(
            nus[i], nus[j], graph.degree(i), graph.degree(j), _alpha_for(alphas, i, j)
        )
        for i, j in graph.edges
    }


def compute_gamma_single(
    c: int, base: Graph, nus: Mapping[int, float], alphas: Mapping
) -> float:
    """Spare-margin weight at node c: min over its neighbours of margin/|nu_c|.

    Undefined when nu_c = 0 (the construction divides by |nu_c|) or when c
    has no neighbours; both raise DegenerateInput.
    """
    nu_c = float(nus[c])
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
            nu_c, nus[j], r_c, base.degree(j), _alpha_for(alphas, c, j)
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


@dataclass(frozen=True)
class CertificateReport:
    """Everything a verdict rests on, in one serializable record.

    The verdict's positive-definiteness reading comes from a disc test
    that proves it when one does, else from a Cholesky factorisation of M (see
    ``_finish_report``). ``oracle_min_eigenvalue`` (kappa) is computed from
    ``problem`` on first access and then kept; a ``not_pd`` report already
    holds it, from the eigensolve its verdict needed.
    """

    plan_kind: str
    edge_margins: tuple[EdgeMargin, ...]
    boundary: tuple[BoundaryCheck, ...]
    composed_edges: tuple[tuple[int, int], ...]
    s_weights: tuple[float, ...]
    gershgorin_margins: tuple[float, ...]
    gershgorin_ok: bool
    gershgorin_ok_strict: bool
    verdict: str
    strictness_tol: float
    problem: CertificateProblem = field(compare=False, repr=False)

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


def _composed_problem(
    composed: Graph,
    nus: Mapping[int, float],
    alphas: Mapping,
    s_weights: tuple[float, ...],
) -> CertificateProblem:
    theta = tuple(float(nus[i]) for i in composed.node_ids)
    sigma = tuple(1.0 / _alpha_for(alphas, i, j) for i, j in composed.edges)
    return CertificateProblem(composed, theta, sigma, s_weights)


def _verdict(condition_margins: list[float], positive_definite: bool, tol: float) -> str:
    if all(m > tol for m in condition_margins) and positive_definite:
        return VERDICT_CERTIFIED
    return VERDICT_ORACLE_PD if positive_definite else VERDICT_NOT_PD


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
    if gersh.proves_pd or not n_boundary:
        return gersh.proves_pd
    g = prob.graph
    theta = dict(zip(g.node_ids, prob.theta))
    weights = list(prob.s_weights)
    for k in range(g.p - n_boundary, g.p):
        margin = gersh.margins[k]
        if margin > 0.0:
            i, j = g.edges[k]
            weights[k] -= margin / (2.0 * (theta[i] + theta[j] + prob.sigma[k]))
    return gershgorin_pd_check(replace(prob, s_weights=tuple(weights)), tol).proves_pd


def _finish_report(
    plan_kind: str,
    margins: dict[tuple[int, int], float],
    boundary: list[BoundaryCheck],
    composed: Graph,
    nus: Mapping[int, float],
    alphas: Mapping,
    s_weights: tuple[float, ...],
    tol: float,
) -> CertificateReport:
    """Verdict and report for the composed problem.

    Positive definiteness comes from the first of these that settles it:
    the reported disc test when it proves; for a plug, the disc test with
    the proof weights (see the module docstring) when it proves; a Cholesky
    factorisation of M; the eigenvalue oracle. Only the last computes
    kappa, and keeps it in the report; otherwise kappa is computed on the
    first read of ``oracle_min_eigenvalue``. The report holds the reported
    weights and margins whichever step decided.
    """
    prob = _composed_problem(composed, nus, alphas, s_weights)
    gersh = gershgorin_pd_check(prob, tol)
    kappa = None
    positive_definite = _disc_proves_pd(
        prob, gersh, len(boundary), tol
    ) or _cholesky_succeeds(certificate_matrix(prob))
    if not positive_definite:
        kappa = pd_oracle(prob)
        positive_definite = kappa > 0.0
    condition_margins = list(margins.values()) + [bc.margin for bc in boundary]
    report = CertificateReport(
        plan_kind=plan_kind,
        edge_margins=tuple(EdgeMargin(e, m) for e, m in margins.items()),
        boundary=tuple(boundary),
        composed_edges=composed.edges,
        s_weights=s_weights,
        gershgorin_margins=gersh.margins,
        gershgorin_ok=gersh.ok_nonstrict,
        gershgorin_ok_strict=gersh.ok_strict,
        verdict=_verdict(condition_margins, positive_definite, tol),
        strictness_tol=tol,
        problem=prob,
    )
    if kappa is not None:
        report.__dict__["oracle_min_eigenvalue"] = kappa  # the cached_property's slot
    return report


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
    margins = intra_edge_margins(graph, nus, alphas)
    return _finish_report(
        "fixed_network", margins, [], graph, nus, alphas, (1.0,) * graph.p, tol
    )


def _plug_report(
    plan: PlugPlan, nus: Mapping[int, float], alphas: Mapping, tol: float
) -> CertificateReport:
    """``certify_network_plug``'s construction on ``plan.base`` and ``plan.added_graph``."""
    base, added = plan.base, plan.added_graph
    margins = {**intra_edge_margins(base, nus, alphas), **intra_edge_margins(added, nus, alphas)}
    boundary: list[BoundaryCheck] = []
    for i, j in plan.boundary:
        b, a = (j, i) if plan.is_single_node else (i, j)  # base-side end, added-side end
        gamma_b, gamma_a = (
            compute_gamma_single(v, side, nus, alphas) if side.degree(v) > 0 else None
            for v, side in ((b, base), (a, added))
        )
        candidates = [g for g in (gamma_b, gamma_a) if g is not None]
        if not candidates:
            raise DegenerateInput(
                f"boundary edge ({i}, {j}): neither attachment node has "
                "intra-network edges"
            )
        gamma = min(candidates)
        margin = gamma * (
            1.0 / _alpha_for(alphas, i, j) + float(nus[i]) + float(nus[j])
        ) - base.degree(b) * abs(float(nus[b])) - added.degree(a) * abs(float(nus[a]))
        sides = {} if plan.is_single_node else {"gamma_p": gamma_b, "gamma_q": gamma_a}
        boundary.append(BoundaryCheck(edge=(i, j), gamma=gamma, margin=margin, **sides))
    s_weights = (1.0,) * (base.p + added.p) + tuple(  # disc test needs positive weights
        bc.gamma if bc.gamma > 0.0 else 1.0 for bc in boundary
    )
    kind = "single_node" if plan.is_single_node else "network"
    return _finish_report(kind, margins, boundary, compose(plan), nus, alphas, s_weights, tol)


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
