"""Consensus quantification: disagreement and empirical gain over truncated norms.

The consensus notion is input-output: edge disagreement of the outputs
stays bounded by a scaled edge disagreement of the noise plus a transient
offset, ``|D^T Y|_T <= rho |D^T W|_T + sigma`` at every horizon T. One
trajectory cannot identify the system's true (rho, sigma); the estimator
returns a feasible pair for the observed data (least-squares rho, then the
smallest sigma that makes the inequality hold at every sampled horizon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlugnetError
from .graph import Graph
# Not called here: the benchmark tracer still wraps this name in this
# module, until ROADMAP item 1 moves the spans into plugnet.
from .graph import incidence  # noqa: F401
from .sim import TrajectoryRecord


def _squared_cumulative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Trapezoidal cumulative integral of the squared Euclidean norm."""
    g = values * values
    if g.ndim == 2:
        g = g.sum(axis=1)
    seg = 0.5 * (g[1:] + g[:-1]) * np.diff(times)
    return np.concatenate(([0.0], np.cumsum(seg)))


def _edge_differences(traj: TrajectoryRecord, graph: Graph,
                      signals: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """``D^T s`` over ``graph``'s edges for each recorded signal ``s``.

    Gathered per edge, head minus tail as ``Graph.ends`` orients it, into a
    C-ordered array, whose row sums round as over the product ``s @ D``. The
    graph may cover a subset of the recorded nodes. An edge adds zero at a
    sample where an output end is unrecorded (NaN), as before a node joins.
    """
    cols = np.array([traj.column(node) for node in graph.node_ids], dtype=np.intp)
    heads, tails = cols[graph.ends.T]
    idle = np.isnan(traj.outputs[:, heads]) | np.isnan(traj.outputs[:, tails])
    diffs = [np.subtract(s[:, heads], s[:, tails], order="C") for s in signals]
    for diff in diffs:
        diff[idle] = 0.0
    return diffs


def disagreement(traj: TrajectoryRecord, graph: Graph) -> np.ndarray:
    """Pointwise Euclidean norm of the edge output differences |D^T Y(t)|.

    See ``_edge_differences`` for subgraphs and unrecorded samples.
    """
    (edge_diffs,) = _edge_differences(traj, graph, (traj.outputs,))
    return np.linalg.norm(edge_diffs, axis=1)


@dataclass(frozen=True)
class ConsensusEstimate:
    """Feasible (rho, sigma) for the observed horizons, plus the samples used.

    ``samples`` rows are (T, |D^T Y|_T, |D^T W|_T). ``satisfied`` means the
    fit produced finite values and the inequality holds at every sampled
    horizon (by construction after the minimal sigma inflation).
    """

    rho_hat: float
    sigma_hat: float
    samples: tuple[tuple[float, float, float], ...]
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "rho_hat": self.rho_hat,
            "sigma_hat": self.sigma_hat,
            "satisfied": self.satisfied,
            "samples": [
                {"T": t, "edge_output_norm": y, "edge_noise_norm": w}
                for t, y, w in self.samples
            ],
        }


def record_span(traj: TrajectoryRecord) -> float:
    """The last sample time of a record with at least two samples spanning a
    positive time, at strictly increasing times; any other record raises
    PlugnetError."""
    times = traj.times
    if not (len(times) >= 2 and times[-1] > times[0]):
        raise PlugnetError(f"a trajectory needs at least two samples spanning a positive "
                           f"time, got {len(times)} sample(s)")
    if not np.all(np.diff(times) > 0.0):
        raise PlugnetError("sample times must increase strictly")
    return float(times[-1])


def default_horizons(t_end: float, count: int = 50) -> np.ndarray:
    """``count`` log-spaced horizons up to ``t_end``, none beyond it."""
    lo = min(0.1, t_end / 10.0)
    horizons = np.logspace(np.log10(lo), np.log10(t_end), count)
    horizons[-1] = min(horizons[-1], t_end)  # logspace may overshoot by an ulp
    return horizons


def fit_gain_offset(noise_norms: np.ndarray, output_norms: np.ndarray) -> tuple[float, float]:
    """Least-squares (rho, sigma) with both nonnegative, then the minimal
    sigma inflation making ``output <= rho * noise + sigma`` hold at every
    sample. With all-zero noise the gain is free and sigma carries it all.
    """
    w_t = np.asarray(noise_norms, dtype=float)
    y_t = np.asarray(output_norms, dtype=float)
    if np.all(w_t == 0.0):
        rho, sigma = 0.0, float(y_t.max())
    else:
        a = np.column_stack([w_t, np.ones_like(w_t)])
        (rho, sigma), *_ = np.linalg.lstsq(a, y_t, rcond=None)
        if sigma < 0.0:
            sigma = 0.0
            rho = float(w_t @ y_t) / float(w_t @ w_t)
        if rho < 0.0:
            rho = 0.0
            sigma = float(y_t.max())
    sigma = float(sigma) + max(0.0, float(np.max(y_t - rho * w_t - sigma)))
    return float(rho), sigma


def estimate_io_gain(
    traj: TrajectoryRecord, graph: Graph, horizons: np.ndarray | None = None
) -> ConsensusEstimate:
    """Fit a feasible gain/offset pair over a grid of horizons.

    Norms come from the trapezoid rule on the recorded sampling grid; the
    fit is ``fit_gain_offset`` on the per-horizon norm pairs. An edge adds
    nothing at a sample where one of its ends is not recorded yet. The
    record must pass ``record_span``; a horizon outside the recorded span
    and an edge norm that overflows the float range raise PlugnetError.
    """
    t_end = record_span(traj)
    if horizons is None:
        horizons = default_horizons(t_end)
    horizons = np.asarray(horizons, dtype=float)
    if horizons.size < 2:
        raise ValueError("need at least two horizons")
    outside = horizons[~((traj.times[0] <= horizons) & (horizons <= t_end))]
    if outside.size:
        raise PlugnetError(f"horizon {outside[0]} outside recorded span [{traj.times[0]}, {t_end}]")

    dy, dw = _edge_differences(traj, graph, (traj.outputs, traj.noise))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        y_cum = _squared_cumulative(traj.times, dy)
        w_cum = _squared_cumulative(traj.times, dw)
        y_t = np.sqrt(np.interp(horizons, traj.times, y_cum))
        w_t = np.sqrt(np.interp(horizons, traj.times, w_cum))
    if not (np.isfinite(y_t).all() and np.isfinite(w_t).all()):
        raise PlugnetError("an edge norm overflows the float range")

    rho, sigma = fit_gain_offset(w_t, y_t)
    satisfied = bool(np.isfinite(rho) and np.isfinite(sigma))
    samples = tuple(
        (float(t), float(y), float(w)) for t, y, w in zip(horizons, y_t, w_t)
    )
    return ConsensusEstimate(rho_hat=rho, sigma_hat=sigma, samples=samples, satisfied=satisfied)


def analytic_gain_bound(kappa: float, alpha_lower_min: float) -> float:
    """Informational closed-form gain bound 1/(kappa * alpha_lower) + 1.

    Valid when the certificate matrix is positive definite with smallest
    eigenvalue kappa; never asserted against the empirical fit because the
    offset's value is unknown.
    """
    if kappa <= 0.0 or alpha_lower_min <= 0.0:
        raise ValueError("bound requires kappa > 0 and a positive lower sector bound")
    return 1.0 / (kappa * alpha_lower_min) + 1.0
