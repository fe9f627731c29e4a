from __future__ import annotations

import warnings

import numpy as np
import pytest

from plugnet.errors import PlugnetError
from plugnet.graph import Graph, incidence
from plugnet.metrics import (
    analytic_gain_bound,
    disagreement,
    estimate_io_gain,
    fit_gain_offset,
    record_span,
    truncated_norm,
)
from plugnet.sim import TrajectoryRecord


def _record(times, outputs, noise=None, ids=(1, 2)):
    outputs = np.asarray(outputs, dtype=float)
    if noise is None:
        noise = np.zeros_like(outputs)
    return TrajectoryRecord(
        node_ids=tuple(ids),
        times=np.asarray(times, dtype=float),
        outputs=outputs,
        inputs=np.zeros_like(outputs),
        noise=np.asarray(noise, dtype=float),
    )


# --- truncated norm -------------------------------------------------------------


def test_truncated_norm_constant_scalar():
    t = np.linspace(0, 5, 501)
    assert truncated_norm(t, np.ones_like(t), 4.0) == pytest.approx(2.0)


def test_truncated_norm_constant_vector():
    t = np.linspace(0, 2, 201)
    x = np.ones((201, 2))
    assert truncated_norm(t, x, 1.0) == pytest.approx(np.sqrt(2.0))


def test_truncated_norm_ramp_against_quadrature():
    # integral of t^2 over [0, 1] is 1/3; trapezoid error is O(dt^2)
    t = np.linspace(0, 1, 1001)
    got = truncated_norm(t, t.copy(), 1.0)
    assert got == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)


def test_truncated_norm_monotone_in_horizon():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 3, 301)
    x = rng.standard_normal((301, 2))
    norms = [truncated_norm(t, x, h) for h in np.linspace(0.1, 3.0, 30)]
    assert np.all(np.diff(norms) >= -1e-12)


def test_truncated_norm_interpolates_between_samples():
    t = np.array([0.0, 1.0, 2.0])
    x = np.ones(3)
    assert truncated_norm(t, x, 1.5) == pytest.approx(np.sqrt(1.5))


def test_truncated_norm_rejects_bad_horizon():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        truncated_norm(t, np.ones_like(t), 2.0)
    with pytest.raises(ValueError):
        truncated_norm(np.empty(0), np.empty(0), 0.5)


# --- disagreement ---------------------------------------------------------------


def test_disagreement_zero_for_identical_outputs():
    t = np.linspace(0, 1, 11)
    traj = _record(t, np.column_stack([np.sin(t), np.sin(t)]))
    g = Graph([1, 2], [(1, 2)])
    assert np.all(disagreement(traj, g) == 0.0)


def test_disagreement_constant_offset():
    t = np.linspace(0, 1, 11)
    traj = _record(t, np.column_stack([np.ones_like(t), np.zeros_like(t)]))
    g = Graph([1, 2], [(1, 2)])
    assert np.allclose(disagreement(traj, g), 1.0)


def test_disagreement_invariant_to_common_signal():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 1, 51)
    base = rng.standard_normal((51, 3))
    common = np.cos(3 * t)[:, None]
    g = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    a = disagreement(_record(t, base, ids=(1, 2, 3)), g)
    b = disagreement(_record(t, base + common, ids=(1, 2, 3)), g)
    assert np.allclose(a, b, atol=1e-12)


def test_disagreement_subgraph_selects_columns():
    t = np.linspace(0, 1, 11)
    outputs = np.column_stack([np.ones_like(t), np.zeros_like(t), 5 * np.ones_like(t)])
    traj = _record(t, outputs, ids=(1, 2, 3))
    assert np.allclose(disagreement(traj, Graph([1, 2], [(1, 2)])), 1.0)
    with pytest.raises(ValueError):
        disagreement(traj, Graph([1, 9], [(1, 9)]))


def test_disagreement_without_nan_is_the_plain_product():
    # a record with every output recorded keeps the incidence product bit
    # for bit; on the wide ring the row sums see the differences' memory order
    rng = np.random.default_rng(2)
    t = np.linspace(0, 1, 41)
    square = Graph.from_pairs([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    ring = Graph.from_pairs(range(1, 41), [(i, i % 40 + 1) for i in range(1, 41)])
    for g in (square, ring):
        outputs = rng.standard_normal((41, g.n))
        d = incidence(g).astype(float)
        got = disagreement(_record(t, outputs, ids=g.node_ids), g)
        assert np.array_equal(got, np.linalg.norm(outputs @ d, axis=1))


def test_unrecorded_end_adds_zero():
    # node 3 joins at the sixth sample: edge 2-3 counts from then on, in
    # the output and in the noise disagreement alike
    rng = np.random.default_rng(5)
    t = np.linspace(0, 2, 21)
    outputs = rng.standard_normal((21, 3))
    noise = rng.standard_normal((21, 3))
    late = outputs.copy()
    late[:5, 2] = np.nan
    g = Graph.from_pairs([1, 2, 3], [(1, 2), (2, 3)])
    traj = _record(t, late, noise=noise, ids=(1, 2, 3))
    dy = np.column_stack([outputs[:, 0] - outputs[:, 1], outputs[:, 1] - outputs[:, 2]])
    dw = np.column_stack([noise[:, 0] - noise[:, 1], noise[:, 1] - noise[:, 2]])
    dy[:5, 1] = 0.0
    dw[:5, 1] = 0.0
    assert np.allclose(disagreement(traj, g), np.linalg.norm(dy, axis=1), rtol=1e-14, atol=0)
    est = estimate_io_gain(traj, g, horizons=t[1:])
    assert est.satisfied and np.isfinite(est.rho_hat)
    for (_, y, w), horizon in zip(est.samples, t[1:]):
        keep = t <= horizon
        assert y == pytest.approx(truncated_norm(t[keep], dy[keep], horizon), rel=1e-12)
        assert w == pytest.approx(truncated_norm(t[keep], dw[keep], horizon), rel=1e-12)


# --- gain estimation -------------------------------------------------------------


def test_fit_gain_offset_exact_linear_data():
    w = np.linspace(0.5, 4.0, 20)
    y = 2.0 * w + 1.0
    rho, sigma = fit_gain_offset(w, y)
    assert rho == pytest.approx(2.0)
    assert sigma == pytest.approx(1.0)


def test_fit_gain_offset_zero_noise():
    y = np.array([0.3, 0.8, 1.1, 1.1])
    rho, sigma = fit_gain_offset(np.zeros(4), y)
    assert rho == 0.0
    assert sigma == pytest.approx(1.1)


def test_fit_gain_offset_never_negative_offset():
    w = np.linspace(1.0, 2.0, 10)
    y = 3.0 * w - 0.5  # unconstrained offset would be negative
    rho, sigma = fit_gain_offset(w, y)
    assert sigma >= 0.0
    assert np.all(y <= rho * w + sigma + 1e-12)


def test_estimate_zero_noise_consensus_run():
    # decaying disagreement, no noise: rho free (0), sigma = sup_T norm
    t = np.linspace(0, 10, 1001)
    y1 = np.exp(-t)
    traj = _record(t, np.column_stack([y1, -y1]))
    g = Graph([1, 2], [(1, 2)])
    est = estimate_io_gain(traj, g)
    assert est.satisfied
    assert est.rho_hat == 0.0
    assert est.sigma_hat == pytest.approx(max(s[1] for s in est.samples))
    assert all(y <= est.rho_hat * w + est.sigma_hat + 1e-12 for _, y, w in est.samples)


def test_estimate_self_consistency_on_noisy_record():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 20, 2001)
    outputs = rng.standard_normal((2001, 2)) * 0.1
    noise = rng.standard_normal((2001, 2)) * 0.5
    traj = _record(t, outputs, noise=noise)
    est = estimate_io_gain(traj, Graph([1, 2], [(1, 2)]))
    assert est.satisfied
    assert all(y <= est.rho_hat * w + est.sigma_hat + 1e-9 for _, y, w in est.samples)


def test_estimate_scaling_moves_offset_not_gain():
    rng = np.random.default_rng(4)
    t = np.linspace(0, 20, 2001)
    outputs = rng.standard_normal((2001, 2)) * 0.1
    noise = rng.standard_normal((2001, 2)) * 0.5
    g = Graph([1, 2], [(1, 2)])
    base = estimate_io_gain(_record(t, outputs, noise=noise), g)
    c = 2.5
    scaled = estimate_io_gain(_record(t, c * outputs, noise=c * noise), g)
    assert scaled.rho_hat == pytest.approx(base.rho_hat)
    assert scaled.sigma_hat == pytest.approx(c * base.sigma_hat)


@pytest.mark.parametrize("times", [[0.0], [0.0, 0.0], [2.0, 1.0]],
                         ids=["one_sample", "zero_span", "backwards"])
def test_estimate_requires_two_samples_spanning_a_positive_time(times):
    traj = _record(times, np.ones((len(times), 2)))
    with pytest.raises(PlugnetError, match="at least two samples spanning a positive time"):
        record_span(traj)
    with pytest.raises(PlugnetError, match="at least two samples spanning a positive time"):
        estimate_io_gain(traj, Graph([1, 2], [(1, 2)]), horizons=np.array([0.5, 1.0]))
    assert record_span(_record([0.0, 0.5], np.ones((2, 2)))) == 0.5


@pytest.mark.parametrize("times", [[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0]],
                         ids=["swapped", "repeated"])
def test_record_span_requires_strictly_increasing_times(times):
    with pytest.raises(PlugnetError, match="sample times must increase strictly"):
        record_span(_record(times, np.ones((len(times), 2))))


@pytest.mark.parametrize("signal", ["outputs", "noise"])
def test_estimate_rejects_an_edge_norm_that_overflows(signal):
    # a finite 1e300 squares to inf: an error, not a fit over non-finite norms
    t = np.linspace(0.0, 1.0, 11)
    values = {"outputs": np.zeros((11, 2)), "noise": np.zeros((11, 2))}
    values[signal][5, 0] = 1e300
    traj = _record(t, values["outputs"], noise=values["noise"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        with pytest.raises(PlugnetError, match="an edge norm overflows the float range"):
            estimate_io_gain(traj, Graph([1, 2], [(1, 2)]), horizons=np.array([0.5, 1.0]))


def test_estimate_requires_two_horizons():
    t = np.linspace(0, 1, 11)
    traj = _record(t, np.ones((11, 2)))
    with pytest.raises(ValueError):
        estimate_io_gain(traj, Graph([1, 2], [(1, 2)]), horizons=np.array([0.5]))


def test_analytic_gain_bound():
    assert analytic_gain_bound(0.5, 0.4) == pytest.approx(1.0 / 0.2 + 1.0)
    with pytest.raises(ValueError):
        analytic_gain_bound(-1.0, 0.4)
