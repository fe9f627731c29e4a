"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from helpers import fig2_scenario, first_plugged_sample

from plugnet.certificates import (
    CertificateProblem,
    certify_fixed_network,
    certify_network_plug,
    gershgorin_pd_check,
    pd_oracle,
)
from plugnet.cli import main
from plugnet.graph import Graph
from plugnet.metrics import disagreement, estimate_io_gain
from plugnet.passivity import estimate_ifp_index, linear_gain, realize
from plugnet.scenario import parse_scenario_dict, paper_example, write_scenario
from plugnet.sim import NoiseSpec, Scenario, SolverConfig, run


def test_criterion_1_certificate_reproduction():
    t0 = time.perf_counter()
    doc = parse_scenario_dict(paper_example())
    nus, alphas = doc.certificate_inputs()
    report = certify_network_plug(doc.plug_plan(doc.plug_entries[0]), nus, alphas)
    elapsed = time.perf_counter() - t0

    by_edge = {bc.edge: bc for bc in report.boundary}
    assert by_edge[(1, 5)].gamma == pytest.approx(0.4667, abs=1e-3)
    assert by_edge[(4, 7)].gamma == pytest.approx(0.3589, abs=1e-3)
    assert by_edge[(1, 5)].margin == pytest.approx(0.0147, abs=5e-4)
    assert by_edge[(4, 7)].margin == pytest.approx(0.0168, abs=5e-4)
    assert len(report.edge_margins) == 6
    assert all(em.margin > 0.0 for em in report.edge_margins)
    assert report.verdict == "certified"
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS certificate reproduction "
          f"(gamma_15={by_edge[(1, 5)].gamma:.4f}, gamma_47={by_edge[(4, 7)].gamma:.4f}, "
          f"margins {by_edge[(1, 5)].margin:.4f}/{by_edge[(4, 7)].margin:.4f}, "
          f"{elapsed * 1e3:.0f} ms)")


def test_criterion_2_lemma_soundness():
    rng = np.random.default_rng(20250810)

    def random_connected_graph():
        n = int(rng.integers(2, 9))
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        extra = sorted({(i, j) for i in range(n) for j in range(i + 1, n)} - set(pairs))
        for e in extra:
            if len(pairs) >= 14:
                break
            if rng.random() < 0.25:
                pairs.append(e)
        return Graph.from_pairs(range(n), pairs)

    t0 = time.perf_counter()
    premise_held = 0
    for _ in range(1000):
        g = random_connected_graph()
        prob = CertificateProblem(
            g,
            theta=tuple(rng.uniform(-1, 1, g.n)),
            sigma=tuple(rng.uniform(0, 2, g.p)),
            s_weights=tuple(rng.uniform(0.1, 3.0, g.p)),
        )
        if gershgorin_pd_check(prob).ok_strict:
            premise_held += 1
            assert pd_oracle(prob) > 0.0, "sufficient condition held but M not PD"
    elapsed = time.perf_counter() - t0
    assert premise_held > 50  # sampling must exercise the implication
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS lemma soundness "
          f"(1000 graphs, premise held {premise_held}x, 0 counterexamples, "
          f"{elapsed:.2f} s)")


def test_criterion_3_ifp_estimator():
    idx_h1 = estimate_ifp_index(realize([1, 1], [1, 0.7, 0]))
    assert idx_h1.nu == pytest.approx(-0.3 / 0.49, abs=1e-3)  # closed-form oracle
    idx_lag = estimate_ifp_index(realize([1], [1, 1]))
    assert idx_lag.nu == pytest.approx(0.0, abs=1e-3)
    k = 2.75
    assert estimate_ifp_index(realize([k], [1])).nu == k

    doc = parse_scenario_dict(paper_example())
    sweeps = doc.sweep_indices()
    print("\n[criterion 3] sweep vs declared indices (no equality asserted):")
    for node_id in sorted(sweeps):
        declared = doc.nodes[node_id].declared_nu
        print(f"    node {node_id}: sweep {sweeps[node_id].nu:+.4f}   declared {declared:+.4f}")
        assert np.isfinite(sweeps[node_id].nu)
    print(f"[criterion 3] PASS ifp estimator "
          f"(nu_hat(H1)={idx_h1.nu:.4f} vs {-0.3 / 0.49:.4f})")


def test_criterion_4_simulation_oracle_and_order():
    integrator = realize([1], [1, 0])
    a = 1.0

    def scenario(dt):
        return Scenario(
            systems={1: integrator, 2: integrator},
            initial_graph=Graph([1, 2], [(1, 2)]),
            couplings={(1, 2): linear_gain(a)},
            noise=NoiseSpec(scale=0.0, seed=0),
            solver=SolverConfig(dt=dt, t_end=5.0, sample_stride=max(1, int(round(0.1 / dt)))),
            initial_outputs={1: 1.0, 2: -1.0},
        )

    traj = run(scenario(1e-3))
    delta = traj.outputs[:, 0] - traj.outputs[:, 1]
    exact = 2.0 * np.exp(-2.0 * a * traj.times)
    rel_err = float(np.max(np.abs(delta - exact) / np.abs(exact)))
    assert rel_err < 1e-5

    finals = []
    for dt in (0.1, 0.05, 0.025):
        t = run(scenario(dt))
        finals.append(t.outputs[-1])
    ratio = float(np.linalg.norm(finals[0] - finals[1])
                  / np.linalg.norm(finals[1] - finals[2]))
    assert 8.0 <= ratio <= 32.0
    print(f"\n[criterion 4] PASS simulation oracle "
          f"(max rel err {rel_err:.2e}, halving ratio {ratio:.1f})")


def test_criterion_5_qualitative_example_reproduction():
    t0 = time.perf_counter()
    doc = parse_scenario_dict(paper_example())
    scenario = doc.build_scenario()
    traj = run(scenario)

    g1, g2 = doc.graphs["g1"], doc.graphs["g2"]
    full = doc.final_graph()
    d1 = disagreement(traj, g1)
    d2 = disagreement(traj, g2)
    df = disagreement(traj, full)

    i14 = int(np.argmin(np.abs(traj.times - 14.0)))
    i_plug = first_plugged_sample(scenario)
    ratio_g1 = d1[i14] / d1[0]
    ratio_g2 = d2[i14] / d2[0]
    ratio_full = df[-1] / df[i_plug]
    assert ratio_g1 < 0.10, f"within-subnetwork ratio for g1: {ratio_g1}"
    assert ratio_g2 < 0.10, f"within-subnetwork ratio for g2: {ratio_g2}"
    assert ratio_full < 0.10, f"global ratio after the plug: {ratio_full}"

    est = estimate_io_gain(traj, full)
    assert est.satisfied
    assert np.isfinite(est.rho_hat) and np.isfinite(est.sigma_hat)
    assert all(y <= est.rho_hat * w + est.sigma_hat + 1e-9 for _, y, w in est.samples)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[criterion 5] PASS qualitative reproduction "
          f"(g1 {ratio_g1:.3f}, g2 {ratio_g2:.3f}, global {ratio_full:.3f}, "
          f"rho={est.rho_hat:.3f}, sigma={est.sigma_hat:.3f}, {elapsed:.1f} s)")


def test_criterion_6_zero_noise_certified_consensus():
    rng = np.random.default_rng(61)
    passed = 0
    for trial in range(20):
        n = int(rng.integers(3, 6))
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        extra = sorted({(i, j) for i in range(n) for j in range(i + 1, n)} - set(pairs))
        pairs += [e for e in extra if rng.random() < 0.2]
        g = Graph.from_pairs(range(n), pairs)

        systems = {}
        nus = {}
        for i in g.node_ids:
            z = float(rng.uniform(0.7, 1.1))
            p = float(z * rng.uniform(0.65, 0.9))
            systems[i] = realize([1.0, z], [1.0, p, 0.0])
            nus[i] = estimate_ifp_index(systems[i]).nu
        couplings = {}
        for i, j in g.edges:
            need = g.degree(i) * abs(nus[i]) + g.degree(j) * abs(nus[j])
            couplings[(i, j)] = linear_gain(1.0 / (need + 0.5))
        alphas = {e: c.alpha_upper for e, c in couplings.items()}
        report = certify_fixed_network(g, nus, alphas)
        assert report.verdict == "certified", f"trial {trial} failed to certify"

        y0 = {i: float(rng.uniform(-1.0, 1.0)) for i in g.node_ids}
        traj = run(Scenario(
            systems=systems,
            initial_graph=g,
            couplings=couplings,
            noise=NoiseSpec(scale=0.0, seed=1),
            solver=SolverConfig(dt=0.01, t_end=100.0, sample_stride=100),
            initial_outputs=y0,
        ))
        d = disagreement(traj, g)
        assert d[0] > 1e-3, "degenerate initial condition"
        assert d[-1] < 1e-3 * d[0], f"trial {trial}: ratio {d[-1] / d[0]:.2e}"
        passed += 1
    print(f"\n[criterion 6] PASS zero-noise certified consensus ({passed}/20 networks)")


def test_criterion_7_simulation_determinism(tmp_path):
    scenario_path = tmp_path / "paper_example.json"
    write_scenario(paper_example(), scenario_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    meta = tmp_path / "meta.json"
    assert main(["simulate", str(scenario_path), "--seed", "22",
                 "--out-csv", str(out_a), "--out-meta", str(meta)]) == 0
    assert main(["simulate", str(scenario_path), "--seed", "22",
                 "--out-csv", str(out_b), "--out-meta", str(meta)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("\n[criterion 7] PASS determinism (byte-identical CSVs)")


def test_criterion_8_assumption_gate(tmp_path):
    ok_path = tmp_path / "fig2a.json"
    bad_path = tmp_path / "fig2b.json"
    write_scenario(fig2_scenario([[1, 4], [3, 6]]), ok_path)
    write_scenario(fig2_scenario([[1, 4], [2, 6]]), bad_path)
    assert main(["certify", str(ok_path)]) == 0
    assert main(["certify", str(bad_path)]) == 3
    print("\n[criterion 8] PASS interconnection gate (exit 0 vs exit 3)")
