from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import fig2_scenario as _fig2_scenario

from plugnet.cli import main, read_trajectory_csv, write_trajectory_csv
from plugnet.errors import ScenarioError
from plugnet.metrics import estimate_io_gain
from plugnet.scenario import parse_scenario, parse_scenario_dict, paper_example, write_scenario


# --- parsing -----------------------------------------------------------------


def test_parse_bundled_example(golden_doc):
    assert len(golden_doc.nodes) == 7
    assert set(golden_doc.graphs) == {"g1", "g2"}
    assert golden_doc.initial_graph().p == 6
    assert golden_doc.final_graph().p == 8
    assert len(golden_doc.couplings) == 8
    assert golden_doc.plug_entries[0]["time"] == 15.0
    assert golden_doc.solver.t_end == 30.0


def test_parse_rejects_unknown_top_level_key():
    raw = paper_example()
    raw["surprise"] = 1
    with pytest.raises(ScenarioError, match="surprise"):
        parse_scenario_dict(raw)


@pytest.mark.parametrize("key", ["colour", "delta"])
def test_parse_rejects_unknown_node_key(key):
    raw = paper_example()
    raw["nodes"][0][key] = 0.5
    with pytest.raises(ScenarioError, match=key):
        parse_scenario_dict(raw)


def test_parse_rejects_empty_node_list():
    raw = paper_example()
    raw["nodes"] = []
    with pytest.raises(ScenarioError, match="nodes"):
        parse_scenario_dict(raw)


def test_parse_rejects_wrong_version():
    raw = paper_example()
    raw["version"] = "2"
    with pytest.raises(ScenarioError, match="version"):
        parse_scenario_dict(raw)


def test_parse_rejects_sector_bound_violation_naming_edge():
    raw = paper_example()
    for c in raw["couplings"]:
        if c["edge"] == [1, 2]:
            c["alpha_upper"] = 0.3  # true upper bound is a = 0.40
    with pytest.raises(ScenarioError, match=r"\[1, 2\]"):
        parse_scenario_dict(raw)


def test_parse_rejects_coupling_for_missing_edge():
    raw = paper_example()
    raw["couplings"].append({"edge": [2, 7], "kind": "sat_sine", "a": 0.2})
    with pytest.raises(ScenarioError, match=r"\[2, 7\]"):
        parse_scenario_dict(raw)


def test_parse_rejects_missing_coupling():
    raw = paper_example()
    raw["couplings"] = raw["couplings"][:-1]
    with pytest.raises(ScenarioError, match="no coupling"):
        parse_scenario_dict(raw)


def test_parse_rejects_node_without_dynamics_or_index():
    raw = paper_example()
    del raw["nodes"][0]["dynamics"]
    del raw["nodes"][0]["nu"]
    with pytest.raises(ScenarioError):
        parse_scenario_dict(raw)


def test_round_trip_is_stable(tmp_path):
    path = tmp_path / "scenario.json"
    write_scenario(paper_example(), path)
    doc1 = parse_scenario(path)
    write_scenario(doc1, tmp_path / "again.json")
    doc2 = parse_scenario(tmp_path / "again.json")
    assert doc1.to_dict() == doc2.to_dict()


def test_certificate_inputs_prefer_declared_indices(golden_doc):
    nus, alphas = golden_doc.certificate_inputs()
    assert nus[1] == -0.45  # declared, not the sweep value (-0.612)
    assert alphas[(1, 5)] == pytest.approx(0.37)


def test_sweep_fallback_when_no_declared_index():
    raw = _fig2_scenario([[1, 4], [3, 6]])
    for node in raw["nodes"]:
        del node["nu"]
    doc = parse_scenario_dict(raw)
    nus, _ = doc.certificate_inputs()
    assert nus[1] == pytest.approx(0.0, abs=1e-3)  # first-order lag sweeps to 0


def _shared_tf_scenario():
    """fig2 data with two transfer functions shared among six nodes."""
    raw = _fig2_scenario([[1, 4], [3, 6]])
    for node in raw["nodes"]:
        if node["id"] in (2, 5):
            node["dynamics"] = {"num": [1.0, 0.5], "den": [1.0, 0.4, 0.0]}
        if node["id"] % 2:
            del node["nu"]  # swept by certificate_inputs
    return raw


def test_equal_transfer_functions_share_one_realization(monkeypatch):
    import plugnet.scenario as scenario_module
    from plugnet.passivity import estimate_ifp_index, realize

    calls = {"realize": 0, "sweep": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scenario_module, "realize", counted("realize", realize))
    monkeypatch.setattr(scenario_module, "estimate_ifp_index",
                        counted("sweep", estimate_ifp_index))
    raw = _shared_tf_scenario()
    doc = parse_scenario_dict(raw)
    assert calls["realize"] == 2
    systems = {i: spec.system for i, spec in doc.nodes.items()}
    assert systems[2] is systems[5]
    assert all(systems[i] is systems[1] for i in (3, 4, 6))
    assert systems[1] is not systems[2]

    nus, _ = doc.certificate_inputs()
    sweeps = doc.sweep_indices()
    assert calls["sweep"] == 2 + 2  # each call sweeps the two systems once

    # bit-identical to realizing and sweeping node by node
    for node in raw["nodes"]:
        alone = estimate_ifp_index(realize(node["dynamics"]["num"], node["dynamics"]["den"]))
        assert sweeps[node["id"]] == alone
        assert nus[node["id"]] == node.get("nu", alone.nu)


def test_parses_share_no_realization():
    raw = _shared_tf_scenario()
    first, second = parse_scenario_dict(raw), parse_scenario_dict(raw)
    ids = {id(spec.system) for spec in first.nodes.values()}
    assert ids.isdisjoint(id(spec.system) for spec in second.nodes.values())


def test_shared_improper_transfer_function_names_first_occurrence():
    raw = paper_example()
    for k in (2, 6):  # nodes 3 and 7
        raw["nodes"][k]["dynamics"] = {"num": [1, 2, 3], "den": [1, 1]}
    with pytest.raises(ScenarioError, match=r"^nodes\[2\]\.dynamics: improper"):
        parse_scenario_dict(raw)


# --- trajectory CSV round trip -------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path, golden_traj):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(golden_traj, path)
    back = read_trajectory_csv(path)
    assert back.node_ids == golden_traj.node_ids
    assert np.array_equal(back.times, golden_traj.times)
    assert np.array_equal(back.outputs, golden_traj.outputs)
    assert np.array_equal(back.inputs, golden_traj.inputs)
    assert np.array_equal(back.noise, golden_traj.noise)


# --- CLI ------------------------------------------------------------------------


def test_cli_example_then_certify_golden(tmp_path, capsys):
    scenario_path = tmp_path / "paper_example.json"
    assert main(["example", "--out", str(scenario_path)]) == 0
    report_path = tmp_path / "report.json"
    code = main(["certify", str(scenario_path), "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified" in out
    payload = json.loads(report_path.read_text())
    assert payload["certified"] is True
    boundary = payload["reports"][0]["boundary"]
    gammas = {tuple(b["edge"]): b["gamma"] for b in boundary}
    margins = {tuple(b["edge"]): b["margin"] for b in boundary}
    assert gammas[(1, 5)] == pytest.approx(0.4667, abs=1e-4)
    assert gammas[(4, 7)] == pytest.approx(0.3589, abs=1e-4)
    assert margins[(1, 5)] == pytest.approx(0.0147, abs=5e-4)
    assert margins[(4, 7)] == pytest.approx(0.0168, abs=5e-4)
    # sweep values listed alongside declared indices
    rows = {r["node"]: r for r in payload["passivity_indices"]}
    assert rows[1]["declared_nu"] == -0.45
    assert rows[1]["sweep_nu"] == pytest.approx(-0.6122, abs=1e-3)


def test_cli_certify_fails_on_forced_negative_margin(tmp_path, capsys):
    raw = paper_example()
    for c in raw["couplings"]:
        if c["edge"] == [1, 2]:
            c["a"] = 2.0  # 1/2.0 - 0.45 - 0.60 - 2*0.60 < 0
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    code = main(["certify", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "(1, 2)" in out


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def _edge_1_2_tabulated_far_knots(raw):
    # knot ratios 0.4, 0.4, 10 and trailing slope 29.2; all beyond |x| = 10
    raw["couplings"][0] = {"edge": [1, 2], "kind": "tabulated",
                           "table": [[1, 0.4], [20, 8], [30, 300]],
                           "alpha_lower": 0.4, "alpha_upper": 0.4}


def _sat_sine_lower_just_above_exact(raw):
    raw["couplings"][0]["alpha_lower"] = 0.2547  # exact 2 * 0.4 / pi = 0.254648


@pytest.mark.parametrize("mutate, message", [
    (_edge_1_2_tabulated_far_knots, "exact [0.4, 29.2], declared [0.4, 0.4]"),
    (_sat_sine_lower_just_above_exact, "exact [0.254648, 0.4], declared [0.2547, 0.4]"),
], ids=["tabulated_far_knots", "sat_sine_lower"])
def test_cli_certify_rejects_declared_bounds_narrower_than_the_exact_sector(
        tmp_path, capsys, mutate, message):
    raw = paper_example()
    assert raw["couplings"][0]["edge"] == [1, 2]
    mutate(raw)
    path = tmp_path / "narrow.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "coupling on edge [1, 2] violates its declared sector bounds" in err
    assert message in err


def test_cli_certify_sees_a_resonance_above_the_old_sweep_range(tmp_path, capsys):
    # zeta = 0.01 at 1e5 rad/s: inf Re H = -1 / (4 zeta (1 + zeta)) = -24.75
    # near w = 1.01e5, beyond the 1e4 rad/s a sampled sweep used to reach
    raw = paper_example()
    node = raw["nodes"][0]
    assert node["id"] == 1
    node["dynamics"] = {"num": [1e10], "den": [1, 2e3, 1e10]}
    del node["nu"]
    path, report = tmp_path / "resonant.json", tmp_path / "certify.json"
    write_scenario(raw, path)
    assert main(["certify", str(path), "--json", str(report)]) == 2
    row = _strict_json(report)["passivity_indices"][0]
    assert row["node"] == 1 and row["declared_nu"] is None
    assert row["sweep_nu"] == pytest.approx(-1.0 / (4 * 0.01 * 1.01), rel=1e-12)
    assert row["sweep_omega"] == pytest.approx(1.01e5, rel=1e-2)
    assert "NOT certified" in capsys.readouterr().out


def test_cli_certify_writes_null_when_the_infimum_is_the_limit(tmp_path, capsys):
    # 1/(s+1): Re H = 1/(1 + w^2) has infimum 0 only as w -> inf
    path, report = tmp_path / "fig2a.json", tmp_path / "certify.json"
    write_scenario(_fig2_scenario([[1, 4], [3, 6]]), path)
    assert main(["certify", str(path), "--json", str(report)]) == 0
    rows = _strict_json(report)["passivity_indices"]
    assert [(r["sweep_nu"], r["sweep_omega"]) for r in rows] == [(0.0, None)] * 6
    out = capsys.readouterr().out
    assert "0.0000          inf" in out
    assert "certificates use the declared nu where one is given" in out


@pytest.mark.parametrize("tol", ["-1e-3", "-1", "nan"])
def test_cli_certify_rejects_a_tolerance_below_zero(tmp_path, capsys, tol):
    path = tmp_path / "example.json"
    write_scenario(paper_example(), path)
    assert main(["certify", str(path), f"--tol={tol}"]) == 1
    assert "--tol must be nonnegative" in capsys.readouterr().err


def test_cli_certify_assumption_gate(tmp_path, capsys):
    ok_path = tmp_path / "fig2a.json"
    bad_path = tmp_path / "fig2b.json"
    write_scenario(_fig2_scenario([[1, 4], [3, 6]]), ok_path)
    write_scenario(_fig2_scenario([[1, 4], [2, 6]]), bad_path)
    assert main(["certify", str(ok_path)]) == 0
    code = main(["certify", str(bad_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "interconnection rule" in err


def test_cli_certify_exit_1_on_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    raw = paper_example()
    raw["unknown_block"] = {}
    path.write_text(json.dumps(raw))
    assert main(["certify", str(path)]) == 1


def test_cli_exit_1_on_missing_file(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_simulate_deterministic_and_zero_noise(tmp_path):
    path = tmp_path / "fig2a.json"
    write_scenario(_fig2_scenario([[1, 4], [3, 6]], noise_scale=0.0), path)
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    meta = tmp_path / "meta.json"
    assert main(["simulate", str(path), "--seed", "5",
                 "--out-csv", str(csv_a), "--out-meta", str(meta)]) == 0
    assert main(["simulate", str(path), "--seed", "5",
                 "--out-csv", str(csv_b), "--out-meta", str(meta)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    traj = read_trajectory_csv(csv_a)
    assert np.all(traj.noise == 0.0)  # zero noise scale
    meta_payload = json.loads(meta.read_text())
    assert meta_payload["seed"] == 5
    assert meta_payload["event_times"] == [1.0]


def _with_feedthrough(raw):
    raw["nodes"][0]["dynamics"] = {"num": [1, 1], "den": [1, 1]}  # biproper


def _with_short_x0(raw):
    raw["nodes"][0]["x0"] = [0.1, 0.2]  # first-order lag: one state


def _with_late_plug(raw):
    raw["plug_events"][0]["time"] = 3.0  # t_end is 2.0


@pytest.mark.parametrize("mutate, message, at_parse", [
    (_with_feedthrough, "direct feedthrough", False),
    (_with_short_x0, "initial state must have 1 entries", True),
    (_with_late_plug, "outside [0, t_end]", True),
], ids=["feedthrough", "x0_length", "plug_after_t_end"])
def test_cli_simulate_exit_1_on_unbuildable_scenario(tmp_path, capsys, mutate, message,
                                                     at_parse):
    # a typed error, not a traceback: the feedthrough parses but cannot be
    # simulated, the other two are rejected when the file is parsed, so
    # certify rejects them too
    raw = _fig2_scenario([[1, 4], [3, 6]])
    mutate(raw)
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    if at_parse:
        assert main(["certify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("num, message", [
    (["a", 1], "numerator coefficients must be numbers"),
    ([None, 1], "numerator coefficients must be a flat list of finite numbers"),
    ([[1, 0.5]], "numerator coefficients must be a flat list of finite numbers"),
], ids=["text", "null", "nested"])
def test_cli_rejects_non_numeric_coefficients(tmp_path, capsys, command, num, message):
    raw = paper_example()
    raw["nodes"][0]["dynamics"]["num"] = num
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    out = ["--out-dir", str(tmp_path)] if command == "simulate" else []
    assert main([command, str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nodes[0].dynamics:") and message in err


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("field, value, message", [
    ("nu", float("nan"), "nodes[2].nu: must be finite"),
    ("nu", True, "nodes[2].nu: must be a number"),
    ("nu", "0.5", "nodes[2].nu: must be a number"),
    ("y0", "abc", "nodes[2].y0: must be a number"),
    ("y0", float("nan"), "nodes[2].y0: must be finite"),
    ("y0", None, "nodes[2].y0: must be a number"),
    ("x0", 5, "nodes[2].x0: must be a list of numbers"),
    ("x0", ["a", 1], "nodes[2].x0[0]: must be a number"),
    ("x0", [[1.0], 2.0], "nodes[2].x0[0]: must be a number"),
    ("x0", [1.0, float("inf")], "nodes[2].x0[1]: must be finite"),
], ids=["nu_nan", "nu_bool", "nu_text", "y0_text", "y0_nan", "y0_null", "x0_scalar",
        "x0_text", "x0_nested", "x0_inf"])
def test_cli_rejects_bad_node_fields_at_parse_time(tmp_path, capsys, command, field,
                                                  value, message):
    # certify and simulate agree: both reject the file when it is parsed
    raw = paper_example()
    raw["nodes"][2][field] = value
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    out = ["--out-dir", str(tmp_path)] if command == "simulate" else []
    assert main([command, str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("field, value, message", [
    ("a", None, "couplings[0].a: must be a number"),
    ("a", [0.4], "couplings[0].a: must be a number"),
    ("a", "0.4", "couplings[0].a: must be a number"),
    ("a", True, "couplings[0].a: must be a number"),
    ("alpha_upper", float("inf"), "couplings[0].alpha_upper: must be finite"),
    ("kind", ["sat_sine"], "couplings[0]: unknown coupling kind"),
    ("table", [[1, 0.4, 2]], "couplings[0]: table must be a list of [x, y] number pairs"),
    ("table", [], "couplings[0]: table knots must be finite, positive"),
], ids=["a_null", "a_list", "a_text", "a_bool", "alpha_inf", "kind_list", "table_triple",
        "table_empty"])
def test_cli_rejects_bad_coupling_fields_at_parse_time(tmp_path, capsys, field, value,
                                                       message):
    # a typed error naming the field, never a traceback
    raw = paper_example()
    if field == "table":
        raw["couplings"][0] = {"edge": [1, 2], "kind": "tabulated"}
    raw["couplings"][0][field] = value
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_x0_on_a_node_without_dynamics_is_rejected():
    raw = paper_example()
    del raw["nodes"][2]["dynamics"]
    raw["nodes"][2]["x0"] = []
    with pytest.raises(ScenarioError, match=r"nodes\[2\]\.x0: a node without dynamics"):
        parse_scenario_dict(raw)


def _with_off_grid_plug(raw):
    raw["plug_events"][0]["time"] = 1.005  # dt is 0.01


def _with_text_plug_time(raw):
    raw["plug_events"][0]["time"] = "soon"


@pytest.mark.parametrize("mutate, message", [
    (_with_late_plug, "outside [0, t_end]"),
    (_with_off_grid_plug, "not on the step grid"),
    (_with_text_plug_time, "must be a number"),
], ids=["after_t_end", "off_grid", "not_a_number"])
def test_cli_certify_rejects_bad_plug_time(tmp_path, capsys, mutate, message):
    raw = _fig2_scenario([[1, 4], [3, 6]])
    mutate(raw)
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plug_events[0].time:") and message in err


def test_cli_simulate_reports_divergence(tmp_path, capsys):
    raw = {
        "version": "1",
        "nodes": [
            {"id": 1, "dynamics": {"num": [1], "den": [1, 1]}, "y0": 0.5},
            {"id": 2, "dynamics": {"num": [1], "den": [1, -100.0]}, "y0": 1.0},
        ],
        "graphs": {"g": {"nodes": [1, 2], "edges": []}},
        "initial": ["g"],
        "couplings": [],
        "noise": {"scale": 0.0, "seed": 1},
        "solver": {"dt": 0.01, "t_end": 20.0},
    }
    path = tmp_path / "unstable.json"
    write_scenario(raw, path)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: simulation diverged") and "at node 2, step " in err


def test_cli_report_on_golden_run(tmp_path, golden_doc, golden_traj):
    scenario_path = tmp_path / "paper_example.json"
    write_scenario(paper_example(), scenario_path)
    csv_path = tmp_path / "traj.csv"
    write_trajectory_csv(golden_traj, csv_path)
    json_path = tmp_path / "estimate.json"
    dis_path = tmp_path / "disagreement.csv"
    code = main(["report", "--traj", str(csv_path), "--scenario", str(scenario_path),
                 "--out-json", str(json_path), "--out-csv", str(dis_path)])
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["satisfied"] is True
    # regression pin: computed once from the deterministic seeded run
    assert payload["rho_hat"] == pytest.approx(0.764507341598849, rel=1e-6)
    assert payload["sigma_hat"] == pytest.approx(1.1641014553004139, rel=1e-6)
    assert payload["analytic_rho_bound"] is not None
    header = dis_path.read_text().splitlines()[0]
    assert header == "t,disagreement"


@pytest.mark.parametrize("count", [1, 0, -3])
def test_cli_report_rejects_fewer_than_two_horizons(tmp_path, capsys, golden_traj, count):
    scenario_path = tmp_path / "paper_example.json"
    write_scenario(paper_example(), scenario_path)
    csv_path = tmp_path / "traj.csv"
    write_trajectory_csv(golden_traj, csv_path)
    code = main(["report", "--traj", str(csv_path), "--scenario", str(scenario_path),
                 "--horizons", str(count)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--horizons" in err


def test_golden_estimate_matches_direct_api(golden_doc, golden_traj):
    est = estimate_io_gain(golden_traj, golden_doc.final_graph())
    assert est.satisfied
    assert est.rho_hat == pytest.approx(0.764507341598849, rel=1e-6)
    assert est.sigma_hat == pytest.approx(1.1641014553004139, rel=1e-6)


def test_golden_post_consensus_disagreement(golden_doc, golden_traj):
    # after global consensus the disagreement sits far below its value at
    # the plug instant; ratio measured once from the seeded run, pinned
    from plugnet.metrics import disagreement

    df = disagreement(golden_traj, golden_doc.final_graph())
    i_plug = int(np.argmax(golden_traj.active_graph > 0))
    ratio = df[-1] / df[i_plug]
    assert ratio < 0.05
    assert ratio == pytest.approx(0.01496686658893887, rel=1e-6)


def _oracle_pd_scenario():
    # triangle with one failing edge condition but a positive definite
    # certificate matrix (see the frozen instance in test_certificates)
    edges = [[1, 2], [1, 3], [2, 3]]
    gains = {(1, 2): 1.484, (1, 3): 4.234, (2, 3): 3.459}
    return {
        "version": "1",
        "nodes": [
            {"id": 1, "nu": -0.242},
            {"id": 2, "nu": 0.29},
            {"id": 3, "nu": 0.267},
        ],
        "graphs": {"g": {"nodes": [1, 2, 3], "edges": edges}},
        "initial": ["g"],
        "couplings": [
            {"edge": e, "kind": "linear_gain", "a": gains[tuple(e)]} for e in edges
        ],
        "noise": {"scale": 0.0, "seed": 1},
        "solver": {"dt": 0.01, "t_end": 1.0},
    }


def test_cli_certify_oracle_only_flag(tmp_path):
    path = tmp_path / "triangle.json"
    write_scenario(_oracle_pd_scenario(), path)
    assert main(["certify", str(path)]) == 2  # sufficient condition fails
    assert main(["certify", str(path), "--oracle-only"]) == 0  # but M is PD


def test_cli_certify_degenerate_zero_index(tmp_path, capsys):
    raw = _fig2_scenario([[1, 4], [3, 6]])
    raw["nodes"][0]["nu"] = 0.0  # boundary node: gamma divides by |nu|
    path = tmp_path / "degenerate.json"
    write_scenario(raw, path)
    code = main(["certify", str(path)])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_explicit_initial_state_passes_through():
    from plugnet.sim import run

    raw = _fig2_scenario([[1, 4], [3, 6]])
    raw["nodes"][0].pop("y0")
    raw["nodes"][0]["x0"] = [0.8]  # first-order lag: y(0) = x(0)
    doc = parse_scenario_dict(raw)
    traj = run(doc.build_scenario())
    assert traj.outputs[0, traj.column(1)] == pytest.approx(0.8)
