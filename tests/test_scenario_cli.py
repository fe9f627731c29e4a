from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fig2_scenario as _fig2_scenario
from helpers import first_plugged_sample, late_node_scenario
from test_passivity import (_bits, _outcome, _ref_estimate_ifp_index, _ref_poles, _ref_realize,
                            _transfer_functions)

import plugnet.scenario
from plugnet import certificates
from plugnet.cli import _write_json, main, read_trajectory_csv, write_trajectory_csv
from plugnet.errors import DegenerateInput, PlugnetError, ScenarioError
from plugnet.graph import Graph, PlugPlan, compose, incidence
from plugnet.metrics import estimate_io_gain
from plugnet.passivity import estimate_ifp_index, ifp_indices
from plugnet.scenario import parse_scenario, parse_scenario_dict, paper_example, write_scenario
from plugnet.sim import PlugEvent, TrajectoryRecord, run


# --- parsing -----------------------------------------------------------------


def test_parse_bundled_example(golden_doc):
    assert len(golden_doc.nodes) == 7
    assert set(golden_doc.graphs) == {"g1", "g2"}
    assert golden_doc.initial_graph().p == 6
    assert golden_doc.final_graph().p == 8
    assert len(golden_doc.couplings) == 8
    assert golden_doc.plug_entries[0].time == 15.0
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


def test_certificate_inputs_are_read_only_mappings_built_once(golden_doc):
    nus, alphas = golden_doc.certificate_inputs()
    assert golden_doc.certificate_inputs()[0] is nus
    assert golden_doc.certificate_inputs()[1] is alphas
    assert dict(nus) == {node: spec.declared_nu for node, spec in golden_doc.nodes.items()}
    both_ways = {}
    for (i, j), c in golden_doc.couplings.items():
        both_ways[i, j] = both_ways[j, i] = c.alpha_upper
    assert dict(alphas) == both_ways
    with pytest.raises(TypeError):
        nus[1] = 0.0
    with pytest.raises(TypeError):
        alphas[1, 2] = 0.0


def _flipped_fig2_scenario():
    """``fig2_scenario`` plugged the other way round: base g2 (nodes 4-6)
    takes g1, so each boundary edge is oriented (base, added) = (4, 1)."""
    raw = _fig2_scenario([[1, 4]])
    raw["plug_events"][0].update(base="g2", added="g1")
    return raw


@pytest.mark.parametrize("raw", [late_node_scenario(), _flipped_fig2_scenario()],
                         ids=["single_node", "network"])
def test_parsed_sector_bounds_hit_on_the_first_probe(raw):
    # a single-node plug orients its boundary edge (added node, base node)
    # and a network plug (base, added), while couplings are declared (min, max);
    # the parsed bounds are keyed both ways, so every edge is its own key
    doc = parse_scenario_dict(raw)
    composed = compose(doc.plug_plan(doc.plug_entries[0]))
    boundary = composed.edges[-1]
    assert boundary[0] > boundary[1]
    nus, alphas = doc.certificate_inputs()
    assert isinstance(alphas, certificates.SectorBounds)
    assert all(edge in alphas for edge in composed.edges)
    bound = doc.couplings[tuple(sorted(boundary))].alpha_upper
    assert alphas[boundary] == alphas.alpha(composed)[-1] == bound
    _, sigma = certificates._gather(composed, nus, alphas)
    assert sigma[-1] == 1.0 / bound
    i, j = boundary
    missing = {e: a for e, a in alphas.items() if e not in (boundary, (j, i))}
    with pytest.raises(DegenerateInput, match=re.escape(f"no upper sector bound for edge {boundary}")):
        certificates._gather(composed, nus, missing)
    zero = {**alphas, boundary: 0.0, (j, i): 0.0}
    with pytest.raises(DegenerateInput, match=re.escape(f"upper sector bound of edge {boundary} is zero")):
        certificates._gather(composed, nus, zero)


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
    from plugnet.passivity import estimate_ifp_index, ifp_indices, realize, realize_many

    calls = {"realize": [], "sweep": []}  # the size of each batch

    def counted(name, fn):
        def wrapper(items):
            calls[name].append(len(items))
            return fn(items)
        return wrapper

    monkeypatch.setattr(scenario_module, "realize_many", counted("realize", realize_many))
    monkeypatch.setattr(scenario_module, "ifp_indices", counted("sweep", ifp_indices))
    raw = _shared_tf_scenario()
    doc = parse_scenario_dict(raw)
    assert calls["realize"] == [2]  # one batch of the two distinct transfer functions
    systems = {i: spec.system for i, spec in doc.nodes.items()}
    assert systems[2] is systems[5]
    assert all(systems[i] is systems[1] for i in (3, 4, 6))
    assert systems[1] is not systems[2]

    nus, _ = doc.certificate_inputs()
    sweeps = doc.sweep_indices()
    assert calls["sweep"] == [2]  # one batch of the two systems, shared by both calls

    # bit-identical to realizing and sweeping node by node
    for node in raw["nodes"]:
        alone = estimate_ifp_index(realize(node["dynamics"]["num"], node["dynamics"]["den"]))
        assert sweeps[node["id"]] == alone
        assert nus[node["id"]] == node.get("nu", alone.nu)


def test_a_bool_coefficient_is_no_number_in_an_equal_block():
    # True == 1.0 and hash(True) == hash(1.0): a bool must not reuse the
    # realization of an equal numeric block
    raw = paper_example()
    raw["nodes"][1]["dynamics"] = {"num": [True, True], "den": [1.0, 0.7, 0.0]}
    assert raw["nodes"][0]["dynamics"] == {"num": [1.0, 1.0], "den": [1.0, 0.7, 0.0]}
    message = "nodes[1].dynamics: numerator coefficients must be numbers"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario_dict(raw)


_IMPROPER = ({"num": [1.0, 0.0, 0.0], "den": [1.0, 1.0]},
             "improper transfer function (numerator degree 2 > denominator degree 1)")
_ZERO_DENOMINATOR = ({"num": [1.0], "den": [0.0]}, "zero denominator")


@pytest.mark.parametrize("first, second", [(_IMPROPER, _ZERO_DENOMINATOR),
                                           (_ZERO_DENOMINATOR, _IMPROPER)],
                         ids=["improper_first", "zero_denominator_first"])
def test_the_first_faulty_node_in_document_order_is_reported(first, second):
    raw = paper_example()
    raw["nodes"][2]["dynamics"], raw["nodes"][5]["dynamics"] = first[0], second[0]
    with pytest.raises(ScenarioError, match=re.escape(f"nodes[2].dynamics: {first[1]}")):
        parse_scenario_dict(raw)


@pytest.mark.parametrize("first, second", [
    (([1.0], [1.0, -2.0]), ([1.0], [1.0, 0.0, 0.0])),
    (([1.0], [1.0, 0.0, 0.0]), ([1.0], [1.0, -2.0])),
], ids=["unstable_first", "double_integrator_first"])
def test_the_first_node_without_an_index_is_reported(first, second):
    raw = paper_example()
    for k, (num, den) in ((2, first), (5, second)):
        raw["nodes"][k]["dynamics"] = {"num": num, "den": den}
        del raw["nodes"][k]["nu"]
    doc = parse_scenario_dict(raw)
    _, want = _outcome(_ref_estimate_ifp_index, _ref_realize(*first))
    for method in (doc.certificate_inputs, doc.sweep_indices):
        with pytest.raises(want[0], match=re.escape(want[1])):
            method()


def _path_document(tfs, declared):
    """One node per transfer function, ``nu`` declared where ``declared``
    says so, joined in a path with linear couplings."""
    ids = list(range(1, len(tfs) + 1))
    edges = [[i, i + 1] for i in ids[:-1]]
    return {
        "version": "1",
        "nodes": [{"id": i, "dynamics": {"num": list(num), "den": list(den)},
                   **({"nu": -0.1} if flag else {})}
                  for i, (num, den), flag in zip(ids, tfs, declared)],
        "graphs": {"g": {"nodes": ids, "edges": edges}},
        "initial": ["g"],
        "couplings": [{"edge": e, "kind": "linear_gain", "a": 0.5} for e in edges],
        "noise": {"scale": 0.0, "seed": 1},
        "solver": {"dt": 0.01, "t_end": 0.1},
    }


def _first_error(outcomes):
    """The first error among (index, value, error) in order, or None."""
    return next(((k, error) for k, _, error in outcomes if error is not None), None)


@st.composite
def _node_dynamics(draw):
    """Transfer functions for the nodes of one document, some of them again
    on later nodes, and whether each node declares its index."""
    tfs = draw(st.lists(_transfer_functions(), min_size=1, max_size=8))
    tfs += draw(st.lists(st.sampled_from(tfs), max_size=3))
    return tfs, draw(st.lists(st.booleans(), min_size=len(tfs), max_size=len(tfs)))


# equal-length denominators with and without a root at zero, real and
# complex poles of one shape, and cancellations
_MIXED_NODES = ([([1.0, 1.0], [1.0, 0.7, 0.0]), ([1.0], [1.0, 2.0, 5.0]), ([1.0], [1.0, 3.0, 2.0]),
                 ([1.0, 1.0], [1.0, 3.0, 2.0]), ([1.0, 0.0], [1.0, 3.0, 0.0]), ([2.0], [1.0]),
                 ([1.0, 0.5], [1.0, 0.4, 0.0])], [False, False, True, False, False, False, False])


@settings(max_examples=150, deadline=None)
@given(_node_dynamics())
@example(_MIXED_NODES)
def test_parse_and_indices_are_those_of_node_by_node_realization(nodes):
    tfs, declared = nodes
    raw = _path_document(tfs, declared)
    # the reference: node by node, one realization per coefficient key
    cache = {}
    realized = [(k, *cache.setdefault((tuple(num), tuple(den)), _outcome(_ref_realize, num, den)))
                for k, (num, den) in enumerate(tfs)]
    failed = _first_error(realized)
    if failed is not None:
        k, (kind, message) = failed
        if issubclass(kind, PlugnetError):
            kind, message = ScenarioError, f"nodes[{k}].dynamics: {message}"
        with pytest.raises(kind, match=re.escape(message)):
            parse_scenario_dict(raw)
        return
    doc = parse_scenario_dict(raw)
    for (k, want, _), spec in zip(realized, doc.nodes.values()):
        for name in ("num", "den", "a", "b", "c", "d"):
            assert _bits(getattr(spec.system, name)) == _bits(getattr(want, name)), (k, name)
        assert _bits(spec.system.poles()) == _bits(_ref_poles(want)), k
    indices = {}
    swept = [(k, *indices.setdefault(id(want), _outcome(_ref_estimate_ifp_index, want)))
             for k, want, _ in realized]
    for method, nodes in ((doc.certificate_inputs, [not flag for flag in declared]),
                          (doc.sweep_indices, [True] * len(tfs))):
        failed = _first_error(s for s, needed in zip(swept, nodes) if needed)
        if failed is not None:
            with pytest.raises(failed[1][0], match=re.escape(failed[1][1])):
                method()
            continue
        got = method()
        got = got[0] if method == doc.certificate_inputs else {i: v.nu for i, v in got.items()}
        for (k, want, _), needed in zip(swept, nodes):
            if needed:
                assert _bits(got[k + 1]) == _bits(want.nu), k


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


def _assert_csv_gives_back(tmp_path, traj):
    """Every field of the record read back, bit for bit: nothing the CSV
    cannot hold is faked on the way back."""
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    for field in dataclasses.fields(TrajectoryRecord):
        got, want = getattr(back, field.name), getattr(traj, field.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
            assert np.array_equal(np.isnan(got), np.isnan(want)), field.name
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


def test_trajectory_csv_round_trip(tmp_path, golden_traj):
    _assert_csv_gives_back(tmp_path, golden_traj)


def test_trajectory_csv_round_trip_with_a_late_node(tmp_path):
    # the late node's outputs and inputs are NaN before it joins
    traj = run(parse_scenario_dict(late_node_scenario()).build_scenario())
    assert np.isnan(traj.outputs[0, traj.column(8)])
    _assert_csv_gives_back(tmp_path, traj)


def test_trajectory_csv_rows_match_per_value_repr(tmp_path):
    # the row formatter against the per-value loop it replaced: one repr
    # per float, NaN, signed zero, infinities and extreme magnitudes included
    values = np.array([[0.0, -0.0, np.nan, 1e-300], [np.inf, -np.inf, 1 / 3, -2.5e17]])
    traj = TrajectoryRecord(node_ids=(1,), times=np.array([0.0, 0.1]), outputs=values[:, :1],
                            inputs=values[:, 1:2], noise=values[:, 2:3])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = [",".join(repr(float(v)) for v in (t, *y, *u, *w))
            for t, y, u, w in zip(traj.times, traj.outputs, traj.inputs, traj.noise)]
    assert path.read_text() == "\n".join(["t,y1,u1,w1", *rows]) + "\n"


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


def test_cli_writes_no_json_that_holds_a_non_finite_value(tmp_path):
    # JSON has no infinity and no NaN: the writer names the file and writes nothing
    json_path = tmp_path / "certify.json"
    for value in (float("inf"), float("nan")):
        with pytest.raises(PlugnetError, match=f"^{re.escape(str(json_path))}: "):
            _write_json({"strictness_tol": value}, json_path)
        assert not json_path.exists()


def test_cli_report_writes_no_json_from_an_infinite_sample(tmp_path, capsys, golden_traj):
    scenario_path = tmp_path / "paper_example.json"
    write_scenario(paper_example(), scenario_path)
    csv_path = tmp_path / "traj.csv"
    write_trajectory_csv(golden_traj, csv_path)
    lines = csv_path.read_text().splitlines()
    row = lines[5].split(",")
    row[2] = "inf"
    csv_path.write_text("\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n")
    code = main(["report", "--traj", str(csv_path), "--scenario", str(scenario_path),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {csv_path}: a y or u cell is infinite")
    assert not (tmp_path / "traj_report.json").exists()
    assert not (tmp_path / "traj_disagreement.csv").exists()


def test_cli_certify_names_a_realization_that_overflows(tmp_path):
    # normalizing den [1e-300, 1e300] by its leading coefficient gives
    # [1, inf]; a separate process shows any warning or traceback on stderr
    raw = paper_example()
    raw["nodes"][1]["dynamics"]["den"] = [1e-300, 1e300]
    path = tmp_path / "overflow.json"
    write_scenario(raw, path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(plugnet.scenario.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "plugnet.cli", "certify", str(path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert done.stderr.startswith("error: nodes[1].dynamics: coefficients overflow")
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr


# Node 2's dynamics at the edge of the float range, each with the error
# line that certify prints for it. E'F - EF' of the first overflows, so
# its stationary points cannot be root-solved, whether node 2 declares its
# index or not (the informational sweep table indexes it either way).
_EXTREME_DYNAMICS = {
    "unsolvable_index": ([1, 0, 1e300], [1, 1e150, 1e300],
                         "error: node 2: the stationary points of Re H(jw) cannot be solved"),
    "realization_nan": ([1e300, 1e300], [1, 1e300, 1],
                        "error: nodes[1].dynamics: state-space response deviates from the "
                        "polynomials (max rel err nan)\n"),
    "c_c_overflow": ([1e200, 1], [1, 1e-100, 1e200],
                     "error: pole on the imaginary axis away from the origin\n"),
}


@pytest.mark.parametrize("declared", [True, False], ids=["declared_nu", "swept_nu"])
@pytest.mark.parametrize("case", sorted(_EXTREME_DYNAMICS))
def test_cli_certify_extreme_dynamics_end_in_an_error_line_without_warnings(
        tmp_path, capsys, case, declared):
    num, den, line = _EXTREME_DYNAMICS[case]
    raw = paper_example()
    raw["nodes"][1]["dynamics"] = {"num": num, "den": den}
    if not declared:
        del raw["nodes"][1]["nu"]
    path = tmp_path / "extreme.json"
    write_scenario(raw, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning raises out of main
        assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1e-3", "-1", "nan", "inf"])
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


@pytest.mark.parametrize("field, value, message", [
    ("num", "1", "numerator coefficients must be numbers"),
    ("num", [True], "numerator coefficients must be numbers"),
    ("den", [True, 0.7, 0], "denominator coefficients must be numbers"),
    ("den", [1, "0.7", 0], "denominator coefficients must be numbers"),
    ("num", [10**400], "numerator coefficients must be a flat list of finite numbers"),
], ids=["num_text", "num_bool", "den_bool", "den_text", "num_huge_int"])
def test_cli_rejects_bool_and_text_coefficients(tmp_path, capsys, field, value, message):
    # JSON true and "1" are not numbers, as in every other numeric field
    raw = paper_example()
    raw["nodes"][0]["dynamics"][field] = value
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: nodes[0].dynamics: {message}")


@pytest.mark.parametrize("value", [5, None, ["a.csv"]])
def test_cli_rejects_output_names_that_are_not_strings(tmp_path, capsys, value):
    raw = paper_example()
    raw["outputs"] = {"csv": value}
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: outputs.csv: must be a string")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


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
    ("table", [[1, 0.4, 2]], "couplings[0].table: table must be a list of [x, y] number pairs"),
    ("table", [], "couplings[0].table: table knots must be finite, positive"),
    ("table", [[True, 0.4]], "couplings[0].table: table must be a list of [x, y] number pairs"),
    ("table", [["0.8", 0.4]], "couplings[0].table: table must be a list of [x, y] number pairs"),
    ("table", [[10**400, 0.4]], "couplings[0].table: table knots must be finite"),
], ids=["a_null", "a_list", "a_text", "a_bool", "alpha_inf", "kind_list", "table_triple",
        "table_empty", "table_bool", "table_text", "table_huge_int"])
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


def test_cli_names_the_coupling_not_its_table_for_bad_declared_bounds(tmp_path, capsys):
    raw = paper_example()
    raw["couplings"][0] = {"edge": [1, 2], "kind": "tabulated", "table": [[1, 0.4]],
                           "alpha_lower": 0.9, "alpha_upper": 0.5}
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: couplings[0]: sector bounds must satisfy")


@pytest.mark.parametrize("block, field, value, message", [
    ("solver", "dt", "0.001", "solver.dt: must be a number"),
    ("noise", "seed", 2.7, "noise.seed: must be an integer"),
    ("noise", "seed", True, "noise.seed: must be an integer"),
    ("solver", "sample_stride", 2.5, "solver.sample_stride: must be an integer"),
    ("plug_events", "time", True, "plug_events[0].time: must be a number"),
    ("noise", "scale", None, "noise.scale: must be a number"),
    ("solver", "t_end", [30], "solver.t_end: must be a number"),
], ids=["dt_text", "seed_float", "seed_bool", "stride_float", "plug_time_bool",
        "scale_null", "t_end_list"])
def test_cli_rejects_bad_noise_solver_and_plug_time_fields(tmp_path, capsys, block, field,
                                                          value, message):
    # read like the node and coupling fields: no truncation, no bool as a number
    raw = paper_example()
    target = raw[block][0] if block == "plug_events" else raw[block]
    target[field] = value
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_certify_computes_each_index_once(tmp_path, capsys, monkeypatch):
    # nodes 1-3 share one system and have no declared nu, node 4 has its
    # own; the text table and the certificate read the same indices
    raw = paper_example()
    for node in raw["nodes"][:4]:
        del node["nu"]
    for node in raw["nodes"][1:3]:
        node["dynamics"] = dict(raw["nodes"][0]["dynamics"])
    path = tmp_path / "shared.json"
    write_scenario(raw, path)
    calls = []

    def counting(systems):
        calls.extend(systems)
        return ifp_indices(systems)

    monkeypatch.setattr(plugnet.scenario, "ifp_indices", counting)
    doc = parse_scenario(path)
    doc.certificate_inputs()
    assert len(calls) == 2  # the declared nodes 5-7 are not swept
    calls.clear()
    assert main(["certify", str(path)]) == 2  # the swept indices are below the declared
    assert capsys.readouterr().out.count("-0.6122") == 3
    assert len(calls) == 5 and len(set(calls)) == 5  # each distinct system once


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


def _report_bound(tmp_path, raw, traj):
    """``report``'s analytic bound for the scenario ``raw`` on the record ``traj``."""
    scenario_path, csv_path = tmp_path / "scenario.json", tmp_path / "traj.csv"
    write_scenario(raw, scenario_path)
    write_trajectory_csv(traj, csv_path)
    assert main(["report", "--traj", str(csv_path), "--scenario", str(scenario_path),
                 "--out-dir", str(tmp_path)]) == 0
    return _strict_json(tmp_path / "traj_report.json")["analytic_rho_bound"]


def test_cli_report_bounds_the_final_network_when_the_plug_has_no_gamma(
        tmp_path, capsys, golden_traj):
    # a zero index at attachment node 1 leaves the plug's gamma undefined, so
    # certify exits 3; the bound is the final network's all the same
    raw = paper_example()
    assert raw["nodes"][0]["id"] == 1 and raw["plug_events"][0]["boundary"][0] == [1, 5]
    raw["nodes"][0]["nu"] = 0.0
    write_scenario(raw, tmp_path / "zero.json")
    assert main(["certify", str(tmp_path / "zero.json")]) == 3
    assert "gamma is undefined at node 1" in capsys.readouterr().err
    doc = parse_scenario_dict(raw)
    graph = doc.final_graph()
    nus, _ = doc.certificate_inputs()
    couplings = [doc.couplings[min(e), max(e)] for e in graph.edges]
    d = incidence(graph)
    theta = np.diag([nus[i] for i in graph.node_ids])
    m = d.T @ theta @ d + np.diag([1.0 / c.alpha_upper for c in couplings])
    kappa = np.linalg.eigvalsh(m)[0]
    alpha_lower = min(c.alpha_lower for c in couplings)
    assert _report_bound(tmp_path, raw, golden_traj) == pytest.approx(
        1.0 / (kappa * alpha_lower) + 1.0, rel=1e-12)


def test_cli_report_bound_ignores_couplings_of_a_graph_never_active(tmp_path, golden_traj):
    raw = paper_example()
    bound = _report_bound(tmp_path, raw, golden_traj)
    # nodes 8 and 9 form a declared graph that no phase uses; its coupling's
    # lower sector bound is the smallest in the file
    raw["nodes"] += [dict(raw["nodes"][4], id=8), dict(raw["nodes"][4], id=9)]
    raw["graphs"]["idle"] = {"nodes": [8, 9], "edges": [[8, 9]]}
    raw["couplings"].append({"edge": [8, 9], "kind": "linear_gain", "a": 1e-3})
    assert _report_bound(tmp_path, raw, golden_traj) == bound


def test_cli_certify_json_only_prints_nothing_and_writes_the_same_json(tmp_path, capsys):
    path = tmp_path / "example.json"
    write_scenario(paper_example(), path)
    plain, quiet = tmp_path / "plain.json", tmp_path / "quiet.json"
    assert main(["certify", str(path), "--json", str(plain)]) == 0
    assert "result: certified" in capsys.readouterr().out
    assert main(["certify", str(path), "--json", str(quiet), "--json-only"]) == 0
    assert capsys.readouterr() == ("", "")
    assert quiet.read_bytes() == plain.read_bytes()


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


def _header_only(lines):
    return lines[:1]


def _first_sample_only(lines):
    return lines[:2]


def _node_7_renamed_9(lines):
    header = lines[0].replace("y7", "y9").replace("u7", "u9").replace("w7", "w9")
    return [header] + lines[1:]


def _letter_in_a_cell(lines):
    row = lines[2].split(",")
    row[3] = "a"
    return lines[:2] + [",".join(row)] + lines[3:]


def _groups_name_different_ids(lines):
    return [lines[0].replace("u3", "u9")] + lines[1:]


def _rows_shorter_than_the_header(lines):
    return [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]]


def _cell(column, value):
    """Row 5's cell in ``column`` set to ``value``."""
    def mutate(lines):
        row = lines[5].split(",")
        row[lines[0].split(",").index(column)] = value
        return lines[:5] + [",".join(row)] + lines[6:]
    mutate.__name__ = f"_{column}_{value}"
    return mutate


def _two_rows_swapped(lines):
    return lines[:5] + [lines[6], lines[5]] + lines[7:]


@pytest.mark.parametrize("mutate, message", [
    (_header_only, "no samples"),
    # one sample at t = 0 has no horizon to measure: the report used to
    # write 49 horizons with "T": NaN and exit 0
    (_first_sample_only, "a trajectory needs at least two samples spanning a positive time"),
    (_node_7_renamed_9, "final-graph node(s) [7] not recorded"),
    (_letter_in_a_cell, "could not convert string 'a'"),
    (_groups_name_different_ids, "header is not t, y<id>..., u<id>..., w<id>..."),
    (_rows_shorter_than_the_header, "rows have 21 cells, the header 22"),
    # each of these used to end in a traceback from the fit, a report JSON
    # error or a fit over times that run backwards
    (_cell("t", "nan"), "a t or w cell is not finite"),
    (_cell("w3", "nan"), "a t or w cell is not finite"),
    (_cell("w3", "1e300"), "an edge norm overflows the float range"),
    (_cell("y3", "-inf"), "a y or u cell is infinite"),
    (_cell("y3", "1e300"), "an edge norm overflows the float range"),
    (_cell("u3", "inf"), "a y or u cell is infinite"),
    (_two_rows_swapped, "sample times must increase strictly"),
])
def test_cli_report_rejects_a_bad_trajectory_csv(tmp_path, capfd, golden_traj, mutate,
                                                 message):
    scenario_path = tmp_path / "paper_example.json"
    write_scenario(paper_example(), scenario_path)
    csv_path = tmp_path / "traj.csv"
    write_trajectory_csv(golden_traj, csv_path)
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(mutate(lines)) + "\n")
    code = main(["report", "--traj", str(csv_path), "--scenario", str(scenario_path),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    out, err = capfd.readouterr()  # fd-level: LAPACK writes its messages there
    assert out == "" and err.startswith(f"error: {csv_path}: ") and message in err
    assert not (tmp_path / "traj_report.json").exists()


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
    i_plug = first_plugged_sample(golden_doc.build_scenario())
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


# --- one owner per rule: certify and simulate reject the same files ---------------


def _base_drops_node(raw):
    # node 5 joins g1 alone, so the active nodes 6 and 7 fall out
    raw["plug_events"] = [{"time": 15.0, "base": "g1", "added_node": 5, "boundary": [[1, 5]]}]
    raw["couplings"] = [c for c in raw["couplings"] if c["edge"] != [4, 7]]


def _base_drops_edge(raw):
    # the plug's base is g1 without its active edge 3-4
    raw["graphs"]["g1_cut"] = {"nodes": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4]]}
    raw["plug_events"][0]["base"] = "g1_cut"


def _plug_plan_of(raw) -> PlugPlan:
    def graph(name):
        return Graph.from_pairs(raw["graphs"][name]["nodes"], raw["graphs"][name]["edges"])

    entry = raw["plug_events"][0]
    added = graph(entry["added"]) if "added" in entry else entry["added_node"]
    return PlugPlan(base=graph(entry["base"]), added=added,
                    boundary=tuple(map(tuple, entry["boundary"])))


@pytest.mark.parametrize("mutate, message", [
    (_base_drops_node, "plug event drops active node(s) [6, 7]"),
    (_base_drops_edge, "plug event drops active edge(s) [[3, 4]]"),
], ids=["drops_node", "drops_edge"])
def test_plug_base_must_keep_the_active_network(tmp_path, capsys, golden_doc, mutate,
                                                message):
    raw = paper_example()
    mutate(raw)
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    for command in (["certify", str(path)], ["simulate", str(path), "--out-dir", str(tmp_path)]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: plug_events[0].base:") and message in err
    # library callers meet the same rule when they build a Scenario
    scenario = golden_doc.build_scenario()
    event = PlugEvent(time=15.0, plan=_plug_plan_of(raw))
    with pytest.raises(ValueError, match=r"^plug_events\[0\]\.base: plug event drops"):
        dataclasses.replace(scenario, plug_events=(event,))


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_nonzero_y0_needs_an_output_map(tmp_path, capsys, command):
    raw = paper_example()
    raw["nodes"][2]["dynamics"] = {"num": [0], "den": [1, 1]}  # C = 0, y0 = -1.25
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    out = ["--out-dir", str(tmp_path)] if command == "simulate" else []
    assert main([command, str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nodes[2].y0: cannot match a nonzero initial output")


def _graph_node(raw):
    raw["graphs"]["g1"]["nodes"][0] = True


def _graph_edge(raw):
    raw["graphs"]["g1"]["edges"][0] = [True, 2]


def _coupling_edge(raw):
    raw["couplings"][0]["edge"] = [True, 2]


def _boundary(raw):
    raw["plug_events"][0]["boundary"][0] = [True, 5]


@pytest.mark.parametrize("mutate, message", [
    (_graph_node, "graphs.g1.nodes[0]: must be an integer"),
    (_graph_edge, "graphs.g1.edges[0][0]: must be an integer"),
    (_coupling_edge, "couplings[0].edge[0]: must be an integer"),
    (_boundary, "plug_events[0].boundary[0][0]: must be an integer"),
], ids=["graph_node", "graph_edge", "coupling_edge", "boundary"])
def test_cli_rejects_bool_node_ids(tmp_path, capsys, mutate, message):
    # true is not node 1, wherever a node id is read
    raw = paper_example()
    mutate(raw)
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_rejects_bool_added_node(tmp_path, capsys):
    raw = late_node_scenario()
    raw["plug_events"][0]["added_node"] = True
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: plug_events[0].added_node: must be an integer")


@pytest.mark.parametrize("num, den, message", [
    ([], [2], "numerator coefficients must not be empty"),
    ([], [1.0, 0.7, 0.0], "numerator coefficients must not be empty"),
    ([1], [], "denominator coefficients must not be empty"),
], ids=["static", "dynamic", "empty_den"])
def test_cli_rejects_empty_coefficient_lists(tmp_path, capsys, num, den, message):
    raw = paper_example()
    raw["nodes"][0]["dynamics"] = {"num": num, "den": den}
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nodes[0].dynamics:") and message in err


def test_cli_report_needs_two_samples_from_a_stride_beyond_the_run(tmp_path, capsys):
    raw = paper_example()
    raw["solver"]["sample_stride"] = 30001  # the run has 30000 steps: one sample
    scenario_path = tmp_path / "paper_example.json"
    write_scenario(raw, scenario_path)
    assert main(["simulate", str(scenario_path), "--out-dir", str(tmp_path)]) == 0
    csv_path = tmp_path / "paper_example_traj.csv"
    code = main(["report", "--traj", str(csv_path), "--scenario", str(scenario_path),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: a trajectory needs at least two samples")
    assert not (tmp_path / "paper_example_traj_report.json").exists()


def test_cli_report_on_a_node_that_joins_late(tmp_path, capsys):
    # node 8's outputs are unrecorded (NaN) before t = 2; its edge adds
    # nothing to the disagreement until then
    path = tmp_path / "late.json"
    write_scenario(late_node_scenario(), path)
    assert main(["certify", str(path)]) == 0
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 0
    assert main(["report", "--traj", str(tmp_path / "late_traj.csv"), "--scenario", str(path),
                 "--out-dir", str(tmp_path)]) == 0
    payload = _strict_json(tmp_path / "late_traj_report.json")
    assert payload["satisfied"] and np.isfinite(payload["rho_hat"])
    assert "nan" not in (tmp_path / "late_traj_disagreement.csv").read_text()


def test_plug_entries_are_typed_and_round_trip():
    doc = parse_scenario_dict(late_node_scenario())
    (entry,) = doc.plug_entries
    assert (entry.time, entry.base, entry.added) == (2.0, "g1", None)
    assert doc.plug_plan(entry) is entry.plan and doc.plug_events() == (entry,)
    assert doc.phases == (doc.initial_graph(), doc.final_graph())
    assert doc.final_graph().has_edge(1, 8)
    assert doc.to_dict()["plug_events"] == [
        {"time": 2.0, "base": "g1", "added_node": 8, "boundary": [[8, 1]]}
    ]
    assert parse_scenario_dict(doc.to_dict()).to_dict() == doc.to_dict()


@pytest.mark.parametrize("block, field, value, message", [
    ("graphs", "edges", 5, "graphs.g1.edges: must be a list"),
    ("graphs", "nodes", "1234", "graphs.g1.nodes: must be a list"),
    ("plug_events", "boundary", {"1": 5}, "plug_events[0].boundary: must be a list"),
    ("plug_events", "base", ["g1"], "plug_events[0]: unknown base graph ['g1']"),
    ("plug_events", "added", {"g": 2}, "plug_events[0]: unknown added graph {'g': 2}"),
    ("initial", 0, ["g1"], "initial: unknown graph ['g1']"),
    (None, "plug_events", 3, "plug_events: must be a list"),
    (None, "couplings", 3, "couplings: must be a list"),
], ids=["edges_number", "nodes_text", "boundary_object", "base_list", "added_object",
        "initial_list", "plug_events_number", "couplings_number"])
def test_cli_rejects_malformed_lists_and_graph_names(tmp_path, capsys, block, field, value,
                                                     message):
    # a typed error naming the field, not a TypeError traceback
    raw = paper_example()
    target = {"graphs": raw["graphs"].get("g1"), "plug_events": raw["plug_events"][0],
              "initial": raw["initial"], None: raw}[block]
    target[field] = value
    path = tmp_path / "bad.json"
    write_scenario(raw, path)
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
