"""Scenario builders shared between test modules."""

from __future__ import annotations


def fig2_scenario(boundary, noise_scale=0.0):
    """Two three-node paths joined by two boundary edges; certifiable data."""
    edges = [[1, 2], [2, 3], [4, 5], [5, 6]] + [list(b) for b in boundary]
    return {
        "version": "1",
        "nodes": [
            {"id": i, "dynamics": {"num": [1], "den": [1, 1]}, "nu": -0.1, "y0": 0.2 * i}
            for i in range(1, 7)
        ],
        "graphs": {
            "g1": {"nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]]},
            "g2": {"nodes": [4, 5, 6], "edges": [[4, 5], [5, 6]]},
        },
        "initial": ["g1", "g2"],
        "couplings": [{"edge": e, "kind": "linear_gain", "a": 0.5} for e in edges],
        "plug_events": [
            {"time": 1.0, "base": "g1", "added": "g2", "boundary": boundary}
        ],
        "noise": {"scale": noise_scale, "seed": 3},
        "solver": {"dt": 0.01, "t_end": 2.0, "sample_stride": 5},
    }


def first_plugged_sample(scenario):
    """Index of the first sample of the second topology phase, from the
    scenario's own step counts: the first multiple of the sample stride at
    or after the plug step."""
    return -(-scenario.phase_start_steps()[1] // scenario.solver.sample_stride)


def late_node_scenario():
    """The bundled example cut to g1; node 8 (node 5's dynamics) joins at t = 2."""
    from plugnet.scenario import paper_example

    raw = paper_example()
    raw["nodes"] = raw["nodes"][:4] + [dict(raw["nodes"][4], id=8)]
    raw["graphs"] = {"g1": raw["graphs"]["g1"]}
    raw["initial"] = ["g1"]
    raw["couplings"] = [c for c in raw["couplings"] if max(c["edge"]) <= 4]
    raw["couplings"].append({"edge": [1, 8], "kind": "sat_sine", "a": 0.37})
    raw["plug_events"] = [{"time": 2.0, "base": "g1", "added_node": 8, "boundary": [[8, 1]]}]
    return raw
