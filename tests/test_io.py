import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_log
from odlisim import io
from odlisim.engine import rollout
from odlisim.policies import POLICY_KINDS, PolicySpec
from odlisim.reach import PredictionConfig, Prevalence, compute_drivable_area
from odlisim.responses import AnalysisWindow, build_sequence_graph, sv_longitudinal_accel
from odlisim.scenario import make_scenario
from odlisim.core import RoadSpec, VehicleSpec, VehicleState


def test_log_roundtrip_lossless(tmp_path):
    log = rollout(make_scenario(-0.8), PolicySpec(kind="brake-then-steer-center"),
                  dt=0.01)
    path = tmp_path / "run.csv"
    io.save_trajectory_log(log, path)
    loaded = io.load_trajectory_log(path)
    assert loaded.dt == log.dt
    assert np.array_equal(loaded.t, log.t)
    for key in ("x", "y", "vx", "vy", "ax", "ay"):
        assert np.array_equal(loaded.sv[key], log.sv[key])
        assert np.array_equal(loaded.pov[key], log.pov[key])
    for key in ("accel_pct", "brake_pct", "steer_deg"):
        assert np.array_equal(loaded.controls[key], log.controls[key])
    assert loaded.scenario == log.scenario
    assert loaded.timing == log.timing
    assert loaded.policy == log.policy
    assert loaded.collided == log.collided


policies = st.builds(
    PolicySpec, kind=st.sampled_from(POLICY_KINDS),
    reaction_delay=st.floats(0.0, 3.0), brake_level=st.sampled_from(["soft", "hard"]),
    steer_rate=st.floats(1.0, 500.0), steer_target=st.floats(0.0, 30.0),
    reversal_delay=st.floats(0.0, 2.0), reversal_target=st.floats(0.0, 30.0))


@settings(max_examples=15, deadline=None)
@given(il=st.floats(-1.0, 1.0), policy=policies)
def test_log_roundtrip_property(il, policy):
    log = rollout(make_scenario(il), policy, dt=0.01)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        io.save_trajectory_log(log, path)
        loaded = io.load_trajectory_log(path)
    assert loaded.t.tobytes() == log.t.tobytes()
    for a, b in ((loaded.sv, log.sv), (loaded.pov, log.pov),
                 (loaded.controls, log.controls)):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key
    for field in ("dt", "scenario", "timing", "policy", "collided", "t_collision",
                  "complete"):
        assert getattr(loaded, field) == getattr(log, field), field


def test_log_missing_column_error(tmp_path):
    log = make_log(duration=1.0)
    path = tmp_path / "run.csv"
    io.save_trajectory_log(log, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("steer_deg")
    pruned = [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
              for line in lines]
    path.write_text("\n".join(pruned) + "\n")
    with pytest.raises(io.ParseError, match="steer_deg"):
        io.load_trajectory_log(path)


def test_log_optional_accel_columns(tmp_path):
    log = make_log(duration=1.0, sv={"vx": lambda t: 20.0 - 4.0 * t})
    path = tmp_path / "run.csv"
    io.save_trajectory_log(log, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, c in enumerate(header)
            if c not in ("sv_ax", "sv_ay", "pov_ax", "pov_ay")]
    pruned = [",".join(line.split(",")[i] for i in keep) for line in lines]
    path.write_text("\n".join(pruned) + "\n")
    loaded = io.load_trajectory_log(path)
    assert np.all(np.isnan(loaded.sv["ax"]))
    ax = sv_longitudinal_accel(loaded)  # derived downstream from vx
    assert np.allclose(ax[20:-20], -4.0, rtol=0.02)


def saved_log_with_cell(tmp_path, column, value, line=6):
    """Path of a saved synthetic log whose ``column`` on ``line`` reads ``value``."""
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    lines = path.read_text().splitlines()
    parts = lines[line].split(",")
    parts[lines[0].split(",").index(column)] = value
    lines[line] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_log_nonfinite_sample_error(tmp_path, value):
    path = saved_log_with_cell(tmp_path, "sv_x", value)
    with pytest.raises(io.ParseError, match="row 7: non-finite value in column 'sv_x'") as err:
        io.load_trajectory_log(path)
    assert err.value.row == 7


@pytest.mark.parametrize("column,value", [("brake_pct", "250.0"), ("accel_pct", "-0.5"),
                                          ("brake_pct", "100.000001")])
def test_log_pedal_out_of_range_error(tmp_path, column, value):
    path = saved_log_with_cell(tmp_path, column, value)
    with pytest.raises(io.ParseError,
                       match=rf"row 7: value in column '{column}' outside \[0, 100\]") as err:
        io.load_trajectory_log(path)
    assert err.value.row == 7


def test_log_nonmonotone_time_error(tmp_path):
    path = saved_log_with_cell(tmp_path, "t", "0.001", line=5)
    with pytest.raises(io.ParseError, match="row"):
        io.load_trajectory_log(path)


def test_log_missing_sidecar_error(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("t\ns\n0.0\n")
    with pytest.raises(io.ParseError, match="sidecar"):
        io.load_trajectory_log(path)


@pytest.mark.parametrize("corrupt", [
    lambda meta: json.dumps({k: v for k, v in meta.items() if k != "t_trigger"}),
    lambda meta: json.dumps(meta)[:-2],
    lambda meta: json.dumps(dict(meta, scenario=dict(meta["scenario"], lanes=3))),
    lambda meta: json.dumps(dict(meta, policy={"kind": "no-response", "gain": 2.0})),
], ids=["missing-key", "malformed-json", "unknown-scenario-key", "unknown-policy-key"])
def test_log_bad_sidecar_error(tmp_path, corrupt):
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    sidecar = io.sidecar_path(path)
    sidecar.write_text(corrupt(json.loads(sidecar.read_text())))
    with pytest.raises(io.ParseError, match=re.escape(str(sidecar))):
        io.load_trajectory_log(path)


def test_default_config_roundtrip(tmp_path):
    config = io.default_run_config(-0.8)
    path = tmp_path / "config.json"
    io.save_run_config(config, path)
    loaded = io.load_run_config(path)
    assert loaded == config
    scenario, timing = io.config_scenario(loaded)
    assert scenario.incursion_level == -0.8
    assert scenario.end_heading_mode == "continuing-left"
    assert timing.t_critical - timing.t_trigger == pytest.approx(5.15)
    pred = io.config_prediction(loaded)
    assert pred.pov_limits.a_lat_right_max == 0.0
    cohort = io.config_policies(loaded)
    assert sum(c for _, c in cohort) == 20


def test_config_carries_named_constants():
    config = io.default_run_config()
    assert config["scenario"]["time_gap_trigger"] == 5.15
    assert config["analysis"]["window_reaction_floor"] == 0.4
    # the response thresholds are fixed constants, not config keys
    assert not {"accel_release_pct", "brake_onset_pct",
                "steer_onset_deg"} & set(config["analysis"])
    sv = config["prediction"]["sv_limits"]
    assert (sv["v_max"], sv["a_fwd_max"], sv["a_brk_max"]) == (20.0, 5.0, 8.0)


@pytest.mark.parametrize("key,fixed", [("accel_release_pct", 3.0),
                                       ("brake_onset_pct", 15.0),
                                       ("steer_onset_deg", 5.0)])
def test_config_threshold_keys_fixed(tmp_path, key, fixed):
    # Older configs may carry a threshold key, but only at its fixed value.
    config = io.default_run_config()
    path = tmp_path / "config.json"
    config["analysis"][key] = fixed
    io.save_run_config(config, path)
    assert io.load_run_config(path)["analysis"][key] == fixed
    config["analysis"][key] = fixed + 1.0
    io.save_run_config(config, path)
    with pytest.raises(io.ParseError, match=f"analysis.{key}"):
        io.load_run_config(path)


@pytest.mark.parametrize("text", [
    '{"scenario": {}, ',
    '[1, 2]',
    json.dumps({"scenario": {}, "analysis": 3, "prediction": {}}),
], ids=["malformed-json", "not-an-object", "section-not-an-object"])
def test_config_format_error_names_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(io.ParseError, match=re.escape(f"run config {path}: ")):
        io.load_run_config(path)


@pytest.mark.parametrize("section", ["scenario", "analysis", "prediction"])
def test_config_missing_section_error(tmp_path, section):
    config = io.default_run_config()
    del config[section]
    path = tmp_path / "config.json"
    io.save_run_config(config, path)
    message = f"run config {path}: section '{section}' is missing"
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_run_config(path)


def test_sequence_graph_emission_sums(tmp_path):
    runs = [(make_log(), AnalysisWindow(1.4, 6.0), "collision") for _ in range(4)]
    runs.append((make_log(sv={"ax": lambda t: -6.0 * (t > 3.0)}),
                 AnalysisWindow(1.4, 6.0), "collision"))
    graph = build_sequence_graph(runs)
    path = tmp_path / "graph.csv"
    io.emit_sequence_graph(graph, path)
    header, units, rows = io.load_table(path)
    assert header == ["kind", "from", "to", "count"]

    inflow, outflow, initial = {}, {}, {}
    for kind, src, dst, count in rows:
        c = int(count)
        if kind == "initial":
            initial[dst] = initial.get(dst, 0) + c
        else:
            outflow[src] = outflow.get(src, 0) + c
            inflow[dst] = inflow.get(dst, 0) + c
    outcomes = {"collision", "pass-via-center", "pass-via-shoulder"}
    for node in set(inflow) | set(outflow) | set(initial):
        if node in outcomes:
            continue
        assert inflow.get(node, 0) + initial.get(node, 0) == outflow.get(node, 0)


def test_prevalence_table_rows(tmp_path):
    prev = Prevalence(rel_t=np.array([0.4, 0.6, 0.8]),
                      fraction=np.array([1.0, 0.5, 0.25]),
                      ci_lo=np.array([1.0, 0.25, 0.0]),
                      ci_hi=np.array([1.0, 0.75, 0.5]),
                      n_extrapolated=np.array([0, 0, 2]))
    path = tmp_path / "prev.csv"
    io.emit_prevalence(prev, path)
    header, units, rows = io.load_table(path)
    assert len(rows) == 3
    assert header[0] == "rel_t" and units[0] == "s"
    assert float(rows[1][1]) == 0.5


def test_snapshot_empty_drivable_layers(tmp_path):
    cfg = PredictionConfig()
    sv = VehicleState(t=0, x=0, y=-1.825, vx=17.88, vy=0, ax=0, ay=0)
    pov = VehicleState(t=0, x=12.0, y=-1.825, vx=-17.88, vy=0, ax=0, ay=0,
                       heading_sign=-1)
    area = compute_drivable_area(sv, pov, cfg, RoadSpec(), VehicleSpec(),
                                 VehicleSpec(ref_offset=0.2),
                                 mode="kinematic-envelope")
    path = tmp_path / "snap.csv"
    io.emit_reach_snapshot(area, path, svg_path=tmp_path / "snap.svg")
    header, _, rows = io.load_table(path)
    vehicles = {row[0] for row in rows}
    assert "pov" in vehicles
    if not area.exists and all(l.empty for l in area.layers):
        assert "sv" not in vehicles
    svg = (tmp_path / "snap.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_float_format_shortest_roundtrip(tmp_path):
    values = [0.1, 1 / 3, 17.88, 5.15, 1e-9, 123456.789012345]
    for v in values:
        assert float(io._fmt(v)) == v
