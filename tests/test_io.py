import dataclasses
import functools
import json
import math
import re
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_table, make_layer, make_log, rect_cells, world_cells
from odlisim import io, spec
from odlisim.engine import rollout, run_cohort
from odlisim.reach import AxisInterval, DrivableArea, Prevalence, compute_drivable_area
from odlisim.responses import AnalysisWindow, build_sequence_graph, sv_longitudinal_accel
from odlisim.spec import (POLICY_KINDS, PolicySpec, PredictionConfig, RoadSpec, VehicleSpec,
                          VehicleState, make_scenario)


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
    with pytest.raises(spec.ParseError, match="steer_deg"):
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
    with pytest.raises(spec.ParseError, match="row 7: non-finite value in column 'sv_x'") as err:
        io.load_trajectory_log(path)
    assert err.value.row == 7


@pytest.mark.parametrize("column,value", [("brake_pct", "250.0"), ("accel_pct", "-0.5"),
                                          ("brake_pct", "100.000001")])
def test_log_pedal_out_of_range_error(tmp_path, column, value):
    path = saved_log_with_cell(tmp_path, column, value)
    with pytest.raises(spec.ParseError,
                       match=rf"row 7: value in column '{column}' outside \[0, 100\]") as err:
        io.load_trajectory_log(path)
    assert err.value.row == 7


def test_log_nonmonotone_time_error(tmp_path):
    path = saved_log_with_cell(tmp_path, "t", "0.001", line=5)
    with pytest.raises(spec.ParseError, match="row"):
        io.load_trajectory_log(path)


def test_log_missing_sidecar_error(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("t\ns\n0.0\n")
    with pytest.raises(spec.ParseError, match="sidecar"):
        io.load_trajectory_log(path)


@pytest.mark.parametrize("corrupt", [
    lambda meta: json.dumps({k: v for k, v in meta.items() if k != "t_trigger"}),
    lambda meta: json.dumps(meta)[:-2],
    lambda meta: json.dumps(dict(meta, scenario=dict(meta["scenario"], lanes=3))),
    lambda meta: json.dumps(dict(meta, policy={"kind": "no-response", "gain": 2.0})),
    lambda meta: json.dumps(dict(meta, t_trigger=math.nan)),
], ids=["missing-key", "malformed-json", "unknown-scenario-key", "unknown-policy-key",
        "nan-trigger-time"])
def test_log_bad_sidecar_error(tmp_path, corrupt):
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    sidecar = io.sidecar_path(path)
    sidecar.write_text(corrupt(json.loads(sidecar.read_text())))
    with pytest.raises(spec.ParseError, match=re.escape(str(sidecar))):
        io.load_trajectory_log(path)


@pytest.mark.parametrize("key, text", [
    ("dt", '"0.01"'), ("dt", "true"), ("dt", "null"), ("dt", "0"), ("dt", "-0.01"),
    ("dt", "1e400"),
    ("collided", '"no"'), ("collided", "0"), ("collided", "null"),
    ("complete", '"yes"'), ("complete", "1"),
    ("t_collision", '"soon"'), ("t_collision", "1e400"), ("t_collision", "NaN"),
    ("t_collision", "true"), ("t_collision", "[1.0]"),
    pytest.param("t_collision", "-1" + "0" * 400, id="t_collision-huge-int"),
])
def test_log_sidecar_flags_checked(tmp_path, key, text):
    """``dt`` is a finite number > 0, ``collided`` and ``complete`` are JSON booleans and
    ``t_collision`` is null or a finite number; anything else fails at load, naming the
    sidecar and the key."""
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    sidecar = io.sidecar_path(path)
    meta = json.loads(sidecar.read_text())
    meta[key] = "@"
    sidecar.write_text(json.dumps(meta).replace('"@"', text))
    with pytest.raises(spec.ParseError, match=re.escape(f"metadata sidecar {sidecar}: {key} = ")):
        io.load_trajectory_log(path)


@pytest.mark.parametrize("value", [10 ** 400, True], ids=["huge-int", "true"])
@pytest.mark.parametrize("key", ["t_trigger", "scenario.v_pov", "policy.reaction_delay"])
def test_log_sidecar_numbers_checked(tmp_path, key, value):
    """A sidecar number past the float range, or a boolean, fails at load naming the
    sidecar and the key: before, 10**400 raised a bare OverflowError and true loaded as 1."""
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    sidecar = io.sidecar_path(path)
    meta = dict(json.loads(sidecar.read_text()), policy={"kind": "no-response"})
    *owner, name = key.split(".")
    (meta[owner[0]] if owner else meta)[name] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(spec.ParseError, match=re.escape(f"metadata sidecar {sidecar}: ValueError: ")
                       ) as err:
        io.load_trajectory_log(path)
    assert name in str(err.value)


@pytest.mark.parametrize("value", [[0.1, 0.2, 0.3], "ab", ["a", 0.5]],
                         ids=["three-numbers", "string", "text-number"])
def test_log_sidecar_ctrl_fracs_checked(tmp_path, value):
    """A sidecar whose ``scenario.ctrl_fracs`` is not two numbers fails at load naming the
    sidecar and the key: before, it failed with an unpacking or comparison error."""
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    sidecar = io.sidecar_path(path)
    meta = json.loads(sidecar.read_text())
    meta["scenario"]["ctrl_fracs"] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(spec.ParseError, match=re.escape(
            f"metadata sidecar {sidecar}: ValueError: ctrl_fracs")):
        io.load_trajectory_log(path)


def test_log_sidecar_integer_dt_loads(tmp_path):
    """A whole-number ``dt`` written as a JSON integer loads as that float."""
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(dt=1.0, duration=3.0), path)
    sidecar = io.sidecar_path(path)
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), dt=1)))
    dt = io.load_trajectory_log(path).dt
    assert type(dt) is float and dt == 1.0


@pytest.mark.parametrize("flags", [
    {},  # every flag absent
    {"collided": True, "t_collision": 2},
    {"complete": False, "t_collision": 0.25},
])
def test_log_sidecar_flags_load(tmp_path, flags):
    """Valid flags load as written; an absent one means what it always did."""
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    sidecar = io.sidecar_path(path)
    want = {"collided": False, "t_collision": None, "complete": True}
    meta = {k: v for k, v in json.loads(sidecar.read_text()).items() if k not in want}
    sidecar.write_text(json.dumps({**meta, **flags}))
    log = io.load_trajectory_log(path)
    assert {k: getattr(log, k) for k in want} == {**want, **flags}


KEYS = ("x", "y", "vx", "vy", "ax", "ay")
CONTROLS = ("accel_pct", "brake_pct", "steer_deg")
COLUMNS = ("t", *(f"sv_{k}" for k in KEYS), *(f"pov_{k}" for k in KEYS), *CONTROLS)
REQUIRED = ("t", "sv_x", "sv_y", "sv_vx", "sv_vy", "pov_x", "pov_y", "pov_vx", "pov_vy",
            "accel_pct", "brake_pct", "steer_deg")
OPTIONAL = ("sv_ax", "sv_ay", "pov_ax", "pov_ay")
UNITS_ROW = "s,m,m,m/s,m/s,m/s2,m/s2,m,m,m/s,m/s,m/s2,m/s2,%,%,deg"


def log_columns(log):
    return ([log.t] + [log.sv[k] for k in KEYS] + [log.pov[k] for k in KEYS]
            + [log.controls[k] for k in CONTROLS])


def ref_log_text(log):
    """Text of one log in the per-log formatter the cohort writer must reproduce."""
    cols = log_columns(log)
    lines = [",".join(COLUMNS), UNITS_ROW]
    for a in range(0, len(log), 256):
        block = (np.asarray(col[a:a + 256], dtype=float).tolist() for col in cols)
        lines.extend(map(",".join, zip(*(map(repr, b) for b in block))))
    return "\n".join(lines) + "\n"


def ref_load_columns(path, dt):
    """Row-by-row parse and checks of a log body: the reference for the bulk parse."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 4:
        raise spec.ParseError("log file needs a header, a units row, and at least two data rows")
    header = lines[0].split(",")
    for col in REQUIRED:
        if col not in header:
            raise spec.ParseError(f"missing required column {col!r}")
    idx = {c: header.index(c) for c in header}
    n = len(lines) - 2
    data = {c: np.full(n, np.nan) for c in set(header) | set(OPTIONAL)}
    for r, line in enumerate(lines[2:]):
        parts = line.split(",")
        if len(parts) != len(header):
            raise spec.ParseError(f"expected {len(header)} fields, got {len(parts)}", row=r + 3)
        for c, i in idx.items():
            try:
                data[c][r] = float(parts[i])
            except ValueError as exc:
                raise spec.ParseError(f"bad value in column {c!r}: {parts[i]!r}",
                                    row=r + 3) from exc
    for c in idx:
        bad = np.flatnonzero(~np.isfinite(data[c]))
        if len(bad):
            raise spec.ParseError(f"non-finite value in column {c!r}: {float(data[c][bad[0]])}",
                                row=int(bad[0]) + 3)
    for c in ("accel_pct", "brake_pct"):
        bad = np.flatnonzero((data[c] < 0.0) | (data[c] > 100.0))
        if len(bad):
            raise spec.ParseError(f"value in column {c!r} outside [0, 100]: "
                                f"{float(data[c][bad[0]])}", row=int(bad[0]) + 3)
    steps = np.diff(data["t"])
    bad = np.nonzero(steps <= 0)[0]
    if len(bad):
        raise spec.ParseError("non-monotone timestamps", row=int(bad[0]) + 3)
    off = np.nonzero(~np.isclose(steps, dt, rtol=0, atol=1e-9))[0]
    if len(off):
        raise spec.ParseError(f"sample spacing differs from dt={dt}", row=int(off[0]) + 3)
    return data


def parse_result(load, path):
    """Loaded columns as raw bytes, or the ParseError's message and row."""
    try:
        cols = load(path)
    except spec.ParseError as err:
        return str(err), err.row
    return {c: np.asarray(v, dtype=float).tobytes() for c, v in cols.items()}


def with_cell(column, value, line=6):
    def edit(lines):
        parts = lines[line].split(",")
        parts[COLUMNS.index(column)] = value
        return "\n".join(lines[:line] + [",".join(parts)] + lines[line + 1:]) + "\n"
    return edit


PARITY_EDITS = {
    "unchanged": lambda lines: "\n".join(lines) + "\n",
    "blank-line-mid-body": lambda lines: "\n".join(lines[:10] + [""] + lines[10:]) + "\n",
    "whitespace-only-row": lambda lines: "\n".join(lines[:10] + ["  \t"] + lines[10:]) + "\n",
    "trailing-empty-line": lambda lines: "\n".join(lines) + "\n\n",
    "hash-in-cell": with_cell("sv_y", "-1.825#2"),
    "short-row": lambda lines: "\n".join(
        lines[:8] + [lines[8].rsplit(",", 1)[0]] + lines[9:]) + "\n",
    "long-row": lambda lines: "\n".join(lines[:8] + [lines[8] + ",0.0"] + lines[9:]) + "\n",
    "every-row-long": lambda lines: "\n".join(
        lines[:2] + [line + ",0.0" for line in lines[2:]]) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "underscore-digits": with_cell("steer_deg", "1_0"),
    "full-width-digits": with_cell("steer_deg", "１２"),
    "non-finite": with_cell("pov_vy", "-inf"),
    "pedal-out-of-range": with_cell("brake_pct", "250.0"),
    "one-data-row": lambda lines: "\n".join(lines[:3]) + "\n",
}


@pytest.mark.parametrize("edit", PARITY_EDITS.values(), ids=PARITY_EDITS.keys())
def test_log_parse_matches_row_loop(tmp_path, edit):
    log = make_log(duration=0.5)
    path = tmp_path / "run.csv"
    io.save_trajectory_log(log, path)
    path.write_bytes(edit(path.read_text().splitlines()).encode())

    def load(p):
        loaded = io.load_trajectory_log(p)
        return dict(zip(COLUMNS, log_columns(loaded)))

    expected = parse_result(lambda p: ref_load_columns(p, log.dt), path)
    if isinstance(expected, dict):
        expected = {c: expected[c] for c in COLUMNS}
    else:  # the loader names the file before the message and keeps the row
        expected = (f"log {path}: {expected[0]}", expected[1])
    assert parse_result(load, path) == expected


def test_log_duplicate_column_error(tmp_path):
    path = tmp_path / "run.csv"
    io.save_trajectory_log(make_log(duration=0.5), path)
    lines = path.read_text().splitlines()
    extra = ["sv_x", "m"] + ["999.0"] * (len(lines) - 2)
    path.write_text("\n".join(f"{line},{v}" for line, v in zip(lines, extra)) + "\n")
    with pytest.raises(spec.ParseError, match=re.escape("duplicate column 'sv_x'")) as err:
        io.load_trajectory_log(path)
    assert err.value.row is None


def float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     sys.float_info.min, sys.float_info.max, -sys.float_info.max]),
    st.integers(0, 2 ** 64 - 1).map(float_of_bits).filter(np.isfinite),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(finite_floats, min_size=11 * 13, max_size=11 * 13))
def test_log_parse_bit_identical_property(values):
    # Every column but t and the pedals takes arbitrary finite values.
    free = iter(np.array(values).reshape(13, 11))
    log = make_log(duration=0.1, sv={k: next(free) for k in KEYS},
                   pov={k: next(free) for k in KEYS}, controls={"steer_deg": next(free)})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        io.save_trajectory_log(log, path)   # for the sidecar
        path.write_text(ref_log_text(log))
        loaded = io.load_trajectory_log(path)
    for got, want in zip(log_columns(loaded), log_columns(log)):
        assert got.tobytes() == want.tobytes()


def cohort_logs():
    """Default-scenario cohort whose members end at different samples."""
    policies = [PolicySpec(kind="no-response"),
                PolicySpec(kind="brake-only", reaction_delay=1.6, brake_level="hard"),
                PolicySpec(kind="steer-shoulder-only", reaction_delay=1.2, steer_target=10.0)]
    return run_cohort(make_scenario(0.0), [(p, 1) for p in policies])


def with_value(log, group, key, row, *values):
    """``log`` with cells row, row + 1, ... of a channel group (sv, pov or controls) replaced."""
    chans = dict(getattr(log, group))
    chans[key] = chans[key].copy()
    chans[key][row:row + len(values)] = values
    return dataclasses.replace(log, **{group: chans})


def one_ulp_up(log, group="pov", key="y", row=40):
    return with_value(log, group, key, row, np.nextafter(getattr(log, group)[key][row], np.inf))


def negative_zero(log, group="pov", key="ax", row=40):
    assert getattr(log, group)[key][row] == 0.0
    return with_value(log, group, key, row, -0.0)


def signed_zeros(log, group="sv", key="ay", row=40):
    assert not getattr(log, group)[key][row:row + 5].any()
    return with_value(log, group, key, row, 0.0, -0.0, -0.0, 0.0, -0.0)


# Values where repr switches between positional and exponent notation, and
# the smallest subnormals.
FORMAT_EDGES = (1e16, 9999999999999998.0, 0.0001, 9.999999999999999e-05, 5e-324, -5e-324)


def format_edges(log, group="controls", key="steer_deg", row=40):
    return with_value(log, group, key, row, *FORMAT_EDGES)


def run_across_block(log, group="sv", key="x"):
    # A run of one value from 3 rows before a block boundary to 3 rows past it.
    return with_value(log, group, key, io._SAVE_BLOCK_ROWS - 3, *[7.25] * 7)


def shifted_time(log, row=40):
    t = log.t.copy()
    t[row] = np.nextafter(t[row], -np.inf)
    return dataclasses.replace(log, t=t)


def in_a_member(edit):
    return lambda logs: [logs[0], edit(logs[1]), logs[2]]


def edit_longest(edit):
    def cohort(logs):
        i = max(range(len(logs)), key=lambda k: len(logs[k]))
        return logs[:i] + [edit(logs[i])] + logs[i + 1:]
    return cohort


COHORTS = {
    "unequal-lengths": lambda logs: logs,
    "one-member": lambda logs: logs[:1],
    "pov-one-ulp-in-a-member": in_a_member(one_ulp_up),
    "pov-one-ulp-in-the-longest": edit_longest(one_ulp_up),
    "negative-zero-in-a-member": in_a_member(negative_zero),
    "negative-zero-in-the-longest": edit_longest(negative_zero),
    "time-one-ulp-in-a-member": in_a_member(shifted_time),
    "negative-zero-beside-zero-in-a-member": in_a_member(signed_zeros),
    "negative-zero-beside-zero-in-the-longest": edit_longest(
        functools.partial(signed_zeros, group="pov", key="ax")),
    "format-edges-in-a-member": in_a_member(format_edges),
    "format-edges-in-the-longest": edit_longest(
        functools.partial(format_edges, group="pov", key="vy")),
    "run-across-a-block-in-a-member": in_a_member(run_across_block),
    "run-across-a-block-in-the-longest": edit_longest(
        functools.partial(run_across_block, group="pov", key="y")),
    # Member columns are looked up cell by cell in a table keyed on bits: a
    # value every member repeats, one ulp off, and -0.0 where the cohort
    # writes 0.0 must each keep their own text.
    "sv-one-ulp-in-a-member": in_a_member(functools.partial(one_ulp_up, group="sv", key="x")),
    "sv-one-ulp-in-the-longest": edit_longest(
        functools.partial(one_ulp_up, group="sv", key="x")),
    "sv-negative-zero-in-a-member": in_a_member(
        functools.partial(negative_zero, group="sv", key="vy")),
    "sv-negative-zero-in-the-longest": edit_longest(
        functools.partial(negative_zero, group="sv", key="vy")),
    "control-one-ulp-in-a-member": in_a_member(
        functools.partial(one_ulp_up, group="controls", key="accel_pct")),
    "control-one-ulp-in-the-longest": edit_longest(
        functools.partial(one_ulp_up, group="controls", key="accel_pct")),
    "control-negative-zero-in-a-member": in_a_member(
        functools.partial(negative_zero, group="controls", key="steer_deg")),
    "control-negative-zero-in-the-longest": edit_longest(
        functools.partial(negative_zero, group="controls", key="steer_deg")),
}


@pytest.mark.parametrize("make", COHORTS.values(), ids=COHORTS.keys())
def test_cohort_writer_matches_per_log_text(tmp_path, make):
    logs = make(cohort_logs())
    if len(logs) > 1:
        assert len({len(log) for log in logs}) > 1
    paths = [tmp_path / f"run_{i:03d}.csv" for i in range(len(logs))]
    io.save_trajectory_logs(logs, paths)
    for log, path in zip(logs, paths):
        assert path.read_text() == ref_log_text(log)
        alone = tmp_path / "alone.csv"
        io.save_trajectory_log(log, alone)
        assert alone.read_bytes() == path.read_bytes()
        assert io.sidecar_path(alone).read_bytes() == io.sidecar_path(path).read_bytes()


def ref_sidecar_text(log):
    """Text of one sidecar with its scenario rendered in place, as the cohort
    writer, which renders each scenario once, must reproduce."""
    meta = {"dt": log.dt, "t_trigger": log.timing.t_trigger,
            "t_critical": log.timing.t_critical, "scenario": spec.scenario_to_dict(log.scenario),
            "policy": dataclasses.asdict(log.policy), "collided": log.collided,
            "t_collision": log.t_collision, "complete": log.complete}
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def test_cohort_sidecars_match_per_log_rendering(tmp_path):
    """A cohort of three scenarios: the default one, a second IL, and one equal
    to the default but for the sign of a zero, which must keep its own text."""
    logs = cohort_logs()
    signed = dataclasses.replace(logs[2].scenario, incursion_level=-0.0)
    assert signed == logs[0].scenario
    logs[2] = dataclasses.replace(logs[2], scenario=signed)
    logs.append(rollout(make_scenario(-0.8), PolicySpec(kind="brake-only")))
    paths = [tmp_path / f"run_{i:03d}.csv" for i in range(len(logs))]
    io.save_trajectory_logs(logs, paths)
    texts = [io.sidecar_path(path).read_text() for path in paths]
    assert texts == [ref_sidecar_text(log) for log in logs]
    assert '"incursion_level": -0.0' in texts[2]


def test_cohort_writer_memory_bound(tmp_path):
    # The default 20-run cohort at the paper's three ILs; the writer's
    # transient arrays stay well under 4 MB (about 2.1 MB measured).
    for il in (-0.8, 0.0, 0.9):
        config = spec.default_run_config(il)
        scenario, timing = spec.config_scenario(config)
        logs = run_cohort(scenario, spec.config_policies(config), dt=config["analysis"]["dt"],
                          seed=config["seed"], delay_jitter=config["analysis"]["delay_jitter"],
                          timing=timing)
        paths = [tmp_path / f"run_{i:03d}.csv" for i in range(len(logs))]
        tracemalloc.start()
        try:
            io.save_trajectory_logs(logs, paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(logs) == 20 and peak < 4e6


def test_cohort_writer_needs_one_path_per_log(tmp_path):
    with pytest.raises(ValueError, match="2 logs for 1 paths"):
        io.save_trajectory_logs(cohort_logs()[:2], [tmp_path / "run.csv"])
    io.save_trajectory_logs([], [])
    assert not any(tmp_path.iterdir())


def test_default_config_roundtrip(tmp_path):
    config = spec.default_run_config(-0.8)
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    loaded = spec.load_run_config(path)
    assert loaded == config
    scenario, timing = spec.config_scenario(loaded)
    assert scenario.incursion_level == -0.8
    assert scenario.end_heading_mode == "continuing-left"
    assert timing.t_critical - timing.t_trigger == pytest.approx(5.15)
    pred = spec.config_prediction(loaded)
    assert pred.pov_limits.a_lat_right_max == 0.0
    cohort = spec.config_policies(loaded)
    assert sum(c for _, c in cohort) == 20


def test_config_carries_named_constants():
    config = spec.default_run_config()
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
    config = spec.default_run_config()
    path = tmp_path / "config.json"
    config["analysis"][key] = fixed
    spec.save_run_config(config, path)
    assert spec.load_run_config(path)["analysis"][key] == fixed
    config["analysis"][key] = fixed + 1.0
    spec.save_run_config(config, path)
    with pytest.raises(spec.ParseError, match=f"analysis.{key}"):
        spec.load_run_config(path)


@pytest.mark.parametrize("text", [
    '{"scenario": {}, ',
    '[1, 2]',
    json.dumps({"scenario": {}, "analysis": 3, "prediction": {}}),
    json.dumps(dict(spec.default_run_config(), scenario={"incursion_level": 0.0})),
    json.dumps(dict(spec.default_run_config(), policies=[{"kind": "brake-only", "gain": 2}])),
], ids=["malformed-json", "not-an-object", "section-not-an-object", "scenario-without-road",
        "unknown-policy-key"])
def test_config_format_error_names_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(spec.ParseError, match=re.escape(f"run config {path}: ")):
        spec.load_run_config(path)


@pytest.mark.parametrize("name, error", [("config.json", "FileNotFoundError"),
                                         ("configs", "IsADirectoryError")],
                         ids=["missing", "directory"])
def test_config_read_error_names_file(tmp_path, name, error):
    """A config path that cannot be read fails as the ParseError of a malformed file:
    before, a directory raised a bare IsADirectoryError."""
    path = tmp_path / name
    if name == "configs":
        path.mkdir()
    with pytest.raises(spec.ParseError, match=re.escape(f"run config {path}: {error}: ")):
        spec.load_run_config(path)


@pytest.mark.parametrize("section", ["scenario", "analysis", "prediction"])
def test_config_missing_section_error(tmp_path, section):
    config = spec.default_run_config()
    del config[section]
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    message = f"run config {path}: section '{section}' is missing"
    with pytest.raises(spec.ParseError, match=re.escape(message)):
        spec.load_run_config(path)


@pytest.mark.parametrize("key,bad", [
    ("dt", 0.0), ("dt", math.nan),
    ("eval_step", -0.1), ("eval_step", math.inf),
    ("bootstrap_samples", 0), ("bootstrap_samples", 2.5), ("bootstrap_samples", "1000"),
    ("delay_jitter", -0.2), ("delay_jitter", math.nan),
    ("window_reaction_floor", math.nan), ("window_reaction_floor", -0.4),
])
def test_config_analysis_value_checked(tmp_path, key, bad):
    config = spec.default_run_config()
    config["analysis"][key] = bad
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    with pytest.raises(spec.ParseError, match=re.escape(f"run config {path}: analysis.{key} = ")):
        spec.load_run_config(path)


@pytest.mark.parametrize("bad", [-1, 1.5, "7", None])
def test_config_seed_checked(tmp_path, bad):
    config = dict(spec.default_run_config(), seed=bad)
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    with pytest.raises(spec.ParseError, match=re.escape(f"run config {path}: seed = ")):
        spec.load_run_config(path)


@pytest.mark.parametrize("bad", [0, -3, 2.7, "2", True, None])
def test_config_policy_count_checked(tmp_path, bad):
    config = spec.default_run_config()
    config["policies"][1]["count"] = bad
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    message = f"run config {path}: policies[1].count = {bad!r} must be an integer >= 1"
    with pytest.raises(spec.ParseError, match=re.escape(message)):
        spec.load_run_config(path)


@pytest.mark.parametrize("key", ["seed", "policies[0].count", "analysis.bootstrap_samples",
                                 "analysis.dt"])
def test_config_huge_integer_checked(tmp_path, key):
    """A JSON integer beyond the float range fails as the ParseError naming its key,
    not as an OverflowError."""
    config = spec.default_run_config()
    owner = {"seed": config, "policies[0].count": config["policies"][0],
             "analysis.bootstrap_samples": config["analysis"], "analysis.dt": config["analysis"]}
    owner[key][key.rsplit(".", 1)[-1]] = 10 ** 400
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    with pytest.raises(spec.ParseError, match=re.escape(f"run config {path}: {key} = 1000")):
        spec.load_run_config(path)


@pytest.mark.parametrize("bad", [{"kind": "no-response"}, ["no-response"], "no-response"])
def test_config_policies_must_be_objects(tmp_path, bad):
    path = tmp_path / "config.json"
    spec.save_run_config(dict(spec.default_run_config(), policies=bad), path)
    message = f"run config {path}: policies must be a list of objects"
    with pytest.raises(spec.ParseError, match=re.escape(message)):
        spec.load_run_config(path)


def test_config_fills_omitted_keys(tmp_path):
    """A config lacking a key with a fallback loads with the value it always meant."""
    config = spec.default_run_config()
    del config["seed"], config["output_dir"], config["policies"], config["scenario"]["t_trigger"]
    for key in ("eval_step", "bootstrap_samples", "delay_jitter", "window_reaction_floor"):
        del config["analysis"][key]
    path = tmp_path / "config.json"
    spec.save_run_config(config, path)
    loaded = spec.load_run_config(path)
    assert (loaded["seed"], loaded["output_dir"], loaded["policies"]) == (0, "out", [])
    assert loaded["scenario"]["t_trigger"] == 1.0
    config["policies"] = [{"kind": "no-response"}]
    spec.save_run_config(config, path)
    assert spec.load_run_config(path)["policies"] == [{"kind": "no-response", "count": 1}]
    assert loaded["analysis"] == {"dt": 0.01, "eval_step": 0.1, "bootstrap_samples": 1000,
                                  "delay_jitter": 0.0, "window_reaction_floor": 0.4}


def test_sequence_graph_emission_sums(tmp_path):
    runs = [(make_log(), AnalysisWindow(1.4, 6.0), "collision") for _ in range(4)]
    runs.append((make_log(sv={"ax": lambda t: -6.0 * (t > 3.0)}),
                 AnalysisWindow(1.4, 6.0), "collision"))
    graph = build_sequence_graph(runs)
    path = tmp_path / "graph.csv"
    io.emit_sequence_graph(graph, path)
    header, units, rows = load_table(path)
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
    header, units, rows = load_table(path)
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
    header, _, rows = load_table(path)
    vehicles = {row[0] for row in rows}
    assert "pov" in vehicles
    if not area.exists and all(l.empty for l in area.layers):
        assert "sv" not in vehicles
    svg = (tmp_path / "snap.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # Every fifth layer is drawn, each non-empty one as one path.
    drawn = [layer for layers in (area.pov_layers, area.layers) for layer in layers[::5]]
    assert svg.count("<path ") == sum(not layer.empty for layer in drawn)
    assert any(layer.empty for layer in drawn)


_RECT = st.tuples(st.integers(-40, 40), st.integers(0, 6), st.integers(-20, 20),
                  st.integers(0, 6)).map(lambda r: (r[0], r[0] + r[1], r[2], r[2] + r[3]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_RECT, max_size=6), st.lists(_RECT, max_size=6))
def test_snapshot_rows_are_layer_rectangles(sv_rects, pov_rects):
    """Overlapping, nested and negative rectangles: each layer's rows cover its cells
    exactly, and each row's metres are its cell range scaled by the cell size."""
    hull = AxisInterval(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    layers = {"sv": [make_layer(0.0, 0.5, 0.25, sv_rects, hull, hull)],
              "pov": [make_layer(0.1, 0.5, 0.25, pov_rects, hull, hull)]}
    area = DrivableArea(layers["sv"], exists=True, pov_layers=layers["pov"])
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "snap.csv"
        io.emit_reach_snapshot(area, path)
        header, _, rows = load_table(path)
    assert header == ["vehicle", "tau", "i0", "i1", "j0", "j1", "x_lo", "x_hi", "y_lo", "y_hi"]
    for name, (layer,) in layers.items():
        mine = [row for row in rows if row[0] == name]
        assert {float(row[1]) for row in mine} <= {layer.tau}
        ranges = [tuple(map(int, row[2:6])) for row in mine]
        assert rect_cells(ranges) == world_cells(layer)
        for (i0, i1, j0, j1), row in zip(ranges, mine):
            assert list(map(float, row[6:])) == [i0 * 0.5, i1 * 0.5, j0 * 0.25, j1 * 0.25]


def test_float_format_shortest_roundtrip(tmp_path):
    values = [0.1, 1 / 3, 17.88, 5.15, 1e-9, 123456.789012345]
    for v in values:
        assert float(io._fmt(v)) == v
