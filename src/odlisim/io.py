"""File formats: trajectory logs, run configs, and analysis table emission.

Trajectory logs are comma-delimited text with a header row, a units row,
and one row per sample; a JSON sidecar (<path>.meta.json) carries the
scenario, the trigger time, and rollout flags.  Floats are written with
shortest round-trip formatting, so save/load is lossless and byte-stable
for identical inputs.

A log body is parsed by one bulk ``np.loadtxt`` call, which converts each
cell exactly as ``float()`` does.  Only when that call fails, or its shape
shows a blank or missing row, does the row-by-row loop run: it names the
bad row, or loads what ``float()`` accepts and ``loadtxt`` does not (such
as ``1_0``).  A header that names a column twice is rejected.

A cohort is written by one writer, ``save_trajectory_logs``, which formats
each distinct float once per cohort, from one table keyed by the value's
int64 bits (so ``-0.0`` stays apart from ``0.0``); about one cell in twenty
is distinct.  The ``t`` and ``pov_*`` rows are joined once, from the longest
member, and a member reuses them where its columns are bit-identical
prefixes of them.  Every file is byte-identical to a write of its log alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from .core import STATE_KEYS, KinematicLimits, RoadSpec, VehicleSpec
from .engine import CONTROL_KEYS, TrajectoryLog
from .policies import ACCEL_RELEASE_PCT, BRAKE_ONSET_PCT, STEER_ONSET_DEG, PolicySpec
from .reach import DrivableArea, Layer, Prevalence, PredictionConfig, Timeline
from .responses import SequenceGraph
from .scenario import ScenarioSpec, ScenarioTiming, default_timing, make_scenario


class ParseError(ValueError):
    """Structured file-format error: carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


_ALL_COLS = ("t", *(f"sv_{k}" for k in STATE_KEYS), *(f"pov_{k}" for k in STATE_KEYS),
             *CONTROL_KEYS)
_OPTIONAL_COLS = ("sv_ax", "sv_ay", "pov_ax", "pov_ay")
_REQUIRED_COLS = tuple(c for c in _ALL_COLS if c not in _OPTIONAL_COLS)
_UNITS = {"t": "s", "x": "m", "y": "m", "vx": "m/s", "vy": "m/s",
          "ax": "m/s2", "ay": "m/s2", "accel_pct": "%", "brake_pct": "%",
          "steer_deg": "deg"}
_SAVE_BLOCK_ROWS = 256


def _fmt(v: float) -> str:
    return repr(float(v))


def _unit_of(col: str) -> str:
    key = col.split("_", 1)[1] if col.startswith(("sv_", "pov_")) else col
    return _UNITS.get(key, _UNITS.get(col, "-"))


_LOG_HEAD = [",".join(_ALL_COLS), ",".join(_unit_of(c) for c in _ALL_COLS)]


class _FloatTexts(dict):
    """Shortest round-trip text (``repr``) of floats, keyed by int64 bit pattern.

    A value is formatted the first time its bits are looked up.  Keying on
    bits keeps ``-0.0`` apart from ``0.0``, which compare equal.
    """

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(struct.unpack("<d", struct.pack("<q", bits))[0])
        return text

    def column(self, col, a: int, b: int):
        """The text of rows a:b of one column."""
        return map(self.__getitem__,
                   np.asarray(col[a:b], dtype=float).view(np.int64).tolist())


def _row_texts(texts: _FloatTexts, cols: list, n: int) -> list[str]:
    """The first n rows of ``cols``, each row's values comma-joined.

    Looked up in blocks of rows, so only one block's keys are alive at a time.
    """
    rows = []
    for a in range(0, n, _SAVE_BLOCK_ROWS):
        b = min(a + _SAVE_BLOCK_ROWS, n)
        rows.extend(map(",".join, zip(*(texts.column(c, a, b) for c in cols))))
    return rows


def _is_bit_prefix(col, ref) -> bool:
    """Whether ``col`` equals the start of the longer ``ref`` bit for bit."""
    col = np.asarray(col, dtype=float)
    ref = np.asarray(ref, dtype=float)[:len(col)]
    return bool((col.view(np.int64) == ref.view(np.int64)).all())


def _shared_groups(log: TrajectoryLog) -> tuple[list, list]:
    """The column groups a cohort shares: the time grid and the POV track."""
    return [log.t], [log.pov[k] for k in STATE_KEYS]


def save_trajectory_logs(logs: list[TrajectoryLog], paths: list[str | Path]) -> None:
    """Write each log to its path, formatting each distinct float once.

    Every cell's text comes from one table per call, keyed by its bits.
    The ``t`` and ``pov_*`` rows come from the longest log; a log whose
    group of columns is not a bit-identical prefix of it looks that group
    up itself.
    """
    if len(logs) != len(paths):
        raise ValueError(f"{len(logs)} logs for {len(paths)} paths")
    if not logs:
        return
    texts = _FloatTexts()
    longest = max(logs, key=len)
    shared = [(cols, _row_texts(texts, cols, len(longest)))
              for cols in _shared_groups(longest)]
    for log, path in zip(logs, paths):
        n = len(log)
        t_rows, pov_rows = (
            rows if all(map(_is_bit_prefix, cols, ref)) else _row_texts(texts, cols, n)
            for (ref, rows), cols in zip(shared, _shared_groups(log)))
        sv = [log.sv[k] for k in STATE_KEYS]
        controls = [log.controls[k] for k in CONTROL_KEYS]
        lines = list(_LOG_HEAD)
        for a in range(0, n, _SAVE_BLOCK_ROWS):
            b = min(a + _SAVE_BLOCK_ROWS, n)
            lines.extend(map(",".join, zip(t_rows[a:b], *(texts.column(c, a, b) for c in sv),
                                           pov_rows[a:b],
                                           *(texts.column(c, a, b) for c in controls))))
        path = Path(path)
        path.write_text("\n".join(lines) + "\n")
        _save_sidecar(log, path)


def save_trajectory_log(log: TrajectoryLog, path: str | Path) -> None:
    """Write one log; the one-log case of `save_trajectory_logs`."""
    save_trajectory_logs([log], [path])


def _save_sidecar(log: TrajectoryLog, path: Path) -> None:
    meta = {
        "dt": log.dt,
        "t_trigger": log.timing.t_trigger,
        "t_critical": log.timing.t_critical,
        "scenario": scenario_to_dict(log.scenario),
        "policy": dataclasses.asdict(log.policy) if log.policy else None,
        "collided": log.collided,
        "t_collision": log.t_collision,
        "complete": log.complete,
    }
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def _parse_body(rows: list[str], header: list[str]) -> np.ndarray:
    """The samples of a log body, shape (len(rows), len(header)).

    ``loadtxt`` skips blank lines, so its result counts only when the shape
    is right.  Otherwise, or when it fails, the row loop raises the error
    of the first bad row or converts what only ``float()`` accepts.
    """
    try:
        with warnings.catch_warnings():
            # An all-blank body is the row loop's error, not a warning.
            warnings.simplefilter("ignore", UserWarning)
            body = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if body.shape == (len(rows), len(header)):
            return body
    body = np.empty((len(rows), len(header)))
    for r, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(parts)}", row=r + 3)
        for i, (c, v) in enumerate(zip(header, parts)):
            try:
                body[r, i] = float(v)
            except ValueError as exc:
                raise ParseError(f"bad value in column {c!r}: {v!r}", row=r + 3) from exc
    return body


def load_trajectory_log(path: str | Path) -> TrajectoryLog:
    path = Path(path)
    meta_path = sidecar_path(path)
    try:
        meta = json.loads(meta_path.read_text())
        scenario = scenario_from_dict(meta["scenario"])
        timing = ScenarioTiming(meta["t_trigger"], meta["t_critical"])
        dt = float(meta["dt"])
        policy = PolicySpec(**meta["policy"]) if meta.get("policy") else None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"metadata sidecar {meta_path}: "
                         f"{type(exc).__name__}: {exc}") from exc

    try:
        data = _log_columns(path.read_text().splitlines(), dt)
    except ParseError as exc:  # the one place that names the file; .row is kept
        exc.args = (f"log {path}: {exc}",)
        raise
    return TrajectoryLog(
        dt=dt, t=data["t"],
        sv={k: data[f"sv_{k}"] for k in STATE_KEYS},
        pov={k: data[f"pov_{k}"] for k in STATE_KEYS},
        controls={k: data[k] for k in CONTROL_KEYS},
        scenario=scenario, timing=timing,
        policy=policy,
        collided=bool(meta.get("collided", False)),
        t_collision=meta.get("t_collision"),
        complete=bool(meta.get("complete", True)))


def _log_columns(lines: list[str], dt: float) -> dict:
    """Every column of a log file's lines by name, checked; absent optional ones are NaN."""
    if len(lines) < 4:
        raise ParseError("log file needs a header, a units row, and at least two data rows")
    header = lines[0].split(",")
    for col in _REQUIRED_COLS:
        if col not in header:
            raise ParseError(f"missing required column {col!r}")
    for i, col in enumerate(header):
        if col in header[:i]:
            raise ParseError(f"duplicate column {col!r}")

    # Each column is a row of one transposed contiguous copy.
    data = dict(zip(header, np.ascontiguousarray(_parse_body(lines[2:], header).T)))
    n = len(lines) - 2
    for c in _OPTIONAL_COLS:
        data.setdefault(c, np.full(n, np.nan))
    for c in header:
        bad = np.flatnonzero(~np.isfinite(data[c]))
        if len(bad):
            raise ParseError(f"non-finite value in column {c!r}: {float(data[c][bad[0]])}",
                             row=int(bad[0]) + 3)
    for c in ("accel_pct", "brake_pct"):  # pedal positions are 0..100 %
        bad = np.flatnonzero((data[c] < 0.0) | (data[c] > 100.0))
        if len(bad):
            raise ParseError(f"value in column {c!r} outside [0, 100]: "
                             f"{float(data[c][bad[0]])}", row=int(bad[0]) + 3)

    steps = np.diff(data["t"])
    bad = np.nonzero(steps <= 0)[0]
    if len(bad):
        raise ParseError("non-monotone timestamps", row=int(bad[0]) + 3)
    off = np.nonzero(~np.isclose(steps, dt, rtol=0, atol=1e-9))[0]
    if len(off):
        raise ParseError(f"sample spacing differs from dt={dt}", row=int(off[0]) + 3)
    return data


def require_accelerations(log: TrajectoryLog, path: str | Path) -> TrajectoryLog:
    """``log`` if its file has every acceleration column, else a ParseError naming them.

    A loaded column is finite, so a NaN marks a column the file lacks.
    """
    missing = [f"{side}_{key}" for side, states in (("sv", log.sv), ("pov", log.pov))
               for key in ("ax", "ay") if math.isnan(states[key][0])]
    if missing:
        raise ParseError(f"log {path} lacks the acceleration columns {', '.join(missing)} "
                         f"that reachability starts from")
    return log


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    d = dataclasses.asdict(spec)
    d["ctrl_fracs"] = list(spec.ctrl_fracs)
    return d


def scenario_from_dict(d: dict) -> ScenarioSpec:
    d = dict(d)
    d["road"] = RoadSpec(**d["road"])
    d["sv_spec"] = VehicleSpec(**d["sv_spec"])
    d["pov_spec"] = VehicleSpec(**d["pov_spec"])
    d["ctrl_fracs"] = tuple(d.get("ctrl_fracs", (0.35, 0.65)))
    return ScenarioSpec(**d)


def prediction_from_dict(d: dict) -> PredictionConfig:
    d = dict(d)
    d["sv_limits"] = KinematicLimits(**d["sv_limits"])
    d["pov_limits"] = KinematicLimits(**d["pov_limits"])
    return PredictionConfig(**d)


def save_run_config(config: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


# The response thresholds are fixed constants, not config keys.  Older
# configs may still carry them, but only at these values.
_FIXED_ANALYSIS = {"accel_release_pct": ACCEL_RELEASE_PCT,
                   "brake_onset_pct": BRAKE_ONSET_PCT,
                   "steer_onset_deg": STEER_ONSET_DEG}


_CONFIG_SECTIONS = ("scenario", "analysis", "prediction")

# Values of keys a config may omit, by section (None is the top level, and
# "policies" each entry of that list).  ``default_run_config`` writes them
# too, but for delay_jitter (0.2 there): a config that lacks a key runs as
# it always has.
_FALLBACKS = {None: {"seed": 0, "output_dir": "out"},
              "scenario": {"t_trigger": 1.0},
              "policies": {"count": 1},
              "analysis": {"eval_step": 0.1, "bootstrap_samples": 1000,
                           "delay_jitter": 0.0, "window_reaction_floor": 0.4}}


def default_run_config(incursion_level: float = 0.0) -> dict:
    """Reference config carrying every tunable constant as a named default."""
    policies = [
        {"kind": "no-response", "count": 2},
        {"kind": "brake-only", "count": 3, "reaction_delay": 1.6, "brake_level": "hard"},
        {"kind": "brake-then-steer-center", "count": 5, "reaction_delay": 1.5,
         "brake_level": "soft", "reversal_delay": 1.3, "steer_target": 15.0},
        {"kind": "steer-center-only", "count": 4, "reaction_delay": 2.0,
         "steer_target": 20.0},
        {"kind": "steer-shoulder-only", "count": 4, "reaction_delay": 1.2,
         "steer_target": 10.0},
        {"kind": "shoulder-then-reversal", "count": 2, "reaction_delay": 1.2,
         "reversal_delay": 1.3, "steer_target": 10.0, "reversal_target": 15.0},
    ]
    return {**_FALLBACKS[None],
            "scenario": {**scenario_to_dict(make_scenario(incursion_level)),
                         **_FALLBACKS["scenario"]},
            "policies": policies,
            "prediction": dataclasses.asdict(PredictionConfig()),
            "analysis": {**_FALLBACKS["analysis"], "dt": 0.01, "delay_jitter": 0.2}}


# What a value must be: (description, type it is stored as, range test).
_SEED_RULE = ("an integer >= 0", int, lambda v: v >= 0 and v == int(v))
_COUNT_RULE = ("an integer >= 1", int, lambda v: v >= 1 and v == int(v))
_POSITIVE = ("a finite number > 0", float, lambda v: v > 0)
_NON_NEGATIVE = ("a finite number >= 0", float, lambda v: v >= 0)
_ANALYSIS_RULES = {"dt": _POSITIVE, "eval_step": _POSITIVE, "bootstrap_samples": _COUNT_RULE,
                   "delay_jitter": _NON_NEGATIVE, "window_reaction_floor": _NON_NEGATIVE}


def _checked(path: Path, name: str, value, rule):
    """``value`` stored as the rule's type; a ParseError naming the key if it breaks the rule."""
    what, kind, in_range = rule
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and in_range(value))):
        raise ParseError(f"run config {path}: {name} = {value!r} must be {what}")
    return kind(value)


def load_run_config(path: str | Path) -> dict:
    """The run config at ``path``; every format error is a ParseError naming the file."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except ValueError as exc:
        raise ParseError(f"run config {path}: {type(exc).__name__}: {exc}") from exc
    return checked_run_config(config, path)


def checked_run_config(config, path: str | Path) -> dict:
    """A copy of ``config`` with omitted keys filled from their fallbacks.

    Every format error is a ParseError naming ``path`` and, for a bad
    value, its key; a bad ``prediction`` section fails as
    ``prediction_from_dict`` does.  ``load_run_config`` checks what it reads
    this way, and ``scenario gen`` what it writes.
    """
    if not isinstance(config, dict):
        raise ParseError(f"run config {path}: top level must be a JSON object")
    for section in _CONFIG_SECTIONS:
        if not isinstance(config.get(section), dict):
            raise ParseError(f"run config {path}: section {section!r} "
                             f"is missing or not an object")
    for key, fixed in _FIXED_ANALYSIS.items():
        value = config["analysis"].get(key, fixed)
        if value != fixed:
            raise ParseError(f"run config {path}: analysis.{key} = {value!r} is not "
                             f"configurable: the response threshold is fixed at {fixed}")
    config = {**_FALLBACKS[None], **config}
    config["seed"] = _checked(path, "seed", config["seed"], _SEED_RULE)
    config["scenario"] = {**_FALLBACKS["scenario"], **config["scenario"]}
    policies = config.get("policies", [])
    if not (isinstance(policies, list) and all(isinstance(p, dict) for p in policies)):
        raise ParseError(f"run config {path}: policies must be a list of objects")
    config["policies"] = [{**_FALLBACKS["policies"], **p} for p in policies]
    for i, policy in enumerate(config["policies"]):
        policy["count"] = _checked(path, f"policies[{i}].count", policy["count"], _COUNT_RULE)
    analysis = config["analysis"] = {**_FALLBACKS["analysis"], **config["analysis"]}
    for key, rule in _ANALYSIS_RULES.items():
        if key in analysis:  # dt has no fallback: only the commands that step read it
            analysis[key] = _checked(path, f"analysis.{key}", analysis[key], rule)
    prediction_from_dict(config["prediction"])
    return config


def config_scenario(config: dict) -> tuple[ScenarioSpec, ScenarioTiming]:
    d = dict(config["scenario"])
    t_trigger = d.pop("t_trigger")
    spec = scenario_from_dict(d)
    return spec, default_timing(spec, t_trigger)


def config_policies(config: dict) -> list[tuple[PolicySpec, int]]:
    """(policy, count) per entry of a config whose keys are filled, as loaded."""
    return [(PolicySpec(**{k: v for k, v in entry.items() if k != "count"}), entry["count"])
            for entry in config["policies"]]


def config_prediction(config: dict) -> PredictionConfig:
    return prediction_from_dict(config["prediction"])


def write_table(path: str | Path, header: list[str], units: list[str],
                 rows: list[list]) -> None:
    lines = [",".join(header), ",".join(units)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_prevalence(prev: Prevalence, path: str | Path) -> None:
    rows = [[float(prev.rel_t[i]), float(prev.fraction[i]), float(prev.ci_lo[i]),
             float(prev.ci_hi[i]), int(prev.n_extrapolated[i])]
            for i in range(len(prev.rel_t))]
    write_table(path, ["rel_t", "fraction", "ci_lo", "ci_hi", "n_extrapolated"],
                 ["s", "-", "-", "-", "count"], rows)


def emit_timeline(timeline: Timeline, path: str | Path) -> None:
    rows = [[float(timeline.t[i]), float(timeline.rel_t[i]),
             int(timeline.exists[i]), timeline.mode[i]]
            for i in range(len(timeline.t))]
    write_table(path, ["t", "rel_t", "exists", "mode"], ["s", "s", "0/1", "-"], rows)


def _node_name(node) -> str:
    if isinstance(node, tuple):
        return "|".join(node)
    return str(node)


def emit_sequence_graph(graph: SequenceGraph, path: str | Path) -> None:
    """Node/edge table; initial-ring counts appear as rows with kind=initial."""
    rows = []
    for node in sorted(graph.initial):
        rows.append(["initial", "-", _node_name(node), graph.initial[node]])
    for (a, b) in sorted(graph.edges, key=lambda e: (_node_name(e[0]), _node_name(e[1]))):
        kind = "outcome" if isinstance(b, str) else "transition"
        rows.append([kind, _node_name(a), _node_name(b), graph.edges[(a, b)]])
    write_table(path, ["kind", "from", "to", "count"], ["-", "-", "-", "count"], rows)


def _cells(layer: Layer) -> tuple[list[int], list[int]]:
    """The ix and iy of a layer's world cells, each cell once, in (ix, iy) order.

    The sorted unique keys ``ix * ny + (iy - j0)`` over the rows ``j0 <= iy < j0 + ny``.
    """
    if not layer.rects:
        return [], []
    j0 = min(r[2] for r in layer.rects)
    ny = max(r[3] for r in layer.rects) - j0
    keys = np.unique(np.concatenate([np.add.outer(np.arange(a, b) * ny, np.arange(c - j0, d - j0))
                                     .ravel() for a, b, c, d in layer.rects]))
    ix, iy = np.divmod(keys, ny)
    return ix.tolist(), (iy + j0).tolist()


def _edge_texts(texts: _FloatTexts, idx: list[int], d: float) -> dict[int, tuple[str, str]]:
    """Cell index i -> the text of i and of its edges ``i * d,(i + 1) * d``."""
    i = np.unique(np.asarray(idx, dtype=np.int64))
    return {k: (str(k), f"{lo},{hi}") for k, lo, hi in
            zip(i.tolist(), texts.column(i * d, 0, len(i)), texts.column((i + 1) * d, 0, len(i)))}


def emit_reach_snapshot(area: DrivableArea, path: str | Path,
                        svg_path: str | Path | None = None,
                        sv_rect=None, pov_rect=None) -> None:
    """Grid snapshot of SV (pruned) and POV layers, one row per occupied cell.

    The `write_table` format, with each distinct float formatted once
    through one `_FloatTexts` table and each cell index once per layer.
    """
    texts = _FloatTexts()
    lines = ["vehicle,tau,ix,iy,x_lo,x_hi,y_lo,y_hi", "-,s,-,-,m,m,m,m"]
    for name, layers in (("sv", area.layers), ("pov", area.pov_layers)):
        for layer in layers:
            ixs, iys = _cells(layer)
            xt = _edge_texts(texts, ixs, layer.dx)
            yt = _edge_texts(texts, iys, layer.dy)
            tau, = texts.column([layer.tau], 0, 1)
            lines.extend(f"{name},{tau},{xt[ix][0]},{yt[iy][0]},{xt[ix][1]},{yt[iy][1]}"
                         for ix, iy in zip(ixs, iys))
    Path(path).write_text("\n".join(lines) + "\n")
    if svg_path is not None:
        Path(svg_path).write_text(render_snapshot_svg(area, sv_rect, pov_rect))


def render_snapshot_svg(area: DrivableArea, sv_rect=None, pov_rect=None) -> str:
    """Compact SVG: every fifth layer colored by future time, vehicles as dark boxes."""
    layer_stride, scale = 5, 4.0  # layers per drawn layer; px per m
    xs, ys = [], []
    for layers in (area.layers, area.pov_layers):
        for layer in layers:
            hull = layer.position_hull()
            if hull:
                xs.extend(hull[0])
                ys.extend(hull[1])
    for rect in (sv_rect, pov_rect):
        if rect is not None:
            xs.extend([rect.x_lo, rect.x_hi])
            ys.extend([rect.y_lo, rect.y_hi])
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs) - 2, max(xs) + 2
    y0, y1 = min(ys) - 2, max(ys) + 2
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def rect_svg(rx_lo, rx_hi, ry_lo, ry_hi, color, opacity):
        # Screen y grows downward; flip the lateral axis.
        px = (rx_lo - x0) * scale
        py = (y1 - ry_hi) * scale
        return (f'<rect x="{px:.2f}" y="{py:.2f}" '
                f'width="{(rx_hi - rx_lo) * scale:.2f}" '
                f'height="{(ry_hi - ry_lo) * scale:.2f}" '
                f'fill="{color}" fill-opacity="{opacity:.2f}"/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for layers, color in ((area.pov_layers, "#cc2222"), (area.layers, "#2244cc")):
        n = len(layers)
        for k in range(0, n, layer_stride):
            layer = layers[k]
            opacity = 0.15 + 0.5 * (1.0 - k / max(n - 1, 1))
            dx, dy = layer.dx, layer.dy
            for ix, iy in zip(*_cells(layer)):
                parts.append(rect_svg(ix * dx, (ix + 1) * dx, iy * dy, (iy + 1) * dy,
                                      color, opacity))
    for rect, color in ((sv_rect, "#111133"), (pov_rect, "#331111")):
        if rect is not None:
            parts.append(rect_svg(rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi, color, 1.0))
    parts.append("</svg>")
    return "\n".join(parts)
