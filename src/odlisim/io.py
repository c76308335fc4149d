"""File formats: trajectory logs and analysis table emission.

The run-config format and `ParseError` are defined in `spec`, which needs
no numpy.

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

A cohort is written by one writer, ``save_trajectory_logs``, with no Python
step per cell or row: ``repr`` runs once per distinct value of the cohort
(by int64 bits, so ``-0.0`` stays apart from ``0.0``), and each file is a
gather of those texts by an index array, one block of rows at a time.
Every file is byte-identical to a write of its log alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .core import STATE_KEYS
from .engine import CONTROL_KEYS, TrajectoryLog
from .reach import DrivableArea, Prevalence, Timeline
from .responses import SequenceGraph
from .spec import (_POSITIVE, ParseError, PolicySpec, ScenarioTiming, _checked, is_finite_number,
                   scenario_from_dict, scenario_to_dict)

_ALL_COLS = ("t", *(f"sv_{k}" for k in STATE_KEYS), *(f"pov_{k}" for k in STATE_KEYS),
             *CONTROL_KEYS)
_OPTIONAL_COLS = ("sv_ax", "sv_ay", "pov_ax", "pov_ay")
_REQUIRED_COLS = tuple(c for c in _ALL_COLS if c not in _OPTIONAL_COLS)
_UNITS = {"t": "s", "x": "m", "y": "m", "vx": "m/s", "vy": "m/s",
          "ax": "m/s2", "ay": "m/s2", "accel_pct": "%", "brake_pct": "%",
          "steer_deg": "deg"}
_FLAG = ("true or false", bool, lambda v: isinstance(v, bool))
# Sidecar key -> (its value when absent, the `spec._checked` rule it must meet).
_SIDECAR_RULES = {"dt": (None, _POSITIVE), "collided": (False, _FLAG), "complete": (True, _FLAG),
                  "t_collision": (None, ("null or a finite number",
                                         lambda v: v if v is None else float(v),
                                         lambda v: v is None or is_finite_number(v)))}
# Rows a log's writer gathers, joins and writes at a time: only one block's
# object array of cell texts (17 references a row) is alive at once.
_SAVE_BLOCK_ROWS = 256


def _fmt(v: float) -> str:
    return repr(float(v))


def _unit_of(col: str) -> str:
    key = col.split("_", 1)[1] if col.startswith(("sv_", "pov_")) else col
    return _UNITS.get(key, _UNITS.get(col, "-"))


_LOG_HEAD = [",".join(_ALL_COLS), ",".join(_unit_of(c) for c in _ALL_COLS)]


def _track(log: TrajectoryLog) -> np.ndarray:
    """The columns a cohort shares, ``t`` over the ``pov_*`` channels, shape (7, samples)."""
    return np.array([log.t, *(log.pov[k] for k in STATE_KEYS)], dtype=float)


def save_trajectory_logs(logs: list[TrajectoryLog], paths: list[str | Path]) -> None:
    """Write each log to its path, formatting each distinct float once.

    Every column is cut into runs of bit-equal values, and ``repr`` runs
    once per distinct run value of the cohort, found by sorting the values'
    int64 bits (so ``-0.0`` stays apart from ``0.0``).  The
    ``t`` and ``pov_*`` columns come from the longest log; a log whose
    columns are not a bit-identical prefix of them is cut on its own.  A
    log's text is a gather of the cell texts by an index array, joined and
    written one block of `_SAVE_BLOCK_ROWS` rows at a time.
    """
    if len(logs) != len(paths):
        raise ValueError(f"{len(logs)} logs for {len(paths)} paths")
    if not logs:
        return
    runs = []  # (run values, run lengths, samples) of each group of columns

    def group(cols: np.ndarray) -> int:
        """Cut each row of ``cols`` into runs of bit-equal values; the group's index."""
        bits = cols.view(np.int64)
        new = np.ones(cols.shape, dtype=bool)
        np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
        starts = np.flatnonzero(new)
        runs.append((cols.ravel()[starts], np.diff(starts, append=new.size).astype(np.int32),
                     cols.shape[1]))
        return len(runs) - 1

    longest = _track(max(logs, key=len))
    shared, times, plans = group(longest[1:]), [longest[0]], []
    for log in logs:  # plan: its times, its pov group, its sv and control group
        track = _track(log)
        if np.array_equal(track.view(np.int64), longest[:, :len(log)].view(np.int64)):
            plan = (0, shared)
        else:
            times.append(track[0])
            plan = (len(times) - 1, group(track[1:]))
        plans.append((*plan, group(np.array([*(log.sv[k] for k in STATE_KEYS),
                                             *(log.controls[k] for k in CONTROL_KEYS)]))))
    distinct = np.concatenate([r[0] for r in runs]).view(np.int64)
    distinct.sort()  # in place: np.unique would copy it, and it imports numpy.ma
    distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
    # A row is its t, then "," and each other value, then "\n": one text per cell.
    texts = [f",{v!r}" for v in distinct.view(np.float64).tolist()]
    time_at = np.cumsum([len(texts), *map(len, times)])
    texts = np.array(texts + [repr(v) for t in times for v in t.tolist()] + ["\n"], dtype=object)

    def cells(g: int, n: int) -> np.ndarray:
        """Text indices of group g, one row per column, for its first n samples."""
        values, lengths, samples = runs[g]
        return np.repeat(np.searchsorted(distinct, values.view(np.int64)),
                         lengths).reshape(-1, samples)[:, :n]

    pov, head = cells(shared, len(longest[0])), "\n".join(_LOG_HEAD) + "\n"
    scenarios = {}  # the sidecar text of each distinct scenario object, by id
    for log, path, (t_of, pov_of, own_of) in zip(logs, paths, plans):
        n, own = len(log), cells(own_of, len(log))
        index = np.concatenate([time_at[t_of] + np.arange(n)[None], own[:6],
                                pov[:, :n] if pov_of == shared else cells(pov_of, n),
                                own[6:], np.full((1, n), len(texts) - 1)]).T
        with open(path, "w") as f:
            f.write(head)
            f.writelines("".join(texts[index[a:a + _SAVE_BLOCK_ROWS]].ravel().tolist())
                         for a in range(0, n, _SAVE_BLOCK_ROWS))
        if id(log.scenario) not in scenarios:
            scenarios[id(log.scenario)] = json.dumps(
                scenario_to_dict(log.scenario), indent=2, sort_keys=True).replace("\n", "\n  ")
        _save_sidecar(log, Path(path), scenarios[id(log.scenario)])


def save_trajectory_log(log: TrajectoryLog, path: str | Path) -> None:
    """Write one log; the one-log case of `save_trajectory_logs`."""
    save_trajectory_logs([log], [path])


def _save_sidecar(log: TrajectoryLog, path: Path, scenario: str) -> None:
    """Write the sidecar of ``log``; ``scenario`` is the JSON text of its
    scenario one level down, which a cohort renders once per scenario.

    The text fills the ``"scenario": null`` slot: no other key is named
    ``scenario``, and a quote inside a JSON string is always escaped.
    """
    meta = {
        "dt": log.dt,
        "t_trigger": log.timing.t_trigger,
        "t_critical": log.timing.t_critical,
        "scenario": None,
        "policy": dataclasses.asdict(log.policy) if log.policy else None,
        "collided": log.collided,
        "t_collision": log.t_collision,
        "complete": log.complete,
    }
    text = json.dumps(meta, indent=2, sort_keys=True)
    text = text.replace('"scenario": null', '"scenario": ' + scenario, 1)
    sidecar_path(path).write_text(text + "\n")


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
    where = f"metadata sidecar {meta_path}"
    try:
        meta = json.loads(meta_path.read_text())
        scenario = scenario_from_dict(meta["scenario"])
        timing = ScenarioTiming(meta["t_trigger"], meta["t_critical"])
        policy = PolicySpec(**meta["policy"]) if meta.get("policy") else None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {type(exc).__name__}: {exc}") from exc
    flags = {key: _checked(where, key, meta.get(key, fallback), rule)
             for key, (fallback, rule) in _SIDECAR_RULES.items()}
    dt = flags.pop("dt")

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
        scenario=scenario, timing=timing, policy=policy, **flags)


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


def emit_reach_snapshot(area: DrivableArea, path: str | Path,
                        svg_path: str | Path | None = None,
                        sv_rect=None, pov_rect=None) -> None:
    """Snapshot of SV (pruned) and POV layers, one row per layer rectangle.

    A layer's rows are its set of rectangles, in an order that means nothing;
    its cells are the union of their half-open ranges ``[i0, i1) x [j0, j1)``, which span
    ``[i0*dx, i1*dx) x [j0*dy, j1*dy)`` in metres.
    """
    rows = []
    for name, layers in (("sv", area.layers), ("pov", area.pov_layers)):
        for layer in layers:
            tau, dx, dy = float(layer.tau), float(layer.dx), float(layer.dy)
            rows.extend([name, tau, i0, i1, j0, j1, i0 * dx, i1 * dx, j0 * dy, j1 * dy]
                        for i0, i1, j0, j1 in layer.rects)
    write_table(path, ["vehicle", "tau", "i0", "i1", "j0", "j1", "x_lo", "x_hi", "y_lo", "y_hi"],
                ["-", "s", "-", "-", "-", "-", "m", "m", "m", "m"], rows)
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

    def screen_box(rx_lo, rx_hi, ry_lo, ry_hi):
        """(x, y, width, height) in px; screen y grows downward, so the lateral axis flips."""
        return ((rx_lo - x0) * scale, (y1 - ry_hi) * scale,
                (rx_hi - rx_lo) * scale, (ry_hi - ry_lo) * scale)

    def rect_svg(rx_lo, rx_hi, ry_lo, ry_hi, color, opacity):
        px, py, w, h = screen_box(rx_lo, rx_hi, ry_lo, ry_hi)
        return (f'<rect x="{px:.2f}" y="{py:.2f}" width="{w:.2f}" height="{h:.2f}" '
                f'fill="{color}" fill-opacity="{opacity:.2f}"/>')

    def layer_svg(layer, color, opacity):
        # One subpath per rectangle, each wound the same way, so under the
        # nonzero fill rule overlapping rectangles paint once.
        boxes = (screen_box(i0 * layer.dx, i1 * layer.dx, j0 * layer.dy, j1 * layer.dy)
                 for i0, i1, j0, j1 in layer.rects)
        d = " ".join(f"M{px:.2f} {py:.2f} h{w:.2f} v{h:.2f} h{-w:.2f} z"
                     for px, py, w, h in boxes)
        return f'<path d="{d}" fill="{color}" fill-opacity="{opacity:.2f}"/>'

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for layers, color in ((area.pov_layers, "#cc2222"), (area.layers, "#2244cc")):
        n = len(layers)
        for k in range(0, n, layer_stride):
            layer = layers[k]
            opacity = 0.15 + 0.5 * (1.0 - k / max(n - 1, 1))
            if layer.rects:
                parts.append(layer_svg(layer, color, opacity))
    for rect, color in ((sv_rect, "#111133"), (pov_rect, "#331111")):
        if rect is not None:
            parts.append(rect_svg(rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi, color, 1.0))
    parts.append("</svg>")
    return "\n".join(parts)
