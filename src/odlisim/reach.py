"""Reachable sets, drivable-area pruning, and cohort prevalence.

Representation: each future-time layer carries a continuous per-axis hull
(position, velocity, acceleration intervals) plus a positional occupancy
mask on a world-aligned grid.  Longitudinal and lateral dynamics are
decoupled triple integrators, so the hull advances exactly under the
extremal jerks (corners suffice for this monotone system) while the mask
advances by velocity-range dilation intersected with the rasterized new
hull; carrying the hull continuously keeps rasterization rounding from
compounding across steps.  Because every computation starts from a point
state and all clamps are global, one hull per axis describes every cell
of a layer.

Mask kernels cost what the occupied cells cost, not the window: a
dilation (velocity range in ``propagate_step``, vehicle footprint in
``pov_occupancy``) reads only the occupied bounding box of its source.  A
completely filled box (every unpruned layer, so every POV layer) dilates to
a filled rectangle written with one slice assignment; carved boxes are
dilated by shifted ORs on the cropped arrays.  ``propagate_step`` writes
the result only inside the raster box of the new hull, and
``pov_occupancy`` returns the cropped occupancy with its world origin.

Pruning follows the expansion order: at each step the POV layer expands
first, the SV layer expands from its previous pruned layer, and SV cells
inside the POV's footprint-dilated occupancy (or outside the road
corridor, when enabled) are removed.  The survivors form the drivable
area; an empty final layer means no trajectory is guaranteed
collision-free under the kinematic assumptions, not that collision is
certain.  Since an empty layer stays empty, an area computed with
``exists_only`` (as every timeline anchor is) stops at its first empty SV
layer and carries fewer layers; its ``exists`` is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (KinematicLimits, POV_LIMITS, SV_LIMITS, RoadSpec, VehicleSpec,
                   VehicleState, axis_limits, axis_step)
from .engine import TrajectoryLog
from .responses import window_for


@dataclass(frozen=True)
class PredictionConfig:
    sv_limits: KinematicLimits = SV_LIMITS
    pov_limits: KinematicLimits = POV_LIMITS
    incursion_detect_threshold: float = 0.15  # m, lateral deviation that latches envelope mode
    road_pruning: str = "corridor"            # corridor | off
    grid_dx: float = 0.5    # m
    grid_dy: float = 0.25   # m
    tau_step: float = 0.1   # s
    horizon: float = 4.0    # s

    def __post_init__(self):
        if self.grid_dx <= 0 or self.grid_dy <= 0 or self.tau_step <= 0:
            raise ValueError("grid resolutions and tau_step must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.incursion_detect_threshold < 0:
            raise ValueError("incursion_detect_threshold must be >= 0")
        if self.road_pruning not in ("corridor", "off"):
            raise ValueError(f"road_pruning must be corridor or off: {self.road_pruning!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.tau_step))


@dataclass(frozen=True)
class AxisInterval:
    """Closed interval hull of one axis: position, velocity, acceleration."""

    p_lo: float
    p_hi: float
    v_lo: float
    v_hi: float
    a_lo: float
    a_hi: float

    def __post_init__(self):
        if self.p_lo > self.p_hi or self.v_lo > self.v_hi or self.a_lo > self.a_hi:
            raise ValueError(f"interval bounds out of order: {self}")


@dataclass(frozen=True)
class GridWindow:
    """World-aligned index window: cell (ix, iy) spans [ix*dx, (ix+1)*dx) etc."""

    dx: float
    dy: float
    ox: int  # world x-index of local row 0
    oy: int  # world y-index of local column 0
    nx: int
    ny: int


@dataclass
class Layer:
    """One future-time slice of a reachable set."""

    tau: float
    window: GridWindow
    mask: np.ndarray = field(repr=False)  # bool [nx, ny], True = occupied
    x_hull: AxisInterval | None  # None iff empty
    y_hull: AxisInterval | None
    heading_sign: int

    @property
    def empty(self) -> bool:
        return self.x_hull is None or not self.mask.any()

    def world_cells(self) -> set[tuple[int, int]]:
        ii, jj = np.nonzero(self.mask)
        w = self.window
        return {(int(i) + w.ox, int(j) + w.oy) for i, j in zip(ii, jj)}

    def position_hull(self) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """((x_lo, x_hi), (y_lo, y_hi)) spanned by occupied cells, None if empty."""
        if self.empty:
            return None
        ii, jj = np.nonzero(self.mask)
        w = self.window
        return ((float((ii.min() + w.ox) * w.dx), float((ii.max() + w.ox + 1) * w.dx)),
                (float((jj.min() + w.oy) * w.dy), float((jj.max() + w.oy + 1) * w.dy)))


@dataclass
class ReachableSet:
    t: float           # s, analysis anchor time
    tau_step: float
    horizon: float
    layers: list[Layer]


@dataclass
class DrivableArea:
    """Collision-pruned SV reachable set plus the POV set it was pruned against."""

    layers: list[Layer]
    exists: bool
    pov_layers: list[Layer] = field(default_factory=list)


def _window_for(state: VehicleState, limits: KinematicLimits,
                config: PredictionConfig, pad_cells: int = 3) -> GridWindow:
    """Window guaranteed to contain every reachable position over the horizon."""
    h = config.horizon
    lim_x = axis_limits(limits, state.heading_sign, "x")
    lim_y = axis_limits(limits, state.heading_sign, "y")
    x_lo = state.x + min(lim_x.v_lo, 0.0) * h
    x_hi = state.x + max(lim_x.v_hi, 0.0) * h
    y_lo = state.y + min(lim_y.v_lo, 0.0) * h
    y_hi = state.y + max(lim_y.v_hi, 0.0) * h
    ox = math.floor(x_lo / config.grid_dx) - pad_cells
    oy = math.floor(y_lo / config.grid_dy) - pad_cells
    nx = math.floor(x_hi / config.grid_dx) + pad_cells + 1 - ox
    ny = math.floor(y_hi / config.grid_dy) + pad_cells + 1 - oy
    return GridWindow(config.grid_dx, config.grid_dy, ox, oy, nx, ny)


def _raster_closed(lo: float, hi: float, d: float) -> tuple[int, int]:
    """Cells touched by the closed interval [lo, hi] under floor indexing."""
    return math.floor(lo / d), math.floor(hi / d)


def make_initial_layer(state: VehicleState, window: GridWindow) -> Layer:
    """tau = 0 layer: exactly the cell covering the current position.

    Hulls start at the raw point state; clamping into the admissible box
    happens on the first propagation step, mirroring the stepper.
    """
    ix = math.floor(state.x / window.dx)
    iy = math.floor(state.y / window.dy)
    mask = np.zeros((window.nx, window.ny), dtype=bool)
    i, j = ix - window.ox, iy - window.oy
    if not (0 <= i < window.nx and 0 <= j < window.ny):
        raise ValueError("initial state outside the grid window")
    mask[i, j] = True
    return Layer(tau=0.0, window=window, mask=mask,
                 x_hull=AxisInterval(state.x, state.x, state.vx, state.vx,
                                     state.ax, state.ax),
                 y_hull=AxisInterval(state.y, state.y, state.vy, state.vy,
                                     state.ay, state.ay),
                 heading_sign=state.heading_sign)


def _empty_like(layer: Layer, tau: float) -> Layer:
    return Layer(tau=tau, window=layer.window,
                 mask=np.zeros_like(layer.mask), x_hull=None, y_hull=None,
                 heading_sign=layer.heading_sign)


def _dilate(mask: np.ndarray, sx_lo: int, sx_hi: int,
            sy_lo: int, sy_hi: int) -> tuple[np.ndarray, int, int]:
    """Union of a non-empty mask shifted by every offset (sx, sy) in the given ranges.

    Only the occupied bounding box is dilated, so the cost follows the
    occupied cells, not the window; a completely filled box dilates to a
    filled rectangle, built directly.  Returns the dilated box and the index
    of its first cell in the mask's frame (it may reach past the mask).
    """
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    i0, j0 = int(rows[0]), int(cols[0])
    src = mask[i0:rows[-1] + 1, j0:cols[-1] + 1]
    h, w = src.shape
    shape = (h + sx_hi - sx_lo, w + sy_hi - sy_lo)
    if src.all():
        return np.ones(shape, dtype=bool), i0 + sx_lo, j0 + sy_lo
    tmp = np.zeros((shape[0], w), dtype=bool)
    for s in range(sx_hi - sx_lo + 1):
        tmp[s:s + h] |= src
    out = np.zeros(shape, dtype=bool)
    for s in range(sy_hi - sy_lo + 1):
        out[:, s:s + w] |= tmp
    return out, i0 + sx_lo, j0 + sy_lo


def _clip_mask_to_box(mask: np.ndarray, window: GridWindow,
                      ix_lo: int, ix_hi: int, iy_lo: int, iy_hi: int) -> None:
    """Clear cells outside the world-index box (in place, bounds inclusive)."""
    # clamped at 0: a negative slice bound would count from the far edge
    i0, i1 = max(0, ix_lo - window.ox), max(0, ix_hi + 1 - window.ox)
    j0, j1 = max(0, iy_lo - window.oy), max(0, iy_hi + 1 - window.oy)
    mask[:i0, :] = False
    mask[i1:, :] = False
    mask[:, :j0] = False
    mask[:, j1:] = False


def propagate_step(layer: Layer, limits: KinematicLimits, tau_step: float) -> Layer:
    """One interval-arithmetic Euler step of a layer.

    Hull corners advance through the same clamped step rule as the
    simulator, so sampled trajectories ride the hull edges exactly.  The
    mask is the velocity-range dilation of the previous mask intersected
    with the rasterized new position hull: sound for any carved shape and
    exact for box-shaped layers.
    """
    if layer.empty:
        return _empty_like(layer, layer.tau + tau_step)
    lim_x = axis_limits(limits, layer.heading_sign, "x")
    lim_y = axis_limits(limits, layer.heading_sign, "y")
    xh, yh = layer.x_hull, layer.y_hull

    px_lo, vx_lo, ax_lo = axis_step(xh.p_lo, xh.v_lo, xh.a_lo, lim_x.j_lo, lim_x, tau_step)
    px_hi, vx_hi, ax_hi = axis_step(xh.p_hi, xh.v_hi, xh.a_hi, lim_x.j_hi, lim_x, tau_step)
    py_lo, vy_lo, ay_lo = axis_step(yh.p_lo, yh.v_lo, yh.a_lo, lim_y.j_lo, lim_y, tau_step)
    py_hi, vy_hi, ay_hi = axis_step(yh.p_hi, yh.v_hi, yh.a_hi, lim_y.j_hi, lim_y, tau_step)

    w = layer.window
    dil, di, dj = _dilate(layer.mask, math.floor(tau_step * xh.v_lo / w.dx),
                          math.ceil(tau_step * xh.v_hi / w.dx),
                          math.floor(tau_step * yh.v_lo / w.dy),
                          math.ceil(tau_step * yh.v_hi / w.dy))
    ix_lo, ix_hi = _raster_closed(px_lo, px_hi, w.dx)
    iy_lo, iy_hi = _raster_closed(py_lo, py_hi, w.dy)
    # the dilation survives only inside the window and the new hull's raster box
    i0, i1 = max(0, ix_lo - w.ox, di), min(w.nx, ix_hi + 1 - w.ox, di + dil.shape[0])
    j0, j1 = max(0, iy_lo - w.oy, dj), min(w.ny, iy_hi + 1 - w.oy, dj + dil.shape[1])
    mask = np.zeros_like(layer.mask)
    if i0 < i1 and j0 < j1:
        mask[i0:i1, j0:j1] = dil[i0 - di:i1 - di, j0 - dj:j1 - dj]

    return Layer(tau=layer.tau + tau_step, window=w, mask=mask,
                 x_hull=AxisInterval(float(px_lo), float(px_hi), float(vx_lo),
                                     float(vx_hi), float(ax_lo), float(ax_hi)),
                 y_hull=AxisInterval(float(py_lo), float(py_hi), float(vy_lo),
                                     float(vy_hi), float(ay_lo), float(ay_hi)),
                 heading_sign=layer.heading_sign)


def _clip_y(layer: Layer, y_lo: float, y_hi: float, inside: bool) -> Layer:
    """Lateral clip: keep cells fully inside (corridor) or intersecting (band).

    The continuous hull is clipped to the band as well so later
    rasterizations cannot resurrect removed positions.
    """
    if layer.empty:
        return layer
    w = layer.window
    if inside:
        iy_min = math.ceil(y_lo / w.dy - 1e-9)
        iy_max = math.floor(y_hi / w.dy + 1e-9) - 1
    else:
        iy_min = math.floor(y_lo / w.dy)
        iy_max = math.ceil(y_hi / w.dy) - 1
    mask = layer.mask.copy()
    _clip_mask_to_box(mask, w, w.ox, w.ox + w.nx - 1, iy_min, iy_max)
    if not mask.any():
        return _empty_like(layer, layer.tau)
    yh = layer.y_hull
    new_lo, new_hi = max(yh.p_lo, y_lo), min(yh.p_hi, y_hi)
    if new_lo > new_hi:
        return _empty_like(layer, layer.tau)
    return replace(layer, mask=mask,
                   y_hull=replace(yh, p_lo=new_lo, p_hi=new_hi))


def pov_occupancy(layer: Layer, pov_spec: VehicleSpec,
                  sv_spec: VehicleSpec) -> tuple[np.ndarray, int, int]:
    """POV positional cells inflated by the half-sum footprint.

    Minkowski dilation in reference-point coordinates: the SV reference
    collides when it lies within the summed half-extents of a POV cell,
    shifted longitudinally by both reference offsets, so the SV is treated
    as a point against this mask.  Returns (mask, ox, oy) in world indices.
    """
    w = layer.window
    if layer.empty:
        return np.zeros_like(layer.mask), w.ox, w.oy
    shift = sv_spec.ref_offset + pov_spec.ref_offset
    half_len = (sv_spec.length + pov_spec.length) / 2
    half_wid = (sv_spec.width + pov_spec.width) / 2
    sx_lo = math.floor((shift - half_len) / w.dx)
    sx_hi = math.ceil((shift + half_len) / w.dx)
    sy_lo = math.floor(-half_wid / w.dy)
    sy_hi = math.ceil(half_wid / w.dy)

    occ, i0, j0 = _dilate(layer.mask, sx_lo, sx_hi, sy_lo, sy_hi)
    return occ, w.ox + i0, w.oy + j0


def _prune_mask(mask: np.ndarray, ox: int, oy: int,
                occ: np.ndarray, occ_ox: int, occ_oy: int) -> None:
    """Clear mask cells covered by the occupancy mask (in place, world aligned)."""
    nx, ny = mask.shape
    onx, ony = occ.shape
    i0 = max(ox, occ_ox)
    j0 = max(oy, occ_oy)
    i1 = min(ox + nx, occ_ox + onx)
    j1 = min(oy + ny, occ_oy + ony)
    if i0 >= i1 or j0 >= j1:
        return
    sub = occ[i0 - occ_ox:i1 - occ_ox, j0 - occ_oy:j1 - occ_oy]
    mask[i0 - ox:i1 - ox, j0 - oy:j1 - oy] &= ~sub


def pov_prediction_mode(pov_y_history: np.ndarray, lane_width: float,
                        threshold: float = 0.15) -> str:
    """Normative while the POV has stayed near its lane center; latched after.

    Once any sample deviates more than the threshold from + lane_width / 2
    the mode is kinematic-envelope for the rest of the run.
    """
    y = np.atleast_1d(np.asarray(pov_y_history, dtype=float))
    if y.size == 0:
        raise ValueError("need at least one POV sample")
    if np.any(np.abs(y - lane_width / 2.0) > threshold):
        return "kinematic-envelope"
    return "normative"


def normative_band(road: RoadSpec, pov_spec: VehicleSpec) -> tuple[float, float]:
    """Reference-point band of a lane-keeping POV: body stays inside its lane."""
    return (pov_spec.width / 2.0, road.width / 2.0 - pov_spec.width / 2.0)


def compute_reachable_set(state: VehicleState, limits: KinematicLimits,
                          config: PredictionConfig) -> ReachableSet:
    """Unpruned reachable set of one vehicle from its current state."""
    layer = make_initial_layer(state, _window_for(state, limits, config))
    layers = [layer]
    for _ in range(config.n_steps):
        layer = propagate_step(layer, limits, config.tau_step)
        layers.append(layer)
    return ReachableSet(t=state.t, tau_step=config.tau_step,
                        horizon=config.horizon, layers=layers)


def compute_drivable_area(sv_state: VehicleState, pov_state: VehicleState,
                          config: PredictionConfig, road: RoadSpec,
                          sv_spec: VehicleSpec, pov_spec: VehicleSpec,
                          mode: str | None = None, *,
                          exists_only: bool = False) -> DrivableArea:
    """SV reachable set pruned against POV reachability, layer by layer.

    Expansion order per step: POV first, then the SV from its previous
    pruned layer, then removal of SV cells inside the POV occupancy and,
    with corridor pruning, of cells not fully on the road (plus shoulder
    margin).  ``exists`` reports whether the final layer is non-empty.
    With ``exists_only`` the area stops at the first empty SV layer (an
    empty layer stays empty), so ``layers`` and ``pov_layers`` may be
    shorter than the horizon; ``exists`` is the same either way.
    """
    if mode is None:
        mode = pov_prediction_mode(np.array([pov_state.y]), road.lane_width,
                                   config.incursion_detect_threshold)
    if mode not in ("normative", "kinematic-envelope"):
        raise ValueError(f"unknown prediction mode {mode!r}")
    band = normative_band(road, pov_spec) if mode == "normative" else None

    pov_window = _window_for(pov_state, config.pov_limits, config)
    sv_window = _window_for(sv_state, config.sv_limits, config)
    corridor = (-road.width / 2.0 - road.shoulder_margin,
                road.width / 2.0 + road.shoulder_margin)

    pov_layer = make_initial_layer(pov_state, pov_window)
    if band is not None:
        pov_layer = _clip_y(pov_layer, *band, inside=False)
    sv_layer = make_initial_layer(sv_state, sv_window)

    def prune(sv_l: Layer, pov_l: Layer) -> Layer:
        if config.road_pruning == "corridor":
            sv_l = _clip_y(sv_l, *corridor, inside=True)
        if sv_l.empty or pov_l.empty:
            return sv_l
        occ, occ_ox, occ_oy = pov_occupancy(pov_l, pov_spec, sv_spec)
        mask = sv_l.mask.copy()
        _prune_mask(mask, sv_l.window.ox, sv_l.window.oy, occ, occ_ox, occ_oy)
        if not mask.any():
            return _empty_like(sv_l, sv_l.tau)
        return replace(sv_l, mask=mask)

    sv_layer = prune(sv_layer, pov_layer)
    pov_layers = [pov_layer]
    sv_layers = [sv_layer]
    for _ in range(config.n_steps):
        if exists_only and sv_layer.empty:
            break
        pov_layer = propagate_step(pov_layer, config.pov_limits, config.tau_step)
        if band is not None:
            pov_layer = _clip_y(pov_layer, *band, inside=False)
        sv_layer = propagate_step(sv_layer, config.sv_limits, config.tau_step)
        sv_layer = prune(sv_layer, pov_layer)
        pov_layers.append(pov_layer)
        sv_layers.append(sv_layer)

    return DrivableArea(layers=sv_layers, exists=not sv_layers[-1].empty,
                        pov_layers=pov_layers)


def drivable_area_at(log: TrajectoryLog, i: int, config: PredictionConfig, *,
                     exists_only: bool = False) -> tuple[DrivableArea, str]:
    """Drivable area at log sample i, with the POV mode latched over samples 0..i."""
    road = log.scenario.road
    mode = pov_prediction_mode(log.pov["y"][:i + 1], road.lane_width,
                               config.incursion_detect_threshold)
    area = compute_drivable_area(log.sv_state(i), log.pov_state(i), config, road,
                                 log.scenario.sv_spec, log.scenario.pov_spec,
                                 mode=mode, exists_only=exists_only)
    return area, mode


@dataclass
class Timeline:
    """Drivable-area existence along one run's analysis window."""

    t: np.ndarray          # s, absolute anchor times
    rel_t: np.ndarray      # s, anchors relative to the trigger point
    exists: np.ndarray     # bool per anchor
    mode: list[str]


def drivable_timeline(log: TrajectoryLog, config: PredictionConfig,
                      eval_step: float = 0.1,
                      window: tuple[float, float] | None = None) -> Timeline:
    """Evaluate drivable-area existence at each step of the analysis window."""
    if eval_step <= 0:
        raise ValueError("eval_step must be positive")
    if window is None:
        aw = window_for(log)
        t_begin, t_end = aw.t_begin, aw.t_end
    else:
        t_begin, t_end = window
    if t_begin < log.t[0] or t_end > log.t[-1] + log.dt / 2:
        raise ValueError("analysis window not covered by the log")

    anchors = []
    t = t_begin
    while t <= t_end + 1e-9:
        anchors.append(min(t, float(log.t[-1])))
        t += eval_step

    exists = np.zeros(len(anchors), dtype=bool)
    modes = []
    for k, t_anchor in enumerate(anchors):
        area, mode = drivable_area_at(log, log.index_at(t_anchor), config,
                                      exists_only=True)
        exists[k] = area.exists
        modes.append(mode)
    t_arr = np.asarray(anchors)
    return Timeline(t=t_arr, rel_t=t_arr - log.timing.t_trigger,
                    exists=exists, mode=modes)


@dataclass
class Prevalence:
    rel_t: np.ndarray      # s, common clock relative to the trigger point
    fraction: np.ndarray   # mean drivable-area indicator per step
    ci_lo: np.ndarray      # bootstrap 2.5th percentile
    ci_hi: np.ndarray      # bootstrap 97.5th percentile
    n_extrapolated: np.ndarray  # runs carrying their terminal value at each step


def aggregate_prevalence(timelines: list[Timeline | np.ndarray],
                         n_boot: int = 1000, seed: int = 0,
                         rel_t: np.ndarray | None = None) -> Prevalence:
    """Per-step cohort fraction with a bootstrapped 95 % CI.

    Timelines are aligned on their shared clock relative to the trigger
    point; runs shorter than the longest window carry their terminal value,
    flagged in ``n_extrapolated``.  Resampling draws whole runs with
    replacement, deterministic under the seed.
    """
    if not timelines:
        raise ValueError("empty cohort")
    series = []
    rel = rel_t
    for tl in timelines:
        if isinstance(tl, Timeline):
            series.append(np.asarray(tl.exists, dtype=bool))
            if rel is None or len(tl.rel_t) > len(rel):
                rel = tl.rel_t
        else:
            series.append(np.asarray(tl, dtype=bool))
    n_steps = max(len(s) for s in series)
    if rel is None:
        rel = np.arange(n_steps, dtype=float)
    data = np.zeros((len(series), n_steps), dtype=bool)
    padded = np.zeros((len(series), n_steps), dtype=bool)
    for r, s in enumerate(series):
        data[r, :len(s)] = s
        if len(s) < n_steps:
            data[r, len(s):] = s[-1]
            padded[r, len(s):] = True

    fraction = data.mean(axis=0)
    rng = np.random.default_rng(seed)
    n_runs = len(series)
    idx = rng.integers(0, n_runs, size=(n_boot, n_runs))
    boot = data[idx].mean(axis=1)  # [n_boot, n_steps]
    ci_lo = np.percentile(boot, 2.5, axis=0)
    ci_hi = np.percentile(boot, 97.5, axis=0)
    return Prevalence(rel_t=np.asarray(rel[:n_steps], dtype=float),
                      fraction=fraction, ci_lo=ci_lo, ci_hi=ci_hi,
                      n_extrapolated=padded.sum(axis=0))
