"""Reachable sets, drivable-area pruning, and cohort prevalence.

Representation: each future-time layer carries a continuous per-axis hull
(position, velocity, acceleration intervals) plus its occupied cells on a
world-aligned grid.  Longitudinal and lateral dynamics are decoupled
triple integrators, so the hull advances exactly under the extremal jerks
(corners suffice for this monotone system; each is one scalar step of the
simulator's rule) while the cells advance by velocity-range dilation
intersected with the rasterized new hull; carrying the hull continuously
keeps rasterization rounding from compounding across steps.  Because
every computation starts from a point state and all clamps are global,
one hull per axis describes every cell of a layer.

A layer stores only its occupied cells, in their bounding box, indexed
from the world cell of its first corner; an empty layer has a 0x0 box.
A completely occupied box (every unpruned layer, so every POV layer) is a
box layer and holds no array: propagating and clipping it are integer
arithmetic, and its read-only ``mask`` is built only when read.  The POV
occupancy is an index rectangle, the box dilated by the footprint, and
pruning clears its overlap with the SV layer.  A cut that leaves a hole or
a split carves the layer into a cropped mask, dilated by shifted ORs and
clipped by slices; a carved result that comes out full is a box again.

Pruning follows the expansion order: at each step the POV layer expands
first, the SV layer expands from its previous pruned layer, and SV cells
inside the POV's footprint-dilated occupancy (or outside the road
corridor, when enabled) are removed.  The survivors form the drivable
area; an empty final layer means no trajectory is guaranteed
collision-free under the kinematic assumptions, not that collision is
certain.  Since an empty layer stays empty, an area computed with
``exists_only`` (as every timeline anchor is) stops at its first empty SV
layer and carries fewer layers; its ``exists`` is unchanged.

The POV side of an area depends only on the POV state, the prediction
mode, the road and the two vehicle specs, so it lives in a POV track that
SV passes share: it grows its layers and their occupancies only as deep
as some pass asks.  ``drivable_timelines`` evaluates a cohort this way.
Its runs share one POV incursion, and every SV state is the same until
the response starts, so it groups the anchors by POV key and runs one SV
pass per distinct SV state in each group.  The keys are the frozen
``VehicleState``s and specs themselves, compared as floats, so equal keys
are equal inputs up to the sign of a zero.  A timeline keeps only
``exists``, which a signed zero cannot change: state values feed sums,
products, clamps, comparisons and floors, never a sign test or a divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import (AxisLimits, KinematicLimits, POV_LIMITS, SV_LIMITS, RoadSpec,
                   VehicleSpec, VehicleState, axis_limits, scalar_axis_step)
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
        for name in ("grid_dx", "grid_dy", "tau_step", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.incursion_detect_threshold)
                and self.incursion_detect_threshold >= 0):
            raise ValueError(f"incursion_detect_threshold must be finite and >= 0, "
                             f"got {self.incursion_detect_threshold}")
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


@dataclass
class Layer:
    """One future-time slice of a reachable set.

    The layer's cells lie in the index box of ``shape`` cells from world
    cell ``(ox, oy)``; box cell ``[i, j]`` is world cell ``(ox + i, oy + j)``,
    which spans ``[ix*dx, (ix+1)*dx) x [iy*dy, (iy+1)*dy)``.  The box is
    cropped to the occupied cells, so its first and last rows and columns are
    occupied; an empty layer has a 0x0 box and no hulls.  A box layer (every
    cell occupied) has ``carved`` None; any other layer keeps its cells as
    the bool array ``carved``.  Build layers with ``_cropped_layer``.
    """

    tau: float
    dx: float
    dy: float
    ox: int
    oy: int
    shape: tuple[int, int]
    x_hull: AxisInterval | None  # None iff empty
    y_hull: AxisInterval | None
    heading_sign: int
    carved: np.ndarray | None = field(default=None, repr=False)  # bool, True = occupied

    @property
    def empty(self) -> bool:
        return self.x_hull is None

    @property
    def mask(self) -> np.ndarray:
        """The occupied cells of the box, read-only: a new filled array for a box layer."""
        return np.ones(self.shape, dtype=bool) if self.carved is None else self.carved

    def world_cells(self) -> set[tuple[int, int]]:
        ii, jj = np.nonzero(self.mask)
        return {(int(i) + self.ox, int(j) + self.oy) for i, j in zip(ii, jj)}

    def position_hull(self) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """((x_lo, x_hi), (y_lo, y_hi)) spanned by occupied cells, None if empty."""
        if self.empty:
            return None
        nx, ny = self.shape
        return ((float(self.ox * self.dx), float((self.ox + nx) * self.dx)),
                (float(self.oy * self.dy), float((self.oy + ny) * self.dy)))


@dataclass
class ReachableSet:
    t: float           # s, analysis anchor time
    tau_step: float
    layers: list[Layer]


@dataclass
class DrivableArea:
    """Collision-pruned SV reachable set plus the POV set it was pruned against."""

    layers: list[Layer]
    exists: bool
    pov_layers: list[Layer] = field(default_factory=list)


def _cropped_layer(tau: float, dx: float, dy: float, mask: np.ndarray | tuple[int, int],
                   ox: int, oy: int, x_hull: AxisInterval | None,
                   y_hull: AxisInterval | None, heading_sign: int) -> Layer:
    """The layer of the occupied cells of ``mask``, whose cell [0, 0] is world cell (ox, oy).

    A bool ``mask`` is cropped to its occupied cells (a view, not a copy),
    and a filled crop is a box layer; an ``(nx, ny)`` shape is a filled box
    and needs no scan, and a side <= 0 leaves it with no cell.  With no
    occupied cell, or no lateral hull, the layer is empty.
    """
    if type(mask) is tuple:
        shape, carved = mask, None
    else:
        shape, carved = (0, 0), None
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size:
            cols = np.flatnonzero(mask.any(axis=0))
            i0, j0 = int(rows[0]), int(cols[0])
            mask = mask[i0:rows[-1] + 1, j0:cols[-1] + 1]
            ox, oy, shape = ox + i0, oy + j0, mask.shape
            carved = None if mask.all() else mask
    if min(shape) <= 0 or y_hull is None:
        return Layer(tau, dx, dy, 0, 0, (0, 0), None, None, heading_sign)
    return Layer(tau, dx, dy, ox, oy, shape, x_hull, y_hull, heading_sign, carved)


def make_initial_layer(state: VehicleState, dx: float, dy: float) -> Layer:
    """tau = 0 layer: exactly the cell covering the current position.

    Hulls start at the raw point state; clamping into the admissible box
    happens on the first propagation step, mirroring the stepper.
    """
    return Layer(0.0, dx, dy, math.floor(state.x / dx), math.floor(state.y / dy), (1, 1),
                 AxisInterval(state.x, state.x, state.vx, state.vx, state.ax, state.ax),
                 AxisInterval(state.y, state.y, state.vy, state.vy, state.ay, state.ay),
                 state.heading_sign)


def _dilate(mask: np.ndarray, sx_lo: int, sx_hi: int, sy_lo: int, sy_hi: int) -> np.ndarray:
    """Union of a cropped, carved mask shifted by every offset (sx, sy) in the ranges.

    Cell [0, 0] of the result is cell [sx_lo, sy_lo] of the mask's frame, and
    the result is cropped as well.
    """
    h, w = mask.shape
    tmp = np.zeros((h + sx_hi - sx_lo, w), dtype=bool)
    for s in range(sx_hi - sx_lo + 1):
        tmp[s:s + h] |= mask
    out = np.zeros((tmp.shape[0], w + sy_hi - sy_lo), dtype=bool)
    for s in range(sy_hi - sy_lo + 1):
        out[:, s:s + w] |= tmp
    return out


@lru_cache(maxsize=16)
def _axis_limits(limits: KinematicLimits, heading_sign: int) -> tuple[AxisLimits, AxisLimits]:
    return axis_limits(limits, heading_sign, "x"), axis_limits(limits, heading_sign, "y")


def propagate_step(layer: Layer, limits: KinematicLimits, tau_step: float) -> Layer:
    """One interval-arithmetic Euler step of a layer.

    Hull corners advance through the same clamped step rule as the
    simulator (a low corner under its axis's lowest jerk, a high corner
    under its highest), so sampled trajectories ride the hull edges
    exactly.  The mask is the velocity-range dilation of the previous mask
    intersected with the rasterized new position hull: sound for any carved
    shape and exact for box-shaped layers, whose step is integer arithmetic.
    """
    if layer.empty:
        return replace(layer, tau=layer.tau + tau_step)
    xh, yh = layer.x_hull, layer.y_hull
    lx, ly = _axis_limits(limits, layer.heading_sign)
    px_lo, vx_lo, ax_lo = scalar_axis_step(xh.p_lo, xh.v_lo, xh.a_lo, lx.j_lo, lx, tau_step)
    px_hi, vx_hi, ax_hi = scalar_axis_step(xh.p_hi, xh.v_hi, xh.a_hi, lx.j_hi, lx, tau_step)
    py_lo, vy_lo, ay_lo = scalar_axis_step(yh.p_lo, yh.v_lo, yh.a_lo, ly.j_lo, ly, tau_step)
    py_hi, vy_hi, ay_hi = scalar_axis_step(yh.p_hi, yh.v_hi, yh.a_hi, ly.j_hi, ly, tau_step)

    dx, dy = layer.dx, layer.dy
    sx_lo, sx_hi = math.floor(tau_step * xh.v_lo / dx), math.ceil(tau_step * xh.v_hi / dx)
    sy_lo, sy_hi = math.floor(tau_step * yh.v_lo / dy), math.ceil(tau_step * yh.v_hi / dy)
    ox, oy = layer.ox + sx_lo, layer.oy + sy_lo
    nx, ny = layer.shape
    # the dilation, nx + sx_hi - sx_lo by ny + sy_hi - sy_lo cells from (ox, oy), survives
    # only in the cells the closed new position hull touches under floor indexing
    i0 = max(ox, math.floor(px_lo / dx))
    i1 = min(ox + nx + sx_hi - sx_lo, math.floor(px_hi / dx) + 1)
    j0 = max(oy, math.floor(py_lo / dy))
    j1 = min(oy + ny + sy_hi - sy_lo, math.floor(py_hi / dy) + 1)
    cells = (i1 - i0, j1 - j0)
    if layer.carved is not None:
        # upper bounds are clamped at 0: a negative one counts from the far edge
        cells = _dilate(layer.carved, sx_lo, sx_hi, sy_lo, sy_hi)[
            i0 - ox:max(0, i1 - ox), j0 - oy:max(0, j1 - oy)]
    return _cropped_layer(layer.tau + tau_step, dx, dy, cells, i0, j0,
                          AxisInterval(px_lo, px_hi, vx_lo, vx_hi, ax_lo, ax_hi),
                          AxisInterval(py_lo, py_hi, vy_lo, vy_hi, ay_lo, ay_hi),
                          layer.heading_sign)


def _clip_y(layer: Layer, y_lo: float, y_hi: float, inside: bool) -> Layer:
    """Lateral clip: keep cells fully inside (corridor) or intersecting (band).

    The continuous hull is clipped to the band as well so later
    rasterizations cannot resurrect removed positions.
    """
    if layer.empty:
        return layer
    dy = layer.dy
    if inside:
        iy_min = math.ceil(y_lo / dy - 1e-9)
        iy_max = math.floor(y_hi / dy + 1e-9) - 1
    else:
        iy_min = math.floor(y_lo / dy)
        iy_max = math.ceil(y_hi / dy) - 1
    yh = layer.y_hull
    new_lo, new_hi = max(yh.p_lo, y_lo), min(yh.p_hi, y_hi)
    y_hull = (AxisInterval(new_lo, new_hi, yh.v_lo, yh.v_hi, yh.a_lo, yh.a_hi)
              if new_lo <= new_hi else None)
    nx, ny = layer.shape
    j0, j1 = max(layer.oy, iy_min), min(layer.oy + ny, iy_max + 1)
    cells = (nx, j1 - j0)
    if layer.carved is not None:
        cells = layer.carved[:, j0 - layer.oy:max(0, j1 - layer.oy)]
    return _cropped_layer(layer.tau, layer.dx, dy, cells, layer.ox, j0, layer.x_hull,
                          y_hull, layer.heading_sign)


def pov_occupancy(layer: Layer, pov_spec: VehicleSpec,
                  sv_spec: VehicleSpec) -> tuple[int, int, int, int]:
    """POV positional cells inflated by the half-sum footprint.

    Minkowski dilation in reference-point coordinates: the SV reference
    collides when it lies within the summed half-extents of a POV cell,
    shifted longitudinally by both reference offsets, so the SV is treated
    as a point against this set.  The layer is a box, so its dilation is the
    half-open world-cell rectangle ``(i0, i1, j0, j1)``: cells
    ``i0 <= ix < i1``, ``j0 <= iy < j1``, and no cell for an empty layer.
    Nothing prunes a POV layer; a carved one is a ValueError.
    """
    if layer.empty:
        return 0, 0, 0, 0
    if layer.carved is not None:
        raise ValueError("POV occupancy of a carved layer: POV layers are boxes")
    shift = sv_spec.ref_offset + pov_spec.ref_offset
    half_len = (sv_spec.length + pov_spec.length) / 2
    half_wid = (sv_spec.width + pov_spec.width) / 2
    nx, ny = layer.shape
    return (layer.ox + math.floor((shift - half_len) / layer.dx),
            layer.ox + nx + math.ceil((shift + half_len) / layer.dx),
            layer.oy + math.floor(-half_wid / layer.dy),
            layer.oy + ny + math.ceil(half_wid / layer.dy))


def _pruned(layer: Layer, rect: tuple[int, int, int, int]) -> Layer:
    """The non-empty layer without the cells of the world-cell rectangle ``rect``.

    A layer whose box the rectangle misses is returned as it is.
    """
    nx, ny = layer.shape
    i0, i1 = max(rect[0] - layer.ox, 0), min(rect[1] - layer.ox, nx)
    j0, j1 = max(rect[2] - layer.oy, 0), min(rect[3] - layer.oy, ny)
    if i0 >= i1 or j0 >= j1:
        return layer
    mask = np.ones(layer.shape, dtype=bool) if layer.carved is None else layer.carved.copy()
    mask[i0:i1, j0:j1] = False
    return _cropped_layer(layer.tau, layer.dx, layer.dy, mask, layer.ox, layer.oy,
                          layer.x_hull, layer.y_hull, layer.heading_sign)


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
    layers = [make_initial_layer(state, config.grid_dx, config.grid_dy)]
    for _ in range(config.n_steps):
        layers.append(propagate_step(layers[-1], limits, config.tau_step))
    return ReachableSet(t=state.t, tau_step=config.tau_step, layers=layers)


class _PovTrack:
    """The POV side of every drivable area with one POV state, mode and pair of specs.

    Layer k is the POV's layer at tau = k * tau_step, band-clipped in
    normative mode.  Layers and their footprint-dilated occupancies are
    computed on first use and kept, so every SV pass pruned against the
    track shares them, and the track is only as deep as its deepest pass.
    """

    def __init__(self, pov_state: VehicleState, mode: str, road: RoadSpec,
                 sv_spec: VehicleSpec, pov_spec: VehicleSpec, config: PredictionConfig):
        if mode not in ("normative", "kinematic-envelope"):
            raise ValueError(f"unknown prediction mode {mode!r}")
        self.key = (pov_state, mode, road, sv_spec, pov_spec, config)
        self._config, self._sv_spec, self._pov_spec = config, sv_spec, pov_spec
        self._band = normative_band(road, pov_spec) if mode == "normative" else None
        self.layers = [self._clip(make_initial_layer(pov_state, config.grid_dx,
                                                     config.grid_dy))]
        self._occupancy: dict[int, tuple[int, int, int, int]] = {}

    def _clip(self, layer: Layer) -> Layer:
        return layer if self._band is None else _clip_y(layer, *self._band, inside=False)

    def layer(self, k: int) -> Layer:
        while len(self.layers) <= k:
            self.layers.append(self._clip(propagate_step(
                self.layers[-1], self._config.pov_limits, self._config.tau_step)))
        return self.layers[k]

    def occupancy(self, k: int) -> tuple[int, int, int, int]:
        if k not in self._occupancy:
            self._occupancy[k] = pov_occupancy(self.layer(k), self._pov_spec, self._sv_spec)
        return self._occupancy[k]


def compute_drivable_area(sv_state: VehicleState, pov_state: VehicleState,
                          config: PredictionConfig, road: RoadSpec,
                          sv_spec: VehicleSpec, pov_spec: VehicleSpec,
                          mode: str, *, exists_only: bool = False,
                          track: _PovTrack | None = None) -> DrivableArea:
    """SV reachable set pruned against POV reachability, layer by layer.

    Expansion order per step: POV first, then the SV from its previous
    pruned layer, then removal of SV cells inside the POV occupancy and,
    with corridor pruning, of cells not fully on the road (plus shoulder
    margin).  ``exists`` reports whether the final layer is non-empty.
    With ``exists_only`` the area stops at the first empty SV layer (an
    empty layer stays empty), so ``layers`` and ``pov_layers`` may be
    shorter than the horizon; ``exists`` is the same either way.  The POV
    layers come from ``track``, built for the same POV state, mode, specs
    and config, or from a new one.
    """
    key = (pov_state, mode, road, sv_spec, pov_spec, config)
    if track is None:
        track = _PovTrack(*key)
    elif track.key != key:
        raise ValueError("POV track built for another POV state, mode, specs or config")
    corridor = (-road.width / 2.0 - road.shoulder_margin,
                road.width / 2.0 + road.shoulder_margin)

    def prune(sv_l: Layer, k: int) -> Layer:
        pov_l = track.layer(k)
        if config.road_pruning == "corridor":
            sv_l = _clip_y(sv_l, *corridor, inside=True)
        if sv_l.empty or pov_l.empty:
            return sv_l
        return _pruned(sv_l, track.occupancy(k))

    sv_layer = prune(make_initial_layer(sv_state, config.grid_dx, config.grid_dy), 0)
    sv_layers = [sv_layer]
    for k in range(1, config.n_steps + 1):
        if exists_only and sv_layer.empty:
            break
        sv_layer = prune(propagate_step(sv_layer, config.sv_limits, config.tau_step), k)
        sv_layers.append(sv_layer)

    return DrivableArea(layers=sv_layers, exists=not sv_layers[-1].empty,
                        pov_layers=track.layers[:len(sv_layers)])


def _latched_mode(log: TrajectoryLog, i: int, config: PredictionConfig) -> str:
    """POV prediction mode at log sample i, latched over samples 0..i."""
    return pov_prediction_mode(log.pov["y"][:i + 1], log.scenario.road.lane_width,
                               config.incursion_detect_threshold)


def drivable_area_at(log: TrajectoryLog, i: int, config: PredictionConfig, *,
                     exists_only: bool = False) -> tuple[DrivableArea, str]:
    """Drivable area at log sample i, with the POV mode latched over samples 0..i."""
    mode = _latched_mode(log, i, config)
    sc = log.scenario
    area = compute_drivable_area(log.sv_state(i), log.pov_state(i), config, sc.road,
                                 sc.sv_spec, sc.pov_spec, mode=mode,
                                 exists_only=exists_only)
    return area, mode


@dataclass
class Timeline:
    """Drivable-area existence along one run's analysis window."""

    t: np.ndarray          # s, absolute anchor times
    rel_t: np.ndarray      # s, anchors relative to the trigger point
    exists: np.ndarray     # bool per anchor
    mode: list[str]


def _anchor_times(log: TrajectoryLog, eval_step: float,
                  window: tuple[float, float] | None) -> list[float]:
    """Anchors eval_step apart over the window (the log's analysis window if None)."""
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
    return anchors


def drivable_timeline(log: TrajectoryLog, config: PredictionConfig,
                      eval_step: float = 0.1,
                      window: tuple[float, float] | None = None) -> Timeline:
    """Evaluate drivable-area existence at each step of the analysis window."""
    return drivable_timelines([(log, window)], config, eval_step)[0]


def drivable_timelines(runs: list[tuple[TrajectoryLog, tuple[float, float] | None]],
                       config: PredictionConfig, eval_step: float = 0.1) -> list[Timeline]:
    """Timelines of a cohort's (log, window) runs, each distinct anchor evaluated once.

    Every anchor's area is computed with ``exists_only``, as
    ``drivable_area_at`` computes it.  Anchors are grouped by POV state,
    latched mode, road and specs; each group prunes against one POV track,
    with one SV pass per distinct SV state.  Only one track is alive at a
    time, and only the booleans are kept.
    """
    if not (math.isfinite(eval_step) and eval_step > 0):
        raise ValueError(f"eval_step must be positive and finite, got {eval_step}")
    timelines = []
    # (pov_state, mode, road, sv_spec, pov_spec) -> sv_state -> [(run, anchor)]
    groups: dict[tuple, dict[VehicleState, list[tuple[int, int]]]] = {}
    for r, (log, window) in enumerate(runs):
        anchors = _anchor_times(log, eval_step, window)
        sc = log.scenario
        modes = []
        for k, t_anchor in enumerate(anchors):
            i = log.index_at(t_anchor)
            modes.append(_latched_mode(log, i, config))
            key = (log.pov_state(i), modes[-1], sc.road, sc.sv_spec, sc.pov_spec)
            groups.setdefault(key, {}).setdefault(log.sv_state(i), []).append((r, k))
        t_arr = np.asarray(anchors)
        timelines.append(Timeline(t=t_arr, rel_t=t_arr - log.timing.t_trigger,
                                  exists=np.zeros(len(anchors), dtype=bool), mode=modes))
    for (pov_state, mode, road, sv_spec, pov_spec), by_sv in groups.items():
        track = _PovTrack(pov_state, mode, road, sv_spec, pov_spec, config)
        for sv_state, slots in by_sv.items():
            exists = compute_drivable_area(sv_state, pov_state, config, road, sv_spec,
                                           pov_spec, mode=mode, exists_only=True,
                                           track=track).exists
            for r, k in slots:
                timelines[r].exists[k] = exists
    return timelines


@dataclass
class Prevalence:
    rel_t: np.ndarray      # s, common clock relative to the trigger point
    fraction: np.ndarray   # mean drivable-area indicator per step
    ci_lo: np.ndarray      # bootstrap 2.5th percentile
    ci_hi: np.ndarray      # bootstrap 97.5th percentile
    n_extrapolated: np.ndarray  # runs carrying their terminal value at each step


def aggregate_prevalence(timelines: list[Timeline], n_boot: int = 1000,
                         seed: int = 0) -> Prevalence:
    """Per-step cohort fraction with a bootstrapped 95 % CI.

    Timelines are aligned on their shared clock relative to the trigger
    point; runs shorter than the longest window carry their terminal value,
    flagged in ``n_extrapolated``.  Resampling draws whole runs with
    replacement, deterministic under the seed.
    """
    if not timelines:
        raise ValueError("empty cohort")
    series = [np.asarray(tl.exists, dtype=bool) for tl in timelines]
    rel = max((tl.rel_t for tl in timelines), key=len)
    n_steps = len(rel)
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
    return Prevalence(rel_t=np.asarray(rel, dtype=float),
                      fraction=fraction, ci_lo=ci_lo, ci_hi=ci_hi,
                      n_extrapolated=padded.sum(axis=0))
