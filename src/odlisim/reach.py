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

A layer stores its occupied cells as a short tuple of half-open
world-cell rectangles, none empty and none inside another: a box is one
rectangle, and an empty layer has none.  Every kernel step maps
rectangles to rectangles exactly, in integer arithmetic.  Dilation
distributes over a union, so propagation widens each rectangle by the
velocity range's cell shifts and clamps it to the rasterized new hull;
the corridor and band clips clamp each rectangle's lateral range; pruning
subtracts the POV occupancy rectangle, which leaves at most four pieces
of each rectangle it hits.  Nothing prunes a POV layer, so it stays one
rectangle and its occupancy, the rectangle dilated by the footprint, is
one rectangle too.  Readers outside the kernel read ``rects`` as well:
the oracle tests each sample's cell against every rectangle, and the
snapshot writers list each rectangle's cells.

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

    The layer's cells are the union of ``rects``, half-open world-cell
    rectangles ``(i0, i1, j0, j1)`` of the cells ``i0 <= ix < i1``,
    ``j0 <= iy < j1``; world cell ``(ix, iy)`` spans
    ``[ix*dx, (ix+1)*dx) x [iy*dy, (iy+1)*dy)``.  No rectangle is empty or
    inside another; a box is one rectangle, and an empty layer has none
    and no hulls.  Build layers with ``_layer``.
    """

    tau: float
    dx: float
    dy: float
    rects: tuple[tuple[int, int, int, int], ...]
    x_hull: AxisInterval | None  # None iff empty
    y_hull: AxisInterval | None
    heading_sign: int

    @property
    def empty(self) -> bool:
        return self.x_hull is None

    @property
    def _bounds(self) -> tuple[int, int, int, int]:
        if not self.rects:
            return 0, 0, 0, 0
        i0, i1, j0, j1 = zip(*self.rects)
        return min(i0), max(i1), min(j0), max(j1)

    @property
    def mask(self) -> np.ndarray:
        """A new bool array of the occupied cells of the rectangles' bounding box.

        Box cell ``[i, j]`` is world cell ``(min i0 + i, min j0 + j)``; 0x0 when
        empty.  Outside the tests, only the benchmark tracer reads it, to count cells.
        """
        i0, i1, j0, j1 = self._bounds
        mask = np.zeros((i1 - i0, j1 - j0), dtype=bool)
        for a0, a1, b0, b1 in self.rects:
            mask[a0 - i0:a1 - i0, b0 - j0:b1 - j0] = True
        return mask

    def position_hull(self) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """((x_lo, x_hi), (y_lo, y_hi)) spanned by occupied cells, None if empty."""
        if self.empty:
            return None
        i0, i1, j0, j1 = self._bounds
        return ((float(i0 * self.dx), float(i1 * self.dx)),
                (float(j0 * self.dy), float(j1 * self.dy)))


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


def _layer(tau: float, dx: float, dy: float, rects: list[tuple[int, int, int, int]],
           x_hull: AxisInterval | None, y_hull: AxisInterval | None,
           heading_sign: int) -> Layer:
    """The layer of the cells of the world-cell rectangles ``rects``.

    Empty rectangles and rectangles inside another are dropped, which leaves
    the cells as they are.  With no rectangle left, or no lateral hull, the
    layer is empty.  Most builds keep a single rectangle, which has no other
    to sort against or to lie inside.
    """
    kept = [r for r in rects if r[0] < r[1] and r[2] < r[3]]
    if len(kept) > 1:
        # largest first, so a rectangle comes after every rectangle that holds it
        ordered = sorted(kept, key=lambda r: (r[1] - r[0]) * (r[3] - r[2]), reverse=True)
        kept = []
        for r in ordered:
            if not any(k[0] <= r[0] and r[1] <= k[1] and k[2] <= r[2] and r[3] <= k[3]
                       for k in kept):
                kept.append(r)
    if not kept or y_hull is None:
        return Layer(tau, dx, dy, (), None, None, heading_sign)
    return Layer(tau, dx, dy, tuple(kept), x_hull, y_hull, heading_sign)


def make_initial_layer(state: VehicleState, dx: float, dy: float) -> Layer:
    """tau = 0 layer: exactly the cell covering the current position.

    Hulls start at the raw point state; clamping into the admissible box
    happens on the first propagation step, mirroring the stepper.
    """
    ix, iy = math.floor(state.x / dx), math.floor(state.y / dy)
    return Layer(0.0, dx, dy, ((ix, ix + 1, iy, iy + 1),),
                 AxisInterval(state.x, state.x, state.vx, state.vx, state.ax, state.ax),
                 AxisInterval(state.y, state.y, state.vy, state.vy, state.ay, state.ay),
                 state.heading_sign)


@lru_cache(maxsize=16)
def _axis_limits(limits: KinematicLimits, heading_sign: int) -> tuple[AxisLimits, AxisLimits]:
    return axis_limits(limits, heading_sign, "x"), axis_limits(limits, heading_sign, "y")


def propagate_step(layer: Layer, limits: KinematicLimits, tau_step: float) -> Layer:
    """One interval-arithmetic Euler step of a layer.

    Hull corners advance through the same clamped step rule as the
    simulator (a low corner under its axis's lowest jerk, a high corner
    under its highest), so sampled trajectories ride the hull edges
    exactly.  The cells are the velocity-range dilation of the previous
    cells intersected with the rasterized new position hull: each rectangle
    widens by the range of cell shifts and is clamped to the hull's cells.
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
    # the cells the closed new position hull touches under floor indexing
    hx0, hx1 = math.floor(px_lo / dx), math.floor(px_hi / dx) + 1
    hy0, hy1 = math.floor(py_lo / dy), math.floor(py_hi / dy) + 1
    # Rounding can carry fl(p + tau * v) a cell past the exact-arithmetic
    # shift range (fl(-1e-300 + 0.25) = 0.25 leaves cell -1 for cell 1, not 0),
    # so each range widens to reach the new hull's edge cells from the old's.
    sx_lo = min(math.floor(tau_step * xh.v_lo / dx), hx0 - math.floor(xh.p_lo / dx))
    sx_hi = max(math.ceil(tau_step * xh.v_hi / dx), hx1 - math.floor(xh.p_hi / dx) - 1)
    sy_lo = min(math.floor(tau_step * yh.v_lo / dy), hy0 - math.floor(yh.p_lo / dy))
    sy_hi = max(math.ceil(tau_step * yh.v_hi / dy), hy1 - math.floor(yh.p_hi / dy) - 1)
    rects = [(max(i0 + sx_lo, hx0), min(i1 + sx_hi, hx1),
              max(j0 + sy_lo, hy0), min(j1 + sy_hi, hy1)) for i0, i1, j0, j1 in layer.rects]
    return _layer(layer.tau + tau_step, dx, dy, rects,
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
    rects = [(i0, i1, max(j0, iy_min), min(j1, iy_max + 1)) for i0, i1, j0, j1 in layer.rects]
    return _layer(layer.tau, layer.dx, dy, rects, layer.x_hull, y_hull, layer.heading_sign)


def pov_occupancy(layer: Layer, pov_spec: VehicleSpec,
                  sv_spec: VehicleSpec) -> tuple[int, int, int, int]:
    """POV positional cells inflated by the half-sum footprint.

    Minkowski dilation in reference-point coordinates: the SV reference
    collides when it lies within the summed half-extents of a POV cell,
    shifted longitudinally by both reference offsets, so the SV is treated
    as a point against this set.  The layer is one rectangle, so its
    dilation is the half-open world-cell rectangle ``(i0, i1, j0, j1)``:
    cells ``i0 <= ix < i1``, ``j0 <= iy < j1``, and no cell for an empty
    layer.  Nothing prunes a POV layer; a layer of more rectangles is a
    ValueError.
    """
    if layer.empty:
        return 0, 0, 0, 0
    if len(layer.rects) != 1:
        raise ValueError(f"POV occupancy of a layer of {len(layer.rects)} rectangles: "
                         f"POV layers are boxes")
    (i0, i1, j0, j1), = layer.rects
    shift = sv_spec.ref_offset + pov_spec.ref_offset
    half_len = (sv_spec.length + pov_spec.length) / 2
    half_wid = (sv_spec.width + pov_spec.width) / 2
    return (i0 + math.floor((shift - half_len) / layer.dx),
            i1 + math.ceil((shift + half_len) / layer.dx),
            j0 + math.floor(-half_wid / layer.dy),
            j1 + math.ceil(half_wid / layer.dy))


def _pruned(layer: Layer, rect: tuple[int, int, int, int]) -> Layer:
    """The non-empty layer without the cells of the world-cell rectangle ``rect``.

    A rectangle the cut hits leaves its parts before and after the cut's x
    range, and beside the cut its parts below and above the cut's y range.
    A layer whose rectangles the cut all miss is returned as it is.
    """
    q0, q1, q2, q3 = rect
    pieces = []
    for r in layer.rects:
        i0, i1, j0, j1 = r
        m0, m1 = max(i0, q0), min(i1, q1)
        if m0 < m1 and max(j0, q2) < min(j1, q3):
            pieces += (i0, m0, j0, j1), (m1, i1, j0, j1), (m0, m1, j0, q2), (m0, m1, q3, j1)
        else:
            pieces.append(r)
    if len(pieces) == len(layer.rects):  # a hit leaves four pieces, so nothing was hit
        return layer
    return _layer(layer.tau, layer.dx, layer.dy, pieces, layer.x_hull, layer.y_hull,
                  layer.heading_sign)


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
    log.check_window(t_begin, t_end)
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
