"""Reachable sets, drivable-area pruning, and cohort prevalence.

Representation: each future-time layer carries a continuous per-axis hull
(position, velocity, acceleration intervals) plus its occupied cells on a
world-aligned grid.  Longitudinal and lateral dynamics are decoupled
triple integrators, so the hull advances exactly under the extremal jerks
(corners suffice for this monotone system; each is one ``axis_step`` of
the simulator's rule) while the cells advance by velocity-range dilation
intersected with the rasterized new hull; carrying the hull continuously
keeps rasterization rounding from compounding across steps.  Because
every computation starts from a point state and all clamps are global,
one hull per axis describes every cell of a layer.

A layer's occupied cells are the union of a set of half-open world-cell
rectangles: each is non-empty and none lies inside another, and the
order of the tuple that holds them means nothing.  A box is one
rectangle, and an empty layer has none.  Every kernel step maps
rectangles to rectangles exactly, in integer arithmetic.  Dilation
distributes over a union, so propagation widens each rectangle by the
velocity range's cell shifts and clamps it to the rasterized new hull;
the corridor and band clips clamp each rectangle's lateral range; pruning
subtracts the POV occupancy rectangle, which leaves at most four pieces
of each rectangle it hits.  Nothing prunes a POV layer, so it stays one
rectangle and its occupancy, the rectangle dilated by the footprint, is
one rectangle too.  Readers outside the kernel read ``rects`` as well:
the oracle compares each sample's position with every rectangle's float
cell bounds, and the snapshot writers list the rectangles themselves.

Pruning follows the expansion order: at each step the POV layer expands
first, the SV layer expands from its previous pruned layer, and SV cells
inside the POV's footprint-dilated occupancy (or outside the road
corridor, when enabled) are removed.  The survivors form the drivable
area; an empty final layer means no trajectory is guaranteed
collision-free under the kinematic assumptions, not that collision is
certain.

One kernel steps every layer.  `_Batch` holds the layers of several
members as arrays: all hull corners step in one ``axis_step`` call, and
the rectangles, one integer array tagged with each rectangle's member,
step elementwise, so a layer costs a fixed number of array operations
however many members it holds.  The POV side of an area depends only on
the POV state, its source (an axis-limit pair and a band or none, as a
prediction mode names) and the vehicle specs: a POV track.  A `_Sweep`
steps tracks and the SV passes pruned against them in lockstep.
``drivable_timelines`` evaluates a cohort in one sweep: its runs share one
POV incursion, and every SV state is the same until the response starts,
so it runs one track per distinct POV key and one pass per distinct SV
state against it, and a pass leaves the sweep at its first empty layer.
``compute_reachable_sets`` steps several unpruned sets as one batch, and
``compute_drivable_area``, ``compute_reachable_set`` and ``propagate_step``
are the one-pass cases of the same kernel.  The keys are the frozen
``VehicleState``s and specs themselves, compared as floats, so equal keys
are equal inputs up to the sign of a zero.  A timeline keeps only
``exists``, which a signed zero cannot change: state values feed sums,
products, clamps, comparisons and floors, never a sign test or a divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import AxisLimits, axis_limits, axis_step, stacked_states
from .engine import TrajectoryLog
from .responses import window_for
from .spec import (KinematicLimits, PredictionConfig, RoadSpec, VehicleSpec, VehicleState,
                   check_numbers)

# Cell indices stay below this in magnitude, so that float cell bounds are exact
# integers and no sum of two of them overflows int64.
_CELL_LIMIT = 2.0 ** 53
# A rectangle (i0, i1, j0, j1) times these is its signed form (see `_Batch`).
_SIGNED = np.array([1, -1, 1, -1])
# Over a hull's low and high corners: the sign of a signed edge, and the cell past
# the high corner's that a half-open range ends at.
_CORNER_SIGN = np.array([1.0, -1.0])[:, None]
_CORNER_HIGH = np.array([0.0, 1.0])[:, None]


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
    ``[ix*dx, (ix+1)*dx) x [iy*dy, (iy+1)*dy)``.  The rectangles are a set:
    each is non-empty, none lies inside another, and their order means
    nothing.  A box is one rectangle, and an empty layer has none and no
    hulls.  The kernel, `_Batch`, builds layers.
    """

    tau: float
    dx: float
    dy: float
    rects: tuple[tuple[int, int, int, int], ...]
    x_hull: AxisInterval | None  # None iff empty
    y_hull: AxisInterval | None

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


def _tidied(rects: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's set of rectangles: those it holds but the empty ones and those
    inside another.

    ``rects`` is an ``(r, 4)`` int array of signed world-cell rectangles (see
    `_Batch`) and ``owner`` the member of each, never decreasing.  A member's
    rectangles come out largest first, so that each is tested for containment
    only against those before it; of equal rectangles the first stays.
    """
    width, height = rects[:, 0] + rects[:, 1], rects[:, 2] + rects[:, 3]  # both negated
    kept = (width < 0) & (height < 0)
    if np.count_nonzero(kept) < len(kept):
        rects, owner, width, height = rects[kept], owner[kept], width[kept], height[kept]
    shared = owner[1:] == owner[:-1]
    if not np.count_nonzero(shared):  # no member holds two rectangles
        return rects, owner
    # stable, so each member's run stays in place
    rects = rects[np.lexsort([-width * height, owner])]
    first = np.searchsorted(owner, owner)  # each member's first rectangle
    rank = np.arange(len(owner)) - first
    # one (earlier, later) pair per two rectangles of a member
    later = np.repeat(np.arange(len(owner)), rank)
    earlier = np.arange(len(later)) + np.repeat(first - np.cumsum(rank) + rank, rank)
    held = rects[earlier] <= rects[later]
    held = held[:, 0] & held[:, 1] & held[:, 2] & held[:, 3]
    if not np.count_nonzero(held):
        return rects, owner
    inside = np.zeros(len(owner), dtype=bool)
    inside[later[held]] = True
    return rects[~inside], owner[~inside]


def _cells(positions: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The floor cell index of each position, as a float array of exact integers."""
    cells = np.floor(positions / cell)
    if not np.abs(cells).max(initial=0.0) < _CELL_LIMIT:
        raise ValueError(f"reach cells out of range: positions {positions.tolist()}, "
                         f"cell sizes {cell.ravel().tolist()}")
    return cells


class _Batch:
    """The non-empty layers of several members, stepped together as arrays.

    ``hull[:, axis, corner, m]`` is member m's (p, v, a) at the low or high
    corner of its x (axis 0) or y (axis 1) hull.  Its rectangles are the rows of
    ``rects`` whose ``owner`` is m, in its layer's order; owners never decrease.
    A rectangle ``(i0, i1, j0, j1)`` is held signed, as ``(i0, -i1, j0, -j1)``:
    every column is then a lower bound, so a rectangle holds another iff it is
    no larger in each column, and clamping an edge is a maximum.  A member that
    owns no rectangle is empty, and its hull means nothing.  Each member's
    rectangles are a set (see `_tidied`) except while ``untidy``: a cut leaves
    its pieces to the next step's tidy, and ``layer`` tidies a member it reads.
    ``limits`` holds the members' x and y boxes as ``(2, 1, n)`` fields.
    """

    def __init__(self, hull: np.ndarray, rects: np.ndarray, owner: np.ndarray, dx: float,
                 dy: float, limits: list[tuple[AxisLimits, AxisLimits]]):
        self.hull, self.rects, self.owner, self.dx, self.dy = hull, rects, owner, dx, dy
        self.untidy = False
        self.cell = np.array([dx, dy])[:, None, None]
        # a frozen dataclass's vars hold its fields in order
        boxes = np.array([[tuple(vars(lim).values()) for lim in pair] for pair in limits])
        self.limits = AxisLimits(*boxes.transpose(2, 1, 0)[:, :, None, :])
        self.jerk = np.concatenate([self.limits.j_lo, self.limits.j_hi], axis=1)

    @classmethod
    def of_layers(cls, layers: list[Layer],
                  limits: list[tuple[AxisLimits, AxisLimits]]) -> _Batch:
        """The batch of ``layers``, none of them empty."""
        hulls = [(tuple(vars(layer.x_hull).values()), tuple(vars(layer.y_hull).values()))
                 for layer in layers]
        return cls(np.array(hulls).reshape(len(layers), 2, 3, 2).transpose(2, 1, 3, 0).copy(),
                   np.array([r for layer in layers for r in layer.rects],
                            dtype=np.int64).reshape(-1, 4) * _SIGNED,
                   np.repeat(np.arange(len(layers)), [len(layer.rects) for layer in layers]),
                   layers[0].dx, layers[0].dy, limits)

    @classmethod
    def of_states(cls, states: list[VehicleState],
                  limits: list[tuple[AxisLimits, AxisLimits]], dx: float, dy: float) -> _Batch:
        """The tau = 0 layers of ``states``: each exactly the cell covering its
        position, with hulls at the raw point state; clamping into the admissible
        box happens on the first step, mirroring the stepper."""
        point = stacked_states(states)  # [p v a, axis, member]
        cell = _cells(point[0], np.array([[dx], [dy]]))
        rects = np.stack([cell[0], -1 - cell[0], cell[1], -1 - cell[1]],
                         axis=1).astype(np.int64)  # signed
        return cls(np.repeat(point[:, :, None], 2, axis=2), rects, np.arange(len(states)),
                   dx, dy, limits)

    def layer(self, m: int, tau: float) -> Layer:
        """Member m's layer at ``tau``."""
        lo, hi = np.searchsorted(self.owner, [m, m + 1])
        if lo == hi:
            return Layer(tau, self.dx, self.dy, (), None, None)
        rects = self.rects[lo:hi]
        if self.untidy:
            rects, _ = _tidied(rects, self.owner[lo:hi])
        x_hull, y_hull = (AxisInterval(*self.hull[:, axis, :, m].ravel().tolist())
                          for axis in (0, 1))
        return Layer(tau, self.dx, self.dy, tuple(map(tuple, (rects * _SIGNED).tolist())),
                     x_hull, y_hull)

    def step(self, tau_step: float, clip: list[np.ndarray] | None = None) -> None:
        """One interval-arithmetic Euler step of every member under its boxes, then
        the lateral clip ``clip`` of `clip_y` if given.

        Hull corners advance through the same clamped step rule as the
        simulator (a low corner under its axis's lowest jerk, a high corner
        under its highest), so sampled trajectories ride the hull edges
        exactly.  The cells are the velocity-range dilation of the previous
        cells intersected with the rasterized new position hull: each rectangle
        widens by its member's range of cell shifts and is clamped to the
        cells of its member's new hull.  One tidy after the clip gives the set
        that a tidy after each of cut, propagation and clip gives: the last two
        keep every containment, so a rectangle an earlier tidy would drop is
        dropped anyway.
        """
        p, v, a = self.hull
        hull = np.array(axis_step(p, v, a, self.jerk, self.limits, tau_step))
        if np.count_nonzero(hull[:, :, 0] > hull[:, :, 1]):
            for m in range(hull.shape[-1]):  # AxisInterval raises, naming the hull
                [AxisInterval(*hull[:, axis, :, m].ravel().tolist()) for axis in (0, 1)]
        cells = _cells(hull[0], self.cell)  # [axis, corner, member]
        # Rounding can carry fl(p + tau * v) a cell past the exact-arithmetic
        # shift range (fl(-1e-300 + 0.25) = 0.25 leaves cell -1 for cell 1, not 0),
        # so each range widens to reach the new hull's edge cells from the old's.
        # Signed, a high corner's shift max(ceil(s), m) is min(floor(-s), -m).
        shift = np.minimum(np.floor(tau_step * v / self.cell * _CORNER_SIGN),
                           (cells - np.floor(p / self.cell)) * _CORNER_SIGN)
        bound = cells * _CORNER_SIGN - _CORNER_HIGH  # the new hull's signed edge cells
        # per rectangle, its member's signed shifts, then the signed new hull cells
        edges = np.concatenate([shift, bound]).reshape(8, -1).T.astype(np.int64)[self.owner]
        rects = np.maximum(self.rects + edges[:, :4], edges[:, 4:])
        self.hull = hull
        if clip is not None:
            self._clip(rects, clip)
        self.rects, self.owner = _tidied(rects, self.owner)
        self.untidy = False

    def _clip(self, rects: np.ndarray, clip: list[np.ndarray]) -> None:
        """`clip_y` of the hulls and, in place, of ``rects``, without tidying.  The
        rectangles of a member whose hull leaves the band become empty, and its
        hull stays as it was, so every hull stays in order."""
        y_lo, y_hi, j_lo, j_hi = clip
        p = self.hull[0, 1]  # [corner, member] lateral positions
        # as Python's max(p, y_lo) and min(p, y_hi): on a tie the position stays
        lo, hi = np.maximum(y_lo, p[0]), np.minimum(y_hi, p[1])
        stays = lo <= hi
        p[0], p[1] = np.where(stays, lo, p[0]), np.where(stays, hi, p[1])
        rects[:, 2] = np.maximum(rects[:, 2], j_lo[self.owner])
        rects[:, 3] = np.maximum(rects[:, 3], np.where(stays, -j_hi, -j_lo)[self.owner])

    def clip_y(self, clip: list[np.ndarray]) -> None:
        """Clip each member's lateral hull to ``[y_lo, y_hi]`` and its rectangles to
        the cells ``j_lo <= iy < j_hi``, where ``clip`` holds the four per member
        (see `_clip_bounds`).

        The continuous hull is clipped as well, so later rasterizations cannot
        resurrect removed positions; a member whose hull leaves the band is empty.
        """
        self._clip(self.rects, clip)
        self.rects, self.owner = _tidied(self.rects, self.owner)
        self.untidy = False

    def cut(self, boxes: np.ndarray) -> None:
        """Remove from each member the cells of its world-cell rectangle in ``boxes``,
        ``(n, 4)``; the rectangle (0, 0, 0, 0) removes none.

        A rectangle the cut hits leaves its parts before and after the cut's x
        range, and beside the cut its parts below and above the cut's y range.
        Members whose rectangles the cut all miss are left as they are.  The pieces
        are not tidied: the batch is ``untidy`` until the next step or clip.
        """
        rects, box = self.rects, (boxes * _SIGNED)[self.owner]
        part = np.maximum(rects, box)  # the part inside the cut, (m0, -m1, ...)
        hit = (part[:, 0] + part[:, 1] < 0) & (part[:, 2] + part[:, 3] < 0)
        if not np.count_nonzero(hit):
            return
        pieces = np.repeat(rects[:, None], 4, axis=1)  # [rectangle, piece, signed edge]
        pieces[:, 0, 1] = np.where(hit, -part[:, 0], rects[:, 1])  # a missed one stays
        pieces[:, 1, 0] = -part[:, 1]
        pieces[:, 2:, :2] = part[:, None, :2]
        pieces[:, 2, 3], pieces[:, 3, 2] = -box[:, 2], -box[:, 3]
        taken = np.ones((len(hit), 4), dtype=bool)
        taken[:, 1:] = hit[:, None]
        pieces, owner = pieces[taken], np.repeat(self.owner, 1 + 3 * hit)
        kept = (pieces[:, 0] + pieces[:, 1] < 0) & (pieces[:, 2] + pieces[:, 3] < 0)
        self.rects, self.owner, self.untidy = pieces[kept], owner[kept], True


def propagate_step(layer: Layer, limits: tuple[AxisLimits, AxisLimits], tau_step: float) -> Layer:
    """One interval-arithmetic Euler step of a layer under the x and y boxes ``limits``:
    `_Batch.step` of a batch of one."""
    if layer.empty:
        return replace(layer, tau=layer.tau + tau_step)
    batch = _Batch.of_layers([layer], [limits])
    batch.step(tau_step)
    return batch.layer(0, layer.tau + tau_step)


def _clip_bounds(y_lo: float, y_hi: float, dy: float,
                 inside: bool) -> tuple[float, float, int, int]:
    """``(y_lo, y_hi, j_lo, j_hi)`` of `_Batch.clip_y` for the band ``[y_lo, y_hi]``:
    its cells ``j_lo <= iy < j_hi`` are those fully inside it (corridor) or
    intersecting it (band)."""
    if inside:
        return y_lo, y_hi, math.ceil(y_lo / dy - 1e-9), math.floor(y_hi / dy + 1e-9)
    return y_lo, y_hi, math.floor(y_lo / dy), math.ceil(y_hi / dy)


# `_Batch.clip_y` bounds that keep every position and cell.
_NO_CLIP = (-math.inf, math.inf, -2 ** 62, 2 ** 62)


def _footprint_cells(pov_spec: VehicleSpec, sv_spec: VehicleSpec, dx: float,
                     dy: float) -> tuple[int, int, int, int]:
    """The cell offsets ``(di0, di1, dj0, dj1)`` that dilate a POV rectangle by the
    half-sum footprint (see `pov_occupancy`)."""
    shift = sv_spec.ref_offset + pov_spec.ref_offset
    half_len = (sv_spec.length + pov_spec.length) / 2
    half_wid = (sv_spec.width + pov_spec.width) / 2
    return (math.floor((shift - half_len) / dx), math.ceil((shift + half_len) / dx),
            math.floor(-half_wid / dy), math.ceil(half_wid / dy))


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
    di0, di1, dj0, dj1 = _footprint_cells(pov_spec, sv_spec, layer.dx, layer.dy)
    return i0 + di0, i1 + di1, j0 + dj0, j1 + dj1


def compute_reachable_sets(states: list[VehicleState], limits: list[KinematicLimits],
                           config: PredictionConfig) -> list[ReachableSet]:
    """Unpruned reachable set of each vehicle from its current state, under its
    limits: the members of one `_Batch`, stepped together."""
    batch = _Batch.of_states(states, [axis_limits(lim, s.heading_sign)
                                      for s, lim in zip(states, limits, strict=True)],
                             config.grid_dx, config.grid_dy)
    layers = [[batch.layer(m, 0.0)] for m in range(len(states))]
    for _ in range(config.n_steps):
        batch.step(config.tau_step)
        for m, member in enumerate(layers):
            member.append(batch.layer(m, member[-1].tau + config.tau_step))
    return [ReachableSet(t=s.t, tau_step=config.tau_step, layers=member)
            for s, member in zip(states, layers)]


def compute_reachable_set(state: VehicleState, limits: KinematicLimits,
                          config: PredictionConfig) -> ReachableSet:
    """Unpruned reachable set of one vehicle from its current state: the
    `compute_reachable_sets` of one."""
    return compute_reachable_sets([state], [limits], config)[0]


def _pov_source(pov_state: VehicleState, mode: str, road: RoadSpec, pov_spec: VehicleSpec,
                config: PredictionConfig) -> tuple[tuple[AxisLimits, AxisLimits], tuple | None]:
    """The POV's x and y boxes and the band ``mode`` clips it to: in normative mode the
    reference-point band that keeps a lane-keeping POV's body in its lane, else None."""
    bands = {"normative": (pov_spec.width / 2.0, road.width / 2.0 - pov_spec.width / 2.0),
             "kinematic-envelope": None}
    if mode not in bands:
        raise ValueError(f"unknown prediction mode {mode!r}")
    return axis_limits(config.pov_limits, pov_state.heading_sign), bands[mode]


class _PovTrack(NamedTuple):
    """The POV side of every drivable area with one POV state, source and pair of specs:
    layer k is the POV's layer at tau = k * tau_step under the boxes ``limits``, clipped
    to ``band`` unless it is None.  A `_Sweep` steps it as one member of its batch."""

    pov_state: VehicleState
    limits: tuple[AxisLimits, AxisLimits]
    band: tuple[float, float] | None
    sv_spec: VehicleSpec
    pov_spec: VehicleSpec


class _Sweep:
    """POV tracks and the SV passes pruned against them, stepped in lockstep.

    A pass is ``(sv_state, track index, road)``.  Members ``0 .. T-1`` of the
    batch are the tracks and the rest the passes.  Layer k of every member is
    made at once: tracks and passes step, tracks clip to their bands and, with
    corridor pruning, passes to their road's corridor; then each pass loses the
    cells of its track's occupancy at k.  A pass is empty from its first empty
    layer on and does no more rectangle work.
    """

    def __init__(self, passes: list[tuple[VehicleState, int, RoadSpec]],
                 tracks: list[_PovTrack], config: PredictionConfig):
        dx, dy = config.grid_dx, config.grid_dy
        self.tau_step, self.k, self.tau = config.tau_step, 0, 0.0
        self.n_tracks = len(tracks)
        clips = [_NO_CLIP if t.band is None else _clip_bounds(*t.band, dy, inside=False)
                 for t in tracks]
        for _, _, road in passes:
            margin = road.width / 2.0 + road.shoulder_margin
            clips.append(_NO_CLIP if config.road_pruning == "off"
                         else _clip_bounds(-margin, margin, dy, inside=True))
        self.clip = [np.array(c) for c in zip(*clips)]
        self.footprints = np.array([_footprint_cells(t.pov_spec, t.sv_spec, dx, dy)
                                    for t in tracks], dtype=np.int64).reshape(-1, 4)
        # the track whose occupancy each member loses; T, no occupancy, for tracks
        self.track_of = np.array([self.n_tracks] * self.n_tracks + [t for _, t, _ in passes],
                                 dtype=np.intp)
        states = [t.pov_state for t in tracks] + [sv for sv, _, _ in passes]
        self.batch = _Batch.of_states(states, [t.limits for t in tracks]
                                      + [axis_limits(config.sv_limits, sv.heading_sign)
                                         for sv, _, _ in passes], dx, dy)
        self.batch.clip_y(self.clip)
        self._cut()

    def _cut(self) -> None:
        batch = self.batch
        # a track owns at most one rectangle, and tracks' rectangles come first
        n = np.searchsorted(batch.owner, self.n_tracks)
        tracks = batch.owner[:n]
        boxes = np.zeros((self.n_tracks + 1, 4), dtype=np.int64)
        boxes[tracks] = batch.rects[:n] * _SIGNED + self.footprints[tracks]
        batch.cut(boxes[self.track_of])

    def advance(self) -> None:
        """Make the next layer of every member."""
        self.batch.step(self.tau_step, self.clip)
        self._cut()
        self.k, self.tau = self.k + 1, self.tau + self.tau_step

    def passes_left(self) -> bool:
        owner = self.batch.owner
        return len(owner) > 0 and owner[-1] >= self.n_tracks

    def escapes(self) -> np.ndarray:
        """Whether each pass's layer at k is non-empty."""
        return np.bincount(self.batch.owner, minlength=len(self.track_of))[self.n_tracks:] > 0

    def layer(self, m: int) -> Layer:
        """Member m's layer at k."""
        return self.batch.layer(m, self.tau)


def compute_drivable_area(sv_state: VehicleState, pov_state: VehicleState,
                          config: PredictionConfig, road: RoadSpec,
                          sv_spec: VehicleSpec, pov_spec: VehicleSpec,
                          mode: str) -> DrivableArea:
    """SV reachable set pruned against POV reachability, layer by layer.

    Expansion order per step: POV first, then the SV from its previous
    pruned layer, then removal of SV cells inside the POV occupancy and,
    with corridor pruning, of cells not fully on the road (plus shoulder
    margin).  ``exists`` reports whether the final layer is non-empty.
    The POV layers are those of the source ``mode`` names.
    """
    track = _PovTrack(pov_state, *_pov_source(pov_state, mode, road, pov_spec, config),
                      sv_spec, pov_spec)
    sweep = _Sweep([(sv_state, 0, road)], [track], config)
    sv_layers, pov_layers = [sweep.layer(1)], [sweep.layer(0)]
    for _ in range(config.n_steps):
        sweep.advance()
        sv_layers.append(sweep.layer(1))
        pov_layers.append(sweep.layer(0))
    return DrivableArea(layers=sv_layers, exists=not sv_layers[-1].empty, pov_layers=pov_layers)


_MODES = ("normative", "kinematic-envelope")  # before the latch, from it on


def _latched_modes(log: TrajectoryLog, samples: list[int],
                   config: PredictionConfig) -> list[str]:
    """POV prediction mode at each log sample i of ``samples``: normative while samples
    0..i lie within the threshold of + lane_width / 2, else kinematic-envelope."""
    off = (np.abs(log.pov["y"] - log.scenario.road.lane_width / 2.0)
           > config.incursion_detect_threshold)
    latch = int(off.argmax()) if off.any() else len(off)
    return [_MODES[i >= latch] for i in samples]


def drivable_area_at(log: TrajectoryLog, i: int,
                     config: PredictionConfig) -> tuple[DrivableArea, str]:
    """Drivable area at log sample i, with the POV mode latched over samples 0..i."""
    mode, = _latched_modes(log, [i], config)
    sc = log.scenario
    area = compute_drivable_area(log.sv_state(i), log.pov_state(i), config, sc.road,
                                 sc.sv_spec, sc.pov_spec, mode=mode)
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

    Every anchor's ``exists`` is that of ``drivable_area_at``.  Anchors are
    grouped by POV state, latched mode, road and specs; each group is one POV
    track, of the source its mode names, with one SV pass per distinct SV
    state.  One `_Sweep` steps every track and pass of the cohort until no
    pass is left (an empty layer stays empty) or the horizon is reached, and
    only the booleans are kept.
    """
    check_numbers("> 0", eval_step=eval_step)
    tracks: dict[tuple, int] = {}  # (pov_state, mode, road, sv_spec, pov_spec) -> track
    passes: dict[tuple, int] = {}  # (sv_state, track, road), as `_Sweep` takes it -> pass
    anchored = []  # per run: anchor times, modes, the pass of each anchor
    for log, window in runs:
        anchors = _anchor_times(log, eval_step, window)
        samples = [log.index_at(t_anchor) for t_anchor in anchors]
        modes = _latched_modes(log, samples, config)
        sc = log.scenario
        slots = []
        for i, mode in zip(samples, modes):
            track = tracks.setdefault((log.pov_state(i), mode, sc.road, sc.sv_spec, sc.pov_spec),
                                      len(tracks))
            slots.append(passes.setdefault((log.sv_state(i), track, sc.road), len(passes)))
        anchored.append((np.asarray(anchors), modes, np.asarray(slots, dtype=np.intp)))
    exists = np.zeros(0, dtype=bool)
    if passes:  # else every window was empty
        sweep = _Sweep(list(passes),
                       [_PovTrack(pov, *_pov_source(pov, mode, road, pov_spec, config),
                                  sv_spec, pov_spec)
                        for pov, mode, road, sv_spec, pov_spec in tracks], config)
        while sweep.k < config.n_steps and sweep.passes_left():
            sweep.advance()
        exists = sweep.escapes()
    return [Timeline(t=t, rel_t=t - log.timing.t_trigger, exists=exists[slots], mode=modes)
            for (log, _), (t, modes, slots) in zip(runs, anchored)]


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
