"""Shared road frame, vehicle types, and jerk-limited point kinematics.

Frame convention used throughout the package: x is the subject vehicle's
(SV) travel direction, y is lateral with y = 0 at the road centerline.
The SV lane occupies y in [-lane_width, 0] (shoulder-side road edge at
y = -lane_width); the oncoming vehicle's (POV) lane occupies
y in [0, +lane_width] and the POV travels in -x.  "Left/shoulder" for the
SV means decreasing y; "right/center" means increasing y.  The POV's own
left is +y (toward its original lane) and its right is -y.

A rollout state of n vehicles is a ``(3, 2, n)`` array (p, v, a rows, x over
y), whose ``(6, n)`` view has the channels `STATE_KEYS`; `step_state` steps
such a state in place through `axis_step`, the one stepping rule of the
simulator, the sampling oracle and the reachable-set propagation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

SV_SIGN = 1
POV_SIGN = -1
STATE_KEYS = ("x", "y", "vx", "vy", "ax", "ay")
MAX_STEPS = 100_000  # per rollout, sample cloud or prediction; 20 members hold ~100 MB

# Bound -> (what a number must be, its range test), for `check_numbers`.
_NUMBER_RULES = {"> 0": ("positive and finite", lambda v: v > 0),
                 ">= 0": ("finite and >= 0", lambda v: v >= 0),
                 None: ("finite", lambda v: True)}


def step_count(span: float, step: float, what: str) -> int:
    """``round(span / step)``; ValueError naming ``what`` if not finite or past `MAX_STEPS`."""
    count = span / step
    if not (math.isfinite(count) and round(count) <= MAX_STEPS):
        raise ValueError(f"{what} must be at most {MAX_STEPS} steps, got {count}")
    return round(count)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite int or float, numpy's too, and not a bool.  An int is
    compared with the float range, never converted, so one past it fails, not overflows."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_numbers(bound: str | None, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` not `is_finite_number` within ``bound``.

    ``bound`` is ``"> 0"``, ``">= 0"``, or None for finite alone.
    """
    what, in_range = _NUMBER_RULES[bound]
    for name, value in values.items():
        if not (is_finite_number(value) and in_range(value)):
            raise ValueError(f"{name} must be {what}, got {value}")


@dataclass(frozen=True)
class RoadSpec:
    lane_width: float = 3.65     # m, per lane (two lanes)
    num_lanes: int = 2
    shoulder_margin: float = 0.5  # m, allowed excursion beyond the road edge

    def __post_init__(self):
        check_numbers("> 0", lane_width=self.lane_width)
        if self.num_lanes != 2:
            raise ValueError("only two-lane roads are supported")
        check_numbers(">= 0", shoulder_margin=self.shoulder_margin)

    @property
    def width(self) -> float:
        """Full road width, centerline at y = 0."""
        return 2.0 * self.lane_width


@dataclass(frozen=True)
class VehicleSpec:
    length: float = 4.4   # m
    width: float = 1.8    # m
    ref_offset: float = 0.0  # m, positioning reference point forward of geometric center

    def __post_init__(self):
        check_numbers("> 0", length=self.length, width=self.width)
        check_numbers(None, ref_offset=self.ref_offset)
        if not 2 * abs(self.ref_offset) < self.length:
            raise ValueError("ref_offset must lie within the vehicle body")


@dataclass(frozen=True)
class VehicleState:
    t: float    # s
    x: float    # m, reference-point longitudinal position
    y: float    # m, reference-point lateral position
    vx: float   # m/s
    vy: float   # m/s
    ax: float   # m/s^2
    ay: float   # m/s^2
    heading_sign: int = SV_SIGN  # +1 along +x (SV), -1 along -x (POV)

    def __post_init__(self):
        vals = (self.t, self.x, self.y, self.vx, self.vy, self.ax, self.ay)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite vehicle state: {vals}")
        if self.heading_sign not in (SV_SIGN, POV_SIGN):
            raise ValueError(f"heading_sign must be +1 or -1, got {self.heading_sign}")


@dataclass(frozen=True)
class KinematicLimits:
    """Per-vehicle kinematic caps in the vehicle's own frame.

    Lateral acceleration limits are split by side so the POV envelope can be
    biased toward returning to its own lane (its right-side cap is 0).
    ``v_lat_max`` bounds lateral drift speed; a single admissible-state box
    is shared by the simulator plant, the sampling oracle, and the set
    propagation so soundness checks compare like with like.
    """

    v_max: float = 20.0           # m/s, longitudinal speed cap
    a_fwd_max: float = 5.0        # m/s^2
    a_brk_max: float = 8.0        # m/s^2, magnitude
    a_lat_left_max: float = 6.0   # m/s^2, magnitude, vehicle-frame left
    a_lat_right_max: float = 6.0  # m/s^2, magnitude, vehicle-frame right
    j_fwd_max: float = 10.0       # m/s^3
    j_bwd_max: float = 30.0       # m/s^3, magnitude
    j_lat_max: float = 30.0       # m/s^3, magnitude
    v_lat_max: float = 6.0        # m/s, lateral speed cap, magnitude

    def __post_init__(self):
        check_numbers(">= 0", **vars(self))


SV_LIMITS = KinematicLimits()
POV_LIMITS = KinematicLimits(a_lat_left_max=4.0, a_lat_right_max=0.0)


@dataclass(frozen=True)
class AxisLimits:
    """Admissible road-frame box for one axis: velocity, acceleration, jerk.

    Array fields that broadcast against the states step several axes in one call.
    """

    v_lo: float
    v_hi: float
    a_lo: float
    a_hi: float
    j_lo: float
    j_hi: float


def axis_limits(limits: KinematicLimits, heading_sign: int) -> tuple[AxisLimits, AxisLimits]:
    """Map vehicle-frame caps onto the road-frame interval boxes of the x and y axes.

    For heading_sign = -1 (POV) the longitudinal direction flips and the
    left/right lateral caps swap sides: the POV's left is +y.
    """
    if heading_sign == SV_SIGN:
        x = AxisLimits(0.0, limits.v_max, -limits.a_brk_max, limits.a_fwd_max,
                       -limits.j_bwd_max, limits.j_fwd_max)
        a_lo, a_hi = -limits.a_lat_left_max, limits.a_lat_right_max
    else:
        x = AxisLimits(-limits.v_max, 0.0, -limits.a_fwd_max, limits.a_brk_max,
                       -limits.j_fwd_max, limits.j_bwd_max)
        a_lo, a_hi = -limits.a_lat_right_max, limits.a_lat_left_max
    return x, AxisLimits(-limits.v_lat_max, limits.v_lat_max, a_lo, a_hi,
                         -limits.j_lat_max, limits.j_lat_max)


def axis_step(p, v, a, j, lim: AxisLimits, dt: float, out=None):
    """One forward-Euler step of the triple integrator on one axis.

    Position advances with the pre-step velocity and velocity with the
    pre-step acceleration; clamping order is jerk -> acceleration ->
    velocity.  Works elementwise on scalars or numpy arrays, and is the
    single stepping rule shared by the simulator, the sampling oracle, and
    the reachable-set propagation.

    With ``out``, an array whose rows 0, 1, 2 take the new p, v and a, the
    step writes in place with the same operations and returns those rows.
    ``out`` must not share memory with ``p``, ``v``, ``a`` or ``j``: a row
    written early would be read again as input, so an overlap raises
    ValueError.
    """
    if out is None:
        op = ov = oa = None
    else:
        if any(np.may_share_memory(out, x) for x in (p, v, a, j)):
            raise ValueError("axis_step out= overlaps its input state")
        op, ov, oa = out[0], out[1], out[2]
    # The acceleration row holds the clamped jerk before the new acceleration.
    j_c = np.minimum(np.maximum(j, lim.j_lo, out=oa), lim.j_hi, out=oa)
    p_new = np.add(p, np.multiply(dt, v, out=op), out=op)
    v_new = np.minimum(np.maximum(np.add(v, np.multiply(dt, a, out=ov), out=ov),
                                  lim.v_lo, out=ov), lim.v_hi, out=ov)
    a_new = np.minimum(np.maximum(np.add(a, np.multiply(dt, j_c, out=oa), out=oa),
                                  lim.a_lo, out=oa), lim.a_hi, out=oa)
    return p_new, v_new, a_new


def stacked_axis_limits(limits: KinematicLimits, heading_sign: int) -> AxisLimits:
    """The x and y boxes as ``(2, 1)`` columns, x over y, for a rollout state."""
    pair = axis_limits(limits, heading_sign)
    return AxisLimits(*np.array([astuple(lim) for lim in pair]).T[..., None])


def step_state(s: np.ndarray, j: np.ndarray, lim: AxisLimits, dt: float,
               out: np.ndarray) -> None:
    """One `axis_step` of both axes of a rollout state ``s`` by jerks ``j``, in place into ``out``.

    ``out`` must not share memory with ``s`` or ``j`` (ValueError).
    """
    axis_step(s[0], s[1], s[2], j, lim, dt, out=out)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, closed bounds; the bounds may be arrays."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if np.any(self.x_lo > self.x_hi) or np.any(self.y_lo > self.y_hi):
            raise ValueError(f"degenerate rectangle: {self}")


def footprint(state: VehicleState, spec: VehicleSpec) -> Rect:
    """Road-aligned body rectangle of a vehicle (see `footprint_at`)."""
    return footprint_at(state.x, state.y, state.heading_sign, spec)


def footprint_at(x, y, heading_sign: int, spec: VehicleSpec) -> Rect:
    """Body rectangle at reference point (x, y), elementwise on arrays.

    The reference point sits ref_offset forward of the geometric center, so
    the center is ref_offset behind it along the travel direction.  Heading
    is approximated as road-aligned; lateral motion is treated as pure
    translation.
    """
    cx = x - heading_sign * spec.ref_offset
    return Rect(cx - spec.length / 2, cx + spec.length / 2,
                y - spec.width / 2, y + spec.width / 2)


def rectangles_overlap(a: Rect, b: Rect):
    """True iff the open interiors intersect; edge contact does not count.

    Elementwise when the bounds are arrays.
    """
    return ((a.x_lo < b.x_hi) & (b.x_lo < a.x_hi) &
            (a.y_lo < b.y_hi) & (b.y_lo < a.y_hi))

