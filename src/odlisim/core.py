"""Shared road frame, vehicle types, and jerk-limited point kinematics.

Frame convention used throughout the package: x is the subject vehicle's
(SV) travel direction, y is lateral with y = 0 at the road centerline.
The SV lane occupies y in [-lane_width, 0] (shoulder-side road edge at
y = -lane_width); the oncoming vehicle's (POV) lane occupies
y in [0, +lane_width] and the POV travels in -x.  "Left/shoulder" for the
SV means decreasing y; "right/center" means increasing y.  The POV's own
left is +y (toward its original lane) and its right is -y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SV_SIGN = 1
POV_SIGN = -1


@dataclass(frozen=True)
class RoadSpec:
    lane_width: float = 3.65     # m, per lane (two lanes)
    num_lanes: int = 2
    shoulder_margin: float = 0.5  # m, allowed excursion beyond the road edge

    def __post_init__(self):
        if not (math.isfinite(self.lane_width) and self.lane_width > 0):
            raise ValueError(f"lane_width must be positive and finite, got {self.lane_width}")
        if self.num_lanes != 2:
            raise ValueError("only two-lane roads are supported")
        if not (math.isfinite(self.shoulder_margin) and self.shoulder_margin >= 0):
            raise ValueError(f"shoulder_margin must be finite and >= 0, "
                             f"got {self.shoulder_margin}")

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
        if not all(math.isfinite(v) and v > 0 for v in (self.length, self.width)):
            raise ValueError("vehicle length and width must be positive and finite")
        if not abs(self.ref_offset) < self.length / 2:
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
        for name in ("v_max", "a_fwd_max", "a_brk_max", "a_lat_left_max",
                     "a_lat_right_max", "j_fwd_max", "j_bwd_max", "j_lat_max",
                     "v_lat_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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


def axis_limits(limits: KinematicLimits, heading_sign: int, axis: str) -> AxisLimits:
    """Map vehicle-frame caps onto a road-frame interval box for one axis.

    For heading_sign = -1 (POV) the longitudinal direction flips and the
    left/right lateral caps swap sides: the POV's left is +y.
    """
    if axis == "x":
        if heading_sign == SV_SIGN:
            return AxisLimits(0.0, limits.v_max, -limits.a_brk_max, limits.a_fwd_max,
                              -limits.j_bwd_max, limits.j_fwd_max)
        return AxisLimits(-limits.v_max, 0.0, -limits.a_fwd_max, limits.a_brk_max,
                          -limits.j_fwd_max, limits.j_bwd_max)
    if axis == "y":
        if heading_sign == SV_SIGN:
            a_lo, a_hi = -limits.a_lat_left_max, limits.a_lat_right_max
        else:
            a_lo, a_hi = -limits.a_lat_right_max, limits.a_lat_left_max
        return AxisLimits(-limits.v_lat_max, limits.v_lat_max, a_lo, a_hi,
                          -limits.j_lat_max, limits.j_lat_max)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def axis_step(p, v, a, j, lim: AxisLimits, dt: float):
    """One forward-Euler step of the triple integrator on one axis.

    Position advances with the pre-step velocity and velocity with the
    pre-step acceleration; clamping order is jerk -> acceleration ->
    velocity.  Works elementwise on scalars or numpy arrays, and is the
    single stepping rule shared by the simulator, the sampling oracle, and
    the reachable-set propagation.
    """
    j_c = np.minimum(np.maximum(j, lim.j_lo), lim.j_hi)
    p_new = p + dt * v
    v_new = np.minimum(np.maximum(v + dt * a, lim.v_lo), lim.v_hi)
    a_new = np.minimum(np.maximum(a + dt * j_c, lim.a_lo), lim.a_hi)
    return p_new, v_new, a_new


def scalar_axis_step(p: float, v: float, a: float, j: float, lim: AxisLimits,
                     dt: float) -> tuple[float, float, float]:
    """``axis_step`` on finite Python floats, bit for bit, without numpy's per-call cost.

    ``np.maximum`` and ``np.minimum`` return their second argument on ties,
    so a value equal to its bound (0.0 against -0.0 included) is clamped to
    the bound here too, and signed zeros come out as numpy's do.
    """
    j = j if j > lim.j_lo else lim.j_lo
    j = j if j < lim.j_hi else lim.j_hi
    v_new = v + dt * a
    v_new = v_new if v_new > lim.v_lo else lim.v_lo
    v_new = v_new if v_new < lim.v_hi else lim.v_hi
    a_new = a + dt * j
    a_new = a_new if a_new > lim.a_lo else lim.a_lo
    a_new = a_new if a_new < lim.a_hi else lim.a_hi
    return p + dt * v, v_new, a_new


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

