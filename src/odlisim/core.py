"""Shared road frame, vehicle types, and jerk-limited point kinematics.

Frame convention used throughout the package: x is the subject vehicle's
(SV) travel direction, y is lateral with y = 0 at the road centerline.
The SV lane occupies y in [-lane_width, 0] (shoulder-side road edge at
y = -lane_width); the oncoming vehicle's (POV) lane occupies
y in [0, +lane_width] and the POV travels in -x.  "Left/shoulder" for the
SV means decreasing y; "right/center" means increasing y.  The POV's own
left is +y (toward its original lane) and its right is -y.

A rollout state of n vehicles is a ``(3, 2, n)`` array (p, v, a rows, x over
y), whose ``(6, n)`` view has the channels `STATE_KEYS`; `stacked_states`
builds one from `VehicleState`s, and `step_state` steps it in place through
`axis_step`, the one stepping rule of the simulator, the sampling oracle and
the reachable-set propagation.  The vehicle types, caps and number checks
are defined in `spec`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .spec import SV_SIGN, KinematicLimits, VehicleSpec, VehicleState

STATE_KEYS = ("x", "y", "vx", "vy", "ax", "ay")


def stacked_states(states: list[VehicleState]) -> np.ndarray:
    """The rollout state of ``states``: their `STATE_KEYS` as a ``(3, 2, n)`` float array."""
    return np.array([[getattr(s, k) for s in states] for k in STATE_KEYS],
                    dtype=float).reshape(3, 2, len(states))


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

