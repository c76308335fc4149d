"""Opposite-direction lateral incursion (ODLI) scenario construction.

A scenario is parameterized by an incursion level IL in [-1, 1]: the
normalized lateral position of the POV reference point in the SV lane at
the critical point t_C.  IL = -1 puts it at the shoulder-side road edge,
0 at the SV lane center, +1 at the road centerline.  The POV approaches
at constant speed, departs its lane at the trigger point t_T along a
cubic Bezier in (t, y), and reaches the IL-defined lateral position at
t_C = t_T + time_gap_trigger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (POV_SIGN, SV_SIGN, KinematicLimits, RoadSpec, VehicleSpec, VehicleState,
                   check_numbers)

MPH_40 = 17.88  # m/s, posted-limit approach speed for both vehicles

END_HEADING_MODES = ("continuing-left", "straight")
POST_TC_BEHAVIORS = ("extend-path", "hold-heading")


@dataclass(frozen=True)
class ScenarioSpec:
    incursion_level: float = 0.0
    v_sv_nominal: float = MPH_40   # m/s
    v_pov: float = MPH_40          # m/s
    time_gap_trigger: float = 5.15  # s, bumper time gap at incursion onset
    road: RoadSpec = RoadSpec()
    sv_spec: VehicleSpec = VehicleSpec(ref_offset=0.0)
    pov_spec: VehicleSpec = VehicleSpec(ref_offset=0.20)
    end_heading_mode: str = "straight"      # POV lateral velocity at t_C
    post_tc_behavior: str = "hold-heading"  # POV path after t_C
    ctrl_fracs: tuple[float, float] = (0.35, 0.65)  # inner Bezier control times
    edge_reach_after: float = 1.5  # s, continuing-left speed sized to reach the road edge this long after t_C

    def __post_init__(self):
        if not -1.0 <= self.incursion_level <= 1.0:
            raise ValueError(f"incursion_level outside [-1, 1]: {self.incursion_level}")
        check_numbers("> 0", v_sv_nominal=self.v_sv_nominal, v_pov=self.v_pov,
                      time_gap_trigger=self.time_gap_trigger,
                      edge_reach_after=self.edge_reach_after)
        if self.end_heading_mode not in END_HEADING_MODES:
            raise ValueError(f"unknown end_heading_mode {self.end_heading_mode!r}")
        if self.post_tc_behavior not in POST_TC_BEHAVIORS:
            raise ValueError(f"unknown post_tc_behavior {self.post_tc_behavior!r}")
        f0, f1 = self.ctrl_fracs
        if not 0.0 < f0 < f1 < 1.0:
            raise ValueError(f"ctrl_fracs must be increasing within (0, 1): {self.ctrl_fracs}")


@dataclass(frozen=True)
class ScenarioTiming:
    t_trigger: float   # s, incursion onset
    t_critical: float  # s, projected collision time absent any SV response

    def __post_init__(self):
        if not (math.isfinite(self.t_trigger) and math.isfinite(self.t_critical)):
            raise ValueError(f"timing must be finite: {self}")
        if self.t_critical <= self.t_trigger:
            raise ValueError("t_critical must follow t_trigger")


def make_scenario(incursion_level: float) -> ScenarioSpec:
    """Scenario with incursion-steepness defaults applied from the IL sign.

    Steep incursions (IL < -0.5) keep crossing the SV lane after t_C;
    medium and shallow ones settle onto a straight path.
    """
    if incursion_level < -0.5:
        return ScenarioSpec(incursion_level, end_heading_mode="continuing-left",
                            post_tc_behavior="extend-path")
    return ScenarioSpec(incursion_level, end_heading_mode="straight",
                        post_tc_behavior="hold-heading")


def default_timing(spec: ScenarioSpec, t_trigger: float = 1.0) -> ScenarioTiming:
    return ScenarioTiming(t_trigger, t_trigger + spec.time_gap_trigger)


def trigger_distance(v_sv: float, v_pov: float, gap: float) -> float:
    """Longitudinal bumper gap at which the incursion begins.

    The vehicles close head-on, so the distance consumed in ``gap`` seconds
    is gap * (v_sv + v_pov).
    """
    check_numbers("> 0", v_sv=v_sv, v_pov=v_pov)
    check_numbers(">= 0", gap=gap)
    return gap * (v_sv + v_pov)


def reference_lateral_at_tc(incursion_level: float, lane_width: float) -> float:
    """POV reference-point lateral position at t_C implied by the IL."""
    if not -1.0 <= incursion_level <= 1.0:
        raise ValueError(f"incursion_level outside [-1, 1]: {incursion_level}")
    return (incursion_level - 1.0) * lane_width / 2.0


class _CubicBezier1D:
    """Scalar cubic Bezier with value/first/second derivatives in the parameter."""

    def __init__(self, p0, p1, p2, p3):
        self.p = (p0, p1, p2, p3)

    def value(self, u):
        p0, p1, p2, p3 = self.p
        w = 1.0 - u
        return p0 * w**3 + 3 * p1 * u * w**2 + 3 * p2 * u**2 * w + p3 * u**3

    def d1(self, u):
        p0, p1, p2, p3 = self.p
        w = 1.0 - u
        return 3 * ((p1 - p0) * w**2 + 2 * (p2 - p1) * u * w + (p3 - p2) * u**2)

    def d2(self, u):
        p0, p1, p2, p3 = self.p
        return 6 * ((p2 - 2 * p1 + p0) * (1.0 - u) + (p3 - 2 * p2 + p1) * u)


class IncursionPath:
    """Lateral POV path y(t): flat before t_T, Bezier to t_C, then extension.

    The curve is parametric in u with knot times placed at fixed fractions
    of the trigger-to-critical gap, which keeps t(u) strictly increasing, so
    y(t) and its analytic derivatives follow from the chain rule.
    """

    def __init__(self, spec: ScenarioSpec, timing: ScenarioTiming):
        road = spec.road
        gap = timing.t_critical - timing.t_trigger
        y_start = road.lane_width / 2.0
        y_end = reference_lateral_at_tc(spec.incursion_level, road.lane_width)
        f0, f1 = spec.ctrl_fracs

        if spec.end_heading_mode == "continuing-left":
            # Terminal lateral speed sized so a straight extension reaches the
            # shoulder-side road edge edge_reach_after seconds past t_C.
            vy_end = (-road.lane_width - y_end) / spec.edge_reach_after
        else:
            vy_end = 0.0

        # Zero start slope => y1 = y0; end slope vy_end => y2 = y3 - vy_end*(1-f1)*gap.
        self._t_curve = _CubicBezier1D(timing.t_trigger,
                                       timing.t_trigger + f0 * gap,
                                       timing.t_trigger + f1 * gap,
                                       timing.t_critical)
        self._y_curve = _CubicBezier1D(y_start, y_start,
                                       y_end - vy_end * (1.0 - f1) * gap, y_end)
        self.timing = timing
        self.y_start = y_start
        self.y_end = y_end
        self.vy_end = vy_end

    def _u_of_t(self, t: float) -> float:
        """Invert the monotone time curve by Newton with bisection fallback."""
        lo, hi = 0.0, 1.0
        u = min(max((t - self.timing.t_trigger) /
                    (self.timing.t_critical - self.timing.t_trigger), lo), hi)
        for _ in range(60):
            err = self._t_curve.value(u) - t
            if abs(err) < 1e-12:
                return u
            if err > 0:
                hi = u
            else:
                lo = u
            slope = self._t_curve.d1(u)
            u_next = u - err / slope if slope > 1e-12 else 0.5 * (lo + hi)
            if not lo <= u_next <= hi:
                u_next = 0.5 * (lo + hi)
            u = u_next
        return u

    def state(self, t: float) -> tuple[float, float, float]:
        """(y, vy, ay) of the POV reference point at time t.

        Past t_C both post-critical behaviors continue the path along its
        terminal tangent: the curve terminates C1, so extending the path and
        holding the heading coincide, and the continuing-left rate was sized
        for the straight extension to reach the road edge on schedule.
        """
        if t <= self.timing.t_trigger:
            return self.y_start, 0.0, 0.0
        if t >= self.timing.t_critical:
            y = self.y_end + self.vy_end * (t - self.timing.t_critical)
            return y, self.vy_end, 0.0
        u = self._u_of_t(t)
        tp, yp = self._t_curve.d1(u), self._y_curve.d1(u)
        tpp, ypp = self._t_curve.d2(u), self._y_curve.d2(u)
        y = self._y_curve.value(u)
        vy = yp / tp
        ay = (ypp * tp - yp * tpp) / tp**3
        return y, vy, ay


def pov_x_at_trigger(spec: ScenarioSpec, timing: ScenarioTiming) -> float:
    """POV reference x at t_T that realizes the trigger bumper gap.

    The SV is assumed to hold its nominal speed from (t=0, x=0) up to the
    trigger point, which is how the conflict is staged.
    """
    dist = trigger_distance(spec.v_sv_nominal, spec.v_pov, spec.time_gap_trigger)
    sv_center = spec.v_sv_nominal * timing.t_trigger - spec.sv_spec.ref_offset
    pov_center = sv_center + spec.sv_spec.length / 2 + dist + spec.pov_spec.length / 2
    return pov_center - spec.pov_spec.ref_offset


def pov_state_at(t: float, spec: ScenarioSpec, timing: ScenarioTiming,
                 x_pov_at_trigger: float,
                 path: IncursionPath | None = None) -> VehicleState:
    """Scripted POV state: constant speed in -x, lateral motion from the path."""
    check_numbers(">= 0", t=t)
    if path is None:
        path = IncursionPath(spec, timing)
    x = x_pov_at_trigger - spec.v_pov * (t - timing.t_trigger)
    y, vy, ay = path.state(t)
    return VehicleState(t=t, x=x, y=y, vx=-spec.v_pov, vy=vy, ax=0.0, ay=ay,
                        heading_sign=POV_SIGN)


def sv_initial_state(spec: ScenarioSpec) -> VehicleState:
    """SV at t = 0 and x = 0: lane center, nominal speed, no acceleration."""
    return VehicleState(t=0.0, x=0.0, y=-spec.road.lane_width / 2.0,
                        vx=spec.v_sv_nominal, vy=0.0, ax=0.0, ay=0.0,
                        heading_sign=SV_SIGN)


def check_path_lateral_accel(spec: ScenarioSpec, timing: ScenarioTiming,
                             limits: KinematicLimits) -> tuple[float, bool]:
    """Diagnostic: peak |ay| on 501 samples of the scripted path vs the POV limits.

    The scripted path is ground truth and is never clamped; this check only
    reports whether the incursion would be admissible under the envelope
    assumptions used for reachability.
    """
    path = IncursionPath(spec, timing)
    cap = max(limits.a_lat_left_max, limits.a_lat_right_max)
    peak = 0.0
    for i in range(501):
        t = timing.t_trigger + (timing.t_critical - timing.t_trigger) * i / 500
        peak = max(peak, abs(path.state(t)[2]))
    return peak, peak <= cap
