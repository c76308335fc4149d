"""Opposite-direction lateral incursion (ODLI) scenario construction.

A scenario is parameterized by an incursion level IL in [-1, 1]: the
normalized lateral position of the POV reference point in the SV lane at
the critical point t_C.  IL = -1 puts it at the shoulder-side road edge,
0 at the SV lane center, +1 at the road centerline.  The POV approaches
at constant speed, departs its lane at the trigger point t_T along a
cubic Bezier in (t, y), and reaches the IL-defined lateral position at
t_C = t_T + time_gap_trigger.  The scenario spec and its timing are
plain-Python values defined in `spec`; this module computes the path.
"""

from __future__ import annotations

import numpy as np

from .core import axis_limits
from .spec import (POV_SIGN, SV_SIGN, KinematicLimits, ScenarioSpec, ScenarioTiming,
                   VehicleState, check_numbers)


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
    """Cubic Bezier with value/first/second derivatives in the parameter, elementwise.

    Powers use ``np.float_power``, the C ``pow`` of Python's float ``**``;
    numpy's array ``**`` rounds some of them differently."""

    def __init__(self, p0, p1, p2, p3):
        self.p = (p0, p1, p2, p3)

    def value(self, u):
        p0, p1, p2, p3 = self.p
        w = 1.0 - u
        return (p0 * np.float_power(w, 3) + 3 * p1 * u * np.float_power(w, 2)
                + 3 * p2 * np.float_power(u, 2) * w + p3 * np.float_power(u, 3))

    def d1(self, u):
        p0, p1, p2, p3 = self.p
        w = 1.0 - u
        return 3 * ((p1 - p0) * np.float_power(w, 2) + 2 * (p2 - p1) * u * w
                    + (p3 - p2) * np.float_power(u, 2))

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

    def states(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y, vy, ay) arrays of the POV reference point at each time of ``t``.

        On the curve, Newton with bisection fallback inverts the time curve;
        each sample keeps its own bracket and stops at its own
        ``|err| < 1e-12`` or after 60 iterations.  Past t_C the path continues
        along its terminal tangent (the curve terminates C1).
        """
        t = np.asarray(t, dtype=float)
        t_trigger, t_critical = self.timing.t_trigger, self.timing.t_critical
        after = t >= t_critical  # t_C > t_T, so no sample is also at or before t_T
        on = ~(t <= t_trigger) & ~after
        y, vy, ay = np.full_like(t, self.y_start), np.zeros_like(t), np.zeros_like(t)
        y[after] = self.y_end + self.vy_end * (t[after] - t_critical)
        vy[after] = self.vy_end
        tc = t[on]
        u = np.minimum(np.maximum((tc - t_trigger) / (t_critical - t_trigger), 0.0), 1.0)
        lo, hi = np.zeros_like(tc), np.ones_like(tc)
        u_on, live = np.empty_like(tc), np.arange(len(tc))
        for _ in range(60):
            err = self._t_curve.value(u) - tc
            done = np.abs(err) < 1e-12
            u_on[live[done]] = u[done]
            live, tc, u, lo, hi, err = (a[~done] for a in (live, tc, u, lo, hi, err))
            if not len(live):
                break
            hi, lo = np.where(err > 0, u, hi), np.where(err > 0, lo, u)
            slope = self._t_curve.d1(u)
            # A NaN step fails the bracket test, so a flat slope bisects.
            u_next = u - err / np.where(slope > 1e-12, slope, np.nan)
            u = np.where((lo <= u_next) & (u_next <= hi), u_next, 0.5 * (lo + hi))
        u_on[live] = u
        tp, yp = self._t_curve.d1(u_on), self._y_curve.d1(u_on)
        tpp, ypp = self._t_curve.d2(u_on), self._y_curve.d2(u_on)
        y[on] = self._y_curve.value(u_on)
        vy[on] = yp / tp
        ay[on] = (ypp * tp - yp * tpp) / np.float_power(tp, 3)
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
    y, vy, ay = (float(v[0]) for v in path.states([t]))
    return VehicleState(t=t, x=x, y=y, vx=-spec.v_pov, vy=vy, ax=0.0, ay=ay,
                        heading_sign=POV_SIGN)


def sv_initial_state(spec: ScenarioSpec) -> VehicleState:
    """SV at t = 0 and x = 0: lane center, nominal speed, no acceleration."""
    return VehicleState(t=0.0, x=0.0, y=-spec.road.lane_width / 2.0,
                        vx=spec.v_sv_nominal, vy=0.0, ax=0.0, ay=0.0,
                        heading_sign=SV_SIGN)


def check_path_lateral_accel(spec: ScenarioSpec, timing: ScenarioTiming,
                             limits: KinematicLimits) -> tuple[float, bool]:
    """Diagnostic: peak |ay| on 501 samples of the scripted path, and whether
    every signed sample lies in the POV's box ``axis_limits(limits, POV_SIGN)[1]``.

    The scripted path is ground truth and is never clamped; this check only
    reports whether the incursion would be admissible under the envelope
    assumptions used for reachability.
    """
    gap = timing.t_critical - timing.t_trigger
    ay = IncursionPath(spec, timing).states(timing.t_trigger + gap * np.arange(501) / 500)[2]
    box = axis_limits(limits, POV_SIGN)[1]
    return float(np.abs(ay).max()), bool(((box.a_lo <= ay) & (ay <= box.a_hi)).all())
