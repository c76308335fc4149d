"""Scripted SV controllers producing the qualitative evasive patterns.

Each policy is a deterministic piecewise schedule over pedal percentages
and steering angle.  Pedal changes are steps (a pedal can be stamped much
faster than the 10 ms simulation step), so their threshold crossings land
exactly on the scheduled times.  Steering engages by jumping to the onset
threshold and ramping to the target at steer_rate; a later reversal ramps
from the current angle, so its crossing time follows from the ramp.  The
policy spec and the pedal and steering thresholds are defined in `spec`.
"""

from __future__ import annotations

import math

import numpy as np

from .spec import BRAKE_ONSET_PCT, CRUISE_ACCEL_PCT, STEER_ONSET_DEG, PolicySpec, ScenarioTiming

BRAKE_ANCHOR_DECEL = 1.0   # m/s^2 at the 15 % brake threshold
STEER_GAIN = 0.2           # m/s^2 per degree (20 deg ~ 4 m/s^2 at nominal speed)
SOFT_BRAKE_DECEL = 3.0     # m/s^2, within the 1-4 soft band
HARD_BRAKE_DECEL = 6.0     # m/s^2, above the 4 hard threshold


def accel_pct_to_ax(pct, a_fwd_max: float):
    """Accelerator map: dead zone up to the cruise level, then linear to the cap.

    At and below 3 % the pedal commands ~0 m/s^2; releasing the pedal means
    coasting with no engine braking.  Elementwise on scalars or arrays.
    """
    return np.where(pct <= CRUISE_ACCEL_PCT, 0.0,
                    a_fwd_max * (pct - CRUISE_ACCEL_PCT) / (100.0 - CRUISE_ACCEL_PCT))


def brake_pct_to_decel(pct, a_brk_max: float):
    """Brake map: piecewise linear through (0, 0), (15 %, 1 m/s^2), (100 %, cap)."""
    return np.where(pct <= 0, 0.0, np.where(
        pct <= BRAKE_ONSET_PCT, BRAKE_ANCHOR_DECEL * pct / BRAKE_ONSET_PCT,
        BRAKE_ANCHOR_DECEL + (a_brk_max - BRAKE_ANCHOR_DECEL) * (
            pct - BRAKE_ONSET_PCT) / (100.0 - BRAKE_ONSET_PCT)))


def decel_to_brake_pct(decel: float, a_brk_max: float) -> float:
    """Inverse of brake_pct_to_decel, used to pick schedule pedal positions."""
    if decel <= 0:
        return 0.0
    if decel > a_brk_max:
        raise ValueError(f"a_brk_max {a_brk_max} m/s^2 cannot reach the requested "
                         f"{decel} m/s^2 deceleration (brake_pct above 100)")
    if decel <= BRAKE_ANCHOR_DECEL:
        return BRAKE_ONSET_PCT * decel / BRAKE_ANCHOR_DECEL
    return BRAKE_ONSET_PCT + (100.0 - BRAKE_ONSET_PCT) * (
        decel - BRAKE_ANCHOR_DECEL) / (a_brk_max - BRAKE_ANCHOR_DECEL)


def steer_to_ay(steer_deg):
    """Fixed-gain steering map; positive steer accelerates toward +y (road center)."""
    return STEER_GAIN * steer_deg


def _brake_pct(policy: PolicySpec, a_brk_max: float) -> float:
    decel = SOFT_BRAKE_DECEL if policy.brake_level == "soft" else HARD_BRAKE_DECEL
    return decel_to_brake_pct(decel, a_brk_max)


def _engage(t, onset: float, target: float, rate: float):
    """Steering engagement: jump to the onset threshold, ramp to the target."""
    sign = math.copysign(1.0, target)
    return np.where(t < onset, 0.0,
                    sign * np.minimum(abs(target), STEER_ONSET_DEG + rate * (t - onset)))


def _steer_angle(t: np.ndarray, policy: PolicySpec, timing: ScenarioTiming) -> np.ndarray:
    t_first = timing.t_trigger + policy.reaction_delay
    kind = policy.kind
    if kind == "steer-center-only":
        return _engage(t, t_first, abs(policy.steer_target), policy.steer_rate)
    if kind == "steer-shoulder-only":
        return _engage(t, t_first, -abs(policy.steer_target), policy.steer_rate)
    if kind == "brake-then-steer-center":
        return _engage(t, t_first + policy.reversal_delay, abs(policy.steer_target),
                       policy.steer_rate)
    if kind == "shoulder-then-reversal":
        t_rev = t_first + policy.reversal_delay
        start = float(_engage(t_rev, t_first, -abs(policy.steer_target), policy.steer_rate))
        return np.where(t < t_rev,
                        _engage(t, t_first, -abs(policy.steer_target), policy.steer_rate),
                        np.minimum(abs(policy.reversal_target),
                                   start + policy.steer_rate * (t - t_rev)))
    return np.zeros_like(t)


def policy_schedule(t: np.ndarray, timing: ScenarioTiming, policy: PolicySpec,
                    a_brk_max: float = 8.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accel_pct, brake_pct, steer_deg) arrays over the time grid t.

    The scripted policies are open-loop: the schedule depends on t alone,
    never on the vehicle states.
    """
    t_first = timing.t_trigger + policy.reaction_delay
    kind = policy.kind
    if kind == "no-response":
        return np.full_like(t, CRUISE_ACCEL_PCT), np.zeros_like(t), np.zeros_like(t)

    acting = t >= t_first
    brake = 0.0
    if kind in ("brake-only", "brake-then-steer-center"):
        brake = _brake_pct(policy, a_brk_max)
    return (np.where(acting, 0.0, CRUISE_ACCEL_PCT), np.where(acting, brake, 0.0),
            np.where(acting, _steer_angle(t, policy, timing), 0.0))


def policy_control(t: float, timing: ScenarioTiming, policy: PolicySpec,
                   a_brk_max: float = 8.0) -> tuple[float, float, float]:
    """(accel_pct, brake_pct, steer_deg) of the SV at time t under a scripted policy.

    One sample of `policy_schedule`.
    """
    accel, brake, steer = policy_schedule(np.array([t]), timing, policy, a_brk_max)
    return float(accel[0]), float(brake[0]), float(steer[0])


def target_accels(accel_pct, brake_pct, steer_deg, a_fwd_max: float,
                  a_brk_max: float):
    """(ax, ay) targets implied by pedal percentages and steering angle."""
    ax = accel_pct_to_ax(accel_pct, a_fwd_max) - brake_pct_to_decel(brake_pct, a_brk_max)
    return ax, steer_to_ay(steer_deg)
