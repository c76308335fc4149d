import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_log
from odlisim import io, policies
from odlisim.core import (SV_LIMITS, KinematicLimits, VehicleSpec, VehicleState,
                          axis_limits, axis_step, footprint)
from odlisim.engine import (IncompleteLogError, TrajectoryLog, classify_outcome,
                            rollout, run_cohort, time_of_closest_proximity)
from odlisim.policies import POLICY_KINDS, PolicySpec
from odlisim.responses import window_for
from odlisim.scenario import (IncursionPath, default_timing, make_scenario,
                              pov_state_at, pov_x_at_trigger, sv_initial_state)

ILS = (-0.8, 0.0, 0.9)


def test_rollout_rejects_bad_dt():
    with pytest.raises(ValueError):
        rollout(make_scenario(0.0), PolicySpec(kind="no-response"), dt=0.0)


@pytest.mark.parametrize("il", ILS)
def test_no_response_collides_at_critical_point(il):
    scenario = make_scenario(il)
    timing = default_timing(scenario)
    log = rollout(scenario, PolicySpec(kind="no-response"), dt=0.01, timing=timing)
    assert log.collided
    assert abs(log.t_collision - timing.t_critical) <= 2 * log.dt + 1e-12


def test_shallow_shoulder_steer_avoids_collision():
    scenario = make_scenario(0.9)
    log = rollout(scenario, PolicySpec(kind="steer-shoulder-only",
                                       reaction_delay=1.2, steer_target=10.0))
    assert not log.collided
    t_p = time_of_closest_proximity(log)
    assert log.t[-1] > t_p  # log extends past closest proximity
    assert classify_outcome(log).kind == "pass-via-shoulder"


def test_tp_no_response_equals_tc():
    scenario = make_scenario(0.0)
    timing = default_timing(scenario)
    log = rollout(scenario, PolicySpec(kind="no-response"), timing=timing)
    assert time_of_closest_proximity(log) == pytest.approx(timing.t_critical,
                                                           abs=2 * log.dt)


def test_tp_braking_delays_proximity():
    scenario = make_scenario(-0.8)
    timing = default_timing(scenario)
    braked = rollout(scenario, PolicySpec(kind="brake-then-steer-center",
                                          reaction_delay=1.0, brake_level="hard",
                                          reversal_delay=1.5, steer_target=20.0),
                     timing=timing)
    assert time_of_closest_proximity(braked) > timing.t_critical


def test_tp_uniform_motion_arithmetic():
    # Constant speeds, bumper gap g0 at t = 0: t_p = g0 / (v_sv + v_pov).
    v, x0 = 10.0, 120.0
    log = make_log(dt=0.01, duration=10.0,
                   sv={"x": lambda t: v * t, "vx": v},
                   pov={"x": lambda t: x0 - v * t, "vx": -v,
                        "y": -1.825})
    g0 = (x0 + 0.2 - 4.4 / 2) - 4.4 / 2  # front bumpers, pov ref offset 0.2
    assert time_of_closest_proximity(log) == pytest.approx(g0 / (2 * v), abs=0.011)


def test_tp_incomplete_log_raises():
    log = make_log(duration=1.0)  # vehicles never meet within one second
    with pytest.raises(IncompleteLogError):
        time_of_closest_proximity(log)


def test_tp_touch_and_passed():
    # Bumpers exactly touching (zero gap) is closest proximity; a pair that
    # has already passed is at proximity from its first sample.
    pov_x = np.full(801, 100.0)
    pov_x[300:] = 4.4  # bodies 4.4 m long, reference points centred
    touch = make_log(sv={"x": 0.0, "vx": 0.0}, pov={"x": pov_x})
    touch.scenario = replace(touch.scenario, pov_spec=VehicleSpec())
    assert time_of_closest_proximity(touch) == touch.t[300]
    passed = make_log(sv={"x": 0.0, "vx": 0.0}, pov={"x": -10.0})
    assert time_of_closest_proximity(passed) == 0.0


@pytest.mark.parametrize("dy,expected_kind", [
    (0.0, "collision"),
    (1.7, "collision"),
    (-1.7, "collision"),
    (1.9, "pass-via-center"),
    (-1.9, "pass-via-shoulder"),
])
def test_outcome_classifier_width_rule(dy, expected_kind):
    # SV passes the POV with a constructed lateral offset at t_p.
    y_pov = -1.825
    log = make_log(duration=10.0,
                   sv={"y": y_pov + dy, "x": lambda t: 17.88 * t},
                   pov={"y": y_pov, "x": lambda t: 200.0 - 17.88 * t})
    out = classify_outcome(log)
    assert out.kind == expected_kind
    assert out.lateral_clearance == pytest.approx(abs(dy))


def test_outcome_collision_flag_from_rollout():
    log = rollout(make_scenario(0.0), PolicySpec(kind="no-response"))
    out = classify_outcome(log)
    assert out.kind == "collision"
    assert not out.sideswipe


def test_outcome_classifier_absolute_positions():
    # SV moved center-ward past a steep POV; SV at the shoulder past a
    # shallow POV.
    steep = make_log(duration=10.0, sv={"y": -0.2, "x": lambda t: 17.88 * t},
                     pov={"y": -3.0, "x": lambda t: 200.0 - 17.88 * t})
    assert classify_outcome(steep).kind == "pass-via-center"
    shallow = make_log(duration=10.0, sv={"y": -3.2, "x": lambda t: 17.88 * t},
                       pov={"y": -0.2, "x": lambda t: 200.0 - 17.88 * t})
    assert classify_outcome(shallow).kind == "pass-via-shoulder"


def test_sideswipe_diagnostic_flag():
    # Laterally clear at t_p, but a body overlap later while still
    # longitudinally engaged: outcome stays a pass, flagged as sideswipe.
    log = make_log(duration=10.0,
                   sv={"y": lambda t: np.where(t < 5.8, 0.5, -1.0),
                       "x": lambda t: 17.88 * t},
                   pov={"y": -1.825, "x": lambda t: 200.0 - 17.88 * t},
                   collided=True, t_collision=5.85)
    out = classify_outcome(log)
    assert out.kind == "pass-via-center"
    assert out.sideswipe


def test_classification_invariant_to_resampling():
    for il, pol in ((0.0, PolicySpec(kind="no-response")),
                    (0.9, PolicySpec(kind="steer-shoulder-only",
                                     reaction_delay=1.2, steer_target=10.0))):
        scenario = make_scenario(il)
        coarse = rollout(scenario, pol, dt=0.01)
        fine = rollout(scenario, pol, dt=0.005)
        assert classify_outcome(coarse).kind == classify_outcome(fine).kind
        assert time_of_closest_proximity(coarse) == pytest.approx(
            time_of_closest_proximity(fine), abs=0.011)


def test_logged_sv_accels_within_limits():
    lim_x, lim_y = axis_limits(SV_LIMITS, 1)
    log = rollout(make_scenario(0.0),
                  PolicySpec(kind="brake-then-steer-center", reaction_delay=1.0,
                             brake_level="hard", steer_target=20.0))
    assert log.sv["ax"].min() >= lim_x.a_lo - 1e-12
    assert log.sv["ax"].max() <= lim_x.a_hi + 1e-12
    assert log.sv["ay"].min() >= lim_y.a_lo - 1e-12
    assert log.sv["ay"].max() <= lim_y.a_hi + 1e-12
    assert log.sv["vx"].max() <= SV_LIMITS.v_max + 1e-12


def test_short_horizon_flags_incomplete():
    log = rollout(make_scenario(0.0), PolicySpec(kind="no-response"), horizon=2.0)
    assert not log.complete


def test_run_cohort_deterministic_and_jittered():
    scenario = make_scenario(0.0)
    cohort = [(PolicySpec(kind="brake-only", reaction_delay=1.5), 3)]
    a = run_cohort(scenario, cohort, seed=5, delay_jitter=0.3)
    b = run_cohort(scenario, cohort, seed=5, delay_jitter=0.3)
    assert [r.policy.reaction_delay for r in a] == [r.policy.reaction_delay for r in b]
    assert len({r.policy.reaction_delay for r in a}) > 1  # replicates differ


def test_window_for_analysis_bounds():
    scenario = make_scenario(0.0)
    timing = default_timing(scenario)
    log = rollout(scenario, PolicySpec(kind="no-response"), timing=timing)
    w = window_for(log)
    assert w.t_begin == pytest.approx(timing.t_trigger + 0.4)
    assert w.t_end == pytest.approx(time_of_closest_proximity(log))


# -- reference: the per-step closed-loop rollout the batched kernel replaced --

def _ref_controls(t, timing, policy, a_brk_max):
    """Scalar pedal/steer schedule: (accel_pct, brake_pct, steer_deg) at t."""
    def engage(t, onset, target, rate):
        if t < onset:
            return 0.0
        return math.copysign(1.0, target) * min(
            abs(target), policies.STEER_ONSET_DEG + rate * (t - onset))

    t_first = timing.t_trigger + policy.reaction_delay
    kind = policy.kind
    if kind == "no-response" or t < t_first:
        return policies.CRUISE_ACCEL_PCT, 0.0, 0.0
    brake = 0.0
    if kind in ("brake-only", "brake-then-steer-center"):
        brake = policies._brake_pct(policy, a_brk_max)
        if not 0.0 <= brake <= 100.0:
            raise ValueError(f"brake_pct outside [0, 100]: {brake}")
    rate, target = policy.steer_rate, abs(policy.steer_target)
    steer = 0.0
    if kind == "steer-center-only":
        steer = engage(t, t_first, target, rate)
    elif kind == "steer-shoulder-only":
        steer = engage(t, t_first, -target, rate)
    elif kind == "brake-then-steer-center":
        steer = engage(t, t_first + policy.reversal_delay, target, rate)
    elif kind == "shoulder-then-reversal":
        t_rev = t_first + policy.reversal_delay
        if t < t_rev:
            steer = engage(t, t_first, -target, rate)
        else:
            start = engage(t_rev, t_first, -target, rate)
            steer = min(abs(policy.reversal_target), start + rate * (t - t_rev))
    return 0.0, brake, steer


def _ref_target_accels(accel, brake, steer, a_fwd_max, a_brk_max):
    c = policies.CRUISE_ACCEL_PCT
    ax = 0.0 if accel <= c else a_fwd_max * (accel - c) / (100.0 - c)
    if brake <= 0:
        dec = 0.0
    elif brake <= policies.BRAKE_ONSET_PCT:
        dec = policies.BRAKE_ANCHOR_DECEL * brake / policies.BRAKE_ONSET_PCT
    else:
        dec = policies.BRAKE_ANCHOR_DECEL + (a_brk_max - policies.BRAKE_ANCHOR_DECEL) * (
            brake - policies.BRAKE_ONSET_PCT) / (100.0 - policies.BRAKE_ONSET_PCT)
    return ax - dec, policies.STEER_GAIN * steer


def _ref_overlap(a, b):
    return (a.x_lo < b.x_hi and b.x_lo < a.x_hi and
            a.y_lo < b.y_hi and b.y_lo < a.y_hi)


def _ref_rollout(scenario, policy, dt=0.01, horizon=None, timing=None,
                 sv_limits=SV_LIMITS):
    if timing is None:
        timing = default_timing(scenario)
    if horizon is None:
        horizon = timing.t_critical + 3.0
    path = IncursionPath(scenario, timing)
    x_pov_trig = pov_x_at_trigger(scenario, timing)
    sv = sv_initial_state(scenario)
    lim_x, lim_y = axis_limits(sv_limits, sv.heading_sign)
    n_steps = int(round(horizon / dt))
    rows_t, rows_sv, rows_pov, rows_ctl = [], [], [], []
    collided, t_collision = False, None
    for k in range(n_steps + 1):
        t = k * dt
        pov = pov_state_at(t, scenario, timing, x_pov_trig, path)
        ctl = _ref_controls(t, timing, policy, sv_limits.a_brk_max)
        rows_t.append(t)
        rows_sv.append((sv.x, sv.y, sv.vx, sv.vy, sv.ax, sv.ay))
        rows_pov.append((pov.x, pov.y, pov.vx, pov.vy, pov.ax, pov.ay))
        rows_ctl.append(ctl)
        if _ref_overlap(footprint(sv, scenario.sv_spec), footprint(pov, scenario.pov_spec)):
            collided, t_collision = True, t
            break
        if k == n_steps:
            break
        ax_t, ay_t = _ref_target_accels(*ctl, sv_limits.a_fwd_max, sv_limits.a_brk_max)
        x, vx, ax = axis_step(sv.x, sv.vx, sv.ax, (ax_t - sv.ax) / dt, lim_x, dt)
        y, vy, ay = axis_step(sv.y, sv.vy, sv.ay, (ay_t - sv.ay) / dt, lim_y, dt)
        sv = VehicleState(t=t + dt, x=float(x), y=float(y), vx=float(vx),
                          vy=float(vy), ax=float(ax), ay=float(ay), heading_sign=1)
    sv_arr, pov_arr, ctl_arr = (np.asarray(r) for r in (rows_sv, rows_pov, rows_ctl))
    keys = ("x", "y", "vx", "vy", "ax", "ay")
    log = TrajectoryLog(
        dt=dt, t=np.asarray(rows_t),
        sv={k: sv_arr[:, i] for i, k in enumerate(keys)},
        pov={k: pov_arr[:, i] for i, k in enumerate(keys)},
        controls={k: ctl_arr[:, i] for i, k in
                  enumerate(("accel_pct", "brake_pct", "steer_deg"))},
        scenario=scenario, timing=timing, policy=policy,
        collided=collided, t_collision=t_collision)
    try:
        time_of_closest_proximity(log)
    except IncompleteLogError:
        log.complete = False
    return log


def _assert_same_log(got, ref):
    """Bit for bit: -0.0 and 0.0 are told apart, unlike with ``np.array_equal``."""
    assert got.t.tobytes() == ref.t.tobytes()
    for chans in ("sv", "pov", "controls"):
        a, b = getattr(got, chans), getattr(ref, chans)
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].tobytes() == b[k].tobytes(), (chans, k)
    assert (got.collided, got.t_collision, got.complete) == (
        ref.collided, ref.t_collision, ref.complete)


# The default cohort's policy parameters: one spec per kind.
COHORT = io.config_policies(io.default_run_config(0.0))
KIND_SPECS = [p for p, _ in COHORT]
ODD_LIMITS = KinematicLimits(v_max=18.5, a_fwd_max=3.0, a_brk_max=7.0,
                             a_lat_left_max=4.0, a_lat_right_max=5.0, j_fwd_max=8.0,
                             j_bwd_max=20.0, j_lat_max=15.0, v_lat_max=3.0)


def test_kind_specs_cover_every_policy_kind():
    assert sorted(p.kind for p in KIND_SPECS) == sorted(POLICY_KINDS)


@pytest.mark.parametrize("dt", (0.01, 0.005))
@pytest.mark.parametrize("il", (-1.0, -0.8, 0.0, 0.9, 1.0))
def test_rollout_equals_per_step_reference(il, dt):
    scenario = make_scenario(il)
    for policy in KIND_SPECS:
        _assert_same_log(rollout(scenario, policy, dt=dt),
                         _ref_rollout(scenario, policy, dt=dt))


@pytest.mark.parametrize("il,seed", ((-0.8, 3), (0.9, 7)))
def test_jittered_cohort_equals_per_member_reference(il, seed):
    scenario = make_scenario(il)
    logs = run_cohort(scenario, COHORT, seed=seed, delay_jitter=0.3)
    assert len(logs) == sum(c for _, c in COHORT)
    for log in logs:
        _assert_same_log(log, _ref_rollout(scenario, log.policy))


def test_short_horizon_and_other_limits_equal_reference():
    scenario = make_scenario(0.0)
    for policy in KIND_SPECS:
        _assert_same_log(rollout(scenario, policy, horizon=2.0),
                         _ref_rollout(scenario, policy, horizon=2.0))
        _assert_same_log(rollout(scenario, policy, sv_limits=ODD_LIMITS),
                         _ref_rollout(scenario, policy, sv_limits=ODD_LIMITS))


def test_brake_beyond_vehicle_cap_rejected():
    weak = KinematicLimits(a_brk_max=5.0)  # hard braking asks for 6 m/s^2
    with pytest.raises(ValueError, match="brake_pct"):
        rollout(make_scenario(0.0), PolicySpec(kind="brake-only"), sv_limits=weak)


@pytest.mark.parametrize("a_brk_max", (1.0, 0.5))
def test_brake_cap_at_or_below_anchor_names_a_brk_max(a_brk_max):
    # at and below the 1 m/s^2 of the 15 % brake anchor, so no pedal
    # position reaches the 6 m/s^2 of hard braking
    with pytest.raises(ValueError, match="a_brk_max"):
        rollout(make_scenario(0.0), PolicySpec(kind="brake-only"),
                sv_limits=KinematicLimits(a_brk_max=a_brk_max))


@pytest.mark.parametrize("dt", (math.nan, math.inf, -0.01))
def test_rollout_rejects_non_finite_dt(dt):
    with pytest.raises(ValueError, match="dt"):
        rollout(make_scenario(0.0), PolicySpec(kind="no-response"), dt=dt)


def test_empty_cohort_has_no_logs():
    assert run_cohort(make_scenario(0.0), []) == []
