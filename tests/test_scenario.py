import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from odlisim.core import axis_limits
from odlisim.scenario import (IncursionPath, check_path_lateral_accel, pov_state_at,
                              pov_x_at_trigger, reference_lateral_at_tc, trigger_distance)
from odlisim.spec import POV_LIMITS, ScenarioSpec, ScenarioTiming, default_timing, make_scenario

ILS = {"steep": -0.8, "medium": 0.0, "shallow": 0.9}


def test_trigger_distance_examples():
    assert trigger_distance(17.88, 17.88, 5.15) == pytest.approx(184.164)
    assert trigger_distance(9.0, 9.0, 0.0) == 0.0
    assert trigger_distance(20.0, 20.0, 5.15) == pytest.approx(206.0)
    with pytest.raises(ValueError):
        trigger_distance(0.0, 10.0, 5.0)


def test_reference_lateral_examples():
    assert reference_lateral_at_tc(0.0, 3.65) == pytest.approx(-1.825)
    assert reference_lateral_at_tc(1.0, 3.0) == 0.0
    assert reference_lateral_at_tc(-0.8, 3.65) == pytest.approx(-3.285)
    with pytest.raises(ValueError):
        reference_lateral_at_tc(1.2, 3.65)


def test_path_boundary_conditions_all_ils():
    for il in ILS.values():
        spec = make_scenario(il)
        timing = default_timing(spec)
        path = IncursionPath(spec, timing)
        y0, vy0, _ = path.state(timing.t_trigger)
        assert y0 == pytest.approx(spec.road.lane_width / 2)
        assert vy0 == pytest.approx(0.0, abs=1e-9)
        y1, _, _ = path.state(timing.t_critical)
        assert y1 == pytest.approx(
            reference_lateral_at_tc(il, spec.road.lane_width), abs=1e-9)


def test_steep_terminal_heading_continues_left():
    spec = make_scenario(-0.8)
    timing = default_timing(spec)
    path = IncursionPath(spec, timing)
    _, vy_tc, _ = path.state(timing.t_critical)
    assert vy_tc < 0
    y_late, _, _ = path.state(timing.t_critical + 1.0)
    assert y_late < path.y_end  # keeps crossing toward the shoulder
    y_edge, _, _ = path.state(timing.t_critical + spec.edge_reach_after)
    assert y_edge == pytest.approx(-spec.road.lane_width)


def test_shallow_terminal_heading_straight():
    spec = make_scenario(0.9)
    timing = default_timing(spec)
    path = IncursionPath(spec, timing)
    _, vy_tc, _ = path.state(timing.t_critical)
    assert vy_tc == pytest.approx(0.0, abs=1e-9)
    y_late, vy_late, _ = path.state(timing.t_critical + 2.0)
    assert y_late == pytest.approx(path.y_end)
    assert vy_late == 0.0


def test_path_c1_continuity():
    for il in ILS.values():
        spec = make_scenario(il)
        timing = default_timing(spec)
        path = IncursionPath(spec, timing)
        eps = 1e-6
        for t_knot in (timing.t_trigger, timing.t_critical):
            y_m, vy_m, _ = path.state(t_knot - eps)
            y_p, vy_p, _ = path.state(t_knot + eps)
            assert y_p - y_m == pytest.approx(0.0, abs=1e-4)
            assert vy_p - vy_m == pytest.approx(0.0, abs=1e-3)


def test_path_derivatives_match_finite_differences():
    spec = make_scenario(-0.8)
    timing = default_timing(spec)
    path = IncursionPath(spec, timing)
    eps = 1e-5
    for t in np.linspace(timing.t_trigger + 0.1, timing.t_critical - 0.1, 17):
        y_m = path.state(t - eps)[0]
        y_p = path.state(t + eps)[0]
        _, vy, ay = path.state(t)
        assert vy == pytest.approx((y_p - y_m) / (2 * eps), abs=1e-5)
        vy_m = path.state(t - eps)[1]
        vy_p = path.state(t + eps)[1]
        assert ay == pytest.approx((vy_p - vy_m) / (2 * eps), abs=1e-4)


def test_monotone_incursion():
    for il in ILS.values():
        spec = make_scenario(il)
        timing = default_timing(spec)
        path = IncursionPath(spec, timing)
        ts = np.linspace(timing.t_trigger, timing.t_critical, 400)
        ys = [path.state(t)[0] for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))


def test_pov_state_pre_trigger_and_at_tc():
    spec = make_scenario(0.0)
    timing = default_timing(spec)
    x_trig = pov_x_at_trigger(spec, timing)
    early = pov_state_at(0.5 * timing.t_trigger, spec, timing, x_trig)
    assert early.y == pytest.approx(spec.road.lane_width / 2)
    assert early.vy == 0.0
    at_tc = pov_state_at(timing.t_critical, spec, timing, x_trig)
    assert at_tc.y == pytest.approx(-spec.road.lane_width / 2)
    assert at_tc.x == pytest.approx(x_trig - 17.88 * 5.15)
    assert x_trig - at_tc.x == pytest.approx(92.082)
    assert at_tc.heading_sign == -1 and at_tc.vx == pytest.approx(-17.88)


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(incursion_level=1.5)
    with pytest.raises(ValueError):
        ScenarioSpec(v_pov=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(end_heading_mode="sideways")


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, 0.0))
@pytest.mark.parametrize("field", ("v_sv_nominal", "v_pov", "time_gap_trigger",
                                   "edge_reach_after"))
def test_scenario_spec_rejects_non_finite(field, value):
    # NaN and inf used to pass the `<= 0` checks and fail deep in a rollout.
    with pytest.raises(ValueError, match=field):
        ScenarioSpec(**{field: value})


@pytest.mark.parametrize("times", [(math.nan, math.nan), (1.0, math.nan), (math.nan, 6.15),
                                   (1.0, math.inf), (-math.inf, 6.15)])
def test_timing_rejects_non_finite(times):
    with pytest.raises(ValueError, match="timing must be finite"):
        ScenarioTiming(*times)


def test_make_scenario_steepness_defaults():
    assert make_scenario(-0.8).end_heading_mode == "continuing-left"
    assert make_scenario(-0.8).post_tc_behavior == "extend-path"
    assert make_scenario(0.0).end_heading_mode == "straight"
    assert make_scenario(0.9).post_tc_behavior == "hold-heading"


def test_scripted_lateral_accel_diagnostic():
    # The POV's road-frame lateral box is [-0.0, 4.0]: every default incursion
    # first accelerates toward -y, so none is admissible, and the peak is the
    # largest |ay| of the 501 samples.
    box = axis_limits(POV_LIMITS, -1)[1]
    assert (box.a_lo, box.a_hi) == (0.0, 4.0)
    for il in (*ILS.values(), -1.0, 1.0):
        spec = make_scenario(il)
        timing = default_timing(spec)
        peak, admissible = check_path_lateral_accel(spec, timing, POV_LIMITS)
        path = IncursionPath(spec, timing)
        gap = timing.t_critical - timing.t_trigger
        ay = [path.state(timing.t_trigger + gap * i / 500)[2] for i in range(501)]
        assert peak == max(map(abs, ay)) > 0
        assert min(ay) < 0 and not admissible
    # Under a box that admits both signs, the same paths are admissible.
    wide = replace(POV_LIMITS, a_lat_right_max=4.0)
    for il in ILS.values():
        spec = make_scenario(il)
        assert check_path_lateral_accel(spec, default_timing(spec), wide)[1]


def ref_state(path, t):
    """The POV track at one time, by the scalar Newton inversion with Python float ``**``."""

    def value(p, u):
        w = 1.0 - u
        return p[0] * w**3 + 3 * p[1] * u * w**2 + 3 * p[2] * u**2 * w + p[3] * u**3

    def d1(p, u):
        w = 1.0 - u
        return 3 * ((p[1] - p[0]) * w**2 + 2 * (p[2] - p[1]) * u * w + (p[3] - p[2]) * u**2)

    def d2(p, u):
        return 6 * ((p[2] - 2 * p[1] + p[0]) * (1.0 - u) + (p[3] - 2 * p[2] + p[1]) * u)

    tq, yq = path._t_curve.p, path._y_curve.p
    t_trigger, t_critical = path.timing.t_trigger, path.timing.t_critical
    if t <= t_trigger:
        return path.y_start, 0.0, 0.0
    if t >= t_critical:
        return path.y_end + path.vy_end * (t - t_critical), path.vy_end, 0.0
    lo, hi = 0.0, 1.0
    u = min(max((t - t_trigger) / (t_critical - t_trigger), lo), hi)
    for _ in range(60):
        err = value(tq, u) - t
        if abs(err) < 1e-12:
            break
        if err > 0:
            hi = u
        else:
            lo = u
        slope = d1(tq, u)
        u_next = u - err / slope if slope > 1e-12 else 0.5 * (lo + hi)
        if not lo <= u_next <= hi:
            u_next = 0.5 * (lo + hi)
        u = u_next
    tp, yp = d1(tq, u), d1(yq, u)
    tpp, ypp = d2(tq, u), d2(yq, u)
    return value(yq, u), yp / tp, (ypp * tp - yp * tpp) / tp**3


@settings(max_examples=40, deadline=None)
@given(il=st.floats(-1.0, 1.0), mode=st.sampled_from(["straight", "continuing-left"]),
       f0=st.floats(0.01, 0.98), f1_frac=st.floats(0.01, 0.99),
       dt=st.sampled_from([0.01, 0.005, 0.001, 0.0137]), t_trigger=st.floats(0.0, 3.0))
def test_track_states_bit_identical_to_scalar_newton(il, mode, f0, f1_frac, dt, t_trigger):
    f1 = f0 + (1.0 - f0) * f1_frac
    assume(0.0 < f0 < f1 < 1.0)
    spec = ScenarioSpec(il, end_heading_mode=mode, ctrl_fracs=(f0, f1))
    timing = default_timing(spec, t_trigger)
    path = IncursionPath(spec, timing)
    # The grid, plus t exactly at t_T and t_C and one ulp to either side.
    t = np.concatenate([np.arange(int((timing.t_critical + 3.0) / dt) + 1) * dt,
                        np.nextafter(timing.t_trigger, [-np.inf, np.inf]),
                        np.nextafter(timing.t_critical, [-np.inf, np.inf]),
                        [timing.t_trigger, timing.t_critical]])
    got = np.array(path.states(t))
    want = np.array([ref_state(path, tk) for tk in t.tolist()]).T
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert path.state(timing.t_trigger) == ref_state(path, timing.t_trigger)
    assert path.state(timing.t_critical) == ref_state(path, timing.t_critical)


def test_float_power_matches_python_pow():
    # The track's powers go through np.float_power to round as float ** does.
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-1.0, 2.0, 100_000), [0.0, -0.0, 1.0, 5e-324]])
    for p in (2, 3):
        want = np.array([v**p for v in x.tolist()])
        assert np.float_power(x, p).view(np.int64).tolist() == want.view(np.int64).tolist()
