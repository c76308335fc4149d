import math

import numpy as np
import pytest

from odlisim.core import (POV_LIMITS, SV_LIMITS, KinematicLimits, Rect, RoadSpec,
                          VehicleSpec, VehicleState, axis_limits, footprint,
                          longitudinal_gap, rectangles_overlap, step_vehicle)


def state(**kw):
    base = dict(t=0.0, x=0.0, y=0.0, vx=0.0, vy=0.0, ax=0.0, ay=0.0, heading_sign=1)
    base.update(kw)
    return VehicleState(**base)


def test_step_forward_euler_example():
    s = step_vehicle(state(vx=20.0), (10.0, 0.0), SV_LIMITS, 0.1)
    assert s.x == pytest.approx(2.0)
    assert s.vx == pytest.approx(20.0)
    assert s.ax == pytest.approx(1.0)


def test_step_zero_input_coasting():
    s0 = state(x=3.0, y=-1.0, vx=12.0, vy=0.5)
    s1 = step_vehicle(s0, (0.0, 0.0), SV_LIMITS, 0.1)
    assert s1.x == pytest.approx(3.0 + 0.1 * 12.0)
    assert s1.y == pytest.approx(-1.0 + 0.1 * 0.5)
    assert (s1.vx, s1.vy, s1.ax, s1.ay) == (12.0, 0.5, 0.0, 0.0)


def test_step_speed_cap():
    s = step_vehicle(state(vx=20.0, ax=1.0), (0.0, 0.0), SV_LIMITS, 0.1)
    assert s.vx == 20.0


def test_step_velocity_floor_during_braking():
    s = state(vx=0.3, ax=-8.0)
    for _ in range(10):
        s = step_vehicle(s, (-30.0, 0.0), SV_LIMITS, 0.1)
    assert s.vx == 0.0


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step_vehicle(state(), (0.0, 0.0), SV_LIMITS, 0.0)
    with pytest.raises(ValueError):
        step_vehicle(state(), (math.nan, 0.0), SV_LIMITS, 0.1)
    with pytest.raises(ValueError):
        state(x=math.inf)


def test_step_respects_limits_randomized():
    rng = np.random.default_rng(42)
    for heading, limits in ((1, SV_LIMITS), (-1, POV_LIMITS)):
        lim_x = axis_limits(limits, heading, "x")
        lim_y = axis_limits(limits, heading, "y")
        s = state(vx=heading * 15.0, heading_sign=heading)
        for _ in range(300):
            jerk = (rng.uniform(-60, 60), rng.uniform(-60, 60))
            s = step_vehicle(s, jerk, limits, 0.05)
            assert lim_x.v_lo <= s.vx <= lim_x.v_hi
            assert lim_x.a_lo <= s.ax <= lim_x.a_hi
            assert lim_y.v_lo <= s.vy <= lim_y.v_hi
            assert lim_y.a_lo <= s.ay <= lim_y.a_hi


def test_step_exact_linear_coasting():
    s = state(x=1.0, vx=17.88)
    x_ref = 1.0
    for k in range(1, 501):
        s = step_vehicle(s, (0.0, 0.0), SV_LIMITS, 0.01)
        x_ref = x_ref + 0.01 * 17.88
        assert s.x == x_ref  # identical accumulation, bit for bit
        assert abs(s.x - (1.0 + k * 0.01 * 17.88)) < 1e-9
    assert s.vx == 17.88 and s.ax == 0.0


def test_pov_lateral_clamp_asymmetry():
    rng = np.random.default_rng(7)
    s = state(heading_sign=-1, vx=-17.88)
    for _ in range(200):
        s = step_vehicle(s, (0.0, rng.uniform(-60, 60)), POV_LIMITS, 0.05)
        assert s.ay >= 0.0  # no acceleration toward the POV's right


def test_footprint_default_dims():
    r = footprint(state(x=10.0, y=-1.825), VehicleSpec())
    assert (r.x_lo, r.x_hi) == (pytest.approx(7.8), pytest.approx(12.2))
    assert (r.y_lo, r.y_hi) == (pytest.approx(-2.725), pytest.approx(-0.925))


def test_footprint_pov_ref_offset():
    r = footprint(state(x=100.0, y=1.825, heading_sign=-1),
                  VehicleSpec(ref_offset=0.2))
    assert (r.x_lo + r.x_hi) / 2 == pytest.approx(100.2)


def test_footprint_area_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = VehicleSpec(length=rng.uniform(2, 6), width=rng.uniform(1, 2.5))
        r = footprint(state(x=rng.uniform(-50, 50), y=rng.uniform(-5, 5)), spec)
        assert r.area == pytest.approx(spec.length * spec.width)


def test_vehicle_spec_validation():
    with pytest.raises(ValueError):
        VehicleSpec(length=0.0)
    with pytest.raises(ValueError):
        VehicleSpec(ref_offset=3.0)


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_specs_reject_non_finite(value):
    for field in ("length", "width", "ref_offset"):
        with pytest.raises(ValueError):
            VehicleSpec(**{field: value})
    for field in ("lane_width", "shoulder_margin"):
        with pytest.raises(ValueError):
            RoadSpec(**{field: value})
    for field in ("v_max", "a_brk_max", "a_lat_right_max", "j_lat_max", "v_lat_max"):
        with pytest.raises(ValueError, match=field):
            KinematicLimits(**{field: value})


def test_overlap_elementwise_on_arrays():
    x = np.array([0.0, 4.0, 3.0])
    got = rectangles_overlap(Rect(0, 4, 0, 2), Rect(x, x + 4, np.zeros(3), np.full(3, 2.0)))
    assert got.tolist() == [True, False, True]


def test_overlap_identical_and_edge():
    a = Rect(0, 4, 0, 2)
    assert rectangles_overlap(a, a)
    assert not rectangles_overlap(a, Rect(4, 8, 0, 2))  # shared edge only
    assert rectangles_overlap(a, Rect(3, 7, 1, 3))


def test_overlap_symmetric_reflexive_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = Rect(*np.sort(rng.uniform(-5, 5, 2)), *np.sort(rng.uniform(-5, 5, 2)))
        b = Rect(*np.sort(rng.uniform(-5, 5, 2)), *np.sort(rng.uniform(-5, 5, 2)))
        assert rectangles_overlap(a, b) == rectangles_overlap(b, a)
        if a.area > 0:
            assert rectangles_overlap(a, a)


def test_longitudinal_gap_example():
    sv = state(x=0.0)
    pov = state(x=100.0, heading_sign=-1)
    gap = longitudinal_gap(sv, pov, VehicleSpec(), VehicleSpec(ref_offset=0.2))
    assert gap == pytest.approx(95.8)


def test_longitudinal_gap_touch_and_past():
    spec = VehicleSpec()
    sv = state(x=0.0)
    pov_touch = state(x=4.4, heading_sign=-1)
    assert longitudinal_gap(sv, pov_touch, spec, spec) == pytest.approx(0.0)
    pov_passed = state(x=-10.0, heading_sign=-1)
    assert longitudinal_gap(sv, pov_passed, spec, spec) < 0


def test_road_spec_validation():
    with pytest.raises(ValueError):
        RoadSpec(lane_width=0)
    with pytest.raises(ValueError):
        RoadSpec(shoulder_margin=-0.1)
    assert RoadSpec().width == pytest.approx(7.3)


def test_kinematic_limits_defaults_table():
    sv, pov = SV_LIMITS, POV_LIMITS
    assert (sv.v_max, sv.a_fwd_max, sv.a_brk_max) == (20.0, 5.0, 8.0)
    assert (sv.a_lat_left_max, sv.a_lat_right_max) == (6.0, 6.0)
    assert (pov.a_lat_left_max, pov.a_lat_right_max) == (4.0, 0.0)
    assert (sv.j_fwd_max, sv.j_bwd_max, sv.j_lat_max) == (10.0, 30.0, 30.0)
    with pytest.raises(ValueError):
        KinematicLimits(v_max=-1.0)
