import math

import numpy as np
import pytest

from odlisim.core import (POV_LIMITS, SV_LIMITS, KinematicLimits, Rect, RoadSpec,
                          VehicleSpec, VehicleState, axis_limits, axis_step, footprint,
                          rectangles_overlap, scalar_axis_step)


def state(**kw):
    base = dict(t=0.0, x=0.0, y=0.0, vx=0.0, vy=0.0, ax=0.0, ay=0.0, heading_sign=1)
    base.update(kw)
    return VehicleState(**base)


SV_X = axis_limits(SV_LIMITS, 1, "x")
SV_Y = axis_limits(SV_LIMITS, 1, "y")


def test_step_forward_euler_example():
    x, vx, ax = axis_step(0.0, 20.0, 0.0, 10.0, SV_X, 0.1)
    assert x == pytest.approx(2.0)
    assert vx == pytest.approx(20.0)
    assert ax == pytest.approx(1.0)


def test_step_zero_input_coasting():
    x, vx, ax = axis_step(3.0, 12.0, 0.0, 0.0, SV_X, 0.1)
    y, vy, ay = axis_step(-1.0, 0.5, 0.0, 0.0, SV_Y, 0.1)
    assert x == pytest.approx(3.0 + 0.1 * 12.0)
    assert y == pytest.approx(-1.0 + 0.1 * 0.5)
    assert (vx, vy, ax, ay) == (12.0, 0.5, 0.0, 0.0)


def test_step_speed_cap():
    _, vx, _ = axis_step(0.0, 20.0, 1.0, 0.0, SV_X, 0.1)
    assert vx == 20.0


def test_step_velocity_floor_during_braking():
    x, vx, ax = 0.0, 0.3, -8.0
    for _ in range(10):
        x, vx, ax = axis_step(x, vx, ax, -30.0, SV_X, 0.1)
    assert vx == 0.0


def test_step_respects_limits_randomized():
    rng = np.random.default_rng(42)
    for heading, limits in ((1, SV_LIMITS), (-1, POV_LIMITS)):
        for axis, v0 in (("x", heading * 15.0), ("y", 0.0)):
            lim = axis_limits(limits, heading, axis)
            p, v, a = 0.0, v0, 0.0
            for _ in range(300):
                p, v, a = axis_step(p, v, a, rng.uniform(-60, 60), lim, 0.05)
                assert lim.v_lo <= v <= lim.v_hi
                assert lim.a_lo <= a <= lim.a_hi


def test_step_exact_linear_coasting():
    x, vx, ax = 1.0, 17.88, 0.0
    x_ref = 1.0
    for k in range(1, 501):
        x, vx, ax = axis_step(x, vx, ax, 0.0, SV_X, 0.01)
        x_ref = x_ref + 0.01 * 17.88
        assert x == x_ref  # identical accumulation, bit for bit
        assert abs(x - (1.0 + k * 0.01 * 17.88)) < 1e-9
    assert vx == 17.88 and ax == 0.0


def test_scalar_step_bit_identical_to_axis_step():
    """Every clamp of the pure-Python step, on values at, beyond and signed-zero
    equal to each bound, matches numpy's ``axis_step`` bit for bit."""
    caps = ("v_max", "a_fwd_max", "a_brk_max", "a_lat_left_max", "a_lat_right_max",
            "j_fwd_max", "j_bwd_max", "j_lat_max", "v_lat_max")
    zero = KinematicLimits(**{name: 0.0 for name in caps})
    # a zero jerk bound whose sign reaches a = -0.0 through the unclamped acceleration
    one_sided = [KinematicLimits(j_bwd_max=0.0), KinematicLimits(j_fwd_max=0.0)]
    rng = np.random.default_rng(3)
    n = 0
    for limits in [SV_LIMITS, POV_LIMITS, zero] + one_sided:
        for heading in (1, -1):
            for axis in ("x", "y"):
                lim = axis_limits(limits, heading, axis)
                edges = [0.0, -0.0, lim.v_lo, lim.v_hi, lim.a_lo, lim.a_hi, lim.j_lo, lim.j_hi]
                values = edges + [float(np.nextafter(e, s * np.inf)) for e in edges
                                  for s in (-1, 1)] + list(rng.uniform(-40.0, 40.0, 2))
                for a in values:
                    for j in values:
                        p, v = (float(rng.choice(values)) for _ in range(2))
                        dt = float(rng.choice([0.0, 0.01, 0.1, 1.0], p=[0.1, 0.3, 0.3, 0.3]))
                        got = scalar_axis_step(p, v, a, j, lim, dt)
                        want = axis_step(p, v, a, j, lim, dt)
                        for g, w in zip(got, want, strict=True):
                            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (
                                p, v, a, j, lim, dt, got, want)
                        n += 1
    assert n == 20 * 26 * 26


def test_pov_lateral_clamp_asymmetry():
    rng = np.random.default_rng(7)
    lim = axis_limits(POV_LIMITS, -1, "y")
    y, vy, ay = 0.0, 0.0, 0.0
    for _ in range(200):
        y, vy, ay = axis_step(y, vy, ay, rng.uniform(-60, 60), lim, 0.05)
        assert ay >= 0.0  # no acceleration toward the POV's right


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
        assert r.x_hi - r.x_lo == pytest.approx(spec.length)
        assert r.y_hi - r.y_lo == pytest.approx(spec.width)


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
    for field in ("t", "x", "vy", "ay"):
        with pytest.raises(ValueError, match="non-finite"):
            state(**{field: value})


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
        if a.x_lo < a.x_hi and a.y_lo < a.y_hi:
            assert rectangles_overlap(a, a)


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
