import math
import re

import numpy as np
import pytest

from odlisim.core import (MAX_STEPS, POV_LIMITS, SV_LIMITS, KinematicLimits, Rect, RoadSpec,
                          VehicleSpec, VehicleState, axis_limits, axis_step, check_numbers,
                          footprint, rectangles_overlap, scalar_axis_step, step_count)
from odlisim.engine import rollout
from odlisim.oracle import analytic_1d_bounds, sample_trajectories
from odlisim.policies import PolicySpec
from odlisim.reach import PredictionConfig, drivable_timelines
from odlisim.scenario import (ScenarioSpec, default_timing, make_scenario, pov_state_at,
                              trigger_distance)


def state(**kw):
    base = dict(t=0.0, x=0.0, y=0.0, vx=0.0, vy=0.0, ax=0.0, ay=0.0, heading_sign=1)
    base.update(kw)
    return VehicleState(**base)


SV_X, SV_Y = axis_limits(SV_LIMITS, 1)


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
        for lim, v0 in zip(axis_limits(limits, heading), (heading * 15.0, 0.0)):
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
            for lim in axis_limits(limits, heading):
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
    lim = axis_limits(POV_LIMITS, -1)[1]
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


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.0, math.inf, -math.inf, math.nan)
_SCENARIO = make_scenario(0.0)
_TIMING = default_timing(_SCENARIO)
# (what is checked, its bound, a call that passes the value and valid other inputs)
RANGE_CHECKED = [
    ("RoadSpec.lane_width", "> 0", lambda v: RoadSpec(lane_width=v)),
    ("RoadSpec.shoulder_margin", ">= 0", lambda v: RoadSpec(shoulder_margin=v)),
    ("VehicleSpec.length", "> 0", lambda v: VehicleSpec(length=v)),
    ("VehicleSpec.width", "> 0", lambda v: VehicleSpec(width=v)),
    *((f"ScenarioSpec.{f}", "> 0", lambda v, f=f: ScenarioSpec(**{f: v}))
      for f in ("v_sv_nominal", "v_pov", "time_gap_trigger", "edge_reach_after")),
    *((f"PredictionConfig.{f}", "> 0", lambda v, f=f: PredictionConfig(**{f: v}))
      for f in ("grid_dx", "grid_dy", "tau_step", "horizon")),
    ("PredictionConfig.incursion_detect_threshold", ">= 0",
     lambda v: PredictionConfig(incursion_detect_threshold=v)),
    *((f"KinematicLimits.{f}", ">= 0", lambda v, f=f: KinematicLimits(**{f: v}))
      for f in vars(KinematicLimits())),
    *((f"PolicySpec.{f}", bound, lambda v, f=f: PolicySpec(**{f: v}))
      for f, bound in (("reaction_delay", ">= 0"), ("reversal_delay", ">= 0"),
                       ("steer_rate", "> 0"), ("steer_target", None),
                       ("reversal_target", None))),
    # horizon = dt keeps one step whatever dt is
    ("rollout dt", "> 0", lambda v: rollout(_SCENARIO, PolicySpec(), dt=v, horizon=v)),
    ("drivable_timelines eval_step", "> 0",
     lambda v: drivable_timelines([], PredictionConfig(), eval_step=v)),
    ("sample_trajectories dt", "> 0",
     lambda v: sample_trajectories(state(), SV_LIMITS, horizon=0.0, dt=v, n=1)),
    ("sample_trajectories horizon", ">= 0",
     lambda v: sample_trajectories(state(), SV_LIMITS, horizon=v, dt=1.0, n=1)),
    ("analytic_1d_bounds tau", ">= 0",
     lambda v: analytic_1d_bounds(0.0, 0.0, 0.0, axis_limits(SV_LIMITS, 1)[0], v)),
    ("trigger_distance v_sv", "> 0", lambda v: trigger_distance(v, 17.0, 5.0)),
    ("trigger_distance v_pov", "> 0", lambda v: trigger_distance(17.0, v, 5.0)),
    ("trigger_distance gap", ">= 0", lambda v: trigger_distance(17.0, 17.0, v)),
    ("pov_state_at t", ">= 0", lambda v: pov_state_at(v, _SCENARIO, _TIMING, 100.0)),
]
# Rejected by another check: the default horizon over the smallest subnormal
# step is past MAX_STEPS.
ALSO_REJECTED = {"PredictionConfig.tau_step": {5e-324}}


def in_bound(value, bound) -> bool:
    return math.isfinite(value) and {"> 0": value > 0, ">= 0": value >= 0, None: True}[bound]


@pytest.mark.parametrize("name, bound, call", RANGE_CHECKED, ids=[r[0] for r in RANGE_CHECKED])
def test_range_checks_follow_their_bound(name, bound, call):
    """Every checked field and argument accepts exactly the values its bound admits."""
    got, want = [], []
    for value in EDGE_VALUES:
        try:
            call(value)
        except ValueError:
            got.append((value, "rejected"))
        else:
            got.append((value, "accepted"))
        ok = in_bound(value, bound) and value not in ALSO_REJECTED.get(name, ())
        want.append((value, "accepted" if ok else "rejected"))
    assert repr(got) == repr(want)


# (what the step count is of, a call that passes the step size, a one-second span and
# valid other inputs)
STEP_COUNTED = [
    ("horizon / dt", lambda dt: rollout(_SCENARIO, PolicySpec(), dt=dt, horizon=1.0)),
    ("horizon / dt", lambda dt: sample_trajectories(state(), SV_LIMITS, horizon=1.0, dt=dt, n=1)),
    ("horizon / tau_step", lambda dt: PredictionConfig(horizon=1.0, tau_step=dt)),
]


@pytest.mark.parametrize("what, call", STEP_COUNTED,
                         ids=["rollout", "sample_trajectories", "PredictionConfig"])
@pytest.mark.parametrize("dt", [5e-324, 1.0 / (MAX_STEPS + 1)], ids=["subnormal", "past-cap"])
def test_step_counts_past_the_cap_are_rejected(what, call, dt):
    """A step count that is not finite or is past MAX_STEPS is a ValueError naming the
    ratio, raised before anything is sized by it."""
    count = 1.0 / dt
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be at most {MAX_STEPS} "
                                         f"steps, got {re.escape(str(count))}$"):
        call(dt)


def test_step_count_at_the_cap_is_accepted():
    assert PredictionConfig(horizon=1.0, tau_step=1.0 / MAX_STEPS).n_steps == MAX_STEPS
    assert step_count(1.0, 1.0 / MAX_STEPS, "horizon / dt") == MAX_STEPS


@pytest.mark.parametrize("bound, message", [
    ("> 0", "dt must be positive and finite, got 0.0"),
    (">= 0", "dt must be finite and >= 0, got -5e-324"),
    (None, "dt must be finite, got nan"),
])
def test_check_numbers_names_the_first_bad_value(bound, message):
    check_numbers(bound, dt=1.0, horizon=2.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_numbers(bound, n=1, dt={"> 0": 0.0, ">= 0": -5e-324, None: math.nan}[bound],
                      horizon=math.inf)


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
