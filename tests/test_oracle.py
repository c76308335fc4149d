import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odlisim.core import (POV_LIMITS, SV_LIMITS, KinematicLimits, VehicleState,
                          axis_limits, axis_step)
from odlisim.oracle import analytic_1d_bounds, containment_check, sample_trajectories
from odlisim.reach import PredictionConfig, compute_reachable_set


def state(**kw):
    base = dict(t=0.0, x=0.0, y=0.0, vx=10.0, vy=0.0, ax=0.0, ay=0.0,
                heading_sign=1)
    base.update(kw)
    return VehicleState(**base)


def test_constant_jerk_matches_stepper():
    # Rows 0-3 are the constant corner-jerk rollouts, in the order
    # (x lo, y lo), (x lo, y hi), (x hi, y lo), (x hi, y hi).
    s0 = state(vx=15.0, ax=-2.0, vy=1.0)
    cloud = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=5, seed=0)
    lim_x, lim_y = axis_limits(SV_LIMITS, 1, "x"), axis_limits(SV_LIMITS, 1, "y")
    corners = [(jx, jy) for jx in (lim_x.j_lo, lim_x.j_hi)
               for jy in (lim_y.j_lo, lim_y.j_hi)]
    for row, (jx, jy) in enumerate(corners):
        x, y, vx, vy, ax, ay = s0.x, s0.y, s0.vx, s0.vy, s0.ax, s0.ay
        for k in range(1, 11):
            x, vx, ax = axis_step(x, vx, ax, jx, lim_x, 0.1)
            y, vy, ay = axis_step(y, vy, ay, jy, lim_y, 0.1)
            assert cloud.states[row, k].tolist() == [x, y, vx, vy, ax, ay]


def test_sampling_deterministic_under_seed():
    s0 = state(vx=17.88)
    a = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=3)
    b = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=3)
    assert np.array_equal(a.states, b.states)
    c = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=4)
    assert not np.array_equal(a.states, c.states)


def test_sampling_pinned_digest():
    """A change to the random draw changes these bytes; ``oracle_report.json``
    cannot show it while containment stays 1.0."""
    s0 = state(vx=17.88, y=-1.825)
    cloud = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=3)
    assert (hashlib.sha256(cloud.states.tobytes()).hexdigest()
            == "269db39cd118b3397c86c7893d258f6f9be79c5759c603618834f31451867949")


def test_sampling_prefix_stable_in_n():
    s0 = state(vx=12.0, vy=0.5)
    small = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=100, seed=9)
    large = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=1000, seed=9)
    assert np.array_equal(small.states, large.states[:104])


def test_sampling_jerks_stay_in_own_axis_box():
    """Implied per-step jerks lie inside, and span, each axis's own jerk box.

    The x box [-1, 20] and the y box [-5, 5] do not contain each other, and
    the acceleration caps never bind within 1 s, so jerks drawn from the
    other axis's box would fall short of one end of each box.
    """
    limits = KinematicLimits(a_fwd_max=100.0, a_brk_max=100.0, a_lat_left_max=100.0,
                             a_lat_right_max=100.0, j_fwd_max=20.0, j_bwd_max=1.0,
                             j_lat_max=5.0)
    for heading in (1, -1):
        s0 = state(vx=10.0 * heading, heading_sign=heading)
        dt = 0.1
        cloud = sample_trajectories(s0, limits, horizon=1.0, dt=dt, n=200, seed=1)
        acc = cloud.states[4:, :, 4:6]
        jerk = (acc[:, 1:] - acc[:, :-1]) / dt
        for axis, col in (("x", 0), ("y", 1)):
            lim = axis_limits(limits, heading, axis)
            j = jerk[:, :, col]
            assert j.min() >= lim.j_lo - 1e-9 and j.max() <= lim.j_hi + 1e-9
            span = lim.j_hi - lim.j_lo
            assert j.min() <= lim.j_lo + 0.01 * span
            assert j.max() >= lim.j_hi - 0.01 * span


def test_sampling_zero_limits_coast():
    zero = KinematicLimits(v_max=0, a_fwd_max=0, a_brk_max=0, a_lat_left_max=0,
                           a_lat_right_max=0, j_fwd_max=0, j_bwd_max=0,
                           j_lat_max=0, v_lat_max=0)
    cloud = sample_trajectories(state(vx=0.0), zero, horizon=1.0, dt=0.1,
                                n=20, seed=0)
    assert np.allclose(cloud.states, cloud.states[0:1])
    assert np.allclose(cloud.states[:, :, 0], 0.0)


def test_analytic_bounds_tau_zero():
    lim = axis_limits(SV_LIMITS, 1, "x")
    (p_lo, p_hi), (v_lo, v_hi) = analytic_1d_bounds(3.0, 12.0, -1.0, lim, 0.0)
    assert (p_lo, p_hi) == (3.0, 3.0)
    assert (v_lo, v_hi) == (12.0, 12.0)


def test_analytic_bounds_speed_cap_binds():
    lim = axis_limits(SV_LIMITS, 1, "x")
    (_, p_hi), (_, v_hi) = analytic_1d_bounds(0.0, 20.0, 0.0, lim, 0.5)
    assert v_hi == 20.0
    assert p_hi == pytest.approx(10.0)


def test_analytic_bounds_braking_case():
    # jerk -30 saturates deceleration at -8 after 4/15 s, then constant.
    lim = axis_limits(SV_LIMITS, 1, "x")
    (p_lo, _), (v_lo, _) = analytic_1d_bounds(0.0, 20.0, 0.0, lim, 0.5)
    t_a = 8.0 / 30.0
    v_at_ta = 20.0 - 15.0 * t_a**2
    p_phase1 = 20.0 * t_a - 5.0 * t_a**3
    rem = 0.5 - t_a
    p_phase2 = v_at_ta * rem - 4.0 * rem**2
    assert v_lo == pytest.approx(v_at_ta - 8.0 * rem, abs=1e-9)
    assert p_lo == pytest.approx(p_phase1 + p_phase2, abs=1e-9)
    assert p_lo == pytest.approx(9.4385, abs=2e-4)


def test_analytic_bounds_against_fine_integration():
    """Independent check: tiny-step integration of the extremal controls."""
    rng = np.random.default_rng(5)
    lim = axis_limits(SV_LIMITS, 1, "x")
    for _ in range(10):
        v0 = rng.uniform(0.0, 20.0)
        a0 = rng.uniform(-8.0, 5.0)
        tau = rng.uniform(0.2, 3.0)
        (p_lo, p_hi), (v_lo, v_hi) = analytic_1d_bounds(0.0, v0, a0, lim, tau)
        for j, p_ref, v_ref in ((lim.j_hi, p_hi, v_hi), (lim.j_lo, p_lo, v_lo)):
            dt = 1e-5
            n = int(round(tau / dt))
            p, v, a = 0.0, v0, a0
            for _ in range(n):
                # midpoint-ish continuous integration of the clamped system
                a_next = min(max(a + dt * j, lim.a_lo), lim.a_hi)
                v_next = min(max(v + dt * 0.5 * (a + a_next), lim.v_lo), lim.v_hi)
                p += dt * 0.5 * (v + v_next)
                v, a = v_next, a_next
            assert p == pytest.approx(p_ref, abs=5e-3)
            assert v == pytest.approx(v_ref, abs=5e-3)


def test_analytic_bounds_bracket_samples():
    """Sampled trajectories stay inside the analytic bounds up to the
    left-endpoint Euler allowance a_max * dt * tau / 2 on position."""
    rng = np.random.default_rng(0)
    dt = 0.1
    for heading, limits in ((1, SV_LIMITS), (-1, POV_LIMITS)):
        lim_x = axis_limits(limits, heading, "x")
        lim_y = axis_limits(limits, heading, "y")
        for trial in range(15):
            s0 = state(vx=rng.uniform(lim_x.v_lo, lim_x.v_hi),
                       ax=rng.uniform(lim_x.a_lo, lim_x.a_hi),
                       vy=rng.uniform(lim_y.v_lo, lim_y.v_hi),
                       ay=rng.uniform(lim_y.a_lo, lim_y.a_hi),
                       heading_sign=heading)
            cloud = sample_trajectories(s0, limits, horizon=2.0, dt=dt,
                                        n=60, seed=trial)
            for k in range(cloud.n_steps + 1):
                tau = k * dt
                s = cloud.states[:, k]
                for col_p, col_v, lim, p0, v0, a0 in (
                        (0, 2, lim_x, s0.x, s0.vx, s0.ax),
                        (1, 3, lim_y, s0.y, s0.vy, s0.ay)):
                    (p_lo, p_hi), (v_lo, v_hi) = analytic_1d_bounds(
                        p0, v0, a0, lim, tau)
                    a_max = max(abs(lim.a_lo), abs(lim.a_hi))
                    slack = a_max * dt * tau / 2 + 1e-9
                    assert s[:, col_p].min() >= p_lo - slack
                    assert s[:, col_p].max() <= p_hi + slack
                    assert s[:, col_v].min() >= v_lo - 1e-9
                    assert s[:, col_v].max() <= v_hi + 1e-9


def test_containment_same_stepper_is_exact():
    cfg = PredictionConfig()
    for st, limits in ((state(vx=17.88, y=-1.825), SV_LIMITS),
                       (state(vx=-17.88, y=1.825, heading_sign=-1), POV_LIMITS)):
        rset = compute_reachable_set(st, limits, cfg)
        cloud = sample_trajectories(st, limits, horizon=cfg.horizon,
                                    dt=cfg.tau_step, n=500, seed=11)
        report = containment_check(cloud, rset)
        assert report.fraction == 1.0
        assert report.first_violation is None


def test_containment_negative_control():
    cfg = PredictionConfig()
    st = state(vx=17.88, y=-1.825)
    rset = compute_reachable_set(st, SV_LIMITS, cfg)
    cloud = sample_trajectories(st, SV_LIMITS, horizon=cfg.horizon,
                                dt=cfg.tau_step, n=100, seed=2)
    cloud.states[:, :, 0] += 10.0  # shift all positions forward
    report = containment_check(cloud, rset)
    assert report.fraction < 1.0
    assert report.first_violation is not None
    assert report.first_violation["reason"] == "cell unoccupied"


def test_containment_rejects_misaligned_clock():
    cfg = PredictionConfig()
    st = state(vx=10.0)
    rset = compute_reachable_set(st, SV_LIMITS, cfg)
    cloud = sample_trajectories(st, SV_LIMITS, horizon=cfg.horizon, dt=0.05,
                                n=10, seed=0)
    with pytest.raises(ValueError):
        containment_check(cloud, rset)


def test_containment_rejects_step_count_mismatch():
    """A cloud and a set of different horizons are an error, not a partial check."""
    cfg = PredictionConfig(horizon=2.0)
    s0 = state(vx=10.0)
    rset = compute_reachable_set(s0, SV_LIMITS, cfg)
    for horizon in (4.0, 1.0):
        cloud = sample_trajectories(s0, SV_LIMITS, horizon=horizon,
                                    dt=cfg.tau_step, n=10, seed=0)
        with pytest.raises(ValueError, match="step mismatch"):
            containment_check(cloud, rset)


_CAP = st.just(0.0) | st.floats(0.0, 30.0)


@st.composite
def containment_cases(draw):
    """(initial state, limits, config): random caps, heading and admissible start."""
    limits = KinematicLimits(**{name: draw(_CAP) for name in (
        "v_max", "a_fwd_max", "a_brk_max", "a_lat_left_max", "a_lat_right_max",
        "j_fwd_max", "j_bwd_max", "j_lat_max", "v_lat_max")})
    heading = draw(st.sampled_from([1, -1]))
    lim_x, lim_y = axis_limits(limits, heading, "x"), axis_limits(limits, heading, "y")

    def inside(lo, hi):
        return min(max(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), lo), hi)

    s0 = state(x=draw(st.floats(-50.0, 50.0)), y=draw(st.floats(-5.0, 5.0)),
               vx=inside(lim_x.v_lo, lim_x.v_hi), vy=inside(lim_y.v_lo, lim_y.v_hi),
               ax=inside(lim_x.a_lo, lim_x.a_hi), ay=inside(lim_y.a_lo, lim_y.a_hi),
               heading_sign=heading)
    cfg = PredictionConfig(tau_step=draw(st.sampled_from([0.05, 0.1])),
                           grid_dx=draw(st.sampled_from([0.25, 0.5])),
                           grid_dy=draw(st.sampled_from([0.25, 0.5])),
                           horizon=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
    return s0, limits, cfg


@settings(max_examples=200, deadline=None)
@given(containment_cases(), st.integers(0, 2**32 - 1))
def test_containment_exact_under_random_limits(case, seed):
    s0, limits, cfg = case
    rset = compute_reachable_set(s0, limits, cfg)
    cloud = sample_trajectories(s0, limits, horizon=cfg.horizon, dt=cfg.tau_step,
                                n=200, seed=seed)
    report = containment_check(cloud, rset)
    assert report.fraction == 1.0, report.first_violation


def test_analytic_corners_near_layer_hull():
    """Continuous-time extremal positions sit near the discrete layer hull.

    The forward-Euler recursion lags the continuous extremal by at most the
    left-endpoint position term plus the integrated velocity lag, bounded by
    dt * tau * (a_max + a_span) / 2, plus one grid cell of rasterization.
    At tau = 0.5 s this is well under the acceptance tolerance of 2 cells.
    """
    cfg = PredictionConfig()
    st = state(vx=17.88, ax=0.0, y=-1.825)
    rset = compute_reachable_set(st, SV_LIMITS, cfg)
    lim_x = axis_limits(SV_LIMITS, 1, "x")
    a_max = max(abs(lim_x.a_lo), abs(lim_x.a_hi))
    a_span = lim_x.a_hi - lim_x.a_lo
    for k in (5, 20, 40):
        tau = k * cfg.tau_step
        layer = rset.layers[k]
        (p_lo, p_hi), _ = analytic_1d_bounds(st.x, st.vx, st.ax, lim_x, tau)
        hull = layer.position_hull()[0]
        slack = cfg.tau_step * tau * (a_max + a_span) / 2 + cfg.grid_dx
        assert hull[0] <= p_lo + slack
        assert hull[1] >= p_hi - slack
        # and the discrete hull never extends past the continuous bounds by
        # more than its own rasterization cell
        assert hull[0] >= p_lo - slack - cfg.grid_dx
        assert hull[1] <= p_hi + slack + cfg.grid_dx


def test_tightness_telemetry():
    """Sampled position hull covers a healthy share of the reach-layer hull."""
    cfg = PredictionConfig()
    st = state(vx=17.88, y=-1.825)
    rset = compute_reachable_set(st, SV_LIMITS, cfg)
    cloud = sample_trajectories(st, SV_LIMITS, horizon=cfg.horizon,
                                dt=cfg.tau_step, n=3000, seed=13)
    layer = rset.layers[-1]
    s = cloud.states[:, -1]
    hull_x = layer.position_hull()[0]
    hull_y = layer.position_hull()[1]
    ratio_x = (s[:, 0].max() - s[:, 0].min()) / (hull_x[1] - hull_x[0])
    ratio_y = (s[:, 1].max() - s[:, 1].min()) / (hull_y[1] - hull_y[0])
    assert ratio_x >= 0.6
    assert ratio_y >= 0.6
