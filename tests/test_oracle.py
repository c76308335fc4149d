import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RowsCloud, bounding_box, cloud_states, world_cells
from odlisim.core import axis_limits, axis_step
from odlisim.oracle import (_SCALE_BLOCK, analytic_1d_bounds, containment_check,
                            sample_trajectories)
from odlisim.cli import main
from odlisim.engine import rollout
from odlisim.reach import ReachableSet, compute_reachable_set, drivable_area_at
from odlisim.spec import (POV_LIMITS, SV_LIMITS, KinematicLimits, PolicySpec, PredictionConfig,
                          VehicleState, make_scenario)


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
    lim_x, lim_y = axis_limits(SV_LIMITS, 1)
    corners = [(jx, jy) for jx in (lim_x.j_lo, lim_x.j_hi)
               for jy in (lim_y.j_lo, lim_y.j_hi)]
    states = cloud_states(cloud)
    for row, (jx, jy) in enumerate(corners):
        x, y, vx, vy, ax, ay = s0.x, s0.y, s0.vx, s0.vy, s0.ax, s0.ay
        for k in range(1, 11):
            x, vx, ax = axis_step(x, vx, ax, jx, lim_x, 0.1)
            y, vy, ay = axis_step(y, vy, ay, jy, lim_y, 0.1)
            assert states[row, k].tolist() == [x, y, vx, vy, ax, ay]


def test_sampling_deterministic_under_seed():
    s0 = state(vx=17.88)
    a = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=3)
    b = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=3)
    assert np.array_equal(cloud_states(a), cloud_states(b))
    c = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=4)
    assert not np.array_equal(cloud_states(a), cloud_states(c))


def test_sampling_pinned_digest():
    """A change to the random draw changes these bytes; ``oracle_report.json``
    cannot show it while containment stays 1.0."""
    s0 = state(vx=17.88, y=-1.825)
    cloud = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=50, seed=3)
    assert (hashlib.sha256(cloud_states(cloud).tobytes()).hexdigest()
            == "c74bd2dc2eaec62cee3481dd28c2ca55f5266e2a609e39effa37200a33a761b4")


def test_sampling_prefix_stable_in_n():
    s0 = state(vx=12.0, vy=0.5)
    large = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=1000, seed=9)
    for n in (1, 100):
        small = sample_trajectories(s0, SV_LIMITS, horizon=1.0, dt=0.1, n=n, seed=9)
        assert np.array_equal(cloud_states(small), cloud_states(large)[:n + 4])


# Doubles of the random stream from one step's draw to the next.
STRIDE = 2**40


def reference_states(s0, limits, horizon, dt, n, seed):
    """Trajectory-major cloud, each step's jerks drawn from a fresh generator.

    Step k's jerks are doubles [k * STRIDE, k * STRIDE + 2n) of the
    ``PCG64(seed)`` stream, x then y for each trajectory in turn.
    """
    n_steps = int(round(horizon / dt))
    lim_x, lim_y = axis_limits(limits, s0.heading_sign)
    lo = np.array([lim_x.j_lo, lim_y.j_lo])
    hi = np.array([lim_x.j_hi, lim_y.j_hi])
    drawn = []
    for k in range(n_steps):
        bits = np.random.PCG64(seed)
        bits.advance(k * STRIDE)
        drawn.append(np.random.Generator(bits).random(2 * n).reshape(n, 2))
    u = np.stack(drawn, axis=1)  # [n, n_steps, 2]
    corners = np.array([(lo[0], lo[1]), (lo[0], hi[1]), (hi[0], lo[1]), (hi[0], hi[1])])
    jerks = np.concatenate([np.broadcast_to(corners[:, None], (4, n_steps, 2)),
                            lo + (hi - lo) * u])
    states = np.empty((n + 4, n_steps + 1, 6))
    for i, row in enumerate(jerks):
        x, y, vx, vy, ax, ay = s0.x, s0.y, s0.vx, s0.vy, s0.ax, s0.ay
        states[i, 0] = (x, y, vx, vy, ax, ay)
        for k in range(n_steps):
            x, vx, ax = axis_step(x, vx, ax, row[k, 0], lim_x, dt)
            y, vy, ay = axis_step(y, vy, ay, row[k, 1], lim_y, dt)
            states[i, k + 1] = (x, y, vx, vy, ax, ay)
    return states


@pytest.mark.parametrize("n, seed", [(1, 0), (37, 21), (2 * _SCALE_BLOCK + 37, 5)])
def test_sampling_matches_per_step_stream(n, seed):
    """Every step's jerks are the doubles of its own stretch of the stream,
    also past the blocks the jerks are scaled in."""
    s0 = state(vx=15.0, ax=-1.0, vy=0.3, ay=0.2)
    cloud = sample_trajectories(s0, SV_LIMITS, horizon=0.5, dt=0.1, n=n, seed=seed)
    ref = reference_states(s0, SV_LIMITS, horizon=0.5, dt=0.1, n=n, seed=seed)
    assert np.array_equal(cloud_states(cloud), ref)


def test_sampling_memory_bound():
    """Sampling allocates no per-trajectory array: the jerks are drawn as the
    cloud is stepped.  One array of 10,000 doubles alone is 78 KiB."""
    s0 = state(vx=17.88, y=-1.825)
    sample_trajectories(s0, SV_LIMITS, horizon=4.0, dt=0.1, n=10, seed=0)
    tracemalloc.start()
    try:
        cloud = sample_trajectories(s0, SV_LIMITS, horizon=4.0, dt=0.1, n=10_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cloud.n_traj, cloud.n_steps) == (10_004, 40)
    assert peak < 64 * 2**10, peak


def test_sampling_rejects_n_past_stride():
    """Each step draws 2n doubles of a fixed stride of the stream; an n whose
    draw would run into the next step's is refused before anything is held."""
    with pytest.raises(ValueError, match=r"^n must be at most .*got 1000000000000$"):
        sample_trajectories(state(), SV_LIMITS, horizon=1.0, dt=0.1, n=10**12, seed=0)


@pytest.mark.parametrize("kw, shown", [
    (dict(dt=0.0), "0.0"), (dict(dt=-0.1), "-0.1"), (dict(dt=math.nan), "nan"),
    (dict(dt=math.inf), "inf"), (dict(horizon=-1.0), "-1.0"),
    (dict(horizon=math.nan), "nan"), (dict(horizon=math.inf), "inf")])
def test_sampling_rejects_bad_clock(kw, shown):
    args = dict(horizon=1.0, dt=0.1) | kw
    name = next(iter(kw))
    with pytest.raises(ValueError, match=f"{name} must be .*got {shown}$"):
        sample_trajectories(state(), SV_LIMITS, n=5, seed=0, **args)


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
        acc = cloud_states(cloud)[4:, :, 4:6]
        jerk = (acc[:, 1:] - acc[:, :-1]) / dt
        for col, lim in enumerate(axis_limits(limits, heading)):
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
    states = cloud_states(cloud)
    assert np.allclose(states, states[0:1])
    assert np.allclose(states[:, :, 0], 0.0)


def test_analytic_bounds_tau_zero():
    lim = axis_limits(SV_LIMITS, 1)[0]
    (p_lo, p_hi), (v_lo, v_hi) = analytic_1d_bounds(3.0, 12.0, -1.0, lim, 0.0)
    assert (p_lo, p_hi) == (3.0, 3.0)
    assert (v_lo, v_hi) == (12.0, 12.0)


def test_analytic_bounds_speed_cap_binds():
    lim = axis_limits(SV_LIMITS, 1)[0]
    (_, p_hi), (_, v_hi) = analytic_1d_bounds(0.0, 20.0, 0.0, lim, 0.5)
    assert v_hi == 20.0
    assert p_hi == pytest.approx(10.0)


def test_analytic_bounds_braking_case():
    # jerk -30 saturates deceleration at -8 after 4/15 s, then constant.
    lim = axis_limits(SV_LIMITS, 1)[0]
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
    lim = axis_limits(SV_LIMITS, 1)[0]
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
        lim_x, lim_y = axis_limits(limits, heading)
        for trial in range(15):
            s0 = state(vx=rng.uniform(lim_x.v_lo, lim_x.v_hi),
                       ax=rng.uniform(lim_x.a_lo, lim_x.a_hi),
                       vy=rng.uniform(lim_y.v_lo, lim_y.v_hi),
                       ay=rng.uniform(lim_y.a_lo, lim_y.a_hi),
                       heading_sign=heading)
            cloud = sample_trajectories(s0, limits, horizon=2.0, dt=dt,
                                        n=60, seed=trial)
            states = cloud_states(cloud)
            for k in range(cloud.n_steps + 1):
                tau = k * dt
                s = states[:, k]
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
    states = cloud_states(cloud)
    states[:, :, 0] += 10.0  # shift all positions forward
    report = containment_check(RowsCloud(cloud.t0, cloud.dt, states), rset)
    assert report.fraction < 1.0
    assert report.first_violation is not None
    assert report.first_violation["reason"] == "cell unoccupied"


def cloud_at_cells(rset, di, dj, at_edge):
    """One trajectory, at every step in the cell (di, dj) of that step's box.

    ``at_edge`` picks the box's cell index along each axis (0 or -1); di and
    dj then move the state off that cell.  Velocities and accelerations sit
    at the hull midpoints, so only the cell decides containment.
    """
    states = np.empty((1, len(rset.layers), 6))
    for k, layer in enumerate(rset.layers):
        ox, oy, (nx, ny) = bounding_box(layer)
        i = at_edge[0] % nx + di
        j = at_edge[1] % ny + dj
        xh, yh = layer.x_hull, layer.y_hull
        states[0, k] = ((ox + i + 0.5) * layer.dx, (oy + j + 0.5) * layer.dy,
                        (xh.v_lo + xh.v_hi) / 2, (yh.v_lo + yh.v_hi) / 2,
                        (xh.a_lo + xh.a_hi) / 2, (yh.a_lo + yh.a_hi) / 2)
    return RowsCloud(t0=rset.t, dt=rset.tau_step, states=states)


def test_containment_occupancy_box_edges():
    """The box's first and last rows and columns are inside; one cell past
    any side is unoccupied, with no wrap of a negative index.

    The unpruned layers are filled boxes, so a wrapped or clipped index
    would land on an occupied cell and pass.
    """
    cfg = PredictionConfig(horizon=1.0)
    rset = compute_reachable_set(state(vx=17.88, y=-1.825), SV_LIMITS, cfg)
    assert all(layer.mask.all() for layer in rset.layers)
    assert max(layer.mask.shape[0] for layer in rset.layers) > 1
    assert max(layer.mask.shape[1] for layer in rset.layers) > 1
    for edge in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        report = containment_check(cloud_at_cells(rset, 0, 0, edge), rset)
        assert report.fraction == 1.0, (edge, report.first_violation)
    for di, dj, edge in ((-1, 0, (0, 0)), (1, 0, (-1, 0)),
                         (0, -1, (0, 0)), (0, 1, (0, -1))):
        report = containment_check(cloud_at_cells(rset, di, dj, edge), rset)
        assert report.n_violations == len(rset.layers), (di, dj)
        assert report.first_violation["step"] == 0
        assert report.first_violation["reason"] == "cell unoccupied"


def reference_containment(cloud, rset):
    """State-by-state containment: (n_violations, first_violation)."""
    states = cloud_states(cloud)
    n_bad, first = 0, None
    for k, layer in enumerate(rset.layers):
        cells = world_cells(layer)
        for i, s in enumerate(states[:, k].tolist()):
            if layer.empty:
                reason = "empty layer"
            elif (math.floor(s[0] / layer.dx), math.floor(s[1] / layer.dy)) not in cells:
                reason = "cell unoccupied"
            elif not (layer.x_hull.v_lo <= s[2] <= layer.x_hull.v_hi
                      and layer.y_hull.v_lo <= s[3] <= layer.y_hull.v_hi
                      and layer.x_hull.a_lo <= s[4] <= layer.x_hull.a_hi
                      and layer.y_hull.a_lo <= s[5] <= layer.y_hull.a_hi):
                reason = "outside hull intervals"
            else:
                continue
            n_bad += 1
            if first is None:
                first = {"step": k, "trajectory": 0, "reason": reason}
                if not layer.empty:
                    first.update(trajectory=i, state=s)
    return n_bad, first


def test_containment_matches_state_by_state_reference():
    """Perturbed clouds miss cells and hull intervals in a known mix."""
    cfg = PredictionConfig(horizon=1.0)
    s0 = state(vx=17.88, y=-1.825)
    rset = compute_reachable_set(s0, SV_LIMITS, cfg)
    rng = np.random.default_rng(7)
    for col, scale in ((0, 1.0), (1, 0.5), (2, 0.3), (3, 0.3), (4, 2.0), (5, 1.0)):
        states = cloud_states(sample_trajectories(s0, SV_LIMITS, horizon=cfg.horizon,
                                                  dt=cfg.tau_step, n=300, seed=col))
        states[:, :, col] += scale * rng.standard_normal(states.shape[:2])
        cloud = RowsCloud(s0.t, cfg.tau_step, states)
        report = containment_check(cloud, rset)
        n_bad, first = reference_containment(cloud, rset)
        assert 0 < n_bad < states.shape[0] * len(rset.layers)
        assert (report.n_violations, report.first_violation) == (n_bad, first)
        assert report.n_checked == states.shape[0] * len(rset.layers)
        assert report.fraction == 1.0 - n_bad / report.n_checked
    empty = compute_reachable_set(s0, SV_LIMITS, cfg)
    empty.layers[3] = replace(empty.layers[3], x_hull=None, y_hull=None, rects=())
    cloud = sample_trajectories(s0, SV_LIMITS, horizon=cfg.horizon,
                                dt=cfg.tau_step, n=50, seed=0)
    report = containment_check(cloud, empty)
    assert (report.n_violations, report.first_violation) == reference_containment(cloud, empty)


def test_containment_on_multi_rectangle_layers():
    """Layers of many rectangles: the pruned SV layers of an IL +0.9 drivable area,
    which overlap, and hand-made nested, duplicate and disjoint rectangles."""
    cfg = PredictionConfig()
    log = rollout(make_scenario(0.9), PolicySpec(kind="no-response"))
    i = log.index_at(3.0)
    area, _ = drivable_area_at(log, i, cfg)
    s0 = log.sv_state(i)
    pruned = ReachableSet(t=s0.t, tau_step=cfg.tau_step, layers=area.layers)
    assert max(len(layer.rects) for layer in pruned.layers) > 10
    assert any(max(a[0], b[0]) < min(a[1], b[1]) and max(a[2], b[2]) < min(a[3], b[3])
               for layer in pruned.layers for a in layer.rects for b in layer.rects
               if a != b)

    hand_made = compute_reachable_set(s0, SV_LIMITS, cfg)
    for k, layer in enumerate(hand_made.layers):
        (i0, i1, j0, j1), = layer.rects
        mid = i0 + max((i1 - i0) // 2, 1)  # column mid is in no rectangle
        rects = [(i0, mid, j0, j1), (i0, mid, j0, j1), (i0, i0 + 1, j0, j0 + 1),
                 (mid + 1, i1, j0, j1)]
        hand_made.layers[k] = replace(layer, rects=tuple(r for r in rects if r[0] < r[1]))
    assert max(len(layer.rects) for layer in hand_made.layers) == 4

    cloud = sample_trajectories(s0, SV_LIMITS, horizon=cfg.horizon, dt=cfg.tau_step,
                                n=300, seed=3)
    for rset in (pruned, hand_made):
        report = containment_check(cloud, rset)
        assert (report.n_violations, report.first_violation) == reference_containment(cloud,
                                                                                      rset)
        assert 0.0 < report.fraction < 1.0


def test_streamed_check_holds_one_step():
    """Checking a sampled cloud holds one step's jerks and rows, never all its jerks.

    The states of this cloud alone are 19.7 MB, and all its jerks 6.4 MB.
    """
    cfg = PredictionConfig()
    s0 = state(vx=17.88, y=-1.825)
    rset = compute_reachable_set(s0, SV_LIMITS, cfg)
    n = 10_000
    containment_check(sample_trajectories(s0, SV_LIMITS, horizon=cfg.horizon,
                                          dt=cfg.tau_step, n=10, seed=0), rset)
    tracemalloc.start()
    try:
        report = containment_check(sample_trajectories(s0, SV_LIMITS, horizon=cfg.horizon,
                                                       dt=cfg.tau_step, n=n, seed=0), rset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.fraction == 1.0
    assert peak <= 2.5 * 2**20, peak / 2**20


def test_streamed_check_matches_materialized_states():
    """Misses at several steps, a rectangle removed and hulls shrunk, read the
    same from the stepped cloud as from its states, first violation included."""
    cfg = PredictionConfig(horizon=2.0)
    s0 = state(vx=15.0, vy=0.4, ax=-1.0)
    whole = compute_reachable_set(s0, SV_LIMITS, cfg)

    def cut(k, layer):
        if k == 6:  # the box split in four, one quarter removed
            (i0, i1, j0, j1), = layer.rects
            im, jm = (i0 + i1) // 2, (j0 + j1) // 2
            return replace(layer, rects=((i0, im, j0, j1), (im, i1, j0, jm)))
        if k == 11:  # a velocity interval shrunk
            xh = layer.x_hull
            return replace(layer, x_hull=replace(xh, v_hi=(xh.v_lo + xh.v_hi) / 2))
        if k == 17:  # an acceleration interval shrunk
            yh = layer.y_hull
            return replace(layer, y_hull=replace(yh, a_lo=(yh.a_lo + yh.a_hi) / 2))
        return layer

    def cut_at(steps):
        return replace(whole, layers=[cut(k, layer) if k in steps else layer
                                      for k, layer in enumerate(whole.layers)])

    def sampled():
        return sample_trajectories(s0, SV_LIMITS, horizon=cfg.horizon, dt=cfg.tau_step,
                                   n=400, seed=17)

    rset = cut_at({6, 11, 17})
    streamed = containment_check(sampled(), rset)
    explicit = RowsCloud(t0=s0.t, dt=cfg.tau_step, states=cloud_states(sampled()))
    assert containment_check(explicit, rset) == streamed

    assert (streamed.n_violations, streamed.first_violation) == reference_containment(
        explicit, rset)
    assert streamed.first_violation["step"] == 6
    assert streamed.first_violation["reason"] == "cell unoccupied"
    per_step = [containment_check(sampled(), cut_at({k})).n_violations for k in (6, 11, 17)]
    assert all(per_step) and sum(per_step) == streamed.n_violations


@pytest.mark.parametrize("il", [-0.8, 0.0, 0.9])
def test_oracle_verify_pov_anchors_contained(tmp_path, il):
    """``oracle_report.json`` reads the same at every IL, so it cannot show
    which states were checked; here the POV anchor states of the default
    check (5 anchors, 2000 trajectories) each report 1.0 at each IL."""
    cfg_path = tmp_path / "config.json"
    assert main(["scenario", "gen", "--il", str(il), "--out", str(cfg_path)]) == 0
    assert main(["oracle", "verify", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--n", "2000", "--anchors", "5"]) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    pov = [e for e in report if e["vehicle"] == "pov"]
    assert len(pov) == 5
    assert all(e["fraction"] == 1.0 and e["n_checked"] == 2004 * 41 for e in pov)


def test_streamed_check_matches_reference_on_narrowed_pov_layer():
    """A POV anchor state of IL +0.9 against its set with one layer's lateral
    velocity interval halved: the stepped cloud misses what its states miss."""
    cfg = PredictionConfig()
    log = rollout(make_scenario(0.9), PolicySpec(kind="no-response"))
    s0 = log.pov_state(log.index_at(3.0))
    rset = compute_reachable_set(s0, POV_LIMITS, cfg)
    yh = rset.layers[12].y_hull
    rset.layers[12] = replace(rset.layers[12], y_hull=replace(yh, v_hi=(yh.v_lo + yh.v_hi) / 2))
    cloud = sample_trajectories(s0, POV_LIMITS, horizon=cfg.horizon, dt=cfg.tau_step,
                                n=500, seed=4)
    report = containment_check(cloud, rset)
    n_bad, first = reference_containment(cloud, rset)
    assert 0 < n_bad < cloud.n_traj
    assert (report.n_violations, report.first_violation) == (n_bad, first)
    assert first["step"] == 12 and first["reason"] == "outside hull intervals"


def test_oracle_verify_holds_less_than_one_cloud(tmp_path):
    """The handler holds no cloud's states, and no check's samples while it
    draws the next: its traced peak stays under one cloud's states."""
    cfg_path = tmp_path / "config.json"
    assert main(["scenario", "gen", "--out", str(cfg_path)]) == 0
    argv = ["oracle", "verify", "--config", str(cfg_path), "--out", str(tmp_path),
            "--anchors", "1"]
    assert main(argv + ["--n", "10"]) == 0
    n = 10_000
    tracemalloc.start()
    try:
        assert main(argv + ["--n", str(n)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_steps = PredictionConfig().n_steps
    states_bytes = (n + 4) * (n_steps + 1) * 6 * 8
    assert peak < states_bytes, (peak / 2**20, states_bytes / 2**20)


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
    lim_x, lim_y = axis_limits(limits, heading)

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


_ZERO_CAPS = dict.fromkeys(("v_max", "a_fwd_max", "a_brk_max", "a_lat_left_max",
                            "a_lat_right_max", "j_fwd_max", "j_bwd_max", "j_lat_max",
                            "v_lat_max"), 0.0)


@pytest.mark.parametrize("s0, caps, cfg", [
    # fl(-1.4e-306 + 0.25) = 0.25: cell -1 moves to cell 1, not to cell 0
    (state(x=-1.422054314149637e-306, vx=5.0), dict(v_max=5.0),
     dict(grid_dx=0.25, tau_step=0.05, horizon=0.5)),
    # fl(-5.41e-107 - 0.75) = -0.75: cell -1 moves to cell -3, not to cell -4
    (state(vx=0.0, y=-5.41e-107, vy=-15.0), dict(v_lat_max=15.0),
     dict(grid_dy=0.25, tau_step=0.05, horizon=0.1)),
    # a cell edge and its shifted edge straddle 64: fl(nextafter(64, -inf) + 2) = 66
    (state(x=math.nextafter(64.0, -math.inf), vx=20.0), dict(v_max=20.0),
     dict(grid_dx=0.25, tau_step=0.1, horizon=0.5)),
], ids=["tiny-x", "tiny-y", "straddle-64"])
def test_containment_exact_under_rounding(s0, caps, cfg):
    """A cell shift that rounding carries past the exact shift range keeps the state."""
    limits = KinematicLimits(**{**_ZERO_CAPS, **caps})
    cfg = PredictionConfig(**cfg)
    rset = compute_reachable_set(s0, limits, cfg)
    assert not any(layer.empty for layer in rset.layers)
    cloud = sample_trajectories(s0, limits, horizon=cfg.horizon, dt=cfg.tau_step,
                                n=5, seed=0)
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
    lim_x = axis_limits(SV_LIMITS, 1)[0]
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
    s = cloud_states(cloud)[:, -1]
    hull_x = layer.position_hull()[0]
    hull_y = layer.position_hull()[1]
    ratio_x = (s[:, 0].max() - s[:, 0].min()) / (hull_x[1] - hull_x[0])
    ratio_y = (s[:, 1].max() - s[:, 1].min()) / (hull_y[1] - hull_y[0])
    assert ratio_x >= 0.6
    assert ratio_y >= 0.6
