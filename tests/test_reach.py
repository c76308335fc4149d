import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (bounding_box, make_layer, make_log, make_timeline, rect_cells,
                      world_cells)
from odlisim import reach, spec
from odlisim.core import axis_limits, axis_step
from odlisim.engine import rollout, run_cohort
from odlisim.reach import (AxisInterval, Layer, aggregate_prevalence, compute_drivable_area,
                           compute_reachable_set, drivable_area_at, drivable_timeline,
                           drivable_timelines, pov_occupancy, propagate_step)
from odlisim.responses import AnalysisWindow, detect_responses, window_for
from odlisim.spec import (POV_LIMITS, SV_LIMITS, KinematicLimits, PolicySpec, PredictionConfig,
                          RoadSpec, VehicleSpec, VehicleState, make_scenario)

CFG = PredictionConfig()
SV_PAIR, POV_PAIR = axis_limits(SV_LIMITS, 1), axis_limits(POV_LIMITS, -1)


def sv_state(**kw):
    base = dict(t=0.0, x=0.0, y=-1.825, vx=17.88, vy=0.0, ax=0.0, ay=0.0,
                heading_sign=1)
    base.update(kw)
    return VehicleState(**base)


def pov_state(**kw):
    base = dict(t=0.0, x=100.0, y=1.825, vx=-17.88, vy=0.0, ax=0.0, ay=0.0,
                heading_sign=-1)
    base.update(kw)
    return VehicleState(**base)


def single_cell_layer(ix=0, iy=0, dx=0.5, dy=0.25, hull_v=(0.0, 0.0), hull_a=(0.0, 0.0)):
    return Layer(tau=0.0, dx=dx, dy=dy, rects=((ix, ix + 1, iy, iy + 1),),
                 x_hull=AxisInterval(ix * dx, (ix + 1) * dx, *hull_v, *hull_a),
                 y_hull=AxisInterval(iy * dy, (iy + 1) * dy, 0.0, 0.0, 0.0, 0.0))


def mask_rects(mask, ox, oy):
    """Rectangles covering the occupied cells of ``mask``, whose cell [0, 0] is world
    cell (ox, oy): each row's runs, a run extended over the next rows that repeat it."""
    rects, open_runs = [], {}  # (j0, j1) -> first row
    for i, row in enumerate([*np.asarray(mask, dtype=bool), ()]):
        edges = np.flatnonzero(np.diff(np.concatenate([[0], np.asarray(row, dtype=int), [0]])))
        runs = set(zip(edges[::2].tolist(), edges[1::2].tolist()))
        for j0, j1 in [run for run in open_runs if run not in runs]:
            rects.append((ox + open_runs.pop((j0, j1)), ox + i, oy + j0, oy + j1))
        for run in runs:
            open_runs.setdefault(run, i)
    return rects


def carved_layer(ox, oy, rows, x_hull, y_hull):
    """The layer of the occupied cells of ``rows``, whose cell [0, 0] is world cell (ox, oy)."""
    return make_layer(0.0, 0.5, 0.25, mask_rects(rows, ox, oy), x_hull, y_hull)


def emptied(layer):
    """The layer built from no rectangle."""
    return make_layer(layer.tau, layer.dx, layer.dy, [], layer.x_hull, layer.y_hull)


def clip_y(layer, y_lo, y_hi, inside):
    """The kernel's lateral clip of one layer to [y_lo, y_hi], keeping the cells fully
    inside (corridor) or intersecting (band): a batch of one member."""
    if layer.empty:
        return layer
    batch = reach._Batch.of_layers([layer], [SV_PAIR])
    batch.clip_y([np.array([b]) for b in reach._clip_bounds(y_lo, y_hi, layer.dy, inside)])
    return batch.layers(layer.tau)[0]


def pruned(layer, rect):
    """The kernel's cut of the world-cell rectangle ``rect`` from one non-empty layer."""
    batch = reach._Batch.of_layers([layer], [SV_PAIR])
    batch.cut(np.array([rect]))
    return batch.layers(layer.tau)[0]


def test_propagate_singleton_advance():
    state = VehicleState(t=0, x=0.2, y=0.1, vx=20.0, vy=0.0, ax=0.0, ay=0.0)
    layer = compute_reachable_set(state, SV_LIMITS, CFG).layers[0]
    nxt = propagate_step(layer, SV_PAIR, 0.1)
    assert nxt.x_hull.p_lo == pytest.approx(0.2 + 2.0)
    assert nxt.x_hull.p_hi == pytest.approx(0.2 + 2.0)
    assert (nxt.x_hull.a_lo, nxt.x_hull.a_hi) == (pytest.approx(-3.0), pytest.approx(1.0))
    assert (nxt.x_hull.v_lo, nxt.x_hull.v_hi) == (20.0, 20.0)


def test_propagate_zero_limits_fixed_point():
    zero = KinematicLimits(v_max=0, a_fwd_max=0, a_brk_max=0, a_lat_left_max=0,
                           a_lat_right_max=0, j_fwd_max=0, j_bwd_max=0,
                           j_lat_max=0, v_lat_max=0)
    state = VehicleState(t=0, x=1.3, y=0.4, vx=0.0, vy=0.0, ax=0.0, ay=0.0)
    layer = compute_reachable_set(state, zero, CFG).layers[0]
    nxt = propagate_step(layer, axis_limits(zero, 1), 0.1)
    assert world_cells(nxt) == world_cells(layer)
    assert nxt.x_hull.p_lo == layer.x_hull.p_lo


def test_propagate_pov_lateral_floor():
    state = pov_state()
    layer = compute_reachable_set(state, POV_LIMITS, CFG).layers[0]
    nxt = propagate_step(layer, POV_PAIR, 0.1)
    assert nxt.y_hull.a_lo == 0.0  # cannot accelerate further toward the shoulder
    assert nxt.y_hull.a_hi == pytest.approx(3.0)  # 0 + 0.1 * 30 toward its left


def test_propagate_empty_absorbs():
    layer = emptied(single_cell_layer())
    assert layer.empty and layer.mask.shape == (0, 0) and layer.y_hull is None
    layer = propagate_step(layer, SV_PAIR, 0.1)
    assert layer.empty and layer.tau == 0.1
    assert propagate_step(layer, SV_PAIR, 0.1).empty


@pytest.mark.xfail(strict=True, reason=(
    "propagate_step widens its shift ranges only at the hull's edge cells: a state "
    "strictly inside the hull at the last float below a rectangle's edge can round "
    "one cell past that rectangle's dilation"))
def test_propagate_keeps_interior_rectangle_rounding():
    """x = nextafter(64, -inf) lies in cell 255, the last of rectangle [250, 256), and
    fl(x + 0.1 * 20) = 66.0 lands in cell 264, one past the shifted [258, 264)."""
    x_hull = AxisInterval(62.5, 70.0, 20.0, 20.0, 0.0, 0.0)
    y_hull = AxisInterval(0.0, 0.2, 0.0, 0.0, 0.0, 0.0)
    layer = make_layer(0.0, 0.25, 0.25, [(250, 256, 0, 1), (270, 280, 0, 1)], x_hull, y_hull)
    x = math.nextafter(64.0, -math.inf)
    assert math.floor(x / layer.dx) == 255
    x_new, _, _ = axis_step(x, 20.0, 0.0, 0.0, SV_PAIR[0], 0.1)
    assert x_new == 66.0
    nxt = propagate_step(layer, SV_PAIR, 0.1)
    assert (264, 0) in world_cells(nxt), nxt.rects


def test_clip_y_recrops_what_it_cuts():
    """A lateral clip of a carved mask crops the columns it keeps, and empties the
    layer when they hold no cell; keeping every column keeps the mask."""
    def carved(rows):
        return carved_layer(4, 0, rows, AxisInterval(2.0, 3.0, 0.0, 0.0, 0.0, 0.0),
                            AxisInterval(0.0, 0.75, 0.0, 0.0, 0.0, 0.0))

    layer = carved([[1, 0, 0], [0, 1, 1]])
    assert len(layer.rects) == 2 and bounding_box(layer) == (4, 0, (2, 3))
    cut = clip_y(layer, 0.25, 0.5, inside=False)  # column 1 only
    assert bounding_box(cut) == (5, 1, (1, 1)) and cut.mask.tolist() == [[True]]
    assert (cut.y_hull.p_lo, cut.y_hull.p_hi) == (0.25, 0.5)
    assert clip_y(carved([[1, 0, 1], [1, 0, 1]]), 0.25, 0.5, inside=False).empty
    kept = clip_y(layer, -1.0, 0.6, inside=False)  # every column
    assert bounding_box(kept) == (4, 0, (2, 3)) and kept.mask.tolist() == layer.mask.tolist()
    assert (kept.y_hull.p_lo, kept.y_hull.p_hi) == (0.0, 0.6)


def test_occupancy_dilation_defaults():
    layer = single_cell_layer(ix=10, iy=4)
    spec = VehicleSpec(ref_offset=0.0)
    i0, i1, j0, j1 = pov_occupancy(layer, spec, spec)
    assert i0 == 10 - 9 and i1 - 1 == 10 + 9  # ceil(4.4 / 0.5) = 9
    assert j0 == 4 - 8 and j1 - 1 == 4 + 8    # ceil(1.8 / 0.25) = 8
    assert all(type(v) is int for v in (i0, i1, j0, j1))


def test_occupancy_ref_offset_shift():
    layer = single_cell_layer(ix=0, iy=0)
    i0, i1, _, _ = pov_occupancy(layer, VehicleSpec(ref_offset=0.2), VehicleSpec())
    assert i0 == -9 and i1 - 1 == 10  # band shifted +0.2 m


def test_occupancy_empty_layer():
    layer = emptied(single_cell_layer())
    i0, i1, j0, j1 = pov_occupancy(layer, VehicleSpec(), VehicleSpec())
    assert i0 >= i1 and j0 >= j1  # no cell


def test_occupancy_commutes_with_union():
    """Two boxes that tile a box dilate to rectangles tiling the box's rectangle; a
    union that is not a box is two rectangles, and its occupancy is a ValueError."""
    a, b, union = box_layer(0, 0, 3, 4), box_layer(3, 0, 5, 4), box_layer(0, 0, 8, 4)
    spec = VehicleSpec(ref_offset=0.0)

    def cells(i0, i1, j0, j1):
        return {(i, j) for i in range(i0, i1) for j in range(j0, j1)}

    got = cells(*pov_occupancy(union, spec, spec))
    assert got == cells(*pov_occupancy(a, spec, spec)) | cells(*pov_occupancy(b, spec, spec))
    # world cells (0, 0) and (30, 12) only
    rows = np.zeros((31, 13), dtype=bool)
    rows[0, 0] = rows[30, 12] = True
    apart = carved_layer(0, 0, rows, a.x_hull, a.y_hull)
    assert len(apart.rects) == 2
    with pytest.raises(ValueError, match="layer of 2 rectangles"):
        pov_occupancy(apart, spec, spec)


def test_prediction_mode_examples():
    """Normative while every POV sample so far lies within the threshold of its lane
    center, kinematic-envelope from the first one past it on, even once it is back."""
    w = RoadSpec().lane_width
    log = make_log(duration=0.04, pov={"y": [w / 2, w / 2 - 0.1, w / 2 - 0.3, w / 2, w / 2]})
    envelope = reach._latched_modes(log, [0, 1, 2, 3, 4], CFG)
    assert envelope == ["normative"] * 2 + ["kinematic-envelope"] * 3
    wide = PredictionConfig(incursion_detect_threshold=0.35)
    assert reach._latched_modes(log, [4, 2, 0], wide) == ["normative"] * 3
    assert reach._latched_modes(make_log(duration=0.04), [4], CFG) == ["normative"]


def test_drivable_area_pov_far_away():
    road = RoadSpec()
    far_pov = pov_state(x=500.0)  # beyond any 4 s interaction
    area = compute_drivable_area(sv_state(), far_pov, CFG, road,
                                 VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                 mode="kinematic-envelope")
    assert area.exists
    cfg_off = PredictionConfig(road_pruning="off")
    area_off = compute_drivable_area(sv_state(), far_pov, cfg_off, road,
                                     VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                     mode="kinematic-envelope")
    unpruned = compute_reachable_set(sv_state(), SV_LIMITS, cfg_off)
    for pruned, raw in zip(area_off.layers, unpruned.layers):
        assert world_cells(pruned) == world_cells(raw)


def test_nested_horizons():
    cfg4 = PredictionConfig(horizon=4.0)
    cfg2 = PredictionConfig(horizon=2.0)
    area4 = compute_drivable_area(sv_state(), pov_state(), cfg4, RoadSpec(),
                                  VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                  mode="normative")
    area2 = compute_drivable_area(sv_state(), pov_state(), cfg2, RoadSpec(),
                                  VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                  mode="normative")
    for k, layer2 in enumerate(area2.layers):
        assert world_cells(layer2) == world_cells(area4.layers[k])


def test_empty_layer_absorption_in_drivable_area():
    # POV heading straight at the SV from close range: the area collapses.
    close = pov_state(x=25.0, y=-1.825, vy=0.0)
    area = compute_drivable_area(sv_state(), close, CFG, RoadSpec(),
                                 VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                 mode="kinematic-envelope")
    empties = [layer.empty for layer in area.layers]
    if any(empties):
        first = empties.index(True)
        assert all(empties[first:])
        assert not area.exists


def test_monotone_pov_limits_shrink_drivable_area():
    widened = KinematicLimits(a_lat_left_max=4.0, a_lat_right_max=2.0)
    mid = pov_state(x=60.0, y=0.3, vy=-0.8)
    base = compute_drivable_area(sv_state(), mid, CFG, RoadSpec(),
                                 VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                 mode="kinematic-envelope")
    cfg_wide = PredictionConfig(pov_limits=widened)
    wide = compute_drivable_area(sv_state(), mid, cfg_wide, RoadSpec(),
                                 VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                 mode="kinematic-envelope")
    for lw, lb in zip(wide.layers, base.layers):
        assert world_cells(lw) <= world_cells(lb)


def test_grid_refinement_shrinks_overapproximation():
    # Holds for the raw reachable sets: the continuous hull is resolution
    # independent, so a finer raster can only move cell edges inward.  The
    # pruned drivable area has no such guarantee (a surviving channel can
    # flip from dead to alive when occupancy tightens).
    fine_cfg = PredictionConfig(grid_dx=0.25, grid_dy=0.125)
    for state, limits in ((sv_state(), SV_LIMITS),
                          (pov_state(y=0.3, vy=-0.8), POV_LIMITS)):
        coarse = compute_reachable_set(state, limits, CFG)
        fine = compute_reachable_set(state, limits, fine_cfg)
        for lf, lc in zip(fine.layers, coarse.layers):
            hf, hc = lf.position_hull(), lc.position_hull()
            assert hf is not None and hc is not None
            assert hf[0][0] >= hc[0][0] - CFG.grid_dx
            assert hf[0][1] <= hc[0][1] + CFG.grid_dx
            assert hf[1][0] >= hc[1][0] - CFG.grid_dy
            assert hf[1][1] <= hc[1][1] + CFG.grid_dy


def test_normative_mode_protects_own_lane_only():
    area = compute_drivable_area(sv_state(), pov_state(x=100.0), CFG, RoadSpec(),
                                 VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                 mode="normative")
    assert area.exists
    # POV layers stay confined to its lane band
    for layer in area.pov_layers:
        if layer.empty:
            continue
        hull = layer.position_hull()
        assert hull[1][0] >= 0.9 - CFG.grid_dy - 1e-9
        assert hull[1][1] <= 3.65 - 0.9 + CFG.grid_dy + 1e-9


def test_drivable_layers_subset_of_reachable():
    mid = pov_state(x=60.0, y=0.3, vy=-0.8)
    area = compute_drivable_area(sv_state(), mid, CFG, RoadSpec(),
                                 VehicleSpec(), VehicleSpec(ref_offset=0.2),
                                 mode="kinematic-envelope")
    raw = compute_reachable_set(sv_state(), SV_LIMITS, CFG)
    for pruned, full in zip(area.layers, raw.layers):
        assert world_cells(pruned) <= world_cells(full)


def test_pov_layers_bounded_by_current_drift():
    """With zero right-lateral acceleration, the POV's layers never extend
    toward -y beyond its current lateral velocity integrated forward."""
    st = pov_state(y=0.5, vy=-0.9)
    rset = compute_reachable_set(st, POV_LIMITS, CFG)
    for k, layer in enumerate(rset.layers):
        tau = k * CFG.tau_step
        assert layer.y_hull.p_lo >= st.y + st.vy * tau - 1e-9
        hull = layer.position_hull()
        assert hull[1][0] >= st.y + st.vy * tau - CFG.grid_dy - 1e-9


def test_reachable_sets_in_one_batch_match_each_alone():
    """Unpruned sets stepped as members of one batch equal each set stepped alone:
    an SV, a drifting POV at another time, and an SV whose cell edges round."""
    states = [sv_state(), pov_state(t=1.5, y=0.5, vy=-0.9),
              sv_state(x=math.nextafter(64.0, -math.inf), vx=20.0)]
    limits = [SV_LIMITS, POV_LIMITS, SV_LIMITS]
    assert reach.compute_reachable_sets(states, limits, CFG) == [
        compute_reachable_set(s, lim, CFG) for s, lim in zip(states, limits)]


def test_timeline_no_incursion_all_true():
    log = make_log(duration=8.0, pov={"x": lambda t: 400.0 - 17.88 * t})
    tl = drivable_timeline(log, CFG, eval_step=0.5, window=(1.4, 5.0))
    assert tl.exists.all()
    assert all(m == "normative" for m in tl.mode)


def test_drivable_area_at_latches_mode_over_past_samples():
    w = RoadSpec().lane_width
    # one POV excursion at t = 1 s, then back at its lane center
    log = make_log(pov={"y": lambda t: np.where(abs(t - 1.0) < 0.05, w / 2 - 1.0, w / 2)})
    assert drivable_area_at(log, log.index_at(0.5), CFG)[1] == "normative"
    i = log.index_at(3.0)
    area, mode = drivable_area_at(log, i, CFG)
    assert mode == "kinematic-envelope"
    ref = compute_drivable_area(log.sv_state(i), log.pov_state(i), CFG, log.scenario.road,
                                log.scenario.sv_spec, log.scenario.pov_spec,
                                mode="kinematic-envelope")
    assert [world_cells(layer) for layer in area.layers] == [
        world_cells(layer) for layer in ref.layers]


def test_timeline_medium_no_response():
    log = rollout(make_scenario(0.0), PolicySpec(kind="no-response"))
    tl = drivable_timeline(log, CFG, eval_step=0.25)
    assert tl.exists[0]
    lost = np.nonzero(~tl.exists)[0]
    assert len(lost) > 0
    assert not tl.exists[lost[0]:].any()  # never regained


def test_prevalence_degenerate_cases():
    all_true = [make_timeline(np.ones(10)) for _ in range(6)]
    prev = aggregate_prevalence(all_true, n_boot=200, seed=1)
    assert np.allclose(prev.fraction, 1.0)
    assert np.allclose(prev.ci_lo, 1.0) and np.allclose(prev.ci_hi, 1.0)

    single = aggregate_prevalence([make_timeline(np.zeros(5))], n_boot=100, seed=2)
    assert np.allclose(single.fraction, 0.0)
    assert np.allclose(single.ci_lo, single.ci_hi)


def test_prevalence_half_split():
    cohort = [make_timeline(np.full(4, i < 2)) for i in range(4)]
    prev = aggregate_prevalence(cohort, n_boot=500, seed=3)
    assert np.allclose(prev.fraction, 0.5)
    assert (prev.ci_lo <= 0.5).all() and (prev.ci_hi >= 0.5).all()


def test_prevalence_terminal_padding():
    short = make_timeline([True, True])
    long = make_timeline(np.zeros(5))
    prev = aggregate_prevalence([short, long], n_boot=100, seed=4)
    assert prev.fraction[3] == 0.5  # short run carries terminal True
    assert prev.n_extrapolated[3] == 1
    assert prev.n_extrapolated[0] == 0
    assert np.array_equal(prev.rel_t, long.rel_t)  # the longest window's clock


def test_prevalence_empty_cohort_rejected():
    with pytest.raises(ValueError):
        aggregate_prevalence([])


def test_prevalence_deterministic_under_seed():
    rng = np.random.default_rng(9)
    cohort = [make_timeline(rng.random(8) > 0.4) for _ in range(12)]
    a = aggregate_prevalence(cohort, n_boot=300, seed=7)
    b = aggregate_prevalence(cohort, n_boot=300, seed=7)
    assert np.array_equal(a.ci_lo, b.ci_lo) and np.array_equal(a.ci_hi, b.ci_hi)


# -- reference: the seed's window-wide kernels, run on windows padded so that
# they never clip; the cropped layers must hold the same world cells --

@dataclass(frozen=True)
class GridWindow:
    """World-aligned index window: local cell (i, j) is world cell (ox + i, oy + j)."""

    dx: float
    dy: float
    ox: int
    oy: int
    nx: int
    ny: int


@dataclass
class WindowLayer:
    """A layer stored the seed's way: a mask over a whole window."""

    tau: float
    window: GridWindow
    mask: np.ndarray
    x_hull: AxisInterval | None
    y_hull: AxisInterval | None

    @property
    def empty(self):
        return self.x_hull is None or not self.mask.any()


def empty_like(layer, tau):
    return WindowLayer(tau, layer.window, np.zeros_like(layer.mask), None, None)


def clip_mask_to_box(mask, window, ix_lo, ix_hi, iy_lo, iy_hi):
    """Clear cells outside the world-index box (in place, bounds inclusive)."""
    i0, i1 = max(0, ix_lo - window.ox), max(0, ix_hi + 1 - window.ox)
    j0, j1 = max(0, iy_lo - window.oy), max(0, iy_hi + 1 - window.oy)
    mask[:i0, :] = False
    mask[i1:, :] = False
    mask[:, :j0] = False
    mask[:, j1:] = False


def ref_window_for(state, limits, config, pad_cells=80):
    """Window containing every reachable position over the horizon, with a margin."""
    h = config.horizon
    lim_x, lim_y = axis_limits(limits, state.heading_sign)
    ox = math.floor((state.x + min(lim_x.v_lo, 0.0) * h) / config.grid_dx) - pad_cells
    oy = math.floor((state.y + min(lim_y.v_lo, 0.0) * h) / config.grid_dy) - pad_cells
    nx = math.floor((state.x + max(lim_x.v_hi, 0.0) * h) / config.grid_dx) + pad_cells + 1 - ox
    ny = math.floor((state.y + max(lim_y.v_hi, 0.0) * h) / config.grid_dy) + pad_cells + 1 - oy
    return GridWindow(config.grid_dx, config.grid_dy, ox, oy, nx, ny)


def ref_initial_layer(state, window):
    mask = np.zeros((window.nx, window.ny), dtype=bool)
    mask[math.floor(state.x / window.dx) - window.ox,
         math.floor(state.y / window.dy) - window.oy] = True
    return WindowLayer(0.0, window, mask,
                       AxisInterval(state.x, state.x, state.vx, state.vx, state.ax, state.ax),
                       AxisInterval(state.y, state.y, state.vy, state.vy, state.ay, state.ay))


def ref_shift_or(mask, s_lo, s_hi, axis):
    out = np.zeros_like(mask)
    n = mask.shape[axis]
    for s in range(s_lo, s_hi + 1):
        if s >= 0:
            src = slice(0, n - s) if s else slice(None)
            dst = slice(s, n) if s else slice(None)
        else:
            src = slice(-s, n)
            dst = slice(0, n + s)
        if axis == 0:
            out[dst, :] |= mask[src, :]
        else:
            out[:, dst] |= mask[:, src]
    return out


def ref_propagate_step(layer, limits, tau_step):
    if layer.empty:
        return empty_like(layer, layer.tau + tau_step)
    lim_x, lim_y = limits
    xh, yh = layer.x_hull, layer.y_hull
    px_lo, vx_lo, ax_lo = axis_step(xh.p_lo, xh.v_lo, xh.a_lo, lim_x.j_lo, lim_x, tau_step)
    px_hi, vx_hi, ax_hi = axis_step(xh.p_hi, xh.v_hi, xh.a_hi, lim_x.j_hi, lim_x, tau_step)
    py_lo, vy_lo, ay_lo = axis_step(yh.p_lo, yh.v_lo, yh.a_lo, lim_y.j_lo, lim_y, tau_step)
    py_hi, vy_hi, ay_hi = axis_step(yh.p_hi, yh.v_hi, yh.a_hi, lim_y.j_hi, lim_y, tau_step)
    w = layer.window
    ix_lo, ix_hi = math.floor(px_lo / w.dx), math.floor(px_hi / w.dx)
    iy_lo, iy_hi = math.floor(py_lo / w.dy), math.floor(py_hi / w.dy)
    # each shift range also reaches the new hull's edge cells from the old
    # hull's, which rounding of p + tau * v can put past the exact range
    mask = ref_shift_or(layer.mask,
                        min(math.floor(tau_step * xh.v_lo / w.dx),
                            ix_lo - math.floor(xh.p_lo / w.dx)),
                        max(math.ceil(tau_step * xh.v_hi / w.dx),
                            ix_hi - math.floor(xh.p_hi / w.dx)), axis=0)
    mask = ref_shift_or(mask,
                        min(math.floor(tau_step * yh.v_lo / w.dy),
                            iy_lo - math.floor(yh.p_lo / w.dy)),
                        max(math.ceil(tau_step * yh.v_hi / w.dy),
                            iy_hi - math.floor(yh.p_hi / w.dy)), axis=1)
    clip_mask_to_box(mask, w, ix_lo, ix_hi, iy_lo, iy_hi)
    return WindowLayer(layer.tau + tau_step, w, mask,
                       AxisInterval(float(px_lo), float(px_hi), float(vx_lo),
                                    float(vx_hi), float(ax_lo), float(ax_hi)),
                       AxisInterval(float(py_lo), float(py_hi), float(vy_lo),
                                    float(vy_hi), float(ay_lo), float(ay_hi)))


def ref_pov_occupancy(layer, pov_spec, sv_spec):
    w = layer.window
    if layer.empty:
        return np.zeros_like(layer.mask), w.ox, w.oy
    shift = sv_spec.ref_offset + pov_spec.ref_offset
    half_len = (sv_spec.length + pov_spec.length) / 2
    half_wid = (sv_spec.width + pov_spec.width) / 2
    sx_lo = math.floor((shift - half_len) / w.dx)
    sx_hi = math.ceil((shift + half_len) / w.dx)
    sy_lo = math.floor(-half_wid / w.dy)
    sy_hi = math.ceil(half_wid / w.dy)
    nx2 = w.nx + (sx_hi - sx_lo)
    ny2 = w.ny + (sy_hi - sy_lo)
    tmp = np.zeros((nx2, w.ny), dtype=bool)
    for s in range(sx_hi - sx_lo + 1):
        tmp[s:s + w.nx] |= layer.mask
    occ = np.zeros((nx2, ny2), dtype=bool)
    for s in range(sy_hi - sy_lo + 1):
        occ[:, s:s + w.ny] |= tmp
    return occ, w.ox + sx_lo, w.oy + sy_lo


def ref_clip_y(layer, y_lo, y_hi, inside):
    if layer.empty:
        return layer
    w = layer.window
    if inside:
        iy_min = math.ceil(y_lo / w.dy - 1e-9)
        iy_max = math.floor(y_hi / w.dy + 1e-9) - 1
    else:
        iy_min = math.floor(y_lo / w.dy)
        iy_max = math.ceil(y_hi / w.dy) - 1
    mask = layer.mask.copy()
    clip_mask_to_box(mask, w, w.ox, w.ox + w.nx - 1, iy_min, iy_max)
    yh = layer.y_hull
    new_lo, new_hi = max(yh.p_lo, y_lo), min(yh.p_hi, y_hi)
    if not mask.any() or new_lo > new_hi:
        return empty_like(layer, layer.tau)
    return WindowLayer(layer.tau, w, mask, layer.x_hull,
                       AxisInterval(new_lo, new_hi, yh.v_lo, yh.v_hi, yh.a_lo, yh.a_hi))


def ref_prune_mask(mask, ox, oy, occ, occ_ox, occ_oy):
    """Clear mask cells covered by the occupancy mask (in place, world aligned)."""
    nx, ny = mask.shape
    onx, ony = occ.shape
    i0, j0 = max(ox, occ_ox), max(oy, occ_oy)
    i1, j1 = min(ox + nx, occ_ox + onx), min(oy + ny, occ_oy + ony)
    if i0 < i1 and j0 < j1:
        mask[i0 - ox:i1 - ox, j0 - oy:j1 - oy] &= ~occ[i0 - occ_ox:i1 - occ_ox,
                                                       j0 - occ_oy:j1 - occ_oy]


def ref_drivable_area(sv, pov, config, road, sv_spec, pov_spec, mode):
    """The seed's ``compute_drivable_area`` on padded windows: (SV layers, POV layers)."""
    # a lane-keeping POV's reference point keeps its body inside its lane
    band = ((pov_spec.width / 2.0, road.width / 2.0 - pov_spec.width / 2.0)
            if mode == "normative" else None)
    sv_limits = axis_limits(config.sv_limits, sv.heading_sign)
    pov_limits = axis_limits(config.pov_limits, pov.heading_sign)
    corridor = (-road.width / 2.0 - road.shoulder_margin,
                road.width / 2.0 + road.shoulder_margin)

    def prune(sv_l, pov_l):
        if config.road_pruning == "corridor":
            sv_l = ref_clip_y(sv_l, *corridor, inside=True)
        if sv_l.empty or pov_l.empty:
            return sv_l
        mask = sv_l.mask.copy()
        ref_prune_mask(mask, sv_l.window.ox, sv_l.window.oy,
                       *ref_pov_occupancy(pov_l, pov_spec, sv_spec))
        if not mask.any():
            return empty_like(sv_l, sv_l.tau)
        return WindowLayer(sv_l.tau, sv_l.window, mask, sv_l.x_hull, sv_l.y_hull)

    pov_l = ref_initial_layer(pov, ref_window_for(pov, config.pov_limits, config))
    if band is not None:
        pov_l = ref_clip_y(pov_l, *band, inside=False)
    sv_l = prune(ref_initial_layer(sv, ref_window_for(sv, config.sv_limits, config)), pov_l)
    sv_layers, pov_layers = [sv_l], [pov_l]
    for _ in range(config.n_steps):
        pov_l = ref_propagate_step(pov_l, pov_limits, config.tau_step)
        if band is not None:
            pov_l = ref_clip_y(pov_l, *band, inside=False)
        sv_l = prune(ref_propagate_step(sv_l, sv_limits, config.tau_step), pov_l)
        sv_layers.append(sv_l)
        pov_layers.append(pov_l)
    return sv_layers, pov_layers


def assert_cropped(layer):
    """Empty iff a 0x0 mask and no hulls; otherwise every border row and column occupied."""
    m = layer.mask
    if layer.empty:
        assert m.shape == (0, 0) and layer.x_hull is None and layer.y_hull is None
    else:
        assert m.size and layer.y_hull is not None
        assert m[0].any() and m[-1].any() and m[:, 0].any() and m[:, -1].any()


def assert_matches_reference(got, want):
    """Same tau, resolution, emptiness, hulls and world cells."""
    assert_cropped(got)
    w = want.window
    assert (got.tau, got.dx, got.dy) == (want.tau, w.dx, w.dy)
    assert got.empty == want.empty
    if got.empty:
        return
    assert got.x_hull == want.x_hull and got.y_hull == want.y_hull
    # the reference never clips: its occupied cells stay off the window border
    assert not (want.mask[[0, -1]].any() or want.mask[:, [0, -1]].any())
    gx, gy, (nx, ny) = bounding_box(got)
    i0, j0 = gx - w.ox, gy - w.oy
    assert 0 <= i0 and i0 + nx <= w.nx and 0 <= j0 and j0 + ny <= w.ny
    placed = np.zeros_like(want.mask)
    placed[i0:i0 + nx, j0:j0 + ny] = got.mask
    assert np.array_equal(placed, want.mask)
    ii, jj = np.nonzero(want.mask)
    assert got.position_hull() == (((ii.min() + w.ox) * w.dx, (ii.max() + w.ox + 1) * w.dx),
                                   ((jj.min() + w.oy) * w.dy, (jj.max() + w.oy + 1) * w.dy))


KINDS = ("carved", "full", "edge")
PAD = 40  # cells; one step of a random layer shifts its mask by at most 25


def random_layer(rng, kind):
    """(cropped layer, the same layer on a window padded by PAD cells, a random heading).

    A random window holds a mask of the given kind and a random hull:
    "carved" (random cells inside a random box, never all of it), "full" (a
    filled rectangle) or "edge" (a filled or carved box touching the window
    edge, where the seed's window clipped the dilation).  Velocity ranges
    straddle zero, so shifts run in both directions, and the hull may reach
    past the window.
    """
    dx, dy = (0.5, 0.25) if rng.random() < 0.5 else (0.25, 0.125)
    nx, ny = int(rng.integers(30, 90)), int(rng.integers(8, 60))
    ox, oy = int(rng.integers(-50, 50)), int(rng.integers(-30, 30))
    i0, i1 = sorted(int(v) for v in rng.integers(0, nx, size=2))
    j0, j1 = sorted(int(v) for v in rng.integers(0, ny, size=2))
    i1, j1 = i1 + 1, j1 + 1
    if kind == "edge":
        if rng.random() < 0.5:
            i0, i1 = (0, i1) if rng.random() < 0.5 else (i0, nx)
        else:
            j0, j1 = (0, j1) if rng.random() < 0.5 else (j0, ny)
    mask = np.zeros((nx + 2 * PAD, ny + 2 * PAD), dtype=bool)
    box = mask[PAD + i0:PAD + i1, PAD + j0:PAD + j1]
    if kind == "full" or (kind == "edge" and rng.random() < 0.5):
        box[:] = True
    else:
        box[:] = rng.random(box.shape) < 0.4
        box[0, 0] = True
        if box.size > 1:
            box[-1, -1] = False

    def hull(o, n, d, v_scale):
        lo = (o + rng.uniform(-5, n + 5)) * d
        v_lo, v_hi = sorted(rng.uniform(-v_scale, v_scale, size=2))
        a_lo, a_hi = sorted(rng.uniform(-3.0, 3.0, size=2))
        return AxisInterval(lo, lo + rng.uniform(0, n * d), v_lo, v_hi, a_lo, a_hi)

    tau = 0.1 * int(rng.integers(0, 40))
    x_hull, y_hull = hull(ox, nx, dx, 30.0), hull(oy, ny, dy, 3.0)
    heading = int(rng.choice([-1, 1]))
    window = GridWindow(dx, dy, ox - PAD, oy - PAD, nx + 2 * PAD, ny + 2 * PAD)
    layer = make_layer(tau, dx, dy, mask_rects(mask, window.ox, window.oy), x_hull, y_hull)
    return layer, WindowLayer(tau, window, mask, x_hull, y_hull), heading


@pytest.mark.parametrize("kind", KINDS)
def test_propagate_matches_reference_on_random_masks(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(300):
        layer, ref, heading = random_layer(rng, kind)
        assert_matches_reference(layer, ref)
        limits = axis_limits(SV_LIMITS if rng.random() < 0.5 else POV_LIMITS, heading)
        tau_step = float(rng.choice([0.05, 0.1, 0.2]))
        assert_matches_reference(propagate_step(layer, limits, tau_step),
                                 ref_propagate_step(ref, limits, tau_step))


@pytest.mark.parametrize("kind", KINDS)
def test_pov_occupancy_matches_reference_on_random_masks(kind):
    rng = np.random.default_rng(10 + KINDS.index(kind))
    n_carved = 0
    for _ in range(300):
        layer, ref_layer, _ = random_layer(rng, kind)
        pov_spec = VehicleSpec(length=rng.uniform(3.0, 6.0), width=rng.uniform(1.5, 2.2),
                               ref_offset=rng.uniform(-1.0, 1.0))
        sv_spec = VehicleSpec(ref_offset=rng.uniform(-1.0, 1.0))
        if len(layer.rects) > 1:
            # only a box's occupancy is a rectangle; nothing prunes a POV layer
            with pytest.raises(ValueError, match="rectangles: POV layers are boxes"):
                pov_occupancy(layer, pov_spec, sv_spec)
            n_carved += 1
            continue
        i0, i1, j0, j1 = pov_occupancy(layer, pov_spec, sv_spec)
        ref, rox, roy = ref_pov_occupancy(ref_layer, pov_spec, sv_spec)
        # the rectangle holds exactly the reference's cells, in world cells
        assert rox <= i0 < i1 <= rox + ref.shape[0]
        assert roy <= j0 < j1 <= roy + ref.shape[1]
        placed = np.zeros_like(ref)
        placed[i0 - rox:i1 - rox, j0 - roy:j1 - roy] = True
        assert np.array_equal(placed, ref)
    assert (n_carved == 0) == (kind == "full")


@st.composite
def rect_lists(draw):
    """Overlapping, nested, duplicate, disjoint and empty world-cell rectangles."""
    def rect():
        i0, j0 = draw(st.integers(-20, 20)), draw(st.integers(-10, 10))
        return i0, i0 + draw(st.integers(0, 12)), j0, j0 + draw(st.integers(0, 8))

    rects = draw(st.lists(st.builds(rect), min_size=1, max_size=6))
    for i0, i1, j0, j1 in draw(st.lists(st.sampled_from(rects), max_size=3)):
        # a duplicate, or a rectangle inside one already drawn
        a, b = sorted(draw(st.integers(i0, i1)) for _ in range(2))
        c, d = sorted(draw(st.integers(j0, j1)) for _ in range(2))
        rects.append(draw(st.sampled_from([(i0, i1, j0, j1), (a, b, c, d)])))
    return draw(st.permutations(rects))


@st.composite
def rect_layers(draw):
    """(layer, the same layer on a window padded by PAD cells, its rectangles as drawn)."""
    rects = draw(rect_lists())
    assume(rect_cells(rects))
    dx, dy = draw(st.sampled_from([(0.5, 0.25), (0.25, 0.125)]))

    def hull(lo, hi, d, v_scale):
        p_lo = draw(st.floats(lo - 5, hi + 5)) * d
        v_lo, v_hi = sorted(draw(st.floats(-v_scale, v_scale)) for _ in range(2))
        a_lo, a_hi = sorted(draw(st.floats(-3.0, 3.0)) for _ in range(2))
        return AxisInterval(p_lo, p_hi=p_lo + draw(st.floats(0.0, (hi - lo) * d)),
                            v_lo=v_lo, v_hi=v_hi, a_lo=a_lo, a_hi=a_hi)

    cells = rect_cells(rects)
    ii, jj = [i for i, _ in cells], [j for _, j in cells]
    x_hull, y_hull = hull(min(ii), max(ii) + 1, dx, 30.0), hull(min(jj), max(jj) + 1, dy, 3.0)
    tau = 0.1 * draw(st.integers(0, 40))
    layer = make_layer(tau, dx, dy, rects, x_hull, y_hull)
    window = GridWindow(dx, dy, min(ii) - PAD, min(jj) - PAD,
                        max(ii) - min(ii) + 1 + 2 * PAD, max(jj) - min(jj) + 1 + 2 * PAD)
    mask = np.zeros((window.nx, window.ny), dtype=bool)
    for i, j in cells:
        mask[i - window.ox, j - window.oy] = True
    return layer, WindowLayer(tau, window, mask, x_hull, y_hull), rects


def assert_minimal(layer):
    """No rectangle of the layer is empty or inside another."""
    for n, (i0, i1, j0, j1) in enumerate(layer.rects):
        assert i0 < i1 and j0 < j1
        for m, (a0, a1, b0, b1) in enumerate(layer.rects):
            assert m == n or not (a0 <= i0 and i1 <= a1 and b0 <= j0 and j1 <= b1)


@settings(max_examples=300, deadline=None)
@given(rect_lists(), st.data())
def test_layer_rectangles_are_a_set(rects, data):
    """A layer's rectangles are a set: any order of a member's rectangles, in a batch
    beside another member, builds the same rectangles, none empty or inside another,
    holding the same world cells."""
    hull = AxisInterval(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    orders = [rects, data.draw(st.permutations(rects)), data.draw(st.permutations(rects))]
    batch = reach._Batch.of_layers([Layer(0.0, 0.5, 0.25, tuple(r), hull, hull)
                                    for r in orders], [SV_PAIR] * len(orders))
    batch.untidy = True  # raw rectangles, as a cut leaves its pieces
    layers = batch.layers(0.0)
    for layer in layers:
        assert_minimal(layer)
        assert len(set(layer.rects)) == len(layer.rects)
        assert set(layer.rects) == set(layers[0].rects)
        assert world_cells(layer) == rect_cells(rects)


@settings(max_examples=300, deadline=None)
@given(rect_layers(), st.sampled_from([axis_limits(limits, heading) for heading in (1, -1)
                                        for limits in (SV_LIMITS, POV_LIMITS)]),
       st.sampled_from([0.05, 0.1, 0.2]), st.floats(-3.0, 5.0), st.floats(0.0, 3.0),
       rect_lists())
def test_multi_rectangle_layers_match_reference(case, limits, tau_step, y_lo, y_width, cuts):
    """Propagation, both lateral clips and pruning of a layer of many rectangles hold
    the reference's cells, and building a layer keeps the cells of its rectangles."""
    layer, ref, rects = case
    assert world_cells(layer) == rect_cells(rects)
    assert_minimal(layer)
    assert_matches_reference(layer, ref)
    for got, want in [(propagate_step(layer, limits, tau_step),
                       ref_propagate_step(ref, limits, tau_step)),
                      *((clip_y(layer, y_lo, y_lo + y_width, inside),
                         ref_clip_y(ref, y_lo, y_lo + y_width, inside))
                        for inside in (True, False))]:
        assert_minimal(got)
        assert_matches_reference(got, want)
    cut = cuts[0]
    got = pruned(layer, cut)
    assert_minimal(got)
    want = ref.mask.copy()
    ref_prune_mask(want, ref.window.ox, ref.window.oy,
                   np.ones((cut[1] - cut[0], cut[3] - cut[2]), dtype=bool), cut[0], cut[2])
    assert_matches_reference(got, replace(ref, mask=want) if want.any()
                             else empty_like(ref, ref.tau))
    if not rect_cells([cut]) & world_cells(layer):
        assert got == layer


@pytest.fixture(scope="module")
def no_response_anchors():
    """(log, sample index) at four anchors of each no-response run, IL -0.8/0/+0.9."""
    out = []
    for il in (-0.8, 0.0, 0.9):
        log = rollout(make_scenario(il), PolicySpec(kind="no-response"))
        aw = window_for(log)
        out += [(log, log.index_at(float(t))) for t in np.linspace(aw.t_begin, aw.t_end, 4)]
    return out


@pytest.mark.parametrize("mode", ["normative", "kinematic-envelope"])
def test_drivable_area_matches_reference_on_real_anchors(mode, no_response_anchors):
    n_lost, most_rects = 0, 0
    for log, i in no_response_anchors:
        args = (log.sv_state(i), log.pov_state(i), CFG, log.scenario.road,
                log.scenario.sv_spec, log.scenario.pov_spec)
        full = compute_drivable_area(*args, mode=mode)
        ref_sv, ref_pov = ref_drivable_area(*args, mode=mode)
        assert full.exists == (not ref_sv[-1].empty)
        assert len(full.layers) == len(full.pov_layers) == CFG.n_steps + 1
        for got, want in zip(full.layers + full.pov_layers, ref_sv + ref_pov, strict=True):
            assert_matches_reference(got, want)
            assert holds_no_array(got)
        most_rects = max(most_rects, *(len(layer.rects) for layer in full.layers))
        n_lost += not full.exists
    assert most_rects >= 3  # the IL +0.9 anchors cut SV layers into many rectangles
    if mode == "kinematic-envelope":
        assert n_lost > 0  # some anchors lose escape, so empty layers are checked too


# -- cohort reuse: shared POV tracks, one SV pass per distinct anchor --

def mode_track(pov, mode, road, sv_spec, pov_spec):
    """A new POV track of the source the prediction ``mode`` names."""
    return reach._PovTrack(pov, *reach._pov_source(pov, mode, road, pov_spec, CFG),
                           sv_spec, pov_spec)


@pytest.fixture(scope="module")
def default_cohorts():
    """IL -> the default 20-run cohort (seed 0), as `simulate` rolls it out."""
    out = {}
    for il in (-0.8, 0.0, 0.9):
        config = spec.default_run_config(il)
        scenario, timing = spec.config_scenario(config)
        out[il] = run_cohort(scenario, spec.config_policies(config),
                             dt=config["analysis"]["dt"], seed=0,
                             delay_jitter=config["analysis"]["delay_jitter"], timing=timing)
    return out


@pytest.mark.parametrize("il", [-0.8, 0.0, 0.9])
def test_drivable_timelines_match_per_anchor_areas(il, default_cohorts):
    logs = default_cohorts[il]
    timelines = drivable_timelines([(log, None) for log in logs], CFG, eval_step=0.1)
    assert len(timelines) == len(logs)
    n_anchors = 0
    for log, tl in zip(logs, timelines):
        for k, t_anchor in enumerate(tl.t):
            area, mode = drivable_area_at(log, log.index_at(t_anchor), CFG)
            assert (tl.exists[k], tl.mode[k]) == (area.exists, mode)
        n_anchors += len(tl.t)
    assert n_anchors > 1000  # every anchor of the cohort at the default step


# Settings heavier than the defaults: twice the layers with no corridor, so SV layers
# grow wide and the POV cuts them into up to 64 rectangles; a grid twice as fine;
# twice the layers over the default horizon.
HEAVY = {"horizon-8-no-corridor": PredictionConfig(horizon=8.0, road_pruning="off"),
         "grid_dx-0.25": PredictionConfig(grid_dx=0.25),
         "tau_step-0.05": PredictionConfig(tau_step=0.05)}


@pytest.mark.parametrize("name", list(HEAVY))
@pytest.mark.parametrize("il", [-0.8, 0.0, 0.9])
def test_drivable_timelines_match_per_anchor_areas_under_heavy_settings(il, name,
                                                                      default_cohorts):
    """The one sweep of a cohort gives each anchor the ``exists`` of its own one-pass
    area, at every fifth anchor of the default step; each distinct anchor's area is
    computed once."""
    cfg, logs = HEAVY[name], default_cohorts[il]
    timelines = drivable_timelines([(log, None) for log in logs], cfg, eval_step=0.5)
    single, n_anchors = {}, 0
    for log, tl in zip(logs, timelines):
        for k, t_anchor in enumerate(tl.t):
            i = log.index_at(t_anchor)
            key = (log.sv_state(i), log.pov_state(i), tl.mode[k])
            if key not in single:
                single[key] = drivable_area_at(log, i, cfg)
            area, mode = single[key]
            assert (tl.exists[k], tl.mode[k]) == (area.exists, mode), (log.policy, t_anchor)
        n_anchors += len(tl.t)
    assert n_anchors > 200 and len(single) > 100
    assert {area.exists for area, _ in single.values()} == {True, False}
    most_rects = max(len(layer.rects) for area, _ in single.values() for layer in area.layers)
    assert most_rects >= (30 if name.startswith("horizon") else 3)


def mixed_batch():
    """Seeded SV states against two POV states in both modes: the passes of one sweep,
    each its own one-pass area to the horizon, and each pass's first empty layer."""
    rng = np.random.default_rng(5)
    road, spec = RoadSpec(), VehicleSpec()
    povs = [pov_state(), pov_state(y=0.9, vx=-17.0, vy=-1.2, ay=-0.8)]
    tracks = [mode_track(pov, mode, road, spec, spec)
              for pov in povs for mode in ("normative", "kinematic-envelope")]
    passes, areas = [], []
    for n in range(64):
        t = n % len(tracks)
        pov = tracks[t].pov_state
        sv = sv_state(x=float(pov.x - rng.uniform(2.0, 60.0)), y=float(rng.uniform(-3.5, 3.5)),
                      vx=float(rng.uniform(5.0, 20.0)), vy=float(rng.uniform(-1.0, 1.0)),
                      ax=float(rng.uniform(-2.0, 2.0)), ay=float(rng.uniform(-2.0, 2.0)))
        passes.append((sv, t, road))
        areas.append(compute_drivable_area(sv, pov, CFG, road, spec, spec,
                                           mode=("normative", "kinematic-envelope")[t % 2]))
    first_empty = [next((k for k, layer in enumerate(area.layers) if layer.empty), None)
                   for area in areas]
    return passes, tracks, areas, first_empty


def test_one_sweep_of_mixed_passes_equals_one_pass_areas():
    """One sweep holding normative and envelope tracks, and passes that empty at
    different layers (at k = 0 and 1 too), makes at every layer the very layers
    (rectangles in order, hulls, tau) of each pass's own one-pass area."""
    passes, tracks, areas, first_empty = mixed_batch()
    assert {0, 1} <= set(first_empty) and len(set(first_empty)) >= 8
    assert None in first_empty  # and some passes keep an escape to the horizon
    assert {first_empty[n] for n in range(1, 64, 2)} - {None}  # envelope passes empty
    assert {first_empty[n] for n in range(0, 64, 2)} - {None}  # normative passes empty
    sweep = reach._Sweep(passes, tracks, CFG)
    for k in range(CFG.n_steps + 1):
        if k:
            sweep.advance()
        layers = sweep.layers()
        assert len(layers) == len(tracks) + len(passes)
        for p, area in enumerate(areas):
            assert layers[len(tracks) + p] == area.layers[k], (p, k)
            assert layers[passes[p][1]] == area.pov_layers[k], (p, k)
        alive = [e is None or e > k for e in first_empty]
        assert sweep.escapes().tolist() == alive
        assert sweep.passes_left() == any(alive)


def test_one_sweep_stops_when_no_pass_is_left():
    """Timelines stop stepping at the layer where the last pass empties."""
    passes, tracks, _, first_empty = mixed_batch()
    dying = [p for p, e in enumerate(first_empty) if e is not None]
    sweep = reach._Sweep([passes[p] for p in dying], tracks, CFG)
    while sweep.k < CFG.n_steps and sweep.passes_left():
        sweep.advance()
    assert sweep.k == max(first_empty[p] for p in dying) < CFG.n_steps
    assert not sweep.escapes().any()


@pytest.mark.parametrize("horizon, first_loss", [(3.0, 2.9), (4.0, 2.3), (6.0, 1.2), (8.0, 0.7)])
def test_no_response_escape_loss_moves_with_the_horizon(horizon, first_loss):
    """Finding 1 at IL 0: the first anchor with no escape of a no-response run, after
    the trigger, as `reach timeline --eval-step 0.1 --horizon H` computes it.  A longer
    horizon loses the escape earlier, so "until when" measures the horizon."""
    config = spec.default_run_config(0.0)
    scenario, timing = spec.config_scenario(config)
    log = rollout(scenario, PolicySpec(kind="no-response"), dt=config["analysis"]["dt"],
                  timing=timing)
    window = window_for(log, config["analysis"]["window_reaction_floor"])
    cfg = replace(spec.config_prediction(config), horizon=horizon)
    timeline, = drivable_timelines([(log, (window.t_begin, window.t_end))], cfg, eval_step=0.1)
    lost = np.flatnonzero(~timeline.exists)
    assert timeline.exists[0] and len(lost)
    assert timeline.rel_t[lost[0]] == pytest.approx(first_loss, abs=1e-9)


def same_float(x, y):
    """Bit-equal for finite floats: equal values and equal signs, so 0.0 != -0.0."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@st.composite
def corner_cases(draw):
    """(limits, heading, dt, p, v, a): four hull-corner lanes on and beyond every clamp."""
    limits = draw(st.sampled_from([SV_LIMITS, POV_LIMITS, KinematicLimits(
        **{name: draw(st.sampled_from([0.0, 1.5, 6.0, 30.0]))
           for name in ("v_max", "a_fwd_max", "a_brk_max", "a_lat_left_max",
                        "a_lat_right_max", "j_fwd_max", "j_bwd_max", "j_lat_max",
                        "v_lat_max")})]))
    heading = draw(st.sampled_from([1, -1]))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2]) | st.floats(1e-3, 1.0))
    lim_x, lim_y = axis_limits(limits, heading)
    lims = [lim_x, lim_x, lim_y, lim_y]

    def value(edges):
        beyond = [np.nextafter(e, s * np.inf) for e in edges for s in (-1, 1)]
        return draw(st.sampled_from([0.0, -0.0] + edges + beyond)
                    | st.floats(-60.0, 60.0, allow_nan=False))

    p = [value([0.0]) for _ in lims]
    v = [value([lim.v_lo, lim.v_hi]) for lim in lims]
    a = [value([lim.a_lo, lim.a_hi, -lim.a_lo, -lim.a_hi]) for lim in lims]
    return limits, heading, dt, p, v, a


@settings(max_examples=300, deadline=None)
@given(corner_cases())
def test_corner_step_bit_identical_to_scalar_steps(case):
    """The kernel's corner step, all four hull corners of a batch member in one
    ``axis_step`` call under its limits and jerks as arrays, equals ``axis_step``
    called on each corner's floats and on the two lanes of an axis."""
    limits, heading, dt, p, v, a = case
    lim_x, lim_y = axis_limits(limits, heading)
    batch = reach._Batch(np.array([p, v, a]).reshape(3, 2, 2, 1), np.zeros((0, 4), dtype=int),
                         np.zeros(0, dtype=int), 0.5, 0.25, [(lim_x, lim_y)])
    corners = axis_step(*batch.hull, batch.jerk, batch.limits, dt)  # as `_Batch.step`
    for lane, (lim, side) in enumerate([(lim_x, "lo"), (lim_x, "hi"), (lim_y, "lo"),
                                        (lim_y, "hi")]):
        j = lim.j_lo if side == "lo" else lim.j_hi
        stepped = [float(c[lane // 2, lane % 2, 0]) for c in corners]
        scalar = axis_step(p[lane], v[lane], a[lane], j, lim, dt)
        pair = slice(lane - lane % 2, lane - lane % 2 + 2)
        lanes = axis_step(np.array(p[pair]), np.array(v[pair]), np.array(a[pair]),
                          np.array([lim.j_lo, lim.j_hi]), lim, dt)
        for got, want, batched in zip(stepped, scalar, lanes, strict=True):
            assert same_float(got, float(want)), (lane, got, want)
            assert same_float(got, float(batched[lane % 2])), (lane, got, batched)


# -- box layers: a completely occupied layer holds no array --

@pytest.mark.parametrize("name", ["grid_dx", "grid_dy", "tau_step", "horizon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_prediction_config_rejects_bad_resolution(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        PredictionConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
def test_prediction_config_rejects_bad_incursion_threshold(value):
    # A NaN threshold compared false forever, so envelope mode never latched.
    with pytest.raises(ValueError, match="^incursion_detect_threshold must be finite"):
        PredictionConfig(incursion_detect_threshold=value)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_timelines_reject_bad_eval_step(step):
    log = make_log()
    with pytest.raises(ValueError, match=f"^eval_step must be positive and finite, got {step}$"):
        drivable_timelines([(log, None)], CFG, eval_step=step)


def test_window_within_half_a_sample_is_covered():
    """Response detection and timelines both accept a window that starts dt/4
    before the log's first sample, as index_at's nearest-sample rule does."""
    log = make_log()
    t_begin = float(log.t[0]) - log.dt / 4
    detect_responses(log, AnalysisWindow(t_begin, t_begin + 0.2))
    timeline = drivable_timeline(log, CFG, eval_step=0.1, window=(t_begin, t_begin + 0.2))
    assert timeline.t.tolist() == [t_begin, t_begin + 0.1, t_begin + 0.2]


def test_window_a_sample_early_is_rejected_alike():
    log = make_log()
    t_begin = float(log.t[0]) - log.dt
    message = "^analysis window not covered by the log$"
    with pytest.raises(ValueError, match=message):
        detect_responses(log, AnalysisWindow(t_begin, t_begin + 0.2))
    with pytest.raises(ValueError, match=message):
        drivable_timeline(log, CFG, eval_step=0.1, window=(t_begin, t_begin + 0.2))


def box_layer(ox, oy, nx, ny):
    return Layer(0.3, 0.5, 0.25, ((ox, ox + nx, oy, oy + ny),),
                 AxisInterval(ox * 0.5, (ox + nx) * 0.5, 0.0, 0.0, 0.0, 0.0),
                 AxisInterval(oy * 0.25, (oy + ny) * 0.25, 0.0, 0.0, 0.0, 0.0))


def holds_no_array(layer):
    return not any(isinstance(v, np.ndarray) for v in vars(layer).values())


# (occupancy box (ox, oy, nx, ny), result is a box) against the layer box (10, 20, 6, 5)
PRUNE_ARRANGEMENTS = {
    "miss": ((0, 0, 4, 4), True),
    "miss-touching": ((16, 20, 3, 5), True),
    "covers": ((8, 18, 10, 9), True),
    "cut-low-x": ((7, 19, 5, 8), True),
    "cut-high-x": ((14, 18, 9, 7), True),
    "cut-low-y": ((9, 15, 8, 7), True),
    "cut-high-y": ((10, 24, 6, 1), True),
    "split-x": ((12, 17, 2, 10), False),
    "split-y": ((5, 22, 20, 1), False),
    "hole": ((12, 21, 2, 2), False),
    "corner": ((14, 23, 5, 5), False),
}


@pytest.mark.parametrize("arrangement", list(PRUNE_ARRANGEMENTS))
def test_pruned_box_against_box_matches_reference(arrangement):
    (qx, qy, qnx, qny), stays_box = PRUNE_ARRANGEMENTS[arrangement]
    layer = box_layer(10, 20, 6, 5)
    want = layer.mask.copy()
    ox, oy, _ = bounding_box(layer)
    ref_prune_mask(want, ox, oy, np.ones((qnx, qny), dtype=bool), qx, qy)
    got = pruned(layer, (qx, qx + qnx, qy, qy + qny))
    assert_cropped(got)
    assert holds_no_array(got) and (len(got.rects) <= 1) == stays_box
    assert got.empty == (not want.any())
    assert world_cells(got) == {(int(i) + ox, int(j) + oy)
                                 for i, j in zip(*np.nonzero(want))}
    if not got.empty:
        assert (got.tau, got.x_hull, got.y_hull) == (layer.tau, layer.x_hull, layer.y_hull)
    if arrangement.startswith("miss"):
        assert got == layer


def hull_inside(inner, outer):
    """Each of the inner hull's position, velocity and acceleration ranges lies in the outer's."""
    return all(getattr(outer, f + "_lo") <= getattr(inner, f + "_lo")
               and getattr(inner, f + "_hi") <= getattr(outer, f + "_hi") for f in "pva")


@pytest.mark.parametrize("il", [-1.0, -0.8, 0.0, 0.9, 1.0])
@pytest.mark.parametrize("mode", ["normative", "kinematic-envelope"])
def test_pov_track_holds_only_boxes(il, mode):
    """Nothing prunes the POV, so every layer of a POV track out to the horizon is a
    box and its occupancy a rectangle: the invariant ``pov_occupancy`` rests on.

    At IL -0.8, 0 and +0.9 this holds too for a source ``KinematicLimits`` cannot
    state: the POV returning toward its own lane at 2-4 m/s^2, clipped to the mode's
    band.  Its hulls lie inside those of the mode's own track at every k, as the
    clamps are monotone: the raised floor lifts only low corners, since every high
    corner starts at ay > 2 - tau_step * j_lat_max and then rises toward 4.
    """
    log = rollout(make_scenario(il), PolicySpec(kind="no-response"))
    sc = log.scenario
    for i in range(0, len(log.t), 10):  # every 0.1 s of the log
        pov = log.pov_state(i)
        (lx, ly), band = reach._pov_source(pov, mode, sc.road, sc.pov_spec, CFG)
        tracks = [reach._PovTrack(pov, (lx, ly), band, sc.sv_spec, sc.pov_spec)]
        if il in (-0.8, 0.0, 0.9):
            assert pov.ay + CFG.tau_step * ly.j_hi > 2.0
            tracks.append(reach._PovTrack(pov, (lx, replace(ly, a_lo=2.0)), band,
                                          sc.sv_spec, sc.pov_spec))
        sweep = reach._Sweep([], tracks, CFG)
        for k in range(CFG.n_steps + 1):
            if k:
                sweep.advance()
            layers = sweep.layers()
            for layer in layers:
                assert len(layer.rects) == 1 or layer.empty, (i, k)
                i0, i1, j0, j1 = pov_occupancy(layer, sc.pov_spec, sc.sv_spec)
                assert layer.empty or (i0 < i1 and j0 < j1)
            if len(tracks) == 2:
                mode_l, ret_l = layers
                assert ret_l.empty or not mode_l.empty and (
                    hull_inside(ret_l.x_hull, mode_l.x_hull)
                    and hull_inside(ret_l.y_hull, mode_l.y_hull)), (i, k)


def test_reachable_set_from_a_point_holds_only_boxes():
    rset = compute_reachable_set(sv_state(), SV_LIMITS, CFG)
    assert len(rset.layers) == CFG.n_steps + 1
    assert all(holds_no_array(layer) and len(layer.rects) == 1 for layer in rset.layers)
    last = rset.layers[-1]
    _, _, shape = bounding_box(last)
    assert min(shape) > 1
    mask = last.mask
    assert mask.dtype == bool and mask.shape == shape and mask.all()
    assert holds_no_array(last)  # reading builds an array, the layer keeps none
    moved = replace(last, tau=9.0)
    assert holds_no_array(moved) and (moved.rects, moved.tau) == (last.rects, 9.0)


def test_filled_mask_becomes_a_box():
    layer = single_cell_layer()
    assert holds_no_array(layer) and bounding_box(layer)[2] == (1, 1)
    with pytest.raises(AttributeError):
        layer.mask = np.ones((1, 1), dtype=bool)  # read-only: a layer is built, not edited
    hulls = (layer.x_hull, layer.y_hull)
    carved = carved_layer(0, 0, [[1, 0], [1, 1]], *hulls)
    assert len(carved.rects) == 2 and bounding_box(carved)[2] == (2, 2)
    assert carved.mask.tolist() == [[True, False], [True, True]]
    # a box given with a piece inside it, a duplicate and an empty rectangle
    filled = make_layer(0.0, 0.5, 0.25, [(1, 2, 0, 1), (0, 3, 0, 2), (0, 3, 0, 2),
                                         (5, 5, 0, 9)], *hulls)
    assert filled.rects == ((0, 3, 0, 2),)


def test_carved_layer_whose_dilation_fills_its_box_is_a_box():
    """The dilation fills the box in cells, as two rectangles: the kernel does not merge."""
    carved = carved_layer(4, 0, [[1, 0, 1]], AxisInterval(2.0, 2.4, 0.0, 0.0, 0.0, 0.0),
                          AxisInterval(0.0, 0.75, 0.0, 2.0, 0.0, 0.0))
    assert len(carved.rects) == 2
    nxt = propagate_step(carved, SV_PAIR, 0.1)  # lateral shifts 0 and 1 fill the gap
    assert holds_no_array(nxt) and nxt.mask.all()
    assert bounding_box(nxt) == (4, 0, (1, 4))
    want = propagate_step(replace(carved, rects=((4, 5, 0, 3),)), SV_PAIR, 0.1)
    assert want.rects == ((4, 5, 0, 4),) and world_cells(want) == world_cells(nxt)
    assert (want.x_hull, want.y_hull) == (nxt.x_hull, nxt.y_hull)
