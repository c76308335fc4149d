"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with `pytest -s` to see them
live).  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from odlisim import spec
from odlisim.cli import main as cli_main
from odlisim.core import axis_limits
from odlisim.engine import classify_outcome, rollout, run_cohort
from odlisim.oracle import analytic_1d_bounds, containment_check, sample_trajectories
from odlisim.reach import (aggregate_prevalence, compute_reachable_set, drivable_area_at,
                           drivable_timeline, propagate_step)
from odlisim.responses import (AnalysisWindow, build_sequence_graph,
                               detect_responses, response_times, window_for)
from odlisim.scenario import IncursionPath, reference_lateral_at_tc
from odlisim.spec import SV_LIMITS, PolicySpec, PredictionConfig, default_timing, make_scenario

from conftest import make_log, make_timeline, world_cells

ILS = {"steep": -0.8, "medium": 0.0, "shallow": 0.9}
DT = 0.01


def report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {n:2d}] {label}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"acceptance {n} failed: {label} {detail}"


def no_response_log(il):
    scenario = make_scenario(il)
    timing = default_timing(scenario)
    return rollout(scenario, PolicySpec(kind="no-response"), dt=DT, timing=timing)


def test_criterion_1_collision_by_design():
    details = []
    ok = True
    for name, il in ILS.items():
        log = no_response_log(il)
        t_c = log.timing.t_critical
        hit = log.collided and abs(log.t_collision - t_c) <= 2 * DT + 1e-12
        ok &= hit
        details.append(f"{name}: t_col-t_C={log.t_collision - t_c:+.3f}s")
    report(1, "collision-by-design within ±2 steps of t_C", ok, "; ".join(details))


def test_criterion_2_incursion_level_geometry():
    ok = True
    worst = 0.0
    for il in ILS.values():
        for lane_width in (3.0, 3.65, 4.0):
            scenario = make_scenario(il)
            scenario = type(scenario)(**{**scenario.__dict__,
                                         "road": type(scenario.road)(lane_width=lane_width)})
            timing = default_timing(scenario)
            path = IncursionPath(scenario, timing)
            y_tc = path.state(timing.t_critical)[0]
            want = reference_lateral_at_tc(il, lane_width)
            err = abs(y_tc - want)
            worst = max(worst, err)
            ok &= err < 0.01
    report(2, "y_pov(t_C) = (IL-1)·W/2 within 1 cm", ok, f"worst error {worst:.2e} m")


def test_criterion_3_reachability_soundness():
    cfg = PredictionConfig()
    n = 10_000
    t0 = time.perf_counter()
    worst = 1.0
    checks = 0
    for il in ILS.values():
        log = no_response_log(il)
        w = window_for(log)
        for t_anchor in np.linspace(w.t_begin, w.t_end, 5):
            i = log.index_at(float(t_anchor))
            for state, limits in ((log.sv_state(i), cfg.sv_limits),
                                  (log.pov_state(i), cfg.pov_limits)):
                rset = compute_reachable_set(state, limits, cfg)
                cloud = sample_trajectories(state, limits, horizon=cfg.horizon,
                                            dt=cfg.tau_step, n=n, seed=0)
                rep = containment_check(cloud, rset)
                worst = min(worst, rep.fraction)
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 1.0 and elapsed < 300.0
    report(3, "containment 1.0 over 10k trajectories × 5 anchors × 3 ILs × 2 vehicles",
           ok, f"worst fraction {worst}, {checks} checks in {elapsed:.0f}s")


def test_criterion_4_1d_oracle_agreement():
    cfg = PredictionConfig()
    lim_x = axis_limits(SV_LIMITS, 1)[0]
    (p_lo, p_hi), _ = analytic_1d_bounds(0.0, 20.0, 0.0, lim_x, 0.5)
    # Re-derived: braking side 9.4385 m; accelerating side capped at v_max,
    # 10.0 m (the jerk-up trajectory cannot exceed the 20 m/s speed cap).
    assert p_lo == pytest.approx(9.4385, abs=2e-4)
    assert p_hi == pytest.approx(10.0, abs=1e-9)

    from odlisim.spec import VehicleState
    state = VehicleState(t=0, x=0.0, y=0.0, vx=20.0, vy=0.0, ax=0.0, ay=0.0)
    layer = compute_reachable_set(state, SV_LIMITS, cfg).layers[0]
    for _ in range(5):
        layer = propagate_step(layer, axis_limits(SV_LIMITS, 1), cfg.tau_step)
    hull = layer.position_hull()[0]
    cell = cfg.grid_dx
    # Discrete forward-Euler hull covers the continuous interval to within
    # one cell per side (Euler lag) and overshoots by at most two cells.
    ok = (hull[0] <= p_lo + cell and hull[1] >= p_hi - cell
          and p_lo - hull[0] <= 2 * cell and hull[1] - p_hi <= 2 * cell)
    report(4, "grid hull at τ=0.5 s brackets analytic [9.44, 10.00] within 2 cells",
           ok, f"hull [{hull[0]:.2f}, {hull[1]:.2f}] vs [{p_lo:.4f}, {p_hi:.4f}]")


def _timeline(il, eval_step=0.1):
    log = no_response_log(il)
    cfg = PredictionConfig()
    return log, drivable_timeline(log, cfg, eval_step=eval_step)


def test_criterion_5_qualitative_reachability():
    logs = {}
    timelines = {}
    for name, il in ILS.items():
        logs[name], timelines[name] = _timeline(il)

    # (a) medium: drivable area held initially, lost, and false at every eval
    # step after the POV reference crosses the road centerline.
    log, tl = logs["medium"], timelines["medium"]
    cross_idx = np.nonzero(log.pov["y"] < 0.0)[0][0]
    t_cross = float(log.t[cross_idx])
    after = tl.t >= t_cross
    ok_a = bool(tl.exists[0]) and not tl.exists[after].any() and (~tl.exists).any()
    report(5, "(a) medium loses the drivable area for good once the POV crosses",
           ok_a, f"centerline crossing at rel {t_cross - log.timing.t_trigger:.2f}s")

    # (b) steep: exists returns true before t_E, with surviving cells on the
    # road-center side of the POV.
    log, tl = logs["steep"], timelines["steep"]
    lost = np.nonzero(~tl.exists)[0]
    regained = [k for k in range(lost[0], len(tl.exists)) if tl.exists[k]]
    ok_b = len(lost) > 0 and len(regained) > 0
    detail = ""
    if ok_b:
        k = regained[0]
        i = log.index_at(float(tl.t[k]))
        area, _ = drivable_area_at(log, i, PredictionConfig())
        y_pov = float(log.pov["y"][i])
        final = area.layers[-1]
        centers = [(iy + 0.5) * final.dy for _, iy in world_cells(final)]
        ok_b = area.exists and any(c > y_pov for c in centers)
        detail = (f"regained at rel {tl.rel_t[k]:.2f}s, "
                  f"max cell y {max(centers):.2f} vs y_pov {y_pov:.2f}")
    report(5, "(b) steep regains the area before t_E with cells center-side of the POV",
           ok_b, detail)

    # (c) the late-phase affordance appears at least 0.5 s earlier for
    # shallow than for steep (first exists=true anchor in the second half of
    # the analysis window; shallow's area never fully vanishes mid-event, so
    # its onset is the half-window start).
    def late_onset(name):
        tl = timelines[name]
        half = tl.rel_t[0] + (tl.rel_t[-1] - tl.rel_t[0]) / 2
        for k in range(len(tl.exists)):
            if tl.rel_t[k] >= half and tl.exists[k]:
                return float(tl.rel_t[k])
        return None

    t_shallow = late_onset("shallow")
    t_steep = late_onset("steep")
    ok_c = (t_shallow is not None and t_steep is not None
            and t_steep - t_shallow >= 0.5)
    report(5, "(c) shallow's late affordance appears ≥0.5 s before steep's", ok_c,
           f"shallow {t_shallow}, steep {t_steep}")


def test_criterion_6_response_detection_determinism():
    t_release, t_brake, t_steer1, t_steer2 = 1.7, 2.3, 2.9, 4.1

    def accel(t):
        return np.where(t < t_release, 40.0, 0.0)

    def brake(t):
        out = np.zeros_like(t)
        out[(t >= t_brake) & (t < 3.4)] = 30.0
        out[t >= 3.8] = 50.0  # second crossing of the same kind
        return out

    def steer(t):
        out = np.zeros_like(t)
        out[(t >= t_steer1) & (t < 3.5)] = -8.0
        out[t >= t_steer2] = 9.0
        return out

    log = make_log(dt=DT, duration=8.0,
                   controls={"accel_pct": accel, "brake_pct": brake,
                             "steer_deg": steer})
    window = AnalysisWindow(1.4, 6.0)
    events = detect_responses(log, window)
    by_kind = {}
    for e in events:
        by_kind.setdefault(e.kind, []).append(e.t)
    ok = (by_kind["accel-release"] == [pytest.approx(t_release, abs=DT / 2)]
          and by_kind["brake-onset"][0] == pytest.approx(t_brake, abs=DT / 2)
          and len(by_kind["brake-onset"]) == 2
          and by_kind["steer-shoulder"] == [pytest.approx(t_steer1, abs=DT / 2)]
          and by_kind["steer-center"] == [pytest.approx(t_steer2, abs=DT / 2)])
    rt = response_times(events, log.timing.t_trigger)
    ok = ok and rt.per_kind["brake-onset"] == pytest.approx(t_brake - 1.0, abs=DT / 2)
    report(6, "step-trace response times exact to one sample; first-of-kind only",
           ok, f"events {sorted((k, [round(x, 2) for x in v]) for k, v in by_kind.items())}")


def test_criterion_7_sequence_graph_conservation():
    scenario = make_scenario(0.0)
    timing = default_timing(scenario)
    cohort = [
        (PolicySpec(kind="no-response"), 5),
        (PolicySpec(kind="brake-only", reaction_delay=1.6, brake_level="soft"), 5),
        (PolicySpec(kind="brake-then-steer-center", reaction_delay=1.4,
                    brake_level="hard", reversal_delay=1.2, steer_target=20.0), 5),
        (PolicySpec(kind="steer-center-only", reaction_delay=1.8, steer_target=20.0), 5),
        (PolicySpec(kind="steer-shoulder-only", reaction_delay=1.3, steer_target=10.0), 5),
        (PolicySpec(kind="shoulder-then-reversal", reaction_delay=1.2,
                    reversal_delay=1.0, steer_target=10.0, reversal_target=18.0), 5),
    ]
    logs = run_cohort(scenario, cohort, dt=DT, seed=123, delay_jitter=0.25,
                      timing=timing)
    runs = [(log, window_for(log), classify_outcome(log).kind) for log in logs]
    graph = build_sequence_graph(runs)

    outcome_edges = sum(c for (a, b), c in graph.edges.items() if isinstance(b, str))
    no_self_loops = all(a != b for a, b in graph.edges)
    imbalance = graph.flow_imbalance()
    ok = (graph.n_runs == 30 and outcome_edges == 30 and no_self_loops
          and not imbalance)
    report(7, "30-run sequence graph conserves flow, no self-loops, one outcome each",
           ok, f"{sum(graph.edges.values())} edges, imbalance {imbalance}")


def test_criterion_8_outcome_classifier_offsets():
    results = {}
    y_pov = -1.825
    for dy in (0.0, 1.7, -1.7, 1.9, -1.9):
        log = make_log(dt=DT, duration=10.0,
                       sv={"y": y_pov + dy, "x": lambda t: 17.88 * t},
                       pov={"y": y_pov, "x": lambda t: 200.0 - 17.88 * t})
        results[dy] = classify_outcome(log).kind
    ok = (results[0.0] == "collision" and results[1.7] == "collision"
          and results[-1.7] == "collision"
          and results[1.9] == "pass-via-center"
          and results[-1.9] == "pass-via-shoulder")
    report(8, "width-rule outcomes at offsets {0, ±1.7, ±1.9} m", ok, str(results))


def test_criterion_9_bootstrap_coverage():
    t0 = time.perf_counter()
    p_true = 0.7
    covered = 0
    n_rep = 200
    for rep in range(n_rep):
        rng = np.random.default_rng(1000 + rep)
        cohort = [make_timeline(np.full(3, rng.random() < p_true)) for _ in range(20)]
        prev = aggregate_prevalence(cohort, n_boot=400, seed=rep)
        if prev.ci_lo[0] <= p_true <= prev.ci_hi[0]:
            covered += 1
    elapsed = time.perf_counter() - t0
    ok = covered >= 0.9 * n_rep and elapsed < 60.0
    report(9, "bootstrap 95% CI covers the true prevalence in ≥90% of replications",
           ok, f"{covered}/{n_rep} covered in {elapsed:.1f}s")


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    assert cli_main(["scenario", "gen", "--il", "0.0", "--seed", "7",
                     "--out", str(cfg_path)]) == 0
    config = spec.load_run_config(cfg_path)
    config["policies"] = [
        {"kind": "no-response", "count": 2},
        {"kind": "brake-then-steer-center", "count": 2, "reaction_delay": 1.4,
         "brake_level": "hard", "reversal_delay": 1.2, "steer_target": 20.0},
        {"kind": "steer-shoulder-only", "count": 2, "reaction_delay": 1.3,
         "steer_target": 10.0},
    ]
    config["analysis"]["eval_step"] = 0.5
    spec.save_run_config(config, cfg_path)

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["analyze", "responses", "--config", str(cfg_path),
                         "--logs", str(out), "--out", str(out)]) == 0
        assert cli_main(["analyze", "sequence", "--config", str(cfg_path),
                         "--logs", str(out), "--out", str(out)]) == 0
        assert cli_main(["reach", "aggregate", "--config", str(cfg_path),
                         "--logs", str(out), "--out", str(out)]) == 0
        outputs.append(out)

    names = sorted(p.name for p in outputs[0].iterdir())
    identical = all((outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes()
                    for n in names)
    ok = identical and len(names) >= 10
    report(10, "byte-identical pipeline outputs under fixed config + seed", ok,
           f"{len(names)} files compared")
