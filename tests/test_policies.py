import math

import numpy as np
import pytest

from odlisim.engine import rollout
from odlisim.policies import (_engage, accel_pct_to_ax, brake_pct_to_decel, decel_to_brake_pct,
                              policy_control)
from odlisim.responses import detect_responses, window_for
from odlisim.spec import (CRUISE_ACCEL_PCT, POLICY_KINDS, STEER_ONSET_DEG, PolicySpec,
                          ScenarioTiming, default_timing, make_scenario)


TIMING = ScenarioTiming(1.0, 6.15)


def controls_trace(policy, t_grid):
    """(accel_pct, brake_pct, steer_deg) per time of the grid."""
    return [policy_control(t, TIMING, policy) for t in t_grid]


def intended_crossings(policy: PolicySpec, timing: ScenarioTiming) -> dict[str, list[float]]:
    """Threshold-crossing times the schedule intends, by response kind.

    Detection on a rollout of the policy must find exactly these crossings
    (to one sample step).
    """
    t_first = timing.t_trigger + policy.reaction_delay
    kind = policy.kind
    out: dict[str, list[float]] = {
        "accel-release": [], "brake-onset": [], "steer-shoulder": [], "steer-center": []}
    if kind == "no-response":
        return out
    out["accel-release"].append(t_first)
    if kind in ("brake-only", "brake-then-steer-center"):
        out["brake-onset"].append(t_first)
    if kind == "steer-center-only":
        out["steer-center"].append(t_first)
    elif kind == "steer-shoulder-only":
        out["steer-shoulder"].append(t_first)
    elif kind == "brake-then-steer-center":
        out["steer-center"].append(t_first + policy.reversal_delay)
    elif kind == "shoulder-then-reversal":
        out["steer-shoulder"].append(t_first)
        t_rev = t_first + policy.reversal_delay
        start = float(_engage(t_rev, t_first, -abs(policy.steer_target),
                              policy.steer_rate))
        if abs(policy.reversal_target) >= STEER_ONSET_DEG:
            out["steer-center"].append(t_rev + (STEER_ONSET_DEG - start) / policy.steer_rate)
    return out


def test_pedal_map_anchor_points():
    assert accel_pct_to_ax(3.0, 5.0) == 0.0
    assert accel_pct_to_ax(CRUISE_ACCEL_PCT, 5.0) == 0.0
    assert accel_pct_to_ax(100.0, 5.0) == pytest.approx(5.0)
    assert brake_pct_to_decel(15.0, 8.0) == pytest.approx(1.0)
    assert brake_pct_to_decel(100.0, 8.0) == pytest.approx(8.0)
    assert brake_pct_to_decel(0.0, 8.0) == 0.0


def test_brake_map_roundtrip():
    for decel in (0.5, 1.0, 3.0, 6.0, 8.0):
        pct = decel_to_brake_pct(decel, 8.0)
        assert brake_pct_to_decel(pct, 8.0) == pytest.approx(decel)


def test_no_response_constant():
    pol = PolicySpec(kind="no-response")
    trace = controls_trace(pol, np.arange(0, 8, 0.01))
    assert all(c == (CRUISE_ACCEL_PCT, 0.0, 0.0) for c in trace)


def test_brake_then_steer_schedule_crossings():
    pol = PolicySpec(kind="brake-then-steer-center", reaction_delay=1.5,
                     brake_level="hard", reversal_delay=1.3, steer_target=20.0)
    t_brake = TIMING.t_trigger + 1.5
    t_steer = TIMING.t_trigger + 2.8
    dt = 0.01
    _, before_b, _ = policy_control(t_brake - dt, TIMING, pol)
    _, at_b, _ = policy_control(t_brake, TIMING, pol)
    assert before_b <= 15.0 < at_b
    *_, before_s = policy_control(t_steer - dt, TIMING, pol)
    *_, at_s = policy_control(t_steer, TIMING, pol)
    assert before_s < 5.0 <= at_s


def test_shoulder_then_reversal_crossing_order():
    pol = PolicySpec(kind="shoulder-then-reversal", reaction_delay=1.2,
                     reversal_delay=1.3, steer_target=10.0, reversal_target=15.0)
    t_grid = np.arange(0, 6.0, 0.01)
    steer = np.array([steer_deg for *_, steer_deg in controls_trace(pol, t_grid)])
    first_shoulder = t_grid[np.nonzero(steer <= -5.0)[0][0]]
    first_center = t_grid[np.nonzero(steer >= 5.0)[0][0]]
    assert first_shoulder == pytest.approx(TIMING.t_trigger + 1.2, abs=0.011)
    assert first_center > first_shoulder
    assert steer.max() == pytest.approx(15.0)
    assert steer.min() == pytest.approx(-10.0)


def test_determinism_bit_identical():
    pol = PolicySpec(kind="brake-then-steer-center")
    t_grid = np.arange(0, 8, 0.01)
    assert controls_trace(pol, t_grid) == controls_trace(pol, t_grid)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PolicySpec(kind="teleport")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["reaction_delay", "steer_rate", "steer_target",
                                   "reversal_delay", "reversal_target"])
def test_policy_rejects_non_finite(field, value):
    # A NaN reaction delay never came due: a brake-only run acted like no-response.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        PolicySpec(kind="brake-only", **{field: value})


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_schedule_roundtrip_through_detection(kind):
    """Detected crossings equal the schedule's intended ones, to one sample."""
    pol = PolicySpec(kind=kind, reaction_delay=1.4, brake_level="hard",
                     steer_rate=250.0, steer_target=12.0, reversal_delay=1.1,
                     reversal_target=15.0)
    scenario = make_scenario(0.0)
    timing = default_timing(scenario)
    log = rollout(scenario, pol, dt=0.01, timing=timing)
    window = window_for(log)
    events = detect_responses(log, window)
    intended = intended_crossings(pol, timing)
    for resp_kind, times in intended.items():
        got = sorted(e.t for e in events if e.kind == resp_kind)
        want = sorted(t for t in times if window.t_begin <= t <= window.t_end)
        assert len(got) == len(want), (resp_kind, got, want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=0.0101)
