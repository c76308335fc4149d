import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_log
from odlisim.engine import OUTCOMES
from odlisim.responses import (AnalysisWindow, ResponseEvent, SequenceGraph,
                               build_sequence_graph, detect_responses, lateral_state,
                               longitudinal_state, response_times, run_states,
                               sv_longitudinal_accel)


def step_signal(t, t_on, before, after):
    return np.where(t < t_on, before, after)


def test_accel_release_detection():
    log = make_log(controls={"accel_pct": lambda t: step_signal(t, 2.2, 50.0, 2.0)})
    events = detect_responses(log, AnalysisWindow(1.4, 6.0))
    releases = [e for e in events if e.kind == "accel-release"]
    assert len(releases) == 1
    assert releases[0].t == pytest.approx(2.2, abs=0.011)


def test_brake_onset_detection():
    log = make_log(controls={"brake_pct": lambda t: step_signal(t, 2.3, 0.0, 16.0)})
    events = detect_responses(log, AnalysisWindow(1.4, 6.0))
    brakes = [e for e in events if e.kind == "brake-onset"]
    assert len(brakes) == 1 and brakes[0].t == pytest.approx(2.3, abs=0.011)


def test_steering_reversal_two_events():
    def steer(t):
        out = np.zeros_like(t)
        out[(t >= 1.8) & (t < 2.2)] = -6.0
        out[t >= 2.6] = 7.0
        return out

    log = make_log(controls={"steer_deg": steer})
    events = detect_responses(log, AnalysisWindow(1.4, 6.0))
    shoulder = [e.t for e in events if e.kind == "steer-shoulder"]
    center = [e.t for e in events if e.kind == "steer-center"]
    assert len(shoulder) == 1 and shoulder[0] == pytest.approx(1.8, abs=0.011)
    assert len(center) == 1 and center[0] == pytest.approx(2.6, abs=0.011)


def test_pre_window_release_not_counted():
    log = make_log(controls={"accel_pct": lambda t: step_signal(t, 0.8, 50.0, 0.0)})
    events = detect_responses(log, AnalysisWindow(1.4, 6.0))
    assert not events  # released before t_B, no crossing inside the window


def test_window_outside_log_rejected():
    log = make_log(duration=3.0)
    with pytest.raises(ValueError):
        detect_responses(log, AnalysisWindow(1.4, 6.0))


def test_window_monotonicity():
    def steer(t):
        out = np.zeros_like(t)
        out[(t >= 2.0) & (t < 3.0)] = -8.0
        out[t >= 4.0] = 9.0
        return out

    log = make_log(controls={"steer_deg": steer,
                             "brake_pct": lambda t: step_signal(t, 2.5, 0.0, 40.0)})
    wide = detect_responses(log, AnalysisWindow(1.4, 6.0))
    narrow = detect_responses(log, AnalysisWindow(1.8, 4.5))
    wide_set = {(e.kind, round(e.t, 6)) for e in wide}
    narrow_set = {(e.kind, round(e.t, 6)) for e in narrow}
    assert narrow_set <= wide_set


def test_response_times_minimum_rule():
    events = [ResponseEvent("accel-release", 1.2), ResponseEvent("brake-onset", 2.3),
              ResponseEvent("steer-center", 2.8)]
    rt = response_times(events, 0.0)
    assert rt.initial_reaction == pytest.approx(1.2)
    assert rt.evasive_response == pytest.approx(2.3)


def test_response_times_single_steer():
    rt = response_times([ResponseEvent("steer-shoulder", 1.5)], 0.0)
    assert rt.initial_reaction == rt.evasive_response == pytest.approx(1.5)


def test_response_times_first_of_kind_only():
    rt = response_times([ResponseEvent("brake-onset", 2.3),
                         ResponseEvent("brake-onset", 3.0)], 0.0)
    assert rt.per_kind["brake-onset"] == pytest.approx(2.3)


def test_response_times_order_invariant():
    events = [ResponseEvent("brake-onset", 3.0), ResponseEvent("accel-release", 1.1),
              ResponseEvent("brake-onset", 2.0)]
    fwd = response_times(events, 0.0)
    rev = response_times(list(reversed(events)), 0.0)
    assert fwd == rev


def test_response_times_empty():
    rt = response_times([], 0.0)
    assert rt.initial_reaction is None and rt.evasive_response is None


def test_lateral_state_thresholds():
    assert lateral_state(0.0) == "no-steering"
    assert lateral_state(-5.0) == "steer-shoulder"
    assert lateral_state(5.0) == "steer-center"
    assert lateral_state(4.99) == "no-steering"


def test_longitudinal_state_bands():
    assert longitudinal_state(0.0) == "cruising"
    assert longitudinal_state(-2.0) == "soft-braking"
    assert longitudinal_state(-4.5) == "hard-braking"
    # boundary values go to the milder state
    assert longitudinal_state(-1.0) == "cruising"
    assert longitudinal_state(-4.0) == "soft-braking"


def test_state_of_nan():
    assert lateral_state(math.nan) == "no-steering"
    assert longitudinal_state(math.nan) == "hard-braking"


def ref_lateral_state(steer):
    if steer <= -5.0:
        return "steer-shoulder"
    if steer >= 5.0:
        return "steer-center"
    return "no-steering"


def ref_longitudinal_state(ax):
    if ax >= -1.0:
        return "cruising"
    if ax >= -4.0:
        return "soft-braking"
    return "hard-braking"


def ref_sequence_graph(runs):
    """The sequence graph from each sample's state, one sample at a time."""
    graph = SequenceGraph()
    for log, window, outcome in runs:
        if outcome not in OUTCOMES:
            graph.skipped += 1
            continue
        steer, ax = log.controls["steer_deg"], sv_longitudinal_accel(log)
        states = [(ref_lateral_state(float(steer[i])), ref_longitudinal_state(float(ax[i])))
                  for i in range(log.index_at(window.t_begin), log.index_at(window.t_end) + 1)]
        graph.initial[states[0]] += 1
        prev = states[0]
        for state in states[1:]:
            if state != prev:
                graph.edges[(prev, state)] += 1
                prev = state
        graph.edges[(prev, outcome)] += 1
        graph.n_runs += 1
    return graph


def piecewise(values, lengths, n):
    """n samples of runs of ``values``, each as long as its length, the last one extended."""
    out = np.repeat(values, lengths)[:n]
    return np.concatenate([out, np.full(n - len(out), values[-1])])


# Each threshold, a value just inside it and NaN.
_steers = st.sampled_from([0.0, -0.0, 4.99, -4.99, 5.0, -5.0, 12.0, -12.0, math.nan])
_accels = st.sampled_from([0.0, -0.99, -1.0, -1.01, -3.99, -4.0, -4.01, -9.0, math.nan])
_run_specs = st.tuples(st.lists(st.tuples(_steers, st.integers(1, 80)), min_size=1, max_size=12),
                  st.lists(st.tuples(_accels, st.integers(1, 80)), min_size=1, max_size=12),
                  st.floats(1.4, 5.0), st.floats(0.1, 2.5),
                  st.sampled_from([*OUTCOMES, "incomplete"]))


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(_run_specs, min_size=1, max_size=5))
def test_sequence_graph_matches_per_sample_reference(runs):
    items = []
    for steers, accels, t_begin, length, outcome in runs:
        n = 801
        log = make_log(controls={"steer_deg": piecewise(*zip(*steers), n)},
                       sv={"ax": piecewise(*zip(*accels), n)})
        items.append((log, AnalysisWindow(round(t_begin, 2), round(t_begin + length, 2)),
                      outcome))
    graph, ref = build_sequence_graph(items), ref_sequence_graph(items)
    assert (graph.edges, graph.initial) == (ref.edges, ref.initial)
    assert (graph.n_runs, graph.skipped) == (ref.n_runs, ref.skipped)


def test_sv_accel_passthrough_and_derivation():
    log = make_log(sv={"ax": -3.0})
    assert np.allclose(sv_longitudinal_accel(log), -3.0)

    ramp = make_log(sv={"vx": lambda t: 20.0 - 4.0 * t,
                        "ax": lambda t: np.full_like(t, np.nan)})
    ax = sv_longitudinal_accel(ramp)
    interior = ax[50:-50]
    assert np.allclose(interior, -4.0, rtol=0.01)

    const = make_log(sv={"ax": lambda t: np.full_like(t, np.nan)})
    assert np.allclose(sv_longitudinal_accel(const), 0.0, atol=1e-9)


def test_sequence_graph_constant_run():
    log = make_log()
    window = AnalysisWindow(1.4, 6.0)
    graph = build_sequence_graph([(log, window, "collision")])
    assert sum(graph.edges.values()) == 1
    assert graph.edges[(("no-steering", "cruising"), "collision")] == 1
    assert graph.initial[("no-steering", "cruising")] == 1
    assert not graph.flow_imbalance()


def test_sequence_graph_synthetic_walk():
    def steer(t):
        out = np.zeros_like(t)
        out[t >= 3.0] = 8.0
        return out

    log = make_log(sv={"ax": lambda t: np.where(t < 2.0, 0.0, -2.0)},
                   controls={"steer_deg": steer})
    window = AnalysisWindow(1.4, 6.0)
    states = run_states(log, window)
    assert states[0] == ("no-steering", "cruising")
    graph = build_sequence_graph([(log, window, "pass-via-center")])
    assert graph.edges[(("no-steering", "cruising"), ("no-steering", "soft-braking"))] == 1
    assert graph.edges[(("no-steering", "soft-braking"), ("steer-center", "soft-braking"))] == 1
    assert graph.edges[(("steer-center", "soft-braking"), "pass-via-center")] == 1
    assert sum(graph.edges.values()) == 3


def test_sequence_graph_cohort_aggregation():
    runs = [(make_log(), AnalysisWindow(1.4, 6.0), "collision") for _ in range(5)]
    graph = build_sequence_graph(runs)
    assert graph.edges[(("no-steering", "cruising"), "collision")] == 5
    assert graph.n_runs == 5
    assert not graph.flow_imbalance()


def test_sequence_graph_skips_missing_outcome():
    graph = build_sequence_graph([(make_log(), AnalysisWindow(1.4, 6.0), "unknown")])
    assert graph.skipped == 1 and graph.n_runs == 0


def test_sequence_graph_no_self_loops():
    log = make_log(sv={"ax": lambda t: -5.0 * (t > 2.0)})
    graph = build_sequence_graph([(log, AnalysisWindow(1.4, 6.0), "collision")])
    assert all(a != b for a, b in graph.edges)
