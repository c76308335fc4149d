"""Threshold-based response detection, response times, and sequence graphs.

All metrics live inside the analysis window [t_B, t_E]: 400 ms after the
incursion onset through the time of closest proximity.  Control inputs are
binarized at fixed thresholds (accelerator below 3 %, brake above 15 %,
steering at 5 degrees or more toward either side) and each upward crossing
becomes a response event.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .engine import OUTCOMES, TrajectoryLog, classify_outcome, time_of_closest_proximity
from .policies import ACCEL_RELEASE_PCT, BRAKE_ONSET_PCT, STEER_ONSET_DEG

RESPONSE_KINDS = ("accel-release", "brake-onset", "steer-shoulder", "steer-center")
EVASIVE_KINDS = ("brake-onset", "steer-shoulder", "steer-center")

SOFT_BRAKE_EDGE = -1.0  # m/s^2
HARD_BRAKE_EDGE = -4.0  # m/s^2


@dataclass(frozen=True)
class AnalysisWindow:
    t_begin: float  # s, t_T + 0.4
    t_end: float    # s, t_p

    def __post_init__(self):
        if self.t_begin >= self.t_end:
            raise ValueError(f"empty analysis window [{self.t_begin}, {self.t_end}]")


def window_for(log: TrajectoryLog, reaction_floor: float = 0.4) -> AnalysisWindow:
    return AnalysisWindow(log.timing.t_trigger + reaction_floor,
                          time_of_closest_proximity(log))


@dataclass(frozen=True)
class ResponseEvent:
    kind: str
    t: float

    def __post_init__(self):
        if self.kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")


def _crossings(t: np.ndarray, on_response_side: np.ndarray,
               t_begin: float, t_end: float) -> list[float]:
    """Times of samples that enter the response side inside the window."""
    enter = on_response_side[1:] & ~on_response_side[:-1]
    times = t[1:][enter]
    return [float(v) for v in times if t_begin <= v <= t_end]


def detect_responses(log: TrajectoryLog, window: AnalysisWindow) -> list[ResponseEvent]:
    """Every upward crossing of the four control signals' fixed thresholds.

    A crossing needs the previous sample on the non-response side and the
    current one on the response side, with the current sample inside the
    window; repeated crossings of one kind all appear.
    """
    log.check_window(window.t_begin, window.t_end)
    accel = log.controls["accel_pct"]
    brake = log.controls["brake_pct"]
    steer = log.controls["steer_deg"]
    sides = {
        "accel-release": accel < ACCEL_RELEASE_PCT,
        "brake-onset": brake > BRAKE_ONSET_PCT,
        "steer-shoulder": steer <= -STEER_ONSET_DEG,
        "steer-center": steer >= STEER_ONSET_DEG,
    }
    events = []
    for kind, mask in sides.items():
        for t in _crossings(log.t, mask, window.t_begin, window.t_end):
            events.append(ResponseEvent(kind, t))
    events.sort(key=lambda e: (e.t, e.kind))
    return events


@dataclass(frozen=True)
class ResponseTimes:
    """First-response latencies relative to the incursion onset, None if absent."""

    per_kind: dict = field(repr=False)
    initial_reaction: float | None
    evasive_response: float | None


def response_times(events: list[ResponseEvent], t_trigger: float) -> ResponseTimes:
    """Per-kind first-response times; duplicates of a kind never matter."""
    per_kind: dict[str, float | None] = {k: None for k in RESPONSE_KINDS}
    for e in events:
        rt = e.t - t_trigger
        if per_kind[e.kind] is None or rt < per_kind[e.kind]:
            per_kind[e.kind] = rt
    present = [v for v in per_kind.values() if v is not None]
    evasive = [per_kind[k] for k in EVASIVE_KINDS if per_kind[k] is not None]
    return ResponseTimes(per_kind=per_kind,
                         initial_reaction=min(present) if present else None,
                         evasive_response=min(evasive) if evasive else None)


def lateral_state(steer_deg: float) -> str:
    if steer_deg <= -STEER_ONSET_DEG:
        return "steer-shoulder"
    if steer_deg >= STEER_ONSET_DEG:
        return "steer-center"
    return "no-steering"


def longitudinal_state(ax: float) -> str:
    """Cruise/soft/hard braking bands; boundary values go to the milder state."""
    if ax >= SOFT_BRAKE_EDGE:
        return "cruising"
    if ax >= HARD_BRAKE_EDGE:
        return "soft-braking"
    return "hard-braking"


def sv_longitudinal_accel(log: TrajectoryLog) -> np.ndarray:
    """SV longitudinal acceleration series for state discretization.

    Uses the logged ax channel when present; an all-NaN channel is one the
    log file lacks (the loader fills an absent optional column with NaN).
    Otherwise central-differences vx and smooths it with a 0.1 s moving
    average.
    """
    ax = log.sv.get("ax")
    if ax is not None and not np.all(np.isnan(ax)):
        return np.asarray(ax, dtype=float)
    vx = log.sv["vx"]
    if len(vx) < 3:
        raise ValueError("too few samples to differentiate vx")
    deriv = np.gradient(vx, log.dt)
    n = max(1, int(round(0.1 / log.dt)))
    if n > 1:
        kernel = np.ones(n) / n
        deriv = np.convolve(deriv, kernel, mode="same")
    return deriv


@dataclass
class SequenceGraph:
    """Aggregated control-state transition multigraph for a cohort.

    Nodes are (lateral, longitudinal) state pairs plus one pseudo-state per
    outcome; self-transitions are never recorded.  ``initial`` counts each
    run's state at t_B and every run contributes exactly one terminal edge
    into an outcome pseudo-state.
    """

    edges: Counter = field(default_factory=Counter)    # (from, to) -> count
    initial: Counter = field(default_factory=Counter)  # state at t_B -> count
    n_runs: int = 0
    skipped: int = 0

    def flow_imbalance(self) -> dict:
        """inflow + initial - outflow per non-terminal node (0 when conserved)."""
        balance: Counter = Counter()
        for state, c in self.initial.items():
            balance[state] += c
        for (a, b), c in self.edges.items():
            balance[a] -= c
            balance[b] += c
        return {s: v for s, v in balance.items()
                if s not in OUTCOMES and v != 0}


def run_states(log: TrajectoryLog, window: AnalysisWindow) -> list[tuple[str, str]]:
    """Discretized (lateral, longitudinal) state at each sample in the window."""
    i0 = log.index_at(window.t_begin)
    i1 = log.index_at(window.t_end)
    steer = log.controls["steer_deg"]
    ax = sv_longitudinal_accel(log)
    return [(lateral_state(float(steer[i])), longitudinal_state(float(ax[i])))
            for i in range(i0, i1 + 1)]


def build_sequence_graph(runs: list[tuple[TrajectoryLog, AnalysisWindow, str]]) -> SequenceGraph:
    """Aggregate non-self state transitions plus terminal outcome edges.

    Each run item is (log, window, outcome kind); runs without a valid
    outcome are skipped and counted.
    """
    graph = SequenceGraph()
    for log, window, outcome in runs:
        if outcome not in OUTCOMES:
            graph.skipped += 1
            continue
        states = run_states(log, window)
        graph.initial[states[0]] += 1
        prev = states[0]
        for s in states[1:]:
            if s != prev:
                graph.edges[(prev, s)] += 1
                prev = s
        graph.edges[(prev, outcome)] += 1
        graph.n_runs += 1
    return graph


def analyze_run(log: TrajectoryLog, reaction_floor: float = 0.4) -> dict:
    """Convenience bundle: window, events, response times, and outcome."""
    window = window_for(log, reaction_floor)
    events = detect_responses(log, window)
    times = response_times(events, log.timing.t_trigger)
    outcome = classify_outcome(log)
    return {"window": window, "events": events, "times": times, "outcome": outcome}
