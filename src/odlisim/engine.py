"""Open-loop rollout of one scenario for a cohort of scripted SV policies.

The scripted policies and the POV path depend on time alone, so the
engine evaluates them as arrays over one time grid and steps every cohort
member's jerk-limited SV integrator together.  Each log ends at the
member's first footprint overlap or at the horizon, and the outcome is
classified at the time of closest longitudinal proximity t_p.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import policies
from .core import (POV_SIGN, SV_LIMITS, SV_SIGN, AxisLimits, KinematicLimits, VehicleState,
                   axis_limits, axis_step, footprint_at, rectangles_overlap)
from .scenario import (IncursionPath, ScenarioSpec, ScenarioTiming, default_timing,
                       pov_x_at_trigger, sv_initial_state)

OUTCOMES = ("collision", "pass-via-center", "pass-via-shoulder")


class IncompleteLogError(RuntimeError):
    """The log does not span the proximity event, so t_p is undefined."""


@dataclass
class TrajectoryLog:
    """Uniformly sampled two-vehicle trajectory with raw SV control inputs.

    Channel arrays all share one length; `sv_state(i)` / `pov_state(i)`
    reassemble frozen states.  Arrays are never mutated after construction.
    """

    dt: float
    t: np.ndarray
    sv: dict = field(repr=False)       # keys x, y, vx, vy, ax, ay
    pov: dict = field(repr=False)      # keys x, y, vx, vy, ax, ay
    controls: dict = field(repr=False)  # keys accel_pct, brake_pct, steer_deg
    scenario: ScenarioSpec
    timing: ScenarioTiming
    policy: policies.PolicySpec | None = None
    collided: bool = False
    t_collision: float | None = None
    complete: bool = True   # False when the horizon ended before proximity

    def __post_init__(self):
        n = len(self.t)
        if n < 2:
            raise ValueError("log needs at least two samples")
        steps = np.diff(self.t)
        if not np.all(steps > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.allclose(steps, self.dt, rtol=0, atol=1e-9):
            raise ValueError("timestamps must be uniformly spaced at dt")
        for chans, keys in ((self.sv, _STATE_KEYS), (self.pov, _STATE_KEYS),
                            (self.controls, _CONTROL_KEYS)):
            for k in keys:
                if k not in chans or len(chans[k]) != n:
                    raise ValueError(f"channel {k!r} missing or wrong length")

    def __len__(self) -> int:
        return len(self.t)

    def covers(self, t_begin: float, t_end: float) -> bool:
        """Whether every time in [t_begin, t_end] lies within dt/2 of a sample."""
        return self.t[0] - self.dt / 2 <= t_begin and t_end <= self.t[-1] + self.dt / 2

    def check_window(self, t_begin: float, t_end: float) -> None:
        """Raise ValueError unless the log covers the analysis window."""
        if not self.covers(t_begin, t_end):
            raise ValueError("analysis window not covered by the log")

    def index_at(self, t: float) -> int:
        """Index of the sample nearest to t (t must be within dt/2 of a sample)."""
        if not self.covers(t, t):
            raise IncompleteLogError(f"t={t} outside log [{self.t[0]}, {self.t[-1]}]")
        return int(round((t - self.t[0]) / self.dt))

    def sv_state(self, i: int) -> VehicleState:
        s = self.sv
        return VehicleState(t=float(self.t[i]), x=float(s["x"][i]), y=float(s["y"][i]),
                            vx=float(s["vx"][i]), vy=float(s["vy"][i]),
                            ax=float(s["ax"][i]), ay=float(s["ay"][i]), heading_sign=1)

    def pov_state(self, i: int) -> VehicleState:
        s = self.pov
        return VehicleState(t=float(self.t[i]), x=float(s["x"][i]), y=float(s["y"][i]),
                            vx=float(s["vx"][i]), vy=float(s["vy"][i]),
                            ax=float(s["ax"][i]), ay=float(s["ay"][i]), heading_sign=-1)


_STATE_KEYS = ("x", "y", "vx", "vy", "ax", "ay")
_CONTROL_KEYS = ("accel_pct", "brake_pct", "steer_deg")


def rollout(scenario: ScenarioSpec, policy: policies.PolicySpec,
            dt: float = 0.01, horizon: float | None = None,
            timing: ScenarioTiming | None = None,
            sv_limits: KinematicLimits = SV_LIMITS) -> TrajectoryLog:
    """Simulate one conflict and return the trajectory log.

    The log ends at the first footprint overlap (collision) or at the
    horizon, which defaults to 3 s past the critical point so the pass-by
    and the post-proximity tail are always covered.  This is the
    one-member case of `run_cohort`.
    """
    return _simulate(scenario, [policy], dt, horizon, timing, sv_limits)[0]


def _simulate(scenario: ScenarioSpec, members: list[policies.PolicySpec],
              dt: float, horizon: float | None, timing: ScenarioTiming | None,
              sv_limits: KinematicLimits) -> list[TrajectoryLog]:
    """Open-loop rollout of every cohort member on one shared time grid.

    The POV path and each member's pedal/steer schedule are functions of t
    alone, so they are computed as arrays up front; only the clamped SV
    integrator steps, once per sample for both axes of every member.  The SV
    path never depends on a collision, so each member's log is cut at its
    first footprint overlap afterwards.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if timing is None:
        timing = default_timing(scenario)
    if horizon is None:
        horizon = timing.t_critical + 3.0
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {horizon} spans no step of {dt}")
    t = np.arange(n_steps + 1) * dt

    path = IncursionPath(scenario, timing)
    pov_y, pov_vy, pov_ay = np.array([path.state(tk) for tk in t.tolist()]).T
    pov = {"x": pov_x_at_trigger(scenario, timing) - scenario.v_pov * (t - timing.t_trigger),
           "y": pov_y, "vx": np.full_like(t, -scenario.v_pov), "vy": pov_vy,
           "ax": np.zeros_like(t), "ay": pov_ay}

    # Per-member schedules, shape (members, 3, samples); the acceleration
    # targets are laid out (samples, axis, members) for the step loop.
    ctl = np.array([policies.policy_schedule(t, timing, p, sv_limits.a_brk_max)
                    for p in members])
    a_t = np.ascontiguousarray(np.transpose(policies.target_accels(
        ctl[:, 0], ctl[:, 1], ctl[:, 2], sv_limits.a_fwd_max, sv_limits.a_brk_max), (2, 0, 1)))

    sv0 = sv_initial_state(scenario)
    # Both axes step in one call: each limit is a (2, 1) column, x over y,
    # that broadcasts against the (2, members) axis rows.
    lim = AxisLimits(*np.array([astuple(axis_limits(sv_limits, SV_SIGN, axis))
                                for axis in "xy"]).T[..., None])
    # State (samples, 3, 2, members): position, velocity, acceleration by
    # axis, so sv.reshape(samples, 6, members) is the channel order
    # (x, y, vx, vy, ax, ay); each member's log channels are views into it.
    sv = np.empty((len(t), 3, 2, len(members)))
    sv[0] = np.array([[sv0.x, sv0.y], [sv0.vx, sv0.vy], [sv0.ax, sv0.ay]])[..., None]
    for k in range(n_steps):
        p, v, a = sv[k]
        nxt = sv[k + 1]
        # Jerk command tracks the pedal/steer acceleration targets; the
        # stepper clamps it into the admissible box.
        nxt[0], nxt[1], nxt[2] = axis_step(p, v, a, (a_t[k] - a) / dt, lim, dt)
    sv = sv.reshape(len(t), 6, len(members))
    if not (np.isfinite(sv).all() and all(np.isfinite(v).all() for v in pov.values())):
        raise ValueError("non-finite vehicle state")

    pov_box = footprint_at(pov["x"], pov["y"], POV_SIGN, scenario.pov_spec)
    logs = []
    for i, policy in enumerate(members):
        hits = np.flatnonzero(rectangles_overlap(
            footprint_at(sv[:, 0, i], sv[:, 1, i], SV_SIGN, scenario.sv_spec), pov_box))
        n = hits[0] + 1 if len(hits) else len(t)
        log = TrajectoryLog(
            dt=dt, t=t[:n],
            sv={k: sv[:n, j, i] for j, k in enumerate(_STATE_KEYS)},
            pov={k: v[:n] for k, v in pov.items()},
            controls={k: ctl[i, j, :n] for j, k in enumerate(_CONTROL_KEYS)},
            scenario=scenario, timing=timing, policy=policy,
            collided=bool(len(hits)), t_collision=float(t[hits[0]]) if len(hits) else None)
        try:
            time_of_closest_proximity(log)
        except IncompleteLogError:
            log.complete = False
        logs.append(log)
    return logs


def time_of_closest_proximity(log: TrajectoryLog) -> float:
    """First sample time with longitudinal gap <= 0 (t_p).

    A collision always ends the log at longitudinal contact, so the
    collision time is t_p whenever it comes first.
    """
    sc = log.scenario
    gap = (footprint_at(log.pov["x"], log.pov["y"], POV_SIGN, sc.pov_spec).x_lo
           - footprint_at(log.sv["x"], log.sv["y"], SV_SIGN, sc.sv_spec).x_hi)
    hits = np.nonzero(gap <= 0.0)[0]
    t_gap = float(log.t[hits[0]]) if len(hits) else None
    if log.collided and log.t_collision is not None:
        if t_gap is None or log.t_collision <= t_gap:
            return float(log.t_collision)
        return t_gap
    if t_gap is None:
        raise IncompleteLogError("longitudinal gap never reaches zero within the log")
    return t_gap


@dataclass(frozen=True)
class Outcome:
    kind: str                  # collision, pass-via-center, pass-via-shoulder
    t_p: float                 # s, time of closest longitudinal proximity
    lateral_clearance: float   # m, |y_sv - y_pov| at t_p
    sideswipe: bool = False    # body overlap occurred at some t != t_p

    def __post_init__(self):
        if self.kind not in OUTCOMES:
            raise ValueError(f"unknown outcome kind {self.kind!r}")


def classify_outcome(log: TrajectoryLog) -> Outcome:
    """Outcome at t_p: collision by lateral width overlap, else pass side.

    The width rule inspects only t_p; a body overlap at any other time is
    reported through the sideswipe diagnostic instead of changing the
    classification.
    """
    t_p = time_of_closest_proximity(log)
    i_p = log.index_at(t_p)
    sc = log.scenario
    dy = float(log.sv["y"][i_p] - log.pov["y"][i_p])
    width_sum = (sc.sv_spec.width + sc.pov_spec.width) / 2

    collision_at_tp = abs(dy) < width_sum
    early_overlap = (log.collided and log.t_collision is not None
                     and log.t_collision <= t_p)
    sideswipe = (log.collided and log.t_collision is not None
                 and log.t_collision > t_p)

    if collision_at_tp or early_overlap:
        return Outcome("collision", t_p, abs(dy), sideswipe=False)
    kind = "pass-via-center" if dy > 0 else "pass-via-shoulder"
    return Outcome(kind, t_p, abs(dy), sideswipe=sideswipe)


def run_cohort(scenario: ScenarioSpec, cohort: list[tuple[policies.PolicySpec, int]],
               dt: float = 0.01, seed: int = 0, delay_jitter: float = 0.0,
               timing: ScenarioTiming | None = None) -> list[TrajectoryLog]:
    """Independent rollouts for (policy, count) groups.

    Replicates within a group get deterministic, seed-derived jitter on the
    reaction delay so synthetic cohorts are not degenerate.  Every member
    is stepped together on one time grid; each log equals the `rollout` of
    its policy alone.
    """
    members = []
    streams = np.random.SeedSequence(seed).spawn(sum(c for _, c in cohort))
    for policy, count in cohort:
        for _ in range(count):
            p = policy
            if delay_jitter > 0:
                rng = np.random.default_rng(streams[len(members)])
                offset = float(rng.uniform(-delay_jitter, delay_jitter))
                p = replace(policy, reaction_delay=max(0.0, policy.reaction_delay + offset))
            members.append(p)
    if not members:
        return []
    return _simulate(scenario, members, dt, None, timing, SV_LIMITS)
