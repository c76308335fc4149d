"""Specs and run configs: the plain-Python layer under every command.

The value types a run is built from (road, vehicles, kinematic caps,
scenario, timing, policy, prediction) and the run-config format that
names them live here, with the number rules they check.  This module
imports no numpy and nothing else of the package, so ``import odlisim``,
``odlisim --help`` and ``scenario gen``, which build and check a config,
load no compute module.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

SV_SIGN = 1
POV_SIGN = -1
MAX_STEPS = 100_000  # per rollout, sample cloud or prediction; 20 members hold ~100 MB

# Bound -> (what a number must be, its range test), for `check_numbers`.
_NUMBER_RULES = {"> 0": ("positive and finite", lambda v: v > 0),
                 ">= 0": ("finite and >= 0", lambda v: v >= 0),
                 None: ("finite", lambda v: True)}


def step_count(span: float, step: float, what: str) -> int:
    """``round(span / step)``; ValueError naming ``what`` if not finite or past `MAX_STEPS`."""
    count = span / step
    if not (math.isfinite(count) and round(count) <= MAX_STEPS):
        raise ValueError(f"{what} must be at most {MAX_STEPS} steps, got {count}")
    return round(count)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite int or float, numpy's too, and not a bool.  An int is
    compared with the float range, never converted, so one past it fails, not overflows.

    numpy is looked up, not imported: no numpy scalar exists before it is imported."""
    np = sys.modules.get("numpy")
    floats, ints = ((float, np.floating), (int, np.integer)) if np else ((float,), (int,))
    if isinstance(value, floats):
        return math.isfinite(value)
    return (isinstance(value, ints) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_numbers(bound: str | None, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` not `is_finite_number` within ``bound``.

    ``bound`` is ``"> 0"``, ``">= 0"``, or None for finite alone.
    """
    what, in_range = _NUMBER_RULES[bound]
    for name, value in values.items():
        if not (is_finite_number(value) and in_range(value)):
            raise ValueError(f"{name} must be {what}, got {value}")


@dataclass(frozen=True)
class RoadSpec:
    lane_width: float = 3.65     # m, per lane (two lanes)
    num_lanes: int = 2
    shoulder_margin: float = 0.5  # m, allowed excursion beyond the road edge

    def __post_init__(self):
        check_numbers("> 0", lane_width=self.lane_width)
        if self.num_lanes != 2:
            raise ValueError("only two-lane roads are supported")
        check_numbers(">= 0", shoulder_margin=self.shoulder_margin)

    @property
    def width(self) -> float:
        """Full road width, centerline at y = 0."""
        return 2.0 * self.lane_width


@dataclass(frozen=True)
class VehicleSpec:
    length: float = 4.4   # m
    width: float = 1.8    # m
    ref_offset: float = 0.0  # m, positioning reference point forward of geometric center

    def __post_init__(self):
        check_numbers("> 0", length=self.length, width=self.width)
        check_numbers(None, ref_offset=self.ref_offset)
        if not 2 * abs(self.ref_offset) < self.length:
            raise ValueError("ref_offset must lie within the vehicle body")


@dataclass(frozen=True)
class VehicleState:
    t: float    # s
    x: float    # m, reference-point longitudinal position
    y: float    # m, reference-point lateral position
    vx: float   # m/s
    vy: float   # m/s
    ax: float   # m/s^2
    ay: float   # m/s^2
    heading_sign: int = SV_SIGN  # +1 along +x (SV), -1 along -x (POV)

    def __post_init__(self):
        vals = (self.t, self.x, self.y, self.vx, self.vy, self.ax, self.ay)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite vehicle state: {vals}")
        if self.heading_sign not in (SV_SIGN, POV_SIGN):
            raise ValueError(f"heading_sign must be +1 or -1, got {self.heading_sign}")


@dataclass(frozen=True)
class KinematicLimits:
    """Per-vehicle kinematic caps in the vehicle's own frame.

    Lateral acceleration limits are split by side so the POV envelope can be
    biased toward returning to its own lane (its right-side cap is 0).
    ``v_lat_max`` bounds lateral drift speed; a single admissible-state box
    is shared by the simulator plant, the sampling oracle, and the set
    propagation so soundness checks compare like with like.
    """

    v_max: float = 20.0           # m/s, longitudinal speed cap
    a_fwd_max: float = 5.0        # m/s^2
    a_brk_max: float = 8.0        # m/s^2, magnitude
    a_lat_left_max: float = 6.0   # m/s^2, magnitude, vehicle-frame left
    a_lat_right_max: float = 6.0  # m/s^2, magnitude, vehicle-frame right
    j_fwd_max: float = 10.0       # m/s^3
    j_bwd_max: float = 30.0       # m/s^3, magnitude
    j_lat_max: float = 30.0       # m/s^3, magnitude
    v_lat_max: float = 6.0        # m/s, lateral speed cap, magnitude

    def __post_init__(self):
        check_numbers(">= 0", **vars(self))


SV_LIMITS = KinematicLimits()
POV_LIMITS = KinematicLimits(a_lat_left_max=4.0, a_lat_right_max=0.0)


MPH_40 = 17.88  # m/s, posted-limit approach speed for both vehicles

END_HEADING_MODES = ("continuing-left", "straight")
POST_TC_BEHAVIORS = ("extend-path", "hold-heading")


@dataclass(frozen=True)
class ScenarioSpec:
    incursion_level: float = 0.0
    v_sv_nominal: float = MPH_40   # m/s
    v_pov: float = MPH_40          # m/s
    time_gap_trigger: float = 5.15  # s, bumper time gap at incursion onset
    road: RoadSpec = RoadSpec()
    sv_spec: VehicleSpec = VehicleSpec(ref_offset=0.0)
    pov_spec: VehicleSpec = VehicleSpec(ref_offset=0.20)
    end_heading_mode: str = "straight"      # POV lateral velocity at t_C
    post_tc_behavior: str = "hold-heading"  # POV path after t_C
    ctrl_fracs: tuple[float, float] = (0.35, 0.65)  # inner Bezier control times
    edge_reach_after: float = 1.5  # s, continuing-left speed sized to reach the road edge this long after t_C

    def __post_init__(self):
        check_numbers(None, incursion_level=self.incursion_level)
        if not -1.0 <= self.incursion_level <= 1.0:
            raise ValueError(f"incursion_level outside [-1, 1]: {self.incursion_level}")
        check_numbers("> 0", v_sv_nominal=self.v_sv_nominal, v_pov=self.v_pov,
                      time_gap_trigger=self.time_gap_trigger,
                      edge_reach_after=self.edge_reach_after)
        if self.end_heading_mode not in END_HEADING_MODES:
            raise ValueError(f"unknown end_heading_mode {self.end_heading_mode!r}")
        if self.post_tc_behavior not in POST_TC_BEHAVIORS:
            raise ValueError(f"unknown post_tc_behavior {self.post_tc_behavior!r}")
        if not (isinstance(self.ctrl_fracs, (tuple, list)) and len(self.ctrl_fracs) == 2):
            raise ValueError(f"ctrl_fracs must be two numbers, got {self.ctrl_fracs!r}")
        f0, f1 = self.ctrl_fracs
        check_numbers(None, **{"ctrl_fracs[0]": f0, "ctrl_fracs[1]": f1})
        if not 0.0 < f0 < f1 < 1.0:
            raise ValueError(f"ctrl_fracs must be increasing within (0, 1): {self.ctrl_fracs}")


@dataclass(frozen=True)
class ScenarioTiming:
    t_trigger: float   # s, incursion onset
    t_critical: float  # s, projected collision time absent any SV response

    def __post_init__(self):
        if not (is_finite_number(self.t_trigger) and is_finite_number(self.t_critical)):
            raise ValueError(f"timing must be finite numbers: {self}")
        if self.t_critical <= self.t_trigger:
            raise ValueError("t_critical must follow t_trigger")


def make_scenario(incursion_level: float) -> ScenarioSpec:
    """Scenario with incursion-steepness defaults applied from the IL sign.

    Steep incursions (IL < -0.5) keep crossing the SV lane after t_C;
    medium and shallow ones settle onto a straight path.
    """
    if incursion_level < -0.5:
        return ScenarioSpec(incursion_level, end_heading_mode="continuing-left",
                            post_tc_behavior="extend-path")
    return ScenarioSpec(incursion_level, end_heading_mode="straight",
                        post_tc_behavior="hold-heading")


def default_timing(spec: ScenarioSpec, t_trigger: float = 1.0) -> ScenarioTiming:
    check_numbers(None, t_trigger=t_trigger)
    return ScenarioTiming(t_trigger, t_trigger + spec.time_gap_trigger)


POLICY_KINDS = (
    "no-response",
    "brake-only",
    "brake-then-steer-center",
    "steer-center-only",
    "steer-shoulder-only",
    "shoulder-then-reversal",
)

CRUISE_ACCEL_PCT = 6.0   # pedal position holding speed; accelerator dead zone ends here
ACCEL_RELEASE_PCT = 3.0  # response threshold: pedal pressed less than this
BRAKE_ONSET_PCT = 15.0   # response threshold: pedal pressed more than this
STEER_ONSET_DEG = 5.0    # response threshold: wheel turned this much or more


@dataclass(frozen=True)
class PolicySpec:
    kind: str = "no-response"
    reaction_delay: float = 1.5   # s after t_T: accelerator release + first evasive action
    brake_level: str = "hard"     # soft (1-4 m/s^2) or hard (> 4 m/s^2)
    steer_rate: float = 250.0     # deg/s ramp toward the target angle
    steer_target: float = 15.0    # deg, magnitude of the primary steering action
    reversal_delay: float = 1.3   # s from the first evasive action to the follow-up one
    reversal_target: float = 15.0  # deg, toward road center, for shoulder-then-reversal

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        check_numbers(None, reaction_delay=self.reaction_delay, steer_rate=self.steer_rate,
                      steer_target=self.steer_target, reversal_delay=self.reversal_delay,
                      reversal_target=self.reversal_target)
        check_numbers(">= 0", reaction_delay=self.reaction_delay,
                      reversal_delay=self.reversal_delay)
        if self.brake_level not in ("soft", "hard"):
            raise ValueError(f"unknown brake_level {self.brake_level!r}")
        check_numbers("> 0", steer_rate=self.steer_rate)


@dataclass(frozen=True)
class PredictionConfig:
    sv_limits: KinematicLimits = SV_LIMITS
    pov_limits: KinematicLimits = POV_LIMITS
    incursion_detect_threshold: float = 0.15  # m, lateral deviation that latches envelope mode
    road_pruning: str = "corridor"            # corridor | off
    grid_dx: float = 0.5    # m
    grid_dy: float = 0.25   # m
    tau_step: float = 0.1   # s
    horizon: float = 4.0    # s

    def __post_init__(self):
        check_numbers("> 0", grid_dx=self.grid_dx, grid_dy=self.grid_dy,
                      tau_step=self.tau_step, horizon=self.horizon)
        check_numbers(">= 0", incursion_detect_threshold=self.incursion_detect_threshold)
        if self.road_pruning not in ("corridor", "off"):
            raise ValueError(f"road_pruning must be corridor or off: {self.road_pruning!r}")
        step_count(self.horizon, self.tau_step, "horizon / tau_step")

    @property
    def n_steps(self) -> int:
        return step_count(self.horizon, self.tau_step, "horizon / tau_step")


class ParseError(ValueError):
    """Structured file-format error: carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    d = dataclasses.asdict(spec)
    d["ctrl_fracs"] = list(spec.ctrl_fracs)
    return d


def scenario_from_dict(d: dict) -> ScenarioSpec:
    d = dict(d)
    d["road"] = RoadSpec(**d["road"])
    d["sv_spec"] = VehicleSpec(**d["sv_spec"])
    d["pov_spec"] = VehicleSpec(**d["pov_spec"])
    fracs = d.get("ctrl_fracs", (0.35, 0.65))
    d["ctrl_fracs"] = tuple(fracs) if isinstance(fracs, list) else fracs  # the spec checks it
    return ScenarioSpec(**d)


def prediction_from_dict(d: dict) -> PredictionConfig:
    d = dict(d)
    d["sv_limits"] = KinematicLimits(**d["sv_limits"])
    d["pov_limits"] = KinematicLimits(**d["pov_limits"])
    return PredictionConfig(**d)


def save_run_config(config: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


# The response thresholds are fixed constants, not config keys.  Older
# configs may still carry them, but only at these values.
_FIXED_ANALYSIS = {"accel_release_pct": ACCEL_RELEASE_PCT,
                   "brake_onset_pct": BRAKE_ONSET_PCT,
                   "steer_onset_deg": STEER_ONSET_DEG}


_CONFIG_SECTIONS = ("scenario", "analysis", "prediction")

# Values of keys a config may omit, by section (None is the top level, and
# "policies" each entry of that list).  ``default_run_config`` writes them
# too, but for delay_jitter (0.2 there): a config that lacks a key runs as
# it always has.
_FALLBACKS = {None: {"seed": 0, "output_dir": "out"},
              "scenario": {"t_trigger": 1.0},
              "policies": {"count": 1},
              "analysis": {"eval_step": 0.1, "bootstrap_samples": 1000,
                           "delay_jitter": 0.0, "window_reaction_floor": 0.4}}


def default_run_config(incursion_level: float = 0.0) -> dict:
    """Reference config carrying every tunable constant as a named default."""
    policies = [
        {"kind": "no-response", "count": 2},
        {"kind": "brake-only", "count": 3, "reaction_delay": 1.6, "brake_level": "hard"},
        {"kind": "brake-then-steer-center", "count": 5, "reaction_delay": 1.5,
         "brake_level": "soft", "reversal_delay": 1.3, "steer_target": 15.0},
        {"kind": "steer-center-only", "count": 4, "reaction_delay": 2.0,
         "steer_target": 20.0},
        {"kind": "steer-shoulder-only", "count": 4, "reaction_delay": 1.2,
         "steer_target": 10.0},
        {"kind": "shoulder-then-reversal", "count": 2, "reaction_delay": 1.2,
         "reversal_delay": 1.3, "steer_target": 10.0, "reversal_target": 15.0},
    ]
    return {**_FALLBACKS[None],
            "scenario": {**scenario_to_dict(make_scenario(incursion_level)),
                         **_FALLBACKS["scenario"]},
            "policies": policies,
            "prediction": dataclasses.asdict(PredictionConfig()),
            "analysis": {**_FALLBACKS["analysis"], "dt": 0.01, "delay_jitter": 0.2}}


def _number(in_range):
    """A rule's test: a finite number (`is_finite_number`) within ``in_range``."""
    return lambda v: is_finite_number(v) and in_range(v)


# What a value must be: (description, type it is stored as, test).
_COUNT_RULE = ("an integer >= 1", int, _number(lambda v: v >= 1 and v == int(v)))
_POSITIVE = ("a finite number > 0", float, _number(lambda v: v > 0))
_NON_NEGATIVE = ("a finite number >= 0", float, _number(lambda v: v >= 0))
_TOP_RULES = {"seed": ("an integer >= 0", int, _number(lambda v: v >= 0 and v == int(v))),
              "output_dir": ("a non-empty string", str,
                             lambda v: isinstance(v, str) and v != "")}
_ANALYSIS_RULES = {"dt": _POSITIVE, "eval_step": _POSITIVE, "bootstrap_samples": _COUNT_RULE,
                   "delay_jitter": _NON_NEGATIVE, "window_reaction_floor": _NON_NEGATIVE}


def _checked(where: str, name: str, value, rule):
    """``value`` stored as the rule's type; if it breaks the rule, a ParseError naming
    the key after ``where``, the file (``run config <path>``, ``metadata sidecar <path>``)."""
    what, kind, test = rule
    if not test(value):
        raise ParseError(f"{where}: {name} = {value!r} must be {what}")
    return kind(value)


def load_run_config(path: str | Path) -> dict:
    """The run config at ``path``; a file that cannot be read and every format
    error is a ParseError naming the file."""
    path = Path(path)
    try:
        config = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"run config {path}: {type(exc).__name__}: {exc}") from exc
    return checked_run_config(config, path)


def checked_run_config(config, path: str | Path) -> dict:
    """A copy of ``config`` with omitted keys filled from their fallbacks.

    Every format error is a ParseError naming ``path`` and, for a bad value,
    its key; a bad scenario, policy or prediction fails as the spec it builds
    does.  ``load_run_config`` checks what it reads this way, and
    ``scenario gen`` what it writes.
    """
    where = f"run config {path}"
    if not isinstance(config, dict):
        raise ParseError(f"{where}: top level must be a JSON object")
    for section in _CONFIG_SECTIONS:
        if not isinstance(config.get(section), dict):
            raise ParseError(f"{where}: section {section!r} is missing or not an object")
    for key, fixed in _FIXED_ANALYSIS.items():
        value = config["analysis"].get(key, fixed)
        if value != fixed:
            raise ParseError(f"{where}: analysis.{key} = {value!r} is not "
                             f"configurable: the response threshold is fixed at {fixed}")
    config = {**_FALLBACKS[None], **config}
    for key, rule in _TOP_RULES.items():
        config[key] = _checked(where, key, config[key], rule)
    config["scenario"] = {**_FALLBACKS["scenario"], **config["scenario"]}
    policies = config.get("policies", [])
    if not (isinstance(policies, list) and all(isinstance(p, dict) for p in policies)):
        raise ParseError(f"{where}: policies must be a list of objects")
    config["policies"] = [{**_FALLBACKS["policies"], **p} for p in policies]
    for i, policy in enumerate(config["policies"]):
        policy["count"] = _checked(where, f"policies[{i}].count", policy["count"], _COUNT_RULE)
    analysis = config["analysis"] = {**_FALLBACKS["analysis"], **config["analysis"]}
    for key, rule in _ANALYSIS_RULES.items():
        if key in analysis:  # dt has no fallback: only the commands that step read it
            analysis[key] = _checked(where, f"analysis.{key}", analysis[key], rule)
    try:
        config_scenario(config)
        config_policies(config)
        config_prediction(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {type(exc).__name__}: {exc}") from exc
    return config


def config_scenario(config: dict) -> tuple[ScenarioSpec, ScenarioTiming]:
    d = dict(config["scenario"])
    t_trigger = d.pop("t_trigger")
    spec = scenario_from_dict(d)
    return spec, default_timing(spec, t_trigger)


def config_policies(config: dict) -> list[tuple[PolicySpec, int]]:
    """(policy, count) per entry of a config whose keys are filled, as loaded."""
    return [(PolicySpec(**{k: v for k, v in entry.items() if k != "count"}), entry["count"])
            for entry in config["policies"]]


def config_prediction(config: dict) -> PredictionConfig:
    return prediction_from_dict(config["prediction"])
