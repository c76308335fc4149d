"""Opposite-direction lateral incursion conflicts: simulation and analysis.

Scripted two-vehicle conflict rollouts, threshold-based response analysis,
and collision-pruned reachable sets (drivable areas) with a Monte Carlo
soundness oracle.

The names below, and the compute submodules ``odlisim.core`` … ``odlisim.scenario``,
resolve on first use (PEP 562), each name from the module that defines it, so
``import odlisim`` loads no submodule and no numpy.
"""

import importlib

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("AxisLimits", "Rect", "axis_limits", "axis_step", "footprint",
                     "rectangles_overlap"), "core"),
    **dict.fromkeys(("IncompleteLogError", "Outcome", "TrajectoryLog", "classify_outcome",
                     "rollout", "run_cohort", "time_of_closest_proximity"), "engine"),
    **dict.fromkeys(("ContainmentReport", "SampleCloud", "analytic_1d_bounds",
                     "containment_check", "containment_checks", "sample_trajectories"),
                    "oracle"),
    "policy_control": "policies",
    **dict.fromkeys(("DrivableArea", "Prevalence", "ReachableSet", "Timeline",
                     "aggregate_prevalence", "compute_drivable_area", "compute_reachable_set",
                     "compute_reachable_sets", "drivable_area_at", "drivable_timeline",
                     "drivable_timelines", "pov_occupancy", "propagate_step"), "reach"),
    **dict.fromkeys(("AnalysisWindow", "ResponseEvent", "SequenceGraph",
                     "build_sequence_graph", "detect_responses", "lateral_state",
                     "longitudinal_state", "response_times", "sv_longitudinal_accel",
                     "window_for"), "responses"),
    **dict.fromkeys(("IncursionPath", "pov_state_at", "reference_lateral_at_tc",
                     "trigger_distance"), "scenario"),
    **dict.fromkeys(("KinematicLimits", "POV_LIMITS", "RoadSpec", "SV_LIMITS", "VehicleSpec",
                     "VehicleState", "PolicySpec", "PredictionConfig", "ScenarioSpec",
                     "ScenarioTiming", "default_timing", "make_scenario"), "spec"),
}
# Submodules that are package attributes, as when ``import odlisim`` imported them all.
_SUBMODULES = ("core", "engine", "oracle", "policies", "reach", "responses", "scenario")
__all__ = sorted([*_EXPORTS, *_SUBMODULES])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
