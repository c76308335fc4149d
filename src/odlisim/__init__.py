"""Opposite-direction lateral incursion conflicts: simulation and analysis.

Scripted two-vehicle conflict rollouts, threshold-based response analysis,
and collision-pruned reachable sets (drivable areas) with a Monte Carlo
soundness oracle.
"""

from .core import (AxisLimits, KinematicLimits, POV_LIMITS, Rect, RoadSpec, SV_LIMITS,
                   VehicleSpec, VehicleState, axis_limits, axis_step, footprint,
                   rectangles_overlap)
from .engine import (IncompleteLogError, Outcome, TrajectoryLog, classify_outcome,
                     rollout, run_cohort, time_of_closest_proximity)
from .oracle import (ContainmentReport, SampleCloud, analytic_1d_bounds,
                     containment_check, sample_trajectories)
from .policies import PolicySpec, policy_control
from .reach import (DrivableArea, PredictionConfig, Prevalence, ReachableSet,
                    Timeline, aggregate_prevalence, compute_drivable_area,
                    compute_reachable_set, drivable_area_at, drivable_timeline,
                    drivable_timelines, pov_occupancy, propagate_step)
from .responses import (AnalysisWindow, ResponseEvent, SequenceGraph,
                        build_sequence_graph, detect_responses, lateral_state,
                        longitudinal_state, response_times, sv_longitudinal_accel,
                        window_for)
from .scenario import (IncursionPath, ScenarioSpec, ScenarioTiming, default_timing,
                       make_scenario, pov_state_at, reference_lateral_at_tc,
                       trigger_distance)

__version__ = "0.1.0"
