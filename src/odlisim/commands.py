"""The commands that compute: every command but ``scenario gen``.

`cli.main` imports this module once it has checked a run config, so the
compute layer (numpy, ``engine``, ``io``, ``reach``, ``oracle`` and
``responses``) loads only for a command that computes.  Every compute
module is imported here at the top, whatever the command, so once any
command has run each layer is in ``sys.modules``, where the benchmark's
tracer looks it up.  Each command takes the parsed arguments, the checked
config and its output directory, and returns the exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import io, oracle, reach, responses
from .core import footprint
from .engine import classify_outcome, rollout, run_cohort
from .spec import ParseError, PolicySpec, config_policies, config_prediction, config_scenario


def _load_logs(directory: str, load) -> list:
    """Every run_*.csv log under ``directory``, each read by ``load``."""
    paths = sorted(Path(directory).glob("run_*.csv"))
    if not paths:
        raise ParseError(f"no run_*.csv logs under {directory}")
    return [load(p) for p in paths]


def _load_reach_log(path):
    """A log with every acceleration column: each reachable set starts from them."""
    return io.require_accelerations(io.load_trajectory_log(path), path)


def _window(log, config: dict) -> responses.AnalysisWindow:
    """Analysis window of a log under the configured reaction floor."""
    return responses.window_for(log, config["analysis"]["window_reaction_floor"])


def _timelines(logs: list, config: dict) -> list[reach.Timeline]:
    """Drivable-area timelines over the analysis windows at the configured step."""
    windows = [_window(log, config) for log in logs]
    runs = [(log, (w.t_begin, w.t_end)) for log, w in zip(logs, windows)]
    return reach.drivable_timelines(runs, config_prediction(config),
                                   eval_step=config["analysis"]["eval_step"])


def simulate(args, config: dict, out: Path) -> int:
    scenario, timing = config_scenario(config)
    cohort = [(PolicySpec(kind=args.policy), 1)] if args.policy else config_policies(config)
    if not cohort:
        raise ParseError(f"run config {args.config}: policies lists no policy to "
                         f"simulate; add one or pass --policy")
    logs = run_cohort(scenario, cohort, dt=config["analysis"]["dt"], seed=config["seed"],
                      delay_jitter=config["analysis"]["delay_jitter"], timing=timing)
    io.save_trajectory_logs(logs, [out / f"run_{i:03d}.csv" for i in range(len(logs))])
    rows = []
    for i, log in enumerate(logs):
        outcome = classify_outcome(log)
        rows.append([i, log.policy.kind, outcome.kind, int(outcome.sideswipe),
                     outcome.t_p, outcome.lateral_clearance])
    io.write_table(out / "outcomes.csv",
                    ["run", "policy", "outcome", "sideswipe", "t_p", "lateral_clearance"],
                    ["-", "-", "-", "0/1", "s", "m"], rows)
    print(f"wrote {len(logs)} logs to {out}")
    return 0


def analyze_responses(args, config: dict, out: Path) -> int:
    rows = []
    for i, log in enumerate(_load_logs(args.logs, io.load_trajectory_log)):
        summary = responses.analyze_run(
            log, reaction_floor=config["analysis"]["window_reaction_floor"])
        outcome, times = summary["outcome"], summary["times"]
        rows.append([i, log.policy.kind if log.policy else "-", outcome.kind,
                     int(outcome.sideswipe), outcome.t_p,
                     *(times.per_kind[k] for k in responses.RESPONSE_KINDS),
                     times.initial_reaction, times.evasive_response])
    path = out / "response_metrics.csv"
    io.write_table(path, ["run", "policy", "outcome", "sideswipe", "t_p",
                          *(f"rt_{k.replace('-', '_')}" for k in responses.RESPONSE_KINDS),
                          "initial_reaction", "evasive_response"],
                   ["-", "-", "-", "0/1", *["s"] * 7],
                   [["nan" if v is None else v for v in row] for row in rows])
    print(f"wrote {path}")
    return 0


def analyze_sequence(args, config: dict, out: Path) -> int:
    graph = responses.build_sequence_graph(
        [(log, _window(log, config), classify_outcome(log).kind)
         for log in _load_logs(args.logs, io.load_trajectory_log)])
    imbalance = graph.flow_imbalance()
    if imbalance:
        raise RuntimeError(f"sequence graph flow imbalance: {imbalance}")
    path = out / "sequence_graph.csv"
    io.emit_sequence_graph(graph, path)
    print(f"wrote {path} ({graph.n_runs} runs, {sum(graph.edges.values())} edges)")
    return 0


def reach_compute(args, config: dict, out: Path) -> int:
    log = _load_reach_log(args.log)
    pred = config_prediction(config)
    i = log.index_at(args.t)
    area, mode = reach.drivable_area_at(log, i, pred)
    sv_rect = footprint(log.sv_state(i), log.scenario.sv_spec)
    pov_rect = footprint(log.pov_state(i), log.scenario.pov_spec)
    path = out / f"reach_t{args.t:.2f}.csv"
    io.emit_reach_snapshot(area, path, svg_path=out / f"reach_t{args.t:.2f}.svg",
                           sv_rect=sv_rect, pov_rect=pov_rect)
    print(f"wrote {path} (mode={mode}, exists={area.exists})")
    return 0


def reach_timeline(args, config: dict, out: Path) -> int:
    timeline, = _timelines([_load_reach_log(args.log)], config)
    path = out / "timeline.csv"
    io.emit_timeline(timeline, path)
    print(f"wrote {path} ({int(timeline.exists.sum())}/{len(timeline.exists)} steps drivable)")
    return 0


def reach_aggregate(args, config: dict, out: Path) -> int:
    timelines = _timelines(_load_logs(args.logs, _load_reach_log), config)
    prev = reach.aggregate_prevalence(
        timelines, n_boot=config["analysis"]["bootstrap_samples"], seed=config["seed"])
    path = out / "prevalence.csv"
    io.emit_prevalence(prev, path)
    print(f"wrote {path}")
    return 0


def oracle_verify(args, config: dict, out: Path) -> int:
    if args.anchors < 1:
        raise ValueError(f"anchors must be at least 1: {args.anchors}")
    scenario, timing = config_scenario(config)
    pred = config_prediction(config)
    log = rollout(scenario, PolicySpec(kind="no-response"), dt=config["analysis"]["dt"],
                  timing=timing)
    window = _window(log, config)
    anchors = np.linspace(window.t_begin, window.t_end, args.anchors)

    worst = 1.0
    report = []
    for t_anchor in anchors:
        i = log.index_at(float(t_anchor))
        states = [log.sv_state(i), log.pov_state(i)]
        limits = [pred.sv_limits, pred.pov_limits]
        rsets = reach.compute_reachable_sets(states, limits, pred)
        # The two clouds are walked together, drawing each step's jerks once,
        # and are stepped as they are checked; no name keeps them alive while
        # the next anchor draws its own.
        checks = oracle.containment_checks(
            [oracle.sample_trajectories(state, lim, horizon=pred.horizon, dt=pred.tau_step,
                                        n=args.n, seed=config["seed"])
             for state, lim in zip(states, limits)], rsets)
        for name, check in zip(("sv", "pov"), checks):
            worst = min(worst, check.fraction)
            report.append({"t": float(t_anchor), "vehicle": name,
                           "fraction": check.fraction,
                           "n_checked": check.n_checked,
                           "first_violation": check.first_violation})
    path = out / "oracle_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"containment {worst:.6f} over {len(report)} checks -> {path}")
    return 0 if worst == 1.0 else 1
