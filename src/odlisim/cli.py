"""Command-line surface tying the pipeline together.

Every command but ``scenario gen`` reads a run config, takes only the
override flags it reads, is deterministic given config + seed, and exits 0
on success or 1 with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import io, oracle, reach, responses
from .core import footprint
from .engine import classify_outcome, rollout, run_cohort
from .policies import POLICY_KINDS, PolicySpec
from .scenario import make_scenario


# Override flags: config section (None for the top level) and argparse
# keywords.  A command declares the flags it reads; ``--seed`` is on every one.
_OVERRIDES = {
    "seed": (None, {"type": int}),
    "il": ("scenario", {"type": float, "help": "incursion level override"}),
    "dt": ("analysis", {"type": float, "help": "simulation step override"}),
    "grid-dx": ("prediction", {"type": float}),
    "horizon": ("prediction", {"type": float}),
    "road-pruning": ("prediction", {"choices": ["corridor", "off"]}),
}
_REACH = ("grid-dx", "horizon", "road-pruning")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odlisim")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, summary, handler, overrides=(), config=True):
        p = group.add_parser(name, help=summary)
        if config:
            p.add_argument("--config", required=True, help="run config JSON")
        overrides = ("seed", *overrides)
        for flag in overrides:
            p.add_argument(f"--{flag}", **_OVERRIDES[flag][1])
        p.add_argument("--out", help="output file or directory")
        p.set_defaults(handler=handler, overrides=overrides)
        return p

    scenario = sub.add_parser("scenario").add_subparsers(dest="subcommand", required=True)
    command(scenario, "gen", "write a reference config with named defaults",
            _cmd_scenario_gen, ("il", "dt", *_REACH), config=False)

    sim = command(sub, "simulate", "roll out the configured policy cohort",
                  _cmd_simulate, ("il", "dt"))
    sim.add_argument("--policy", choices=POLICY_KINDS,
                     help="replace the cohort with a single run of this policy")

    analyze = sub.add_parser("analyze").add_subparsers(dest="subcommand", required=True)
    command(analyze, "responses", "per-run response metrics table",
            _cmd_analyze_responses).add_argument(
                "--logs", required=True, help="directory of trajectory logs")
    command(analyze, "sequence", "cohort control-state sequence graph",
            _cmd_analyze_sequence).add_argument("--logs", required=True)

    reach_p = sub.add_parser("reach").add_subparsers(dest="subcommand", required=True)
    comp = command(reach_p, "compute", "drivable-area snapshot at one time",
                   _cmd_reach_compute, _REACH)
    comp.add_argument("--log", required=True)
    comp.add_argument("--t", type=float, required=True, help="anchor time, s")
    timeline = command(reach_p, "timeline", "drivable-area existence series",
                       _cmd_reach_timeline, _REACH)
    timeline.add_argument("--log", required=True)
    timeline.add_argument("--eval-step", type=float)
    agg = command(reach_p, "aggregate", "cohort drivable-area prevalence",
                  _cmd_reach_aggregate, _REACH)
    agg.add_argument("--logs", required=True)
    agg.add_argument("--eval-step", type=float)

    orc = sub.add_parser("oracle").add_subparsers(dest="subcommand", required=True)
    verify = command(orc, "verify", "sampling-based soundness certificate",
                     _cmd_oracle_verify, ("il", "dt", "grid-dx", "horizon"))
    verify.add_argument("--n", type=int, default=2000, help="random trajectories per check")
    verify.add_argument("--anchors", type=int, default=5, help="anchor times per run")

    return parser


def _apply_overrides(config: dict, args) -> dict:
    config = dict(config)
    for flag in args.overrides:
        key = flag.replace("-", "_")
        value = getattr(args, key)
        if value is None:
            continue
        section = _OVERRIDES[flag][0]
        if section is None:
            config[key] = value
        elif key == "il":  # the steepness defaults follow the incursion level
            spec = make_scenario(value)
            config[section] = dict(config[section], incursion_level=value,
                                   end_heading_mode=spec.end_heading_mode,
                                   post_tc_behavior=spec.post_tc_behavior)
        else:
            config[section] = dict(config[section], **{key: value})
    return config


def _load_logs(directory: str, load) -> list:
    """Every run_*.csv log under ``directory``, each read by ``load``."""
    paths = sorted(Path(directory).glob("run_*.csv"))
    if not paths:
        raise io.ParseError(f"no run_*.csv logs under {directory}")
    return [load(p) for p in paths]


def _load_reach_log(path):
    """A log with every acceleration column: each reachable set starts from them."""
    return io.require_accelerations(io.load_trajectory_log(path), path)


def _window(log, config: dict) -> responses.AnalysisWindow:
    """Analysis window of a log under the configured reaction floor."""
    return responses.window_for(log, config["analysis"]["window_reaction_floor"])


def _timelines(logs: list, config: dict, args) -> list[reach.Timeline]:
    """Drivable-area timelines over the analysis windows at the requested step."""
    step = args.eval_step if args.eval_step is not None else config["analysis"]["eval_step"]
    windows = [_window(log, config) for log in logs]
    runs = [(log, (w.t_begin, w.t_end)) for log, w in zip(logs, windows)]
    return reach.drivable_timelines(runs, io.config_prediction(config), eval_step=step)


def _cmd_scenario_gen(args, config: dict) -> int:
    out = Path(args.out or "run_config.json")
    # the checks the reading commands run, so no written config fails there
    io.checked_run_config(config, out)
    io.save_run_config(config, out)
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args, config: dict, out: Path) -> int:
    scenario, timing = io.config_scenario(config)
    cohort = [(PolicySpec(kind=args.policy), 1)] if args.policy else io.config_policies(config)
    if not cohort:
        raise io.ParseError(f"run config {args.config}: policies lists no policy to "
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


def _cmd_analyze_responses(args, config: dict, out: Path) -> int:
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


def _cmd_analyze_sequence(args, config: dict, out: Path) -> int:
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


def _cmd_reach_compute(args, config: dict, out: Path) -> int:
    log = _load_reach_log(args.log)
    pred = io.config_prediction(config)
    i = log.index_at(args.t)
    area, mode = reach.drivable_area_at(log, i, pred)
    sv_rect = footprint(log.sv_state(i), log.scenario.sv_spec)
    pov_rect = footprint(log.pov_state(i), log.scenario.pov_spec)
    path = out / f"reach_t{args.t:.2f}.csv"
    io.emit_reach_snapshot(area, path, svg_path=out / f"reach_t{args.t:.2f}.svg",
                           sv_rect=sv_rect, pov_rect=pov_rect)
    print(f"wrote {path} (mode={mode}, exists={area.exists})")
    return 0


def _cmd_reach_timeline(args, config: dict, out: Path) -> int:
    timeline, = _timelines([_load_reach_log(args.log)], config, args)
    path = out / "timeline.csv"
    io.emit_timeline(timeline, path)
    print(f"wrote {path} ({int(timeline.exists.sum())}/{len(timeline.exists)} steps drivable)")
    return 0


def _cmd_reach_aggregate(args, config: dict, out: Path) -> int:
    timelines = _timelines(_load_logs(args.logs, _load_reach_log), config, args)
    prev = reach.aggregate_prevalence(
        timelines, n_boot=config["analysis"]["bootstrap_samples"], seed=config["seed"])
    path = out / "prevalence.csv"
    io.emit_prevalence(prev, path)
    print(f"wrote {path}")
    return 0


def _cmd_oracle_verify(args, config: dict, out: Path) -> int:
    if args.anchors < 1:
        raise ValueError(f"anchors must be at least 1: {args.anchors}")
    scenario, timing = io.config_scenario(config)
    pred = io.config_prediction(config)
    log = rollout(scenario, PolicySpec(kind="no-response"), dt=config["analysis"]["dt"],
                  timing=timing)
    window = _window(log, config)
    anchors = np.linspace(window.t_begin, window.t_end, args.anchors)

    worst = 1.0
    report = []
    for t_anchor in anchors:
        i = log.index_at(float(t_anchor))
        for name, state, limits in (("sv", log.sv_state(i), pred.sv_limits),
                                    ("pov", log.pov_state(i), pred.pov_limits)):
            rset = reach.compute_reachable_set(state, limits, pred)
            # The cloud is stepped as it is checked, and no name keeps it
            # alive while the next check draws its own.
            check = oracle.containment_check(
                oracle.sample_trajectories(state, limits, horizon=pred.horizon,
                                           dt=pred.tau_step, n=args.n, seed=config["seed"]),
                rset)
            worst = min(worst, check.fraction)
            report.append({"t": float(t_anchor), "vehicle": name,
                           "fraction": check.fraction,
                           "n_checked": check.n_checked,
                           "first_violation": check.first_violation})
    path = out / "oracle_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"containment {worst:.6f} over {len(report)} checks -> {path}")
    return 0 if worst == 1.0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    created: list[Path] = []
    try:
        if "config" not in args:  # scenario gen writes a config and reads none
            return args.handler(args, _apply_overrides(io.default_run_config(), args))
        # the file's rules hold for its override flags too, before anything is written
        config = io.checked_run_config(_apply_overrides(io.load_run_config(args.config), args),
                                       f"{args.config} with its override flags")
        out = Path(args.out or config["output_dir"])
        created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
        return args.handler(args, config, out)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        for d in created:  # a failed command leaves no new empty directory
            with contextlib.suppress(OSError):  # one that holds a file stays
                d.rmdir()
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
