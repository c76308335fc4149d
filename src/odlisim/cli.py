"""Command-line surface tying the pipeline together.

Every command but ``scenario gen`` reads a run config, takes only the
override flags it reads, is deterministic given config + seed, and exits 0
on success or 1 with a machine-readable JSON error on stderr.

This module imports only the standard library and `spec`, which is plain
Python: it builds the parser, applies the override flags, checks configs
and runs ``scenario gen``, so ``odlisim --help`` and ``scenario gen`` load
no numpy.  Every other command is a function of `commands`, which `main`
imports once the command's config is checked; that loads the whole
compute layer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from . import spec


# Override flags: config section (None for the top level) and argparse
# keywords.  A command declares the flags it reads; ``--seed`` is on every one.
_OVERRIDES = {
    "seed": (None, {"type": int}),
    "il": ("scenario", {"type": float, "help": "incursion level override"}),
    "dt": ("analysis", {"type": float, "help": "simulation step override"}),
    "eval-step": ("analysis", {"type": float, "help": "timeline anchor step override"}),
    "grid-dx": ("prediction", {"type": float}),
    "horizon": ("prediction", {"type": float}),
    "road-pruning": ("prediction", {"choices": ["corridor", "off"]}),
}
_REACH = ("grid-dx", "horizon", "road-pruning")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="odlisim")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, summary, handler, overrides=()):
        """A subcommand run by the `commands` function named ``handler``; None for
        ``scenario gen``, the one command that reads no config."""
        p = group.add_parser(name, help=summary)
        if handler is not None:
            p.add_argument("--config", required=True, help="run config JSON")
        overrides = ("seed", *overrides)
        for flag in overrides:
            p.add_argument(f"--{flag}", **_OVERRIDES[flag][1])
        p.add_argument("--out", help="output file or directory")
        p.set_defaults(handler=handler, overrides=overrides)
        return p

    scenario = sub.add_parser("scenario").add_subparsers(dest="subcommand", required=True)
    command(scenario, "gen", "write a reference config with named defaults",
            None, ("il", "dt", *_REACH))

    sim = command(sub, "simulate", "roll out the configured policy cohort",
                  "simulate", ("il", "dt"))
    sim.add_argument("--policy", choices=spec.POLICY_KINDS,
                     help="replace the cohort with a single run of this policy")

    analyze = sub.add_parser("analyze").add_subparsers(dest="subcommand", required=True)
    command(analyze, "responses", "per-run response metrics table",
            "analyze_responses").add_argument(
                "--logs", required=True, help="directory of trajectory logs")
    command(analyze, "sequence", "cohort control-state sequence graph",
            "analyze_sequence").add_argument("--logs", required=True)

    reach_p = sub.add_parser("reach").add_subparsers(dest="subcommand", required=True)
    comp = command(reach_p, "compute", "drivable-area snapshot at one time",
                   "reach_compute", _REACH)
    comp.add_argument("--log", required=True)
    comp.add_argument("--t", type=float, required=True, help="anchor time, s")
    command(reach_p, "timeline", "drivable-area existence series",
            "reach_timeline", (*_REACH, "eval-step")).add_argument("--log", required=True)
    command(reach_p, "aggregate", "cohort drivable-area prevalence",
            "reach_aggregate", (*_REACH, "eval-step")).add_argument("--logs", required=True)

    orc = sub.add_parser("oracle").add_subparsers(dest="subcommand", required=True)
    verify = command(orc, "verify", "sampling-based soundness certificate",
                     "oracle_verify", ("il", "dt", "grid-dx", "horizon"))
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
            scenario = spec.make_scenario(value)
            config[section] = dict(config[section], incursion_level=value,
                                   end_heading_mode=scenario.end_heading_mode,
                                   post_tc_behavior=scenario.post_tc_behavior)
        else:
            config[section] = dict(config[section], **{key: value})
    return config


def _make_dir(directory: Path, created: list[Path]) -> None:
    """Make ``directory`` and its missing parents, each added to ``created``, deepest first."""
    created.extend(d for d in (directory, *directory.parents) if not d.exists())
    directory.mkdir(parents=True, exist_ok=True)


def _cmd_scenario_gen(args, config: dict, created: list[Path]) -> int:
    out = Path(args.out or "run_config.json")
    # the checks the reading commands run, so no written config fails there
    spec.checked_run_config(config, out)
    _make_dir(out.parent, created)
    spec.save_run_config(config, out)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    created: list[Path] = []
    try:
        if args.handler is None:  # scenario gen writes a config and reads none
            return _cmd_scenario_gen(args, _apply_overrides(spec.default_run_config(), args),
                                     created)
        # the file's rules hold for its override flags too, before anything is written
        config = spec.checked_run_config(
            _apply_overrides(spec.load_run_config(args.config), args),
            f"{args.config} with its override flags")
        out = Path(args.out or config["output_dir"])
        _make_dir(out, created)
        from . import commands  # numpy and every compute module
        return getattr(commands, args.handler)(args, config, out)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        for d in created:  # a failed command leaves no new empty directory
            with contextlib.suppress(OSError):  # one that holds a file stays
                d.rmdir()
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
