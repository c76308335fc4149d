"""odlisim end-to-end benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload cohort_reach --seed 0 --seconds 55 --trace 0

Run from the repository root.  The benchmark drives the public CLI entry
``odlisim.cli.main`` in process, one command at a time (closed loop, one
client, no threads or pools).  A *pass* runs the workload's commands for
each of the paper's three incursion levels; passes repeat until
``--seconds`` is spent.  The first pass warms up and is not timed.

On a shared host the speed of identical work drifts by 20-30 % in phases
lasting from tens of seconds to minutes, longer than a run.  So before and
after every pass the benchmark times a fixed calibration kernel
(``benchlib``) that calls no odlisim code, and reports normalized times:
each command's seconds times ``CAL_NOMINAL_S`` over the mean of the two
kernel times around its pass, i.e. the time the command would take with
the host at nominal speed.  A slower program still reads slower; a slower
host does not.  Each
command's time is the 20 %-trimmed mean over the timed passes, which drops
single-pass bursts.  The raw seconds are printed and recorded beside them.

The seed goes to every command as ``--seed``; the program sees only the
generated config and the logs it wrote itself.

Every pass is checked: each command must exit 0 and write exactly the files
it should, outputs must repeat byte for byte from pass to pass, oracle
containment must be exactly 1.0, and for the seeds pinned in
``digests.json`` every file's sha256 must match.  A command that fails any
check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
recorded around odlisim's public functions (see ``tracer.py``).  The last
stdout line is the JSON result; the lines before it name every metric with
its unit and the run's provenance, which is also written with the spans
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io as stdio
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy

from benchlib import (calibration_seconds, digest_mismatches, median, provenance,
                      tree_digests, trimmed_mean)
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ILS = (-0.8, 0.0, 0.9)          # steep, medium, shallow incursion variants
ORACLE_N = 10_000               # trajectories per check, acceptance-criterion-3 size
ORACLE_ANCHORS = 1
SETUP_REPEATS = 9
MIN_TIMED_PASSES = 3            # per kind (untraced, traced), after the warm-up
# Calibration-kernel seconds that normalized times are scaled to; the
# kernel measured 0.21-0.30 s on a 2-vCPU Xeon.
CAL_NOMINAL_S = 0.25

# Runs per policy in the six-policy mix of ``scenario gen``, per workload,
# and the drivable-area evaluation step written into the config (None
# keeps the generated 0.1 s).  Sizes are chosen so one pass of all three
# levels takes about 5-9 s on a 2-vCPU Xeon and a 55 s run times five or
# more passes.  cohort_reach is the paper pipeline plus the soundness
# certificate, so every reach-kernel change is timed and must keep
# containment at exactly 1.0; it evaluates every fifth anchor of the
# default step (same per-anchor kernel, a fifth of the anchors).
# cohort_sim scales the mix up to three jittered replicates per policy and
# never calls reach.
# ``throughput`` names the stage rate reported as throughput_norm_per_s.
WORKLOADS = {
    "cohort_reach": {"per_policy": 1, "eval_step": 0.5, "throughput": "anchors_per_s",
                     "commands": ("simulate", "analyze responses", "analyze sequence",
                                  "reach aggregate", "oracle verify")},
    "cohort_sim": {"per_policy": 3, "eval_step": None, "throughput": "sim_runs_per_s",
                   "commands": ("simulate", "analyze responses", "analyze sequence")},
}

OUTPUT_FILES = {"analyze responses": ["response_metrics.csv"],
                "analyze sequence": ["sequence_graph.csv"],
                "reach aggregate": ["prevalence.csv"],
                "oracle verify": ["oracle_report.json"]}

END_TO_END_UNITS = {"setup_s": "s", "pipeline_norm_s": "s",
                    "throughput_norm_per_s": "1/s", "peak_rss_mb": "MB"}


def il_key(il: float) -> str:
    return f"{il:+.1f}"


def cli_argv(command: str, cfg: Path, out: Path, seed: int) -> list[str]:
    argv = command.split() + ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
    if command in ("analyze responses", "analyze sequence", "reach aggregate"):
        argv += ["--logs", str(out)]
    if command == "oracle verify":
        argv += ["--n", str(ORACLE_N), "--anchors", str(ORACLE_ANCHORS)]
    return argv


def run_cli(argv: list[str], tracer=None) -> tuple[int, float, str]:
    """One closed-loop CLI call: (exit code, wall seconds, captured stderr)."""
    from odlisim.cli import main

    out, err = stdio.StringIO(), stdio.StringIO()
    gc.collect()  # start each command without the previous one's garbage
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        if tracer is None:
            rc = main(argv)
        else:
            rc = tracer.span("cli." + "_".join(argv[:argv.index("--config")]), main, argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, err.getvalue()


def measure_setup(seed: int, workdir: Path) -> list[float]:
    """Process start -> config written: fresh interpreter, import, ``scenario gen``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import odlisim, odlisim.cli; "
            "rc = odlisim.cli.main(['scenario', 'gen', '--il', '0', '--seed', sys.argv[2], "
            "'--out', sys.argv[3]]); print(rc, time.monotonic())")
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.monotonic()
        res = subprocess.run([sys.executable, "-c", code, str(SRC), str(seed),
                              str(workdir / f"setup_{k}.json")],
                             capture_output=True, text=True, timeout=120, check=True)
        rc, t_end = res.stdout.split()[-2:]
        if rc != "0":
            raise RuntimeError(f"scenario gen failed during setup: {res.stderr}")
        times.append(float(t_end) - t0)
    return times


def prepare(workload: str, seed: int) -> dict[str, dict]:
    """Generate one config per incursion level with ``scenario gen``."""
    spec = WORKLOADS[workload]
    levels = {}
    for il in ILS:
        d = OUT / workload / f"il{il_key(il)}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        cfg = d / "config.json"
        rc, _, err = run_cli(["scenario", "gen", "--il", str(il), "--seed", str(seed),
                              "--out", str(cfg)])
        if rc != 0:
            raise RuntimeError(f"scenario gen failed: {err}")
        config = json.loads(cfg.read_text())
        for policy in config["policies"]:
            policy["count"] = spec["per_policy"]
        if spec["eval_step"] is not None:
            config["analysis"]["eval_step"] = spec["eval_step"]
        cfg.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        n_runs = spec["per_policy"] * len(config["policies"])
        levels[il_key(il)] = {"config": cfg, "out": d / "out", "runs": n_runs}
    return levels


def expected_files(command: str, n_runs: int) -> list[str]:
    if command == "simulate":
        return ([f"run_{i:03d}.csv" for i in range(n_runs)]
                + [f"run_{i:03d}.csv.meta.json" for i in range(n_runs)] + ["outcomes.csv"])
    return OUTPUT_FILES[command]


def run_pass(workload: str, levels: dict, seed: int, tracer=None) -> dict:
    """All commands of the workload at each level: timings and exit codes."""
    result = {"wall": 0.0, "commands": [], "digests": {}}
    for key, lv in levels.items():
        shutil.rmtree(lv["out"], ignore_errors=True)
        if tracer is not None:
            tracer.set_context(f"{workload}/il{key}")
        for command in WORKLOADS[workload]["commands"]:
            rc, elapsed, err = run_cli(cli_argv(command, lv["config"], lv["out"], seed),
                                       tracer)
            result["wall"] += elapsed
            result["commands"].append({"il": key, "command": command, "rc": rc,
                                       "s": elapsed, "stderr": err.strip()})
        result["digests"][key] = tree_digests(lv["out"]) if lv["out"].is_dir() else {}
    return result


def check_pass(levels: dict, p: dict, reference: dict | None, pinned: dict | None) -> dict:
    """Mark each command failed on a bad exit, file set, digest or containment."""
    for c in p["commands"]:
        lv, key = levels[c["il"]], c["il"]
        names = expected_files(c["command"], lv["runs"])
        actual = {n: p["digests"][key].get(n) for n in names}
        problems = [f"exit {c['rc']}"] if c["rc"] != 0 else []
        problems += [f"missing {n}" for n, d in actual.items() if d is None]
        for label, against in (("changed between passes", reference),
                               ("differs from pinned digest", pinned)):
            if against is not None:
                expected = {n: against[key].get(n) for n in names}
                problems += [f"{n} {label}" for n in digest_mismatches(expected, actual)]
        if c["command"] == "oracle verify" and actual["oracle_report.json"]:
            report = json.loads((lv["out"] / "oracle_report.json").read_text())
            c["containment_min"] = min(r["fraction"] for r in report)
            c["states_checked"] = sum(r["n_checked"] for r in report)
            if c["containment_min"] != 1.0 or len(report) != 2 * ORACLE_ANCHORS:
                problems.append(f"containment {c['containment_min']} over {len(report)} checks")
        c["problems"] = problems
    for key, digests in p["digests"].items():
        cmds = [c for c in p["commands"] if c["il"] == key]
        known = {n for c in cmds for n in expected_files(c["command"], levels[key]["runs"])}
        cmds[-1]["problems"] += [f"unexpected file {n}" for n in sorted(set(digests) - known)]
    return p


def count_anchors(levels: dict) -> int:
    """Drivable-area anchors ``reach aggregate`` evaluates over the cohort logs."""
    from odlisim import io as oio
    from odlisim.responses import window_for

    n = 0
    for lv in levels.values():
        step = json.loads(lv["config"].read_text())["analysis"]["eval_step"]
        for path in sorted(lv["out"].glob("run_*.csv")):
            window = window_for(oio.load_trajectory_log(path))
            t = window.t_begin
            while t <= window.t_end + 1e-9:
                n += 1
                t += step
    return n


def command_times(passes: list[dict], normalize: bool) -> dict[tuple[str, str], float]:
    """Trimmed-mean seconds of each (level, command) over the given passes.

    With ``normalize`` each time is first scaled to nominal host speed by
    the calibration kernel timed around its pass.
    """
    times: dict[tuple[str, str], list[float]] = {}
    for p in passes:
        scale = CAL_NOMINAL_S / p["cal_s"] if normalize else 1.0
        for c in p["commands"]:
            times.setdefault((c["il"], c["command"]), []).append(c["s"] * scale)
    return {k: trimmed_mean(v) for k, v in times.items()}


def stage_rates(cmd_s: dict[tuple[str, str], float], work: dict) -> dict[str, float]:
    """Work units per second of each stage, from per-command times."""
    secs: dict[str, float] = {}
    for (_, command), s in cmd_s.items():
        secs[command] = secs.get(command, 0.0) + s
    rates = {}
    if "simulate" in secs:
        rates["sim_runs_per_s"] = work["runs"] / secs["simulate"]
        rates["analyze_runs_per_s"] = 2 * work["runs"] / (
            secs["analyze responses"] + secs["analyze sequence"])
    if "reach aggregate" in secs:
        rates["anchors_per_s"] = work["anchors"] / secs["reach aggregate"]
    if "oracle verify" in secs:
        rates["samples_per_s"] = work["states"] / secs["oracle verify"]
    return rates


def load_pinned(workload: str, seed: int) -> dict | None:
    path = BENCH / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / workload
    workdir.mkdir(parents=True, exist_ok=True)
    setup = measure_setup(seed, workdir)
    levels = prepare(workload, seed)
    pinned = load_pinned(workload, seed)

    tracer = Tracer() if trace else None
    passes, reference = [], None
    kinds = (False, True) if trace else (False,)
    t_start = time.perf_counter()
    cal_before = calibration_seconds()
    while True:
        # Pass 0 warms up, untraced and untimed; with --trace 1 the timed
        # passes alternate untraced and traced.
        traced = trace and len(passes) > 0 and len(passes) % 2 == 0
        if traced:
            tracer.install()
        try:
            p = run_pass(workload, levels, seed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        cal_after = calibration_seconds()
        p["cal_s"] = (cal_before + cal_after) / 2.0
        cal_before = cal_after
        p["traced"], p["warmup"] = traced, not passes
        passes.append(check_pass(levels, p, reference, pinned))
        reference = reference or p["digests"]
        # Stop before a pass that would end after --seconds, once every
        # kind has its minimum of timed passes.
        timed = [q for q in passes if not q["warmup"]]
        enough = all(sum(q["traced"] == k for q in timed) >= MIN_TIMED_PASSES
                     for k in kinds)
        next_wall = max(q["wall"] + q["cal_s"] for q in passes[-2:])
        if enough and time.perf_counter() - t_start + next_wall > seconds:
            break

    n_runs = sum(lv["runs"] for lv in levels.values())
    oracle_cmds = [c for c in passes[0]["commands"] if c["command"] == "oracle verify"]
    work = {"runs": n_runs,
            "anchors": count_anchors(levels) if workload == "cohort_reach" else 0,
            "states": sum(c.get("states_checked", 0) for c in oracle_cmds)}
    untraced = [p for p in passes if not p["warmup"] and not p["traced"]]
    commands = [c for p in passes for c in p["commands"]]
    failed = sum(bool(c["problems"]) for c in commands)

    cmd_s = command_times(untraced, normalize=False)
    cmd_norm = command_times(untraced, normalize=True)
    rates = stage_rates(cmd_s, work)
    throughput = WORKLOADS[workload]["throughput"]
    e2e = {"setup_s": median(setup),
           "pipeline_norm_s": sum(cmd_norm.values()),
           "throughput_norm_per_s": stage_rates(cmd_norm, work)[throughput],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raw = {"pipeline_s": sum(cmd_s.values()), "throughput_per_s": rates[throughput],
           "calibration_s": median(p["cal_s"] for p in untraced)}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(ROOT, numpy.__version__),
        "sizes": {"levels": list(levels), "runs": n_runs, "anchors": work["anchors"],
                  "oracle_samples": ORACLE_N, "oracle_anchors": ORACLE_ANCHORS,
                  "states_checked": work["states"]},
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "calibration_s": [p["cal_s"] for p in passes],
        "command_s": {f"{il} {command}": s for (il, command), s in cmd_s.items()},
        "setup_samples_s": setup,
        "pinned_digests": pinned is not None,
        "attempted": len(commands), "failed": failed,
        "failed_frac": failed / len(commands),
        "problems": [f"{c['il']} {c['command']}: {'; '.join(c['problems'])} {c['stderr']}"
                     for c in commands if c["problems"]],
        "end_to_end": e2e, "raw": raw, "stage_rates": rates,
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = tracer.layer_metrics(len(traced))
        layers["trace.pipeline_s"] = sum(command_times(traced, normalize=False).values())
        layers["trace.overhead_frac"] = (sum(command_times(traced, normalize=True).values())
                                         / e2e["pipeline_norm_s"] - 1.0)
        record["per_layer"] = layers
        tracer.save(workdir / "spans.npz")
    (workdir / f"result_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return record


def import_odlisim() -> str | None:
    """Import odlisim from this checkout's sources; an error message if absent."""
    if not (SRC / "odlisim" / "__init__.py").is_file():
        return f"no odlisim sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import odlisim

    if Path(odlisim.__file__).resolve().parent != SRC / "odlisim":
        return f"imported odlisim from {odlisim.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_odlisim()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, v in record["provenance"].items():
        print(f"provenance {k} = {v}")
    for k, v in record["sizes"].items():
        print(f"size {k} = {v}")
    print(f"passes = {record['passes']} (1 warm-up, traced {record['traced_passes']})")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for k, v in record["end_to_end"].items():
        print(f"metric {k} = {v:.6g} {END_TO_END_UNITS[k]}")
    print(f"raw pipeline_s = {record['raw']['pipeline_s']:.6g} s")
    print(f"raw calibration_s = {record['raw']['calibration_s']:.6g} s")
    for k, v in record["stage_rates"].items():
        print(f"raw {k} = {v:.6g} 1/s")
    print(f"metric failed_frac = {record['failed_frac']:.6g}")
    for k, v in record.get("per_layer", {}).items():
        print(f"layer {k} = {v:.6g}")

    if args.trace:
        layer_map = json.loads((BENCH / "layers.json").read_text())["per_layer"]
        metrics = {name: {"value": record["per_layer"][name], "unit": spec["unit"]}
                   for name, spec in layer_map.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in record["end_to_end"].items()}
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
