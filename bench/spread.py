"""Run workloads over several seeds and report median, quartiles and spread.

    python3 bench/spread.py --workloads cohort_reach,cohort_sim --seeds 0-9 \
        [--seconds 30] [--record bench/baseline.json]

Runs ``run.py`` once per (workload, seed), one process at a time, and
prints per end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (interquartile
distance over median) next to the metric's bound in ``BENCHMARK.json``.
With ``--record`` the summary is stored under the commit it measured,
which is how the bench trajectory grows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import run
from benchlib import provenance

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    res = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output, exit {res.returncode}\n"
                           f"{res.stderr}")
    result = json.loads(lines[-1])
    if res.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{res.stdout}\n{res.stderr}")
    return result


def run_sizes() -> dict:
    """Workload inputs the entry was measured at, so entries compare like with like."""
    sizes = {w: {k: v for k, v in spec.items() if k not in ("commands", "throughput")}
             for w, spec in run.WORKLOADS.items()}
    sizes["cohort_reach"].update(oracle_n=run.ORACLE_N, oracle_anchors=run.ORACLE_ANCHORS)
    return sizes


def spread_of(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary[workload] = {k: spread_of(v) for k, v in values.items()}
        for k, s in summary[workload].items():
            print(f"{workload} {k}: median {s['median']:.5g} q1 {s['q1']:.5g} "
                  f"q3 {s['q3']:.5g} spread {s['spread']:.4f} (bound {bounds[k]})",
                  flush=True)

    if args.record:
        doc = json.loads(args.record.read_text()) if args.record.exists() else {"entries": []}
        doc["entries"].append({"provenance": provenance(ROOT, numpy.__version__),
                               "seeds": seeds, "seconds": args.seconds,
                               "sizes": run_sizes(),
                               "workloads": summary})
        args.record.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
