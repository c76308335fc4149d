"""Golden outputs: sha256 of every file the CLI pipeline writes.

The default 20-run config (seed 0) is simulated once per IL (-0.8, 0 and
+0.9) and the logs are shared by every test at that IL:

- `simulate` outputs are pinned in `golden_simulate.json`;
- the `scenario gen --il` config at every IL is pinned in `golden_pipeline.json`;
- `analyze responses`, `analyze sequence`, `reach aggregate --eval-step 1.0`
  and `oracle verify --n 200 --anchors 2` at every IL, plus
  `reach aggregate --eval-step 0.1` at every IL (where most anchors share
  their SV and POV states with an anchor of another run), plus
  `reach timeline --eval-step 0.5` and `reach compute --t 3.0` on
  `run_000` at IL 0, plus `reach compute --t 3.0` on `run_000` at IL +0.9
  (whose SV layers hold up to 13 overlapping rectangles, so a change to
  how a snapshot lists or draws a layer's rectangles shows) and
  `reach compute --t 2.0 --horizon 8 --road-pruning off` on `run_000` at
  IL -0.8 (908 rows, up to 27 rectangles per layer), are pinned in
  `golden_pipeline.json`.

A change that is meant to alter the outputs regenerates both fixtures with

    PYTHONPATH=src python tests/test_golden.py

which prints each entry it adds, changes or removes against the fixture
files it overwrites, and says why in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from odlisim.cli import main

FIXTURE = Path(__file__).with_name("golden_simulate.json")
PIPELINE_FIXTURE = Path(__file__).with_name("golden_pipeline.json")
ILS = ("-0.8", "0.0", "0.9")
RUN_IL = "0.0"  # IL of the single-run reach outputs
RUN_KEY = f"run_000 at IL {RUN_IL}"
# (IL, `reach compute` arguments) of the multi-rectangle snapshots of run_000
SNAPSHOT = ("0.9", ("--t", "3.0"))
WIDE_SNAPSHOT = ("-0.8", ("--t", "2.0", "--horizon", "8", "--road-pruning", "off"))
DENSE_STEP = "0.1"


def dense_key(il: str) -> str:
    return f"reach aggregate --eval-step {DENSE_STEP} at IL {il}"


def gen_key(il: str) -> str:
    return f"scenario gen --il {il}"


def snapshot_key(il: str, args: tuple[str, ...]) -> str:
    return f"reach compute {' '.join(args)} on run_000 at IL {il}"


def digests(directory: Path) -> dict[str, str]:
    return file_digests(sorted(directory.iterdir()))


def file_digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def simulate(il: str, work: Path) -> tuple[str, str]:
    """Config path and log directory of the default cohort at one IL."""
    cfg = work / "config.json"
    logs = work / "logs"
    assert main(["scenario", "gen", "--il", il, "--seed", "0", "--out", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(logs)]) == 0
    return str(cfg), str(logs)


def cohort_digests(cfg: str, logs: str, out: Path) -> dict[str, str]:
    """Analysis, prevalence and oracle outputs over one simulated cohort."""
    for argv in (["analyze", "responses", "--logs", logs],
                 ["analyze", "sequence", "--logs", logs],
                 ["reach", "aggregate", "--logs", logs, "--eval-step", "1.0"],
                 ["oracle", "verify", "--n", "200", "--anchors", "2"]):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    return digests(out)


def dense_digests(cfg: str, logs: str, out: Path) -> dict[str, str]:
    """Prevalence over one simulated cohort at the dense evaluation step."""
    assert main(["reach", "aggregate", "--logs", logs, "--eval-step", DENSE_STEP,
                 "--config", cfg, "--out", str(out)]) == 0
    return digests(out)


def run_digests(cfg: str, logs: str, out: Path) -> dict[str, str]:
    """Timeline and one drivable-area snapshot (CSV + SVG) of run_000."""
    log = str(Path(logs) / "run_000.csv")
    for argv in (["reach", "timeline", "--log", log, "--eval-step", "0.5"],
                 ["reach", "compute", "--log", log, "--t", "3.0"]):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    return digests(out)


def snapshot_digests(cfg: str, logs: str, out: Path, args: tuple[str, ...]) -> dict[str, str]:
    """One drivable-area snapshot (CSV + SVG) of run_000 under `reach compute` ``args``."""
    assert main(["reach", "compute", "--log", str(Path(logs) / "run_000.csv"), *args,
                 "--config", cfg, "--out", str(out)]) == 0
    return digests(out)


def fixture_changes(old: dict, new: dict) -> list[str]:
    """One line per entry added to, changed in or removed from ``old`` in ``new``."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added {key!r}: {', '.join(sorted(new[key]))}")
        elif key not in new:
            lines.append(f"removed {key!r}")
        elif old[key] != new[key]:
            files = sorted(f for f in old[key].keys() | new[key].keys()
                           if old[key].get(f) != new[key].get(f))
            lines.append(f"changed {key!r}: {', '.join(files)}")
    return lines


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """IL -> (config, log directory), simulated once per IL for the module."""
    cache = {}

    def get(il):
        if il not in cache:
            cache[il] = simulate(il, tmp_path_factory.mktemp(f"il{il}"))
        return cache[il]
    return get


@pytest.mark.parametrize("il", ILS)
def test_simulate_outputs_match_golden(il, simulated):
    expected = json.loads(FIXTURE.read_text())[il]
    assert digests(Path(simulated(il)[1])) == expected


@pytest.mark.parametrize("il", ILS)
def test_scenario_gen_matches_golden(il, simulated):
    expected = json.loads(PIPELINE_FIXTURE.read_text())[gen_key(il)]
    assert file_digests([Path(simulated(il)[0])]) == expected


@pytest.mark.parametrize("il", ILS)
def test_cohort_outputs_match_golden(il, simulated, tmp_path):
    expected = json.loads(PIPELINE_FIXTURE.read_text())[il]
    assert cohort_digests(*simulated(il), tmp_path) == expected


@pytest.mark.parametrize("il", ILS)
def test_dense_prevalence_matches_golden(il, simulated, tmp_path):
    expected = json.loads(PIPELINE_FIXTURE.read_text())[dense_key(il)]
    assert dense_digests(*simulated(il), tmp_path) == expected


def test_run_reach_outputs_match_golden(simulated, tmp_path):
    expected = json.loads(PIPELINE_FIXTURE.read_text())[RUN_KEY]
    assert run_digests(*simulated(RUN_IL), tmp_path) == expected


def test_multi_rectangle_snapshot_matches_golden(simulated, tmp_path):
    il, args = SNAPSHOT
    expected = json.loads(PIPELINE_FIXTURE.read_text())[snapshot_key(il, args)]
    assert snapshot_digests(*simulated(il), tmp_path, args) == expected


def test_wide_snapshot_matches_golden(simulated, tmp_path):
    """No corridor and twice the horizon: SV layers of up to 27 rectangles."""
    il, args = WIDE_SNAPSHOT
    expected = json.loads(PIPELINE_FIXTURE.read_text())[snapshot_key(il, args)]
    assert snapshot_digests(*simulated(il), tmp_path, args) == expected


def test_fixture_changes_name_each_entry():
    old = {"a": {"x.csv": "1"}, "b": {"x.csv": "1", "y.svg": "2"}, "c": {"x.csv": "1"}}
    new = {"b": {"x.csv": "1", "y.svg": "3"}, "c": {"x.csv": "1"}, "d": {"z.csv": "4"}}
    assert fixture_changes(old, new) == ["removed 'a'", "changed 'b': y.svg",
                                         "added 'd': z.csv"]
    assert fixture_changes(new, new) == []


if __name__ == "__main__":
    golden, pipeline = {}, {}
    for il in ILS:
        with tempfile.TemporaryDirectory() as d:
            work = Path(d)
            cfg, logs = simulate(il, work)
            golden[il] = digests(Path(logs))
            pipeline[gen_key(il)] = file_digests([Path(cfg)])
            pipeline[il] = cohort_digests(cfg, logs, work / "cohort")
            pipeline[dense_key(il)] = dense_digests(cfg, logs, work / "dense")
            if il == RUN_IL:
                pipeline[RUN_KEY] = run_digests(cfg, logs, work / "run")
            for n, (snap_il, args) in enumerate((SNAPSHOT, WIDE_SNAPSHOT)):
                if il == snap_il:
                    pipeline[snapshot_key(il, args)] = snapshot_digests(
                        cfg, logs, work / f"snapshot{n}", args)
    for path, data in ((FIXTURE, golden), (PIPELINE_FIXTURE, pipeline)):
        old = json.loads(path.read_text()) if path.exists() else {}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: " + ("; ".join(fixture_changes(old, data)) or "no change"))
