"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from benchlib import (digest_mismatches, percentile, summarize,  # noqa: E402
                      tail_percentile, tree_digests, trimmed_mean)
from tracer import self_times  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "layers.json").read_text())["per_layer"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("n, expected", [(10, None), (19, None), (20, 50.0),
                                         (99, 50.0), (100, 90.0), (999, 90.0),
                                         (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))  # 100 samples: p90 is the highest with 10 beyond
    s = summarize(values)
    assert s["n"] == 100
    assert s["median"] == 50.5
    assert s["tail_pct"] == 90.0
    assert s["tail"] == pytest.approx(90.1)
    assert sum(v > s["tail"] for v in values) == 10
    assert percentile(values, 50) == s["median"]


def test_summarize_too_few_samples_has_no_tail():
    s = summarize([3.0, 1.0, 2.0])
    assert (s["n"], s["median"], s["tail_pct"], s["tail"]) == (3, 2.0, 0.0, 0.0)


@pytest.mark.parametrize("values, expected", [([4.0, 1.0, 7.0], 4.0),
                                              ([1.0, 2.0, 3.0, 10.0], 4.0),
                                              ([9.0, 1.0, 2.0, 3.0, 4.0], 3.0),
                                              ([1, 2, 3, 4, 5, 6, 7, 8, 9, 100], 5.5)])
def test_trimmed_mean_drops_a_fifth_at_each_end(values, expected):
    assert trimmed_mean(values) == expected


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] -> a [1, 3], b [4, 9]; b -> c [5, 6], d [6, 8]
    start = [0.0, 1.0, 4.0, 5.0, 6.0]
    end = [10.0, 3.0, 9.0, 6.0, 8.0]
    parent = [-1, 0, 0, 2, 2]
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 2.0, 1.0, 2.0]


def test_digest_check_flags_one_byte_change(tmp_path):
    (tmp_path / "run_000.csv").write_bytes(b"t,sv_x\n0.0,1.5\n")
    (tmp_path / "outcomes.csv").write_bytes(b"run,outcome\n0,collision\n")
    pinned = tree_digests(tmp_path)
    assert digest_mismatches(pinned, tree_digests(tmp_path)) == []

    data = bytearray((tmp_path / "run_000.csv").read_bytes())
    data[-2] ^= 1
    (tmp_path / "run_000.csv").write_bytes(bytes(data))
    assert digest_mismatches(pinned, tree_digests(tmp_path)) == ["run_000.csv"]


def test_digest_check_flags_missing_and_extra_files(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    pinned = tree_digests(tmp_path)
    (tmp_path / "a.csv").unlink()
    (tmp_path / "b.csv").write_text("x\n")
    assert digest_mismatches(pinned, tree_digests(tmp_path)) == ["a.csv", "b.csv"]


def test_metric_and_workload_names_are_well_formed():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_per_layer_map_names_existing_metrics_and_workloads():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYER_MAP)
    for m in BENCHMARK["per_layer"]:
        spec = LAYER_MAP[m["name"]]
        assert (m["unit"], m["better"]) == (spec["unit"], spec["better"])
        assert spec["moves"], m["name"]
        for metric, workload in spec["moves"]:
            assert metric in end_to_end, (m["name"], metric)
            assert workload in workloads, (m["name"], workload)


def test_benchmark_workloads_match_harness():
    import run

    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS


def test_command_times_normalize_to_nominal_host_speed():
    import run

    # The host runs at 1x, 1.5x and 2x slowness; so do the command and the kernel.
    passes = [{"cal_s": run.CAL_NOMINAL_S * f,
               "commands": [{"il": "+0.0", "command": "simulate", "s": 2.0 * f}]}
              for f in (1.0, 1.5, 2.0)]
    key = ("+0.0", "simulate")
    assert run.command_times(passes, normalize=True)[key] == pytest.approx(2.0)
    assert run.command_times(passes, normalize=False)[key] == pytest.approx(3.0)
