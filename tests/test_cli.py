import json
import subprocess
import sys

import pytest

from conftest import fresh_env, load_table
from odlisim import io, oracle, spec
from odlisim.cli import _build_parser, main
from odlisim.engine import classify_outcome
from odlisim.responses import build_sequence_graph, window_for


def run_cli(*argv):
    return main(list(argv))


def gen_config(tmp_path, *extra):
    cfg_path = tmp_path / "config.json"
    assert run_cli("scenario", "gen", "--out", str(cfg_path), *extra) == 0
    return cfg_path


def small_config(tmp_path, il="0.0"):
    """Config trimmed to a fast two-run cohort for CLI smoke tests."""
    cfg_path = gen_config(tmp_path, "--il", il)
    config = spec.load_run_config(cfg_path)
    config["policies"] = [
        {"kind": "no-response", "count": 1},
        {"kind": "steer-center-only", "count": 1, "reaction_delay": 2.0,
         "steer_target": 20.0},
    ]
    config["analysis"]["eval_step"] = 1.0
    config["analysis"]["bootstrap_samples"] = 200
    spec.save_run_config(config, cfg_path)
    return cfg_path


def test_scenario_gen_il_override(tmp_path):
    cfg_path = gen_config(tmp_path, "--il", "-0.8")
    config = spec.load_run_config(cfg_path)
    assert config["scenario"]["incursion_level"] == -0.8
    assert config["scenario"]["end_heading_mode"] == "continuing-left"


def test_simulate_and_analyze(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    logs = sorted(out.glob("run_*.csv"))
    assert len(logs) == 2
    assert (out / "outcomes.csv").exists()

    assert run_cli("analyze", "responses", "--config", str(cfg_path),
                   "--logs", str(out), "--out", str(out)) == 0
    header, _, rows = load_table(out / "response_metrics.csv")
    assert len(rows) == 2
    assert "outcome" in header

    assert run_cli("analyze", "sequence", "--config", str(cfg_path),
                   "--logs", str(out), "--out", str(out)) == 0
    assert (out / "sequence_graph.csv").exists()


def test_reach_commands(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    run_cli("simulate", "--config", str(cfg_path), "--out", str(out))
    log = str(sorted(out.glob("run_*.csv"))[0])

    assert run_cli("reach", "compute", "--config", str(cfg_path), "--log", log,
                   "--t", "3.0", "--out", str(out)) == 0
    assert (out / "reach_t3.00.csv").exists()
    assert (out / "reach_t3.00.svg").exists()

    assert run_cli("reach", "timeline", "--config", str(cfg_path), "--log", log,
                   "--out", str(out), "--eval-step", "1.0") == 0
    header, _, rows = load_table(out / "timeline.csv")
    assert header == ["t", "rel_t", "exists", "mode"]
    assert len(rows) >= 5

    assert run_cli("reach", "aggregate", "--config", str(cfg_path),
                   "--logs", str(out), "--out", str(out), "--eval-step", "1.0") == 0
    _, _, prows = load_table(out / "prevalence.csv")
    assert len(prows) >= 5


def test_oracle_verify_small(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("oracle", "verify", "--config", str(cfg_path),
                   "--out", str(out), "--n", "200", "--anchors", "2") == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert all(entry["fraction"] == 1.0 for entry in report)


def json_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_oracle_verify_rejects_no_anchors(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("oracle", "verify", "--config", str(cfg_path),
                   "--out", str(out), "--n", "50", "--anchors", "0") == 1
    payload = json_error(capsys)
    assert payload["error"] == "ValueError" and "anchors" in payload["message"]
    assert not (out / "oracle_report.json").exists()


def test_analyze_rejects_changed_threshold_key(tmp_path, capsys):
    # The response thresholds are fixed; a changed value must not be dropped.
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    config = spec.load_run_config(cfg_path)
    config["analysis"]["steer_onset_deg"] = 7
    spec.save_run_config(config, cfg_path)
    capsys.readouterr()
    assert run_cli("analyze", "responses", "--config", str(cfg_path),
                   "--logs", str(out), "--out", str(out)) == 1
    payload = json_error(capsys)
    assert payload["error"] == "ParseError"
    assert "analysis.steer_onset_deg" in payload["message"]
    assert not (out / "response_metrics.csv").exists()


def test_simulate_names_config_missing_section(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    config = spec.load_run_config(cfg_path)
    del config["analysis"]
    spec.save_run_config(config, cfg_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 1
    payload = json_error(capsys)
    assert payload["error"] == "ParseError"
    assert str(cfg_path) in payload["message"] and "'analysis'" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("policies", [None, []], ids=["missing", "empty"])
def test_simulate_rejects_empty_cohort(tmp_path, capsys, policies):
    """A config with no policy fails at simulate, not one command later with no logs."""
    cfg_path = small_config(tmp_path)
    config = spec.load_run_config(cfg_path)
    if policies is None:
        del config["policies"]
    else:
        config["policies"] = policies
    spec.save_run_config(config, cfg_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 1
    payload = json_error(capsys)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"run config {cfg_path}: policies lists no policy")
    assert not out.exists()  # no file, and no directory left behind
    # --policy replaces the cohort, so it runs without one
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out),
                   "--policy", "no-response") == 0
    assert sorted(p.name for p in out.glob("run_*.csv")) == ["run_000.csv"]


@pytest.mark.parametrize("count", [0, -3, 2.7])
def test_simulate_rejects_bad_policy_count(tmp_path, capsys, count):
    """A count below 1 or with a fraction is a load error naming the key: before,
    0 ran no member, -3 raised IndexError and 2.7 ran 2."""
    cfg_path = small_config(tmp_path)
    config = spec.load_run_config(cfg_path)
    config["policies"][1]["count"] = count
    spec.save_run_config(config, cfg_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 1
    assert json_error(capsys) == {
        "error": "ParseError",
        "message": f"run config {cfg_path}: policies[1].count = {count!r} "
                   f"must be an integer >= 1"}
    assert not out.exists()  # a load error comes before any output


@pytest.mark.parametrize("flag, value", [("--dt", "-1"), ("--grid-dx", "0"),
                                         ("--horizon", "nan")])
def test_scenario_gen_writes_no_invalid_config(tmp_path, capsys, flag, value):
    """scenario gen runs the checks of the commands that read its config, and
    writes nothing when one fails."""
    cfg_path = tmp_path / "config.json"
    assert run_cli("scenario", "gen", "--out", str(cfg_path), flag, value) == 1
    payload = json_error(capsys)
    key = flag[2:].replace("-", "_")
    if key == "dt":
        assert payload == {"error": "ParseError",
                           "message": f"run config {cfg_path}: analysis.dt = -1.0 "
                                      f"must be a finite number > 0"}
    else:
        assert payload == {"error": "ParseError",
                           "message": f"run config {cfg_path}: ValueError: {key} must be "
                                      f"positive and finite, got {float(value)}"}
    assert not cfg_path.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("scenario", "v_pov", 10 ** 400, f"v_pov must be positive and finite, got {10 ** 400}"),
    ("scenario", "v_pov", True, "v_pov must be positive and finite, got True"),
    ("prediction", "horizon", 10 ** 400, f"horizon must be positive and finite, got {10 ** 400}"),
    ("policies", "reaction_delay", 10 ** 400, f"reaction_delay must be finite, got {10 ** 400}"),
], ids=["v_pov-huge-int", "v_pov-true", "horizon-huge-int", "reaction_delay-huge-int"])
def test_simulate_names_config_number_out_of_float_range(tmp_path, capsys, section, key,
                                                         value, message):
    """A JSON integer past the float range, or a boolean, in a spec's number field fails
    at config load naming the file and the key: before, 10**400 failed as an OverflowError
    naming neither, and "v_pov": true simulated at 1 m/s."""
    cfg_path = small_config(tmp_path)
    config = json.loads(cfg_path.read_text())
    (config["policies"][0] if section == "policies" else config[section])[key] = value
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 1
    assert json_error(capsys) == {"error": "ParseError",
                                  "message": f"run config {cfg_path}: ValueError: {message}"}
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ([0.1, 0.2, 0.3], "ctrl_fracs must be two numbers, got (0.1, 0.2, 0.3)"),
    ("ab", "ctrl_fracs must be two numbers, got 'ab'"),
    (["a", 0.5], "ctrl_fracs[0] must be finite, got a"),
    ([0.3, 10 ** 400], f"ctrl_fracs[1] must be finite, got {10 ** 400}"),
], ids=["three-numbers", "string", "text-number", "huge-int"])
def test_simulate_names_bad_ctrl_fracs(tmp_path, capsys, value, message):
    """``scenario.ctrl_fracs`` is two finite numbers; anything else fails at config load
    naming the file and the key.  Before, three numbers failed as "too many values to
    unpack" and a string as a bare comparison TypeError."""
    cfg_path = small_config(tmp_path)
    config = json.loads(cfg_path.read_text())
    config["scenario"]["ctrl_fracs"] = value
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 1
    assert json_error(capsys) == {"error": "ParseError",
                                  "message": f"run config {cfg_path}: ValueError: {message}"}
    assert not out.exists()


@pytest.mark.parametrize("value", [5, None, ["a"], ""], ids=["int", "null", "list", "empty"])
def test_simulate_names_bad_output_dir(tmp_path, monkeypatch, capsys, value):
    """Without ``--out``, simulate writes under the config's ``output_dir``, a non-empty
    string; anything else fails at load naming the file and the key, and writes nothing.
    Before, 5 failed as a bare TypeError naming neither, and "" wrote into the cwd."""
    cfg_path = small_config(tmp_path)
    config = json.loads(cfg_path.read_text())
    config["output_dir"] = value
    cfg_path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run_cli("simulate", "--config", str(cfg_path)) == 1
    assert json_error(capsys) == {
        "error": "ParseError",
        "message": f"run config {cfg_path}: output_dir = {value!r} must be a non-empty string"}
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_analyze_names_sidecar_number_out_of_float_range(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    logs, out = tmp_path / "logs", tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(logs)) == 0
    sidecar = io.sidecar_path(logs / "run_001.csv")
    meta = json.loads(sidecar.read_text())
    meta["scenario"]["v_pov"] = 10 ** 400
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_cli("analyze", "responses", "--config", str(cfg_path), "--logs", str(logs),
                   "--out", str(out)) == 1
    assert json_error(capsys) == {
        "error": "ParseError",
        "message": f"metadata sidecar {sidecar}: ValueError: v_pov must be positive and "
                   f"finite, got {10 ** 400}"}
    assert not out.exists()


def drop_columns(path, names):
    """Rewrite a log without the named columns."""
    rows = [text.split(",") for text in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in names]
    path.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))


def test_reach_names_log_without_accelerations(tmp_path, capsys):
    """Acceleration columns are optional for analyze, but every reach command
    starts from them, so it fails naming the log and the columns it lacks."""
    cfg_path = small_config(tmp_path)
    logs, out = tmp_path / "logs", tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(logs)) == 0
    log = logs / "run_001.csv"
    drop_columns(log, ("sv_ay", "pov_ax"))
    capsys.readouterr()
    for argv in (("compute", "--log", str(log), "--t", "3.0"),
                 ("timeline", "--log", str(log)), ("aggregate", "--logs", str(logs))):
        assert run_cli("reach", *argv, "--config", str(cfg_path), "--out", str(out)) == 1
        assert json_error(capsys) == {
            "error": "ParseError",
            "message": f"log {log} lacks the acceleration columns sv_ay, pov_ax "
                       f"that reachability starts from"}
    assert not out.exists()  # no file, and no directory left behind
    assert run_cli("analyze", "responses", "--config", str(cfg_path), "--logs", str(logs),
                   "--out", str(out)) == 0
    _, _, rows = load_table(out / "response_metrics.csv")
    assert len(rows) == 2


def replace_cell(path, line, column, value):
    """Rewrite one cell of a log; line 0 is the header."""
    rows = [text.split(",") for text in path.read_text().splitlines()]
    rows[line][rows[0].index(column)] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def keep_rows(path, n):
    """Cut a log to its header, its units row and its first n samples."""
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines()[:2 + n]))


@pytest.mark.parametrize("edit, message", [
    (lambda log: replace_cell(log, 11, "sv_x", "nan"),
     "row 12: non-finite value in column 'sv_x': nan"),
    (lambda log: replace_cell(log, 0, "sv_x", "sv_xx"), "missing required column 'sv_x'"),
    (lambda log: keep_rows(log, 1),
     "log file needs a header, a units row, and at least two data rows"),
], ids=["nan-cell", "renamed-column", "one-sample"])
def test_log_errors_name_the_file(tmp_path, capsys, edit, message):
    """A format error in one log of a directory names that log."""
    cfg_path = small_config(tmp_path)
    logs, out = tmp_path / "logs", tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(logs)) == 0
    log = logs / "run_001.csv"
    edit(log)
    capsys.readouterr()
    for command in (("analyze", "responses"), ("reach", "aggregate")):
        assert run_cli(*command, "--config", str(cfg_path), "--logs", str(logs),
                       "--out", str(out)) == 1
        assert json_error(capsys) == {"error": "ParseError",
                                      "message": f"log {log}: {message}"}
    assert not out.exists()  # no file, and no directory left behind


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--seed", "-1"], "seed = -1 must be an integer >= 0"),
    (["simulate", "--dt", "nan"], "analysis.dt = nan must be a finite number > 0"),
    (["oracle", "verify", "--dt", "0"], "analysis.dt = 0.0 must be a finite number > 0"),
    (["reach", "aggregate", "--logs", "{out}", "--seed", "-1"],
     "seed = -1 must be an integer >= 0"),
], ids=["simulate --seed", "simulate --dt", "oracle verify --dt", "reach aggregate --seed"])
def test_override_flags_checked_before_any_output(tmp_path, capsys, argv, message):
    """An override flag is held to the rules of the key it sets before anything is
    written: before, simulate --seed -1 failed in numpy naming no flag and left an
    empty output directory."""
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in argv]
    assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out)) == 1
    assert json_error(capsys) == {
        "error": "ParseError",
        "message": f"run config {cfg_path} with its override flags: {message}"}
    assert not out.exists()


def test_reach_rejects_zero_eval_step(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    capsys.readouterr()
    log = str(sorted(out.glob("run_*.csv"))[0])
    for source in (("timeline", "--log", log), ("aggregate", "--logs", str(out))):
        assert run_cli("reach", *source, "--config", str(cfg_path),
                       "--out", str(out), "--eval-step", "0") == 1
        assert json_error(capsys) == {"error": "ValueError",
                                      "message": "eval_step must be positive and finite, "
                                                 "got 0.0"}
    assert not (out / "timeline.csv").exists() and not (out / "prevalence.csv").exists()


def test_reach_rejects_non_finite_eval_step(tmp_path, capsys):
    """A NaN or infinite step is an error, not one anchor per run."""
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    capsys.readouterr()
    log = str(sorted(out.glob("run_*.csv"))[0])
    for step in ("nan", "inf", "-inf"):
        for source in (("timeline", "--log", log), ("aggregate", "--logs", str(out))):
            assert run_cli("reach", *source, "--config", str(cfg_path),
                           "--out", str(out), f"--eval-step={step}") == 1
            assert json_error(capsys) == {
                "error": "ValueError",
                "message": f"eval_step must be positive and finite, got {float(step)}"}
    assert not (out / "timeline.csv").exists() and not (out / "prevalence.csv").exists()


@pytest.mark.parametrize("flag, value", [("--grid-dx", "inf"), ("--grid-dx", "nan"),
                                         ("--horizon", "inf"), ("--horizon", "nan")])
def test_reach_rejects_non_finite_prediction_config(tmp_path, capsys, flag, value):
    """A non-finite grid or horizon override fails naming the field, before any output."""
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("reach", "aggregate", "--config", str(cfg_path), "--logs", str(out),
                   "--out", str(out), flag, value) == 1
    field = flag[2:].replace("-", "_")
    assert json_error(capsys) == {"error": "ParseError",
                                  "message": f"run config {cfg_path} with its override flags: "
                                             f"ValueError: {field} must be positive and "
                                             f"finite, got {float(value)}"}
    assert not (out / "prevalence.csv").exists()


@pytest.mark.parametrize("flag, value", [("--grid-dx", "inf"), ("--horizon", "0")])
def test_prediction_overrides_checked_before_any_output(tmp_path, capsys, flag, value):
    """A bad prediction override fails at config load, so no command that reads it
    makes its output directory: before, each one left a new, empty directory."""
    cfg_path = small_config(tmp_path)
    logs = tmp_path / "logs"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(logs)) == 0
    capsys.readouterr()
    log = str(logs / "run_000.csv")
    for argv in (("reach", "aggregate", "--logs", str(logs)),
                 ("reach", "compute", "--log", log, "--t", "3.0"),
                 ("reach", "timeline", "--log", log), ("oracle", "verify")):
        out = tmp_path / "fresh"
        assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out), flag, value) == 1
        field = flag[2:].replace("-", "_")
        assert json_error(capsys) == {"error": "ParseError",
                                      "message": f"run config {cfg_path} with its override "
                                                 f"flags: ValueError: {field} must be "
                                                 f"positive and finite, got {float(value)}"}
        assert not out.exists(), argv


@pytest.mark.parametrize("argv", [
    ["oracle", "verify", "--n", "0"],
    ["oracle", "verify", "--anchors", "0"],
    ["reach", "aggregate", "--logs", "{logs}", "--eval-step", "0"],
    ["reach", "timeline", "--log", "{log}", "--eval-step", "nan"],
    ["reach", "compute", "--log", "{log}", "--t", "99"],
    ["analyze", "responses", "--logs", "{missing}"],
    ["scenario", "gen", "--il", "5"],
], ids=["oracle verify --n 0", "oracle verify --anchors 0", "reach aggregate --eval-step 0",
        "reach timeline --eval-step nan", "reach compute --t 99", "analyze responses missing",
        "scenario gen --il 5"])
def test_failed_command_leaves_no_new_directory(tmp_path, capsys, argv):
    """A handler that fails removes the empty directories main made for its output,
    and keeps one that existed before; scenario gen, which reads no config, too."""
    cfg_path = small_config(tmp_path)
    logs = tmp_path / "logs"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(logs)) == 0
    argv = [a.format(logs=logs, log=logs / "run_000.csv", missing=tmp_path / "missing")
            for a in argv]
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.mkdir()
    config_args = [] if argv[0] == "scenario" else ["--config", str(cfg_path)]
    for out in (fresh / "out", kept):
        capsys.readouterr()
        assert run_cli(*argv, *config_args, "--out", str(out)) == 1
        assert "error" in json_error(capsys)
    assert not fresh.exists()
    assert kept.is_dir() and not any(kept.iterdir())


def test_scenario_gen_makes_the_directories_of_out(tmp_path, capsys, monkeypatch):
    """scenario gen makes the missing parents of ``--out``, as every other command makes
    its output directory, and removes them if the write fails."""
    out = tmp_path / "new" / "sub" / "config.json"
    assert run_cli("scenario", "gen", "--out", str(out)) == 0
    assert out.read_text() == gen_config(tmp_path).read_text()

    def fail(config, path):
        raise OSError("disk full")

    monkeypatch.setattr(spec, "save_run_config", fail)
    capsys.readouterr()
    assert run_cli("scenario", "gen", "--out", str(tmp_path / "other" / "config.json")) == 1
    assert json_error(capsys) == {"error": "OSError", "message": "disk full"}
    assert not (tmp_path / "other").exists()


def test_oracle_verify_below_one_keeps_its_report(tmp_path, monkeypatch):
    """Containment below 1 exits 1 without raising, so its new directory and report stay."""
    monkeypatch.setattr(oracle, "containment_checks", lambda clouds, rsets: [
        oracle.ContainmentReport(0.5, 2, 1, None) for _ in clouds])
    out = tmp_path / "fresh" / "out"
    assert run_cli("oracle", "verify", "--config", str(small_config(tmp_path)),
                   "--out", str(out), "--n", "10", "--anchors", "1") == 1
    assert [e["fraction"] for e in json.loads((out / "oracle_report.json").read_text())] == [
        0.5, 0.5]


@pytest.mark.parametrize("argv", [
    ["reach", "aggregate", "--logs", "{out}", "--il", "0.9"],
    ["analyze", "responses", "--logs", "{out}", "--grid-dx", "1.0"],
    ["oracle", "verify", "--road-pruning", "off"],
    ["simulate", "--horizon", "3.0"],
    ["scenario", "gen", "--config", "{cfg}"],
], ids=["reach aggregate --il", "analyze responses --grid-dx", "oracle verify --road-pruning",
        "simulate --horizon", "scenario gen --config"])
def test_command_rejects_flag_it_does_not_read(tmp_path, capsys, argv):
    """An override a command would ignore is a usage error, not a silent no-op."""
    cfg_path = small_config(tmp_path)
    out = tmp_path / "out"
    argv = [a.format(out=out, cfg=cfg_path) for a in argv]
    if argv[0] != "scenario":
        argv += ["--config", str(cfg_path)]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def pipeline_outputs(cfg_path, out) -> dict[str, bytes]:
    """Every file the pipeline writes over one config, by name."""
    for argv in (["simulate"],
                 ["analyze", "responses", "--logs", str(out)],
                 ["analyze", "sequence", "--logs", str(out)],
                 ["reach", "aggregate", "--logs", str(out)],
                 ["oracle", "verify", "--n", "50", "--anchors", "2"]):
        assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out)) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("key, fallback", [
    ("seed", 0), ("t_trigger", 1.0), ("count", 1), ("eval_step", 0.1),
    ("bootstrap_samples", 1000), ("delay_jitter", 0.0), ("window_reaction_floor", 0.4)])
def test_omitted_config_key_means_its_fallback(tmp_path, key, fallback):
    cfg_path = small_config(tmp_path)
    config = spec.load_run_config(cfg_path)
    section = {"seed": config, "t_trigger": config["scenario"],
               "count": config["policies"][1]}.get(key, config["analysis"])
    section[key] = fallback
    spec.save_run_config(config, cfg_path)
    held = pipeline_outputs(cfg_path, tmp_path / "held")
    del section[key]
    spec.save_run_config(config, cfg_path)
    assert pipeline_outputs(cfg_path, tmp_path / "omitted") == held


def test_omitted_output_dir_means_out(tmp_path, monkeypatch):
    cfg_path = small_config(tmp_path)
    config = spec.load_run_config(cfg_path)
    del config["output_dir"]
    spec.save_run_config(config, cfg_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--config", str(cfg_path)) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("run_*.csv")) == [
        "run_000.csv", "run_001.csv"]


def test_cli_error_is_machine_readable(tmp_path, capsys):
    code = run_cli("simulate", "--config", str(tmp_path / "missing.json"))
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and "message" in payload


def test_cli_determinism_smoke(tmp_path):
    cfg_path = small_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli("simulate", "--config", str(cfg_path), "--out", str(out))
        outs.append(out)
    for fname in ("run_000.csv", "run_001.csv", "outcomes.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_window_reaction_floor_governs_every_window(tmp_path):
    cfg_path = small_config(tmp_path)
    config = spec.load_run_config(cfg_path)
    config["analysis"]["window_reaction_floor"] = 0.8
    # braking that starts inside [0.4, 0.8) s after the trigger moves the
    # state at t_B, so the two floors give different sequence graphs
    config["policies"] = [{"kind": "no-response", "count": 1},
                          {"kind": "brake-only", "count": 1, "reaction_delay": 0.5}]
    spec.save_run_config(config, cfg_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    log_paths = sorted(out.glob("run_*.csv"))

    assert run_cli("reach", "timeline", "--config", str(cfg_path), "--log",
                   str(log_paths[0]), "--out", str(out)) == 0
    _, _, rows = load_table(out / "timeline.csv")
    assert float(rows[0][1]) == pytest.approx(0.8)
    assert run_cli("reach", "aggregate", "--config", str(cfg_path),
                   "--logs", str(out), "--out", str(out)) == 0
    _, _, rows = load_table(out / "prevalence.csv")
    assert float(rows[0][0]) == pytest.approx(0.8)
    assert run_cli("oracle", "verify", "--config", str(cfg_path), "--out", str(out),
                   "--n", "50", "--anchors", "2") == 0
    t_trigger = io.load_trajectory_log(log_paths[0]).timing.t_trigger
    report = json.loads((out / "oracle_report.json").read_text())
    assert report[0]["t"] == pytest.approx(t_trigger + 0.8)

    assert run_cli("analyze", "sequence", "--config", str(cfg_path),
                   "--logs", str(out), "--out", str(out)) == 0
    logs = [io.load_trajectory_log(p) for p in log_paths]
    io.emit_sequence_graph(build_sequence_graph(
        [(log, window_for(log, 0.8), classify_outcome(log).kind) for log in logs]),
        tmp_path / "expected.csv")
    assert ((out / "sequence_graph.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def test_import_loads_no_test_or_scipy_modules():
    """numpy is the only declared dependency; importing the package, its CLI, the
    compute commands and every lazily exported name in a fresh interpreter must
    load every module the package ships, and neither scipy nor the test tooling."""
    code = ("import pathlib, sys, odlisim, odlisim.cli, odlisim.commands\n"
            "for name in odlisim.__all__:\n"
            "    getattr(odlisim, name)\n"
            "shipped = {f'odlisim.{p.stem}' for p in pathlib.Path(odlisim.__file__).parent.glob('*.py')"
            " if p.stem != '__init__'}\n"
            "assert shipped <= set(sys.modules), sorted(shipped - set(sys.modules))\n"
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'hypothesis', 'pytest'))))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


# numpy and the compute modules that `odlisim.commands` imports
COMPUTE_MODULES = ("numpy", "odlisim.engine", "odlisim.io", "odlisim.reach", "odlisim.oracle",
                   "odlisim.responses")


def test_help_and_scenario_gen_load_no_compute_module(tmp_path):
    """``import odlisim``, ``--help`` and ``scenario gen`` run on the plain-Python spec
    layer: a fresh interpreter that ran them has loaded neither numpy nor a compute module."""
    code = ("import contextlib, io, sys, odlisim, odlisim.cli\n"
            "assert odlisim.cli.main(['scenario', 'gen', '--out', sys.argv[1]]) == 0\n"
            "for argv in (['--help'], ['simulate', '--help']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "        odlisim.cli.main(argv)\n"
            "assert 'odlisim.spec' in sys.modules\n"
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.json"),
                          *COMPUTE_MODULES], env=fresh_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1].split() == []
    assert (tmp_path / "c.json").read_text() == json.dumps(
        spec.default_run_config(), indent=2, sort_keys=True) + "\n"


def test_parser_built_once_and_reused_without_carry_over(tmp_path, monkeypatch):
    """In one process, each call sees only its own arguments and writes the
    bytes a fresh process writes for the same command line."""
    cfg_path = small_config(tmp_path)
    calls = [["simulate", "--policy", "brake-only", "--out", "single"],
             ["simulate", "--out", "cohort"],
             ["reach", "aggregate", "--logs", "cohort", "--out", "cohort"]]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for root in (fresh, reused):
        root.mkdir()
    for argv in calls:
        argv = [*argv, "--config", str(cfg_path)]
        subprocess.run([sys.executable, "-c",
                        "import sys; from odlisim.cli import main; sys.exit(main(sys.argv[1:]))",
                        *argv], cwd=fresh, env=fresh_env(), check=True, capture_output=True)
    monkeypatch.chdir(reused)
    for argv in calls:
        assert run_cli(*argv, "--config", str(cfg_path)) == 0
    assert _build_parser() is _build_parser()
    written = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert [p.name for p in (reused / "single").glob("run_*.csv")] == ["run_000.csv"]
    assert len(list((reused / "cohort").glob("run_*.csv"))) == 2
    assert written == sorted(p.relative_to(reused) for p in reused.rglob("*") if p.is_file())
    for rel in written:
        assert (reused / rel).read_bytes() == (fresh / rel).read_bytes(), rel
