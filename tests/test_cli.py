import copy
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poql.checkpoint import ConfigError, load_checkpoint, model_from_dict, model_to_dict
from poql.cli import main
from poql.agent import evaluate
from poql.envs import make_environment
from poql.learn import run_ioalergia


def _config(outdir, agent="poql", env_name="hot_beverage", seed=7, **agent_overrides):
    agent_config = dict(
        max_episodes=400,
        bootstrap_episodes=40,
        update_interval=200,
        eval_every=200,
        epsilon_decay_episodes=200,
    )
    agent_config.update(agent_overrides)
    return {
        "schema_version": 1,
        "seed": seed,
        "agent": agent,
        "environment": {"name": env_name},
        "agent_config": agent_config,
        "output_dir": str(outdir),
    }


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def beverage_run(tmp_path_factory):
    """One completed poql run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("runs")
    outdir = root / "bev-poql"
    cfg = _config(outdir)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path), "--quiet"]) == 0
    return outdir, cfg


def test_train_writes_all_artifacts(beverage_run):
    outdir, _ = beverage_run
    for artifact in ("run.json", "run_record.csv", "config.json",
                     "model.json", "model.dot", "qtable.txt", "traces.txt"):
        assert (outdir / artifact).exists(), artifact
    meta = json.loads((outdir / "run.json").read_text())
    assert meta["status"] == "complete"
    assert meta["final"]["goal_rate"] == 1.0
    header = (outdir / "run_record.csv").read_text().splitlines()[0]
    assert header == "episode,goal_rate,mean_steps,mean_return,model_state_count,q_rows,config_hash"


def test_artifacts_reference_config_hash(beverage_run):
    outdir, _ = beverage_run
    digest = json.loads((outdir / "config.json").read_text())["config_hash"]
    assert digest in (outdir / "model.dot").read_text()
    assert digest in (outdir / "qtable.txt").read_text()
    assert digest in (outdir / "run_record.csv").read_text()
    assert digest == json.loads((outdir / "run.json").read_text())["config_hash"]


def test_invalid_environment_rejected_without_artifacts(tmp_path, capsys):
    cfg = _config(tmp_path / "nope", env_name="labyrinth")
    path = _write_config(tmp_path, "bad.json", cfg)
    assert main(["train", str(path)]) == 2
    assert "unknown environment" in capsys.readouterr().err
    assert not (tmp_path / "nope").exists()


def test_train_rejects_grid_with_non_ascii_room_digit(tmp_path, capsys):
    """A room glyph outside 1-9 is refused before any run directory exists,
    rather than failing later in the ASCII trace file write."""
    cfg = _config(tmp_path / "nope")
    cfg["environment"] = {"name": "grid", "layout": "S\u00b2G"}
    path = _write_config(tmp_path, "grid.json", cfg)
    assert _error_line(["train", str(path)], capsys).startswith("invalid environment: ")
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("layout", [5, ["S.G"], None, {"S": "G"}],
                         ids=["int", "list", "null", "object"])
def test_train_rejects_grid_layout_that_is_not_a_string(tmp_path, capsys, layout):
    cfg = _config(tmp_path / "nope")
    cfg["environment"] = {"name": "grid", "layout": layout}
    path = _write_config(tmp_path, "grid.json", cfg)
    assert _error_line(["train", str(path)], capsys) == (
        f"invalid environment: grid layout must be a string, got {layout!r}")
    assert not (tmp_path / "nope").exists()


def test_train_rejects_grid_without_layout(tmp_path, capsys):
    cfg = _config(tmp_path / "nope")
    cfg["environment"] = {"name": "grid"}
    path = _write_config(tmp_path, "grid.json", cfg)
    assert _error_line(["train", str(path)], capsys) == (
        "invalid environment: grid needs a 'layout' parameter")
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("max_steps", ["100", 0, -3, True, 1.5])
def test_train_rejects_max_steps_below_one_or_not_an_integer(tmp_path, capsys, max_steps):
    cfg = _config(tmp_path / "nope")
    cfg["environment"] = {"name": "hot_beverage", "max_steps": max_steps}
    path = _write_config(tmp_path, "steps.json", cfg)
    assert _error_line(["train", str(path)], capsys) == (
        f"invalid environment: max_steps must be an integer of at least 1, "
        f"got {max_steps!r}")
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("agent,bad", [
    pytest.param("poql", {"alpha": 0.0}, id="alpha"),
    pytest.param("poql", {"eval_every": 0}, id="eval_every"),
    pytest.param("poql", {"eval_episodes": 0}, id="eval_episodes"),
    pytest.param("random", {"eval_episodes": 0}, id="random-eval_episodes"),
    pytest.param("poql", {"eps_al": 0}, id="eps_al-0"),
    pytest.param("poql", {"eps_al": 1.5}, id="eps_al-1.5"),
    pytest.param("poql", {"max_episodes": 0}, id="max_episodes-0"),
    pytest.param("poql", {"max_episodes": -5}, id="max_episodes-negative"),
    pytest.param("poql", {"epsilon_start": 1.5}, id="epsilon_start-1.5"),
    pytest.param("poql", {"epsilon_start": -0.1}, id="epsilon_start-negative"),
    pytest.param("obs_baseline", {"epsilon_end": -0.2}, id="epsilon_end-negative"),
    pytest.param("poql", {"epsilon_end": 1.01}, id="epsilon_end-above-1"),
    pytest.param("poql", {"freeze_after": -3}, id="freeze_after-negative"),
    pytest.param("poql", {"epsilon_decay_episodes": -10},
                 id="epsilon_decay_episodes-negative"),
    pytest.param("poql", {"oracle_steps": -1.0}, id="oracle_steps-negative"),
    pytest.param("poql", {"oracle_steps": 0}, id="oracle_steps-0"),
])
def test_invalid_agent_config_rejected(tmp_path, capsys, agent, bad):
    cfg = _config(tmp_path / "nope", agent=agent, **bad)
    path = _write_config(tmp_path, "bad2.json", cfg)
    assert main(["train", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid agent_config: ") and err.count("\n") == 1
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("field,value", [
    ("oracle_steps", math.nan), ("oracle_steps", "26"), ("alpha", True),
    ("max_episodes", 20.5), ("max_episodes", True), ("bootstrap_episodes", 5.5),
    ("eval_episodes", 2.5), ("epsilon_decay_episodes", "10"),
])
def test_train_rejects_agent_config_values_of_the_wrong_type(tmp_path, capsys, field, value):
    """Episode counts must be integers and the other numbers finite reals,
    never booleans; each is refused before a run directory exists."""
    cfg = _config(tmp_path / "nope", **{field: value})
    path = _write_config(tmp_path, "types.json", cfg)
    kind = "an integer" if field.endswith("episodes") else "a finite number"
    assert _error_line(["train", str(path)], capsys) == (
        f"invalid agent_config: {field} must be {kind}, got {value!r}")
    assert not (tmp_path / "nope").exists()


def _error_line(argv, capsys) -> str:
    """Run `poql argv` on an unusable input; return its one stderr line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: "):].rstrip("\n")


def test_train_rejects_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert _error_line(["train", str(path)], capsys) == f"{path}: not a JSON object"


def test_train_rejects_agent_config_that_is_not_an_object(tmp_path, capsys):
    cfg = _config(tmp_path / "nope")
    cfg["agent_config"] = 5
    path = _write_config(tmp_path, "five.json", cfg)
    assert _error_line(["train", str(path)], capsys).startswith("invalid agent_config: ")
    assert not (tmp_path / "nope").exists()


def test_train_rejects_boolean_seed(tmp_path, capsys):
    path = _write_config(tmp_path, "seed.json", _config(tmp_path / "nope", seed=True))
    assert _error_line(["train", str(path)], capsys) == "seed must be an explicit integer"
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda cfg: cfg.update(schema_version=2),
                 "schema_version must be 1, got 2", id="schema-version"),
    pytest.param(lambda cfg: cfg.pop("seed"), "config missing keys: ['seed']",
                 id="missing-key"),
    pytest.param(lambda cfg: cfg.update(agent="sarsa"),
                 "agent must be one of ('poql', 'obs_baseline', 'random'), got 'sarsa'",
                 id="agent-kind"),
    pytest.param(lambda cfg: cfg.update(environment="gravity"),
                 "environment must be an object with a 'name'", id="environment-string"),
    pytest.param(lambda cfg: cfg.update(environment={"layout": "S.G"}),
                 "environment must be an object with a 'name'", id="environment-unnamed"),
])
def test_train_rejects_config_outside_the_schema(tmp_path, capsys, edit, message):
    cfg = _config(tmp_path / "nope")
    edit(cfg)
    path = _write_config(tmp_path, "schema.json", cfg)
    assert _error_line(["train", str(path)], capsys) == message
    assert not (tmp_path / "nope").exists()


def test_train_rejects_non_string_output_dir(tmp_path, capsys):
    cfg = _config(tmp_path / "unused")
    cfg["output_dir"] = 5
    path = _write_config(tmp_path, "outdir.json", cfg)
    assert _error_line(["train", str(path)], capsys) == "output_dir must be a string, got 5"


def test_train_reports_output_dir_below_a_file(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "run"
    path = _write_config(tmp_path, "below.json", _config(out))
    assert _error_line(["train", str(path)], capsys) == f"{out}: Not a directory"


def test_unknown_agent_config_key_rejected(tmp_path, capsys):
    cfg = _config(tmp_path / "nope")
    cfg["agent_config"]["learning_rate"] = 0.5
    path = _write_config(tmp_path, "bad3.json", cfg)
    assert main(["train", str(path)]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_unknown_top_level_config_key_rejected(tmp_path, capsys):
    """A misspelled `agent_config` would otherwise run the default schedule."""
    cfg = _config(tmp_path / "nope", max_episodes=20)
    cfg["agent_confg"] = cfg.pop("agent_config")
    cfg["comment"] = "typo"
    path = _write_config(tmp_path, "typo.json", cfg)
    assert (_error_line(["train", str(path)], capsys)
            == "config has unknown keys: ['agent_confg', 'comment']")
    assert not (tmp_path / "nope").exists()


def test_existing_run_needs_force(beverage_run, tmp_path, capsys):
    outdir, cfg = beverage_run
    path = _write_config(tmp_path, "again.json", cfg)
    assert main(["train", str(path)]) == 2
    assert "--force" in capsys.readouterr().err


def test_reproducible_runs_are_byte_identical(tmp_path):
    """Two runs of one experiment in two directories write the same files:
    config.json leaves out the output directory."""
    cfg_a = _config(tmp_path / "a", max_episodes=200)
    cfg_b = {**_config(tmp_path / "b", max_episodes=200)}
    path_a = _write_config(tmp_path, "a.json", cfg_a)
    path_b = _write_config(tmp_path, "b.json", cfg_b)
    assert main(["train", str(path_a), "--quiet"]) == 0
    assert main(["train", str(path_b), "--quiet"]) == 0
    for name in ("traces.txt", "run_record.csv", "config.json", "model.json",
                 "model.dot", "qtable.txt"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    assert "output_dir" not in json.loads((tmp_path / "a" / "config.json").read_text())


def test_eval_on_reloaded_checkpoint_matches_in_process(beverage_run, capsys):
    outdir, cfg = beverage_run
    assert main(["eval", str(outdir), "--episodes", "50", "--seed", "9"]) == 0
    printed = json.loads(capsys.readouterr().out.strip())

    agent, env = load_checkpoint(outdir)
    stats = evaluate(agent, env, 50, seed=9)
    assert printed["goal_rate"] == stats.goal_rate
    assert printed["mean_steps"] == stats.mean_steps
    assert printed["mean_return"] == pytest.approx(stats.mean_return)


def test_export_dot_roundtrip_is_byte_identical(beverage_run, tmp_path, capsys):
    outdir, _ = beverage_run
    assert main(["export-dot", str(outdir)]) == 0
    first = capsys.readouterr().out
    assert first == (outdir / "model.dot").read_text()
    assert main(["export-dot", str(outdir)]) == 0
    assert capsys.readouterr().out == first


def test_export_dot_beverage_model_shape(beverage_run, capsys):
    outdir, _ = beverage_run
    assert main(["export-dot", str(outdir)]) == 0
    dot = capsys.readouterr().out
    labels = sorted(line.split("|")[1].split('"')[0]
                    for line in dot.splitlines() if "label=\"" in line and "|" in line)
    assert labels == ["beep", "beep", "coffee", "init", "tea"]


# One DOT statement per line: a node or an edge with one double-quoted label,
# in which only an escaped character may follow a backslash.
_DOT_STATEMENT = re.compile(
    r'  (\w+)(?: -> (\w+))? \[(?:shape=none, )?label="((?:[^"\\]|\\.)*)"\];')


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    """Symbols may hold `"` and `\\`; the exported labels escape both, so the
    DOT parses and each label reads back as the symbol it shows."""
    model = run_ioalergia([("init", (("co\\in", 'be"ep'), ("push", "init")))] * 3)
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(model)))
    assert main(["export-dot", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "digraph model {" and lines[-1] == "}"
    labels = []
    for line in lines[1:-1]:
        if line.startswith("  //") or line == "  __start -> s0;":
            continue
        match = _DOT_STATEMENT.fullmatch(line)
        assert match, line
        labels.append(re.sub(r"\\(.)", r"\1", match[3]))
    assert '1|be"ep' in labels
    assert "co\\in:1.0000" in labels
    assert sum('"' in label or "\\" in label for label in labels) == 2


def test_export_dot_rejects_empty_model(tmp_path, capsys):
    (tmp_path / "model.json").write_text(json.dumps(
        {"initial": 0, "actions": [], "states": [], "transitions": []}
    ))
    assert main(["export-dot", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_export_dot_rejects_model_that_is_not_an_object(tmp_path, capsys):
    (tmp_path / "model.json").write_text("[]")
    assert _error_line(["export-dot", str(tmp_path)], capsys) == (
        f"{tmp_path / 'model.json'}: not a JSON object")


def test_export_dot_reports_unwritable_out_path(beverage_run, tmp_path, capsys):
    out = tmp_path / "missing" / "x.dot"
    assert _error_line(["export-dot", str(beverage_run[0]), "--out", str(out)], capsys) == (
        f"{out}: No such file or directory")


def _with_num_den_entry(model_json):
    """Rewrite the first transition of a `model.json` in the `num`/`den`
    encoding that `model.json` no longer holds."""
    model = json.loads(model_json.read_text())
    entry = model["transitions"][0]
    entry["num"], entry["den"] = entry.pop("count"), entry.pop("total")
    model_json.write_text(json.dumps(model))


def test_export_dot_rejects_model_entry_without_count(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    _with_num_den_entry(ckpt / "model.json")
    assert _error_line(["export-dot", str(ckpt)], capsys) == (
        f"{ckpt / 'model.json'}: missing key 'count'")


def _fail_replace_of(monkeypatch, name):
    """Make `os.replace` fail for targets called `name`."""
    import os

    replace = os.replace

    def fail(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)


@pytest.mark.parametrize("command,flag,name", [
    pytest.param("export-dot", "--out", "x.dot", id="export-dot"),
    pytest.param("compare", "--csv", "x.csv", id="compare"),
])
def test_failed_replace_keeps_the_previous_output(beverage_run, tmp_path, monkeypatch,
                                                  capsys, command, flag, name):
    """A failed replace of `export-dot --out` or `compare --csv` keeps the
    previous file's bytes, leaves no temp file, prints nothing to stdout and
    one `error:` line to stderr."""
    out = tmp_path / name
    out.write_bytes(b"previous\n")
    _fail_replace_of(monkeypatch, name)
    capsys.readouterr()
    assert main([command, str(beverage_run[0]), flag, str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {out}: No space left on device\n")
    assert out.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_model_from_dict_rejects_empty():
    with pytest.raises(ValueError):
        model_from_dict({"initial": 0, "actions": [], "states": [], "transitions": []})


def test_compare_groups_and_flags_incomplete(beverage_run, tmp_path, capsys):
    outdir, _ = beverage_run
    empty = tmp_path / "unfinished"
    empty.mkdir()
    csv_path = tmp_path / "compare.csv"
    assert main(["compare", str(outdir), str(empty), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "hot_beverage" in out
    assert "incomplete" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "environment,agent,steps_to_goal,episodes_to_stop,status,run"
    assert len(lines) == 3


def test_compare_rejects_truncated_run_json(beverage_run, tmp_path, capsys):
    outdir, _ = beverage_run
    run = tmp_path / "truncated"
    shutil.copytree(outdir, run)
    meta = run / "run.json"
    meta.write_text(meta.read_text()[:40])
    assert main(["compare", str(outdir), str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta}: ") and err.count("\n") == 1


@pytest.mark.parametrize("final", [None, 3])
def test_compare_rejects_run_json_without_final_object(beverage_run, tmp_path, capsys, final):
    outdir, _ = beverage_run
    run = tmp_path / "nofinal"
    shutil.copytree(outdir, run)
    meta_path = run / "run.json"
    meta = json.loads(meta_path.read_text())
    meta["final"] = final
    meta_path.write_text(json.dumps(meta))
    assert _error_line(["compare", str(outdir), str(run)], capsys) == (
        f"{meta_path}: 'final' is not an object")


def test_compare_reports_unwritable_csv_path(beverage_run, tmp_path, capsys):
    csv_path = tmp_path / "missing" / "x.csv"
    assert _error_line(["compare", str(beverage_run[0]), "--csv", str(csv_path)], capsys) == (
        f"{csv_path}: No such file or directory")


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_eval_rejects_episode_count_below_one(tmp_path, capsys, episodes):
    # The checkpoint does not exist: the count is checked before any file is read.
    argv = ["eval", str(tmp_path / "no-run"), "--episodes", episodes]
    assert _error_line(argv, capsys) == f"--episodes must be at least 1, got {episodes}"


def _checkpoint_copy(beverage_run, tmp_path):
    outdir, _ = beverage_run
    ckpt = tmp_path / "ckpt"
    shutil.copytree(outdir, ckpt)
    return ckpt


def _eval_error(ckpt, capsys) -> str:
    """Run `poql eval` on a broken checkpoint; return its one stderr line."""
    return _error_line(["eval", str(ckpt), "--episodes", "5"], capsys)


def _replace_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


def test_eval_reports_missing_qtable(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    (ckpt / "qtable.txt").unlink()
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'qtable.txt'}: No such file or directory"


def test_eval_reports_malformed_qtable_line(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    _replace_line(ckpt / "qtable.txt", 2, "garbage line")
    assert _eval_error(ckpt, capsys) == (
        f"{ckpt / 'qtable.txt'}:3: malformed Q-table row 'garbage line'")


def test_eval_reports_a_nan_qtable_value(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    row = ",".join([*(ckpt / "qtable.txt").read_text().splitlines()[1].split(",")[:4], "nan"])
    _replace_line(ckpt / "qtable.txt", 1, row)
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'qtable.txt'}:2: malformed Q-table row {row!r}"


def test_eval_reports_a_second_row_for_one_key_and_action(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    lines = (ckpt / "qtable.txt").read_text().splitlines()
    copy = ",".join([*lines[1].split(",")[:4], "123.5"])
    (ckpt / "qtable.txt").write_text("\n".join([*lines, copy]) + "\n")
    assert _eval_error(ckpt, capsys) == (
        f"{ckpt / 'qtable.txt'}:{len(lines) + 1}: duplicate Q-table row {copy!r}")


def test_eval_reports_model_without_states(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    model = json.loads((ckpt / "model.json").read_text())
    del model["states"]
    (ckpt / "model.json").write_text(json.dumps(model))
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'model.json'}: missing key 'states'"


def test_eval_reports_model_entry_without_count(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    _with_num_den_entry(ckpt / "model.json")
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'model.json'}: missing key 'count'"


def _set_json_hash(path, digest):
    data = json.loads(path.read_text())
    if digest is None:
        del data["config_hash"]
    else:
        data["config_hash"] = digest
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("tampered,named,found", [
    ("model.json", "model.json", "0000000000000000"),
    ("model.json", "model.json", None),
    ("qtable.txt", "qtable.txt", "0000000000000000"),
    ("qtable.txt", "qtable.txt", None),
    ("config.json", "qtable.txt", "0000000000000000"),
])
def test_eval_rejects_a_config_hash_that_differs_from_config_json(
        beverage_run, tmp_path, capsys, tampered, named, found):
    """qtable.txt and model.json must record config.json's config_hash; the
    first file that does not is named."""
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    digest = json.loads((ckpt / "config.json").read_text())["config_hash"]
    path = ckpt / tampered
    if tampered == "qtable.txt":
        _replace_line(path, 0, "# no hash" if found is None else f"# config_hash={found}")
    else:
        _set_json_hash(path, found)
    recorded = found
    if tampered == "config.json":
        recorded, digest = digest, found
    assert _eval_error(ckpt, capsys) == (
        f"{ckpt / named}: config_hash {recorded or 'missing'}, but config.json has {digest}")


def test_eval_rejects_config_json_without_config_hash(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    _set_json_hash(ckpt / "config.json", None)
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'config.json'}: missing key 'config_hash'"


def test_eval_accepts_a_config_json_that_carries_output_dir(beverage_run, tmp_path,
                                                            capsys):
    """Run directories written while config.json still echoed output_dir
    load: config_hash never covered that key."""
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    assert main(["eval", str(ckpt), "--episodes", "20", "--seed", "3"]) == 0
    expected = capsys.readouterr().out
    config = json.loads((ckpt / "config.json").read_text())
    config["output_dir"] = str(beverage_run[0])
    (ckpt / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    assert main(["eval", str(ckpt), "--episodes", "20", "--seed", "3"]) == 0
    assert capsys.readouterr().out == expected


def test_eval_reports_config_without_agent(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    del config["agent"]
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'config.json'}: missing key 'agent'"


def test_eval_reports_config_without_environment(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    del config["environment"]
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys).startswith(
        f"{ckpt / 'config.json'}: invalid environment: ")


@pytest.mark.parametrize("actions", [
    pytest.param(["coin", "button"], id="environment-order"),
    pytest.param(["button", "coin"], id="reordered"),
    pytest.param(["coin", "button", "kick"], id="extra"),
    pytest.param(5, id="not-a-list"),
    pytest.param([["coin"], "button"], id="not-symbols"),
])
def test_eval_refuses_config_json_with_an_actions_key(beverage_run, tmp_path, capsys,
                                                      actions):
    """The actions come from the environment that config.json names; an
    `actions` key, edited in or written by an older poql, is a field that
    config_hash does not cover."""
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    digest = config["config_hash"]
    config["actions"] = actions
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys).startswith(
        f"{ckpt / 'config.json'}: config_hash {digest}, but its fields hash to ")


def _edit_environment(config):
    config["environment"] = {"name": "thinmaze"}


def _edit_gamma(config):
    config["agent_config"]["gamma"] = 0.5


@pytest.mark.parametrize("edit", [_edit_environment, _edit_gamma],
                         ids=["environment", "agent_config.gamma"])
def test_eval_rejects_config_fields_that_its_hash_does_not_cover(
        beverage_run, tmp_path, capsys, edit):
    """A field edited after training no longer hashes to config_hash, so the
    agent is not evaluated against another experiment."""
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    digest = config["config_hash"]
    edit(config)
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys).startswith(
        f"{ckpt / 'config.json'}: config_hash {digest}, but its fields hash to ")


@pytest.mark.parametrize("edit", [_edit_environment, _edit_gamma],
                         ids=["environment", "agent_config.gamma"])
def test_load_checkpoint_rejects_config_fields_that_its_hash_does_not_cover(
        beverage_run, tmp_path, edit):
    """The recomputed hash is checked by the loader itself, so a Python
    caller never gets an agent paired with an edited experiment."""
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    digest = config["config_hash"]
    edit(config)
    (ckpt / "config.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(ckpt)
    assert str(info.value).startswith(
        f"{ckpt / 'config.json'}: config_hash {digest}, but its fields hash to ")


def _zero_total(path):
    model = json.loads(path.read_text())
    model["transitions"][0]["total"] = 0
    path.write_text(json.dumps(model))


def _unknown_dst(path):
    model = json.loads(path.read_text())
    model["transitions"][0]["dst"] = 77
    path.write_text(json.dumps(model))


def _deeply_nested(path):
    path.write_text("[" * 100_000)


@pytest.mark.parametrize("command,name,corrupt,message", [
    pytest.param("eval", "model.json", _zero_total, "transition (0, 'button'): total 0, "
                 "but its counts sum to ", id="eval-zero-total"),
    pytest.param("export-dot", "model.json", _zero_total, "transition (0, 'button'): "
                 "total 0, but its counts sum to ", id="export-dot-zero-total"),
    pytest.param("export-dot", "model.json", _unknown_dst,
                 "trans(0, 'button') targets unknown states", id="export-dot-unknown-dst"),
    pytest.param("eval", "model.json", _deeply_nested, "maximum recursion depth exceeded",
                 id="eval-nested"),
    pytest.param("export-dot", "model.json", _deeply_nested,
                 "maximum recursion depth exceeded", id="export-dot-nested"),
    pytest.param("train", "config.json", _deeply_nested, "maximum recursion depth exceeded",
                 id="train-nested"),
    pytest.param("compare", "run.json", _deeply_nested, "maximum recursion depth exceeded",
                 id="compare-nested"),
])
def test_corrupt_json_input_is_one_error_line(beverage_run, tmp_path, capsys, command, name,
                                              corrupt, message):
    """A row total of 0, a transition to an unknown state and a JSON file
    nested past the recursion limit each end the command with one
    `error: <path>: ...` line and exit 2."""
    run = _checkpoint_copy(beverage_run, tmp_path)
    corrupt(run / name)
    argv = [command, str(run / name) if command == "train" else str(run)]
    assert _error_line(argv, capsys).startswith(f"{run / name}: {message}")


def _edit_state_id(model, old, new):
    for state in model["states"]:
        if state["id"] == old:
            state["id"] = new
    for entry in model["transitions"]:
        for end in ("src", "dst"):
            if entry[end] == old:
                entry[end] = new


def _first_of_a_two_edge_row(model):
    """The first transition whose (src, action) row has another edge."""
    rows = [(t["src"], t["action"]) for t in model["transitions"]]
    return next(t for t, row in zip(model["transitions"], rows) if rows.count(row) > 1)


def _double_count_and_total(model):
    """Same probability, but the row's counts no longer sum to its total."""
    entry = _first_of_a_two_edge_row(model)
    entry.update(count=2 * entry["count"], total=2 * entry["total"])


def _add_zero_count_edge(model):
    entry = _first_of_a_two_edge_row(model)
    model["transitions"].append(dict(entry, dst=entry["src"], count=0))


def _share_a_label(model):
    """Give one successor of a two-edge row the label of the other."""
    first = _first_of_a_two_edge_row(model)
    second = next(t for t in model["transitions"] if t is not first
                  and (t["src"], t["action"]) == (first["src"], first["action"]))
    labels = {state["id"]: state for state in model["states"]}
    labels[second["dst"]]["label"] = labels[first["dst"]]["label"]


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda m: _edit_state_id(m, 1, "1"), "state id must be an integer, got '1'",
                 id="string-id"),
    pytest.param(lambda m: _edit_state_id(m, 1, True), "state id must be an integer, got True",
                 id="bool-id"),
    pytest.param(lambda m: m["states"].append(dict(m["states"][1], label="coffee")),
                 "state ids must be distinct", id="duplicate-id"),
    pytest.param(lambda m: m["states"][1].update(label=5),
                 "invalid symbol 5: need a non-whitespace token without ';:,|'", id="label"),
    pytest.param(_add_zero_count_edge, "count must be an integer of at least 1, got 0",
                 id="count-0"),
    pytest.param(lambda m: m["transitions"][0].update(count=2.5),
                 "count must be an integer of at least 1, got 2.5", id="count-float"),
    pytest.param(_double_count_and_total, "transition (1, 'button'): total ", id="total"),
    pytest.param(lambda m: m["transitions"][0].update(dst=77),
                 "trans(0, 'button') targets unknown states", id="unknown-dst"),
    pytest.param(_share_a_label, "label determinism violated at (", id="shared-label"),
    pytest.param(lambda m: m["actions"].append('say "hi"'),
                 """invalid symbol 'say "hi"': need a non-whitespace token""",
                 id="action-symbol"),
    pytest.param(lambda m: m["actions"].append("kick"),
                 "actions ['button', 'coin', 'kick'] are not all among the environment's "
                 "['coin', 'button']", id="action"),
])
def test_eval_refuses_model_values_that_no_model_has(beverage_run, tmp_path, capsys, edit,
                                                     message):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    path = ckpt / "model.json"
    model = json.loads(path.read_text())
    edit(model)
    path.write_text(json.dumps(model))
    assert _eval_error(ckpt, capsys).startswith(f"{path}: {message}")


_CORRUPTIBLE = ("config.json", "model.json", "model.dot", "qtable.txt", "traces.txt")
_JSON_VALUES = (None, True, 0, -1, 2.5, 2**70, "", "beep", "x:y", [], {}, [0], {"id": 0})


def _json_paths(value, path=()):
    """The path of every value inside a JSON document, root excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _corrupt(raw: bytes, kind: str, data) -> bytes:
    """`raw` after one truncation, byte flip, line deletion or JSON value swap."""
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
    if kind == "delete-line":
        lines = raw.splitlines(keepends=True)
        del lines[data.draw(st.integers(0, len(lines) - 1), label="line")]
        return b"".join(lines)
    doc = json.loads(raw)
    paths = list(_json_paths(doc))
    target = data.draw(st.sampled_from(paths), label="target")
    other = data.draw(st.sampled_from(paths), label="source")
    source = doc
    for key in other:
        source = source[key]
    # A copy: a value moved inside itself would make the document a cycle.
    value = data.draw(st.sampled_from((*_JSON_VALUES, copy.deepcopy(source))),
                      label="value")
    parent = doc
    for key in target[:-1]:
        parent = parent[key]
    parent[target[-1]] = value
    return json.dumps(doc, indent=2, sort_keys=True).encode()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("truncate", "flip", "delete-line", "json-swap")), data=st.data())
def test_a_corrupted_checkpoint_file_gives_exit_0_or_one_error_line(beverage_run, kind, data):
    """One truncation, byte flip, line deletion or JSON value swap in one file
    of a trained checkpoint: `poql eval` and `poql export-dot` each exit 0,
    or print exactly one `error:` line and exit 2, never a traceback."""
    outdir, _ = beverage_run
    names = [n for n in _CORRUPTIBLE if kind != "json-swap" or n.endswith(".json")]
    name = data.draw(st.sampled_from(names), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        shutil.copytree(outdir, ckpt)
        path = ckpt / name
        path.write_bytes(_corrupt(path.read_bytes(), kind, data))
        for argv in (["eval", str(ckpt), "--episodes", "3"], ["export-dot", str(ckpt)]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == [], argv
            else:
                assert code == 2 and len(lines) == 1, (argv, code, lines)
                assert lines[0].startswith("error: "), argv


def test_train_and_eval_build_one_environment_each(tmp_path, monkeypatch):
    """Each command builds its environment once and hands it on."""
    import sys

    built = []

    def counting(*args, **kwargs):
        built.append(kwargs)
        return make_environment(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "poql" and hasattr(module, "make_environment"):
            monkeypatch.setattr(module, "make_environment", counting)
    path = _write_config(tmp_path, "one.json", _config(tmp_path / "run", **SMALL_RUN))
    assert main(["train", str(path), "--quiet"]) == 0
    assert len(built) == 1
    assert main(["eval", str(tmp_path / "run"), "--episodes", "5"]) == 0
    assert len(built) == 2


def test_eval_reports_malformed_trace_line(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    _replace_line(ckpt / "traces.txt", 4, "init:0.0;x:y")
    assert _eval_error(ckpt, capsys) == (
        f"{ckpt / 'traces.txt'}:5: malformed trace step 'x:y'")


def test_compare_single_run(beverage_run, capsys):
    outdir, _ = beverage_run
    assert main(["compare", str(outdir)]) == 0
    body = [l for l in capsys.readouterr().out.splitlines() if "hot_beverage" in l]
    assert len(body) == 1


def test_random_agent_run(tmp_path):
    cfg = _config(tmp_path / "rand", agent="random")
    path = _write_config(tmp_path, "rand.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    meta = json.loads((tmp_path / "rand" / "run.json").read_text())
    assert meta["status"] == "complete"
    assert 0.0 <= meta["final"]["goal_rate"] <= 1.0
    assert not (tmp_path / "rand" / "model.json").exists()


# A gravity run that relearns every 10 episodes until the freeze point (45)
# and evaluates every 15, without reaching the goal rate that stops it.
_CONSOLE_RUN = dict(max_episodes=60, bootstrap_episodes=10, update_interval=10,
                    eval_every=15, eval_episodes=5)
_CONSOLE_LINES = {
    "poql": [
        "episode 0: relearned model with 3 states from 11 traces",
        "episode 10: relearned model with 3 states from 21 traces",
        "episode 15: goal_rate=0.00 mean_steps=None states=3",
        "episode 20: relearned model with 3 states from 31 traces",
        "episode 30: goal_rate=0.00 mean_steps=None states=3",
        "episode 30: relearned model with 3 states from 41 traces",
        "episode 40: relearned model with 3 states from 51 traces",
        "episode 45: goal_rate=0.00 mean_steps=None states=3",
        "episode 60: goal_rate=0.60 mean_steps=43 states=3",
    ],
    "obs_baseline": [
        "episode 15: goal_rate=0.00 mean_steps=None",
        "episode 30: goal_rate=0.00 mean_steps=None",
        "episode 45: goal_rate=0.00 mean_steps=None",
        "episode 60: goal_rate=0.00 mean_steps=None",
    ],
    "random": [],
}


@pytest.mark.parametrize("agent", sorted(_CONSOLE_LINES))
def test_train_without_quiet_prints_relearns_evaluations_and_completion(
        tmp_path, capsys, agent):
    out = tmp_path / agent
    path = _write_config(tmp_path, "console.json",
                         _config(out, agent=agent, env_name="gravity", **_CONSOLE_RUN))
    assert main(["train", str(path)]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert lines == _CONSOLE_LINES[agent]
    assert re.fullmatch(rf"run complete: {re.escape(str(out))} \(wall time \d+\.\ds\)", last)


@pytest.mark.parametrize("agent", ["poql", "obs_baseline", "random"])
def test_run_record_header_follows_the_documented_schema(tmp_path, agent):
    schema = json.loads(
        (Path(__file__).parents[1] / "docs" / "run_record_schema.json").read_text())
    assert _train_small(tmp_path, tmp_path / agent, agent) == 0
    header = (tmp_path / agent / "run_record.csv").read_text().splitlines()[0]
    assert header.split(",") == [column["name"] for column in schema["columns"]]


def test_officeworld_poql_run_hits_the_oracle(tmp_path):
    cfg = {
        "schema_version": 1,
        "seed": 2024,
        "agent": "poql",
        "environment": {"name": "officeworld"},
        "agent_config": {"oracle_steps": 8 + 2 * 10 / 9},
        "output_dir": str(tmp_path / "office"),
    }
    path = _write_config(tmp_path, "office.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    meta = json.loads((tmp_path / "office" / "run.json").read_text())
    assert meta["final"]["goal_rate"] == 1.0
    assert meta["final"]["mean_steps"] == 10
    assert meta["stop_episode"] < 30_000


def test_compare_marks_runs_that_never_reach_the_goal(tmp_path, capsys):
    cfg = _config(tmp_path / "lost", agent="random", env_name="gravity", seed=7)
    path = _write_config(tmp_path, "lost.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    assert main(["compare", str(tmp_path / "lost")]) == 0
    row = [l for l in capsys.readouterr().out.splitlines() if "gravity" in l][0]
    assert " x " in row


def test_sweep_runs_matching_configs(tmp_path):
    for i in range(2):
        cfg = _config(tmp_path / f"sweep{i}", max_episodes=200, seed=i)
        _write_config(tmp_path, f"sweep{i}.json", cfg)
    assert main(["sweep", str(tmp_path / "sweep*.json")]) == 0
    for i in range(2):
        assert json.loads((tmp_path / f"sweep{i}" / "run.json").read_text())["status"] == "complete"


def test_sweep_runs_a_config_that_several_patterns_match_once(tmp_path, capsys):
    for name in ("b", "a"):
        _write_config(tmp_path, f"{name}.json", _config(tmp_path / name, max_episodes=200))
    (tmp_path / "sub").mkdir()
    patterns = ["*.json", "a.json", "sub/../b.json", "a.json"]
    assert main(["sweep", *(str(tmp_path / p) for p in patterns)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("==")] == [
        f"== {tmp_path / 'a.json'}", f"== {tmp_path / 'b.json'}"]
    assert out[-1] == "sweep finished: 2/2 runs succeeded"


def test_sweep_without_matches_fails(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "missing*.json")]) == 2


# A poql run small enough to retrain several times in one test.
SMALL_RUN = dict(max_episodes=60, bootstrap_episodes=10, update_interval=30,
                 eval_every=30, eval_episodes=5)


def _train_small(tmp_path, out, agent, *flags, env_name="hot_beverage"):
    path = _write_config(tmp_path, f"{agent}.json",
                         _config(out, agent=agent, env_name=env_name, **SMALL_RUN))
    return main(["train", str(path), "--quiet", *flags])


def test_train_force_removes_artifacts_the_new_agent_does_not_write(tmp_path, capsys):
    """A poql run directory retrained as obs_baseline loses its model, and
    retrained as random its checkpoint, so neither is served stale."""
    out = tmp_path / "run"
    assert _train_small(tmp_path, out, "poql") == 0
    assert _train_small(tmp_path, out, "obs_baseline", "--force") == 0
    assert not (out / "model.json").exists() and not (out / "model.dot").exists()
    capsys.readouterr()
    assert _error_line(["export-dot", str(out)], capsys) == (
        f"{out / 'model.json'}: No such file or directory")
    assert main(["eval", str(out), "--episodes", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["agent"] == "obs_baseline"

    assert _train_small(tmp_path, out, "random", "--force") == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["run.json", "run_record.csv"]
    assert _error_line(["eval", str(out)], capsys) == (
        f"{out / 'config.json'}: No such file or directory")
    assert _error_line(["export-dot", str(out)], capsys) == (
        f"{out / 'model.json'}: No such file or directory")


def test_train_force_reports_a_failed_removal(tmp_path, monkeypatch, capsys):
    from pathlib import Path

    out = tmp_path / "run"
    assert _train_small(tmp_path, out, "poql") == 0

    def refuse(self, missing_ok=False):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "unlink", refuse)
    capsys.readouterr()
    assert _train_small(tmp_path, out, "random", "--force") == 2
    assert capsys.readouterr().err == f"error: {out / 'config.json'}: Permission denied\n"
    assert json.loads((out / "run.json").read_text())["status"] == "incomplete"


@pytest.mark.parametrize("agent", ["poql", "obs_baseline"])
def test_load_checkpoint_takes_the_environments_actions(tmp_path, agent):
    """config.json stores no actions; the loaded agent acts with those of the
    environment it names, here gravity's unsorted up, down, left, right."""
    out = tmp_path / "run"
    assert _train_small(tmp_path, out, agent, env_name="gravity") == 0
    assert "actions" not in json.loads((out / "config.json").read_text())
    loaded, _ = load_checkpoint(out)
    env = make_environment("gravity")
    assert env.actions == ("up", "down", "left", "right")
    assert loaded.actions == env.actions
    assert (loaded.model is None) == (agent == "obs_baseline")


def test_interrupted_run_leaves_incomplete_flag(tmp_path, monkeypatch):
    import poql.cli as cli_mod

    def explode(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "train", explode)
    cfg = _config(tmp_path / "broken")
    path = _write_config(tmp_path, "broken.json", cfg)
    with pytest.raises(KeyboardInterrupt):
        main(["train", str(path), "--quiet"])
    meta = json.loads((tmp_path / "broken" / "run.json").read_text())
    assert meta["status"] == "incomplete"


def test_failed_replace_keeps_the_previous_run_json(tmp_path, monkeypatch, capsys):
    import os

    cfg = _config(tmp_path / "run", agent="random")
    path = _write_config(tmp_path, "random.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    run_dir = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert json.loads(before["run.json"])["status"] == "complete"

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    capsys.readouterr()
    assert main(["train", str(path), "--quiet", "--force"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {run_dir / 'run.json'}: No space left on device\n"
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("artifact", ["config.json", "model.json", "model.dot",
                                      "qtable.txt", "traces.txt", "run_record.csv"])
def test_failed_artifact_replace_is_one_error_line(tmp_path, monkeypatch, capsys, artifact):
    """A rerun whose replace of one artifact fails names that artifact in one
    `error:` line, keeps its previous bytes and leaves no temp file."""
    import os

    cfg = _config(tmp_path / "run", max_episodes=60, bootstrap_episodes=10,
                  update_interval=30, eval_every=30, eval_episodes=5)
    path = _write_config(tmp_path, "poql.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    run_dir = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    replace = os.replace

    def fail_on_artifact(src, dst):
        if os.path.basename(dst) == artifact:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_artifact)
    capsys.readouterr()
    assert main(["train", str(path), "--quiet", "--force"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {run_dir / artifact}: No space left on device\n"
    after = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert set(after) == set(before)
    assert json.loads(after.pop("run.json"))["status"] == "incomplete"
    before.pop("run.json")
    assert after == before


def test_relative_output_dir_uses_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("POQL_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = _config("nested/run", agent="random")
    path = _write_config(tmp_path, "rooted.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    assert (tmp_path / "root" / "nested" / "run" / "run.json").exists()


def test_unused_environment_parameters_rejected(tmp_path, capsys):
    cfg = _config(tmp_path / "nope")
    cfg["environment"]["warp_speed"] = True
    path = _write_config(tmp_path, "warp.json", cfg)
    assert main(["train", str(path)]) == 2
    assert "environment parameters" in capsys.readouterr().err
    assert not (tmp_path / "nope").exists()


# sha256 of each artifact of `poql train` at seed 7 with GOLDEN_AGENT_CONFIG
# (None: the run writes no such file), recorded before the act/step loops of
# train, the baseline, bootstrap and evaluation were merged into one runner.
# A target goal rate above 1 keeps poql running through three relearns.
GOLDEN_AGENT_CONFIG = dict(max_episodes=250, bootstrap_episodes=20, update_interval=100,
                           eval_every=100, eval_episodes=10, epsilon_decay_episodes=150,
                           target_goal_rate=2.0)
# The gravity and thinmaze poql cases were recorded before the per-step path
# (Environment.step, step_to, get_action, the agent's keys) was made
# allocation-free. Both relearn twice and take undefined tracker steps, online
# and in replay; gravity bootstraps from fewer episodes so that its first model
# leaves some steps undefined.
GOLDEN_OVERRIDES = {('poql', 'gravity'): dict(bootstrap_episodes=5)}
GOLDEN_ARTIFACT_FILES = ("run_record.csv", "traces.txt", "qtable.txt", "model.json")
GOLDEN_ARTIFACTS = {
    ('obs_baseline', 'confusing_officeworld'): {
        'run_record.csv': 'aac1ddb4ab4feb9e80a326d791bed53b2c02d3b00535260df6cf5bd24ae694e2',
        'traces.txt': 'ace641cbfc62ac30091b238c1ee66cc0a32b40d0d7d0dd070404d297a028c704',
        'qtable.txt': '425371912a54a9c4e543f582b796046ae055438600484be816dc1fcd8ade1d0f',
        'model.json': None,
    },
    ('obs_baseline', 'hot_beverage'): {
        'run_record.csv': 'a92f1704614a46d5a37bcf2925b5e0a8812d8253759b182ec7fe94461fd1c2de',
        'traces.txt': '88b626cec046b6e1b23ff36bac924a91bf4f2aa9153831e30a1a27c10b00d69e',
        'qtable.txt': '1e4532c9195491172a1fdd536ca86e534eb5fa9736dd29b491bc11e77a3185fe',
        'model.json': None,
    },
    ('poql', 'confusing_officeworld'): {
        'run_record.csv': '0452aac3a7a16fac3e1c1e9a32d2f0f5389e08cc0fb736fcfb4115c63ceaf513',
        'traces.txt': '36004b836b64d39785dfcf000a389cb2fe2c49d771255810f7932c0efc55e4ef',
        'qtable.txt': 'ce5cc849911051ba8cd06806f568dce9b4110f16dce4f6b28ec274f97bc456bf',
        'model.json': 'e9d15c4715ec99c894305f78ac252a584c1cd98a8aa5873b32a806aee09c7f80',
    },
    ('poql', 'hot_beverage'): {
        'run_record.csv': '633f0ff4820ff7d9ce84bf69f601c8e26b5af2415d193e435a9bb161969ae794',
        'traces.txt': '414be13288a5938cdb6e481b4da1366793453e6e78500034f6b34b65de3c24f7',
        'qtable.txt': 'bb0b466b2a9b6289d141b4be79990cfc877a562cdc9bb8ddcfe29f908c7a5ced',
        'model.json': '3c2e57e814a186b3014c1646b8a63a825eff8aa44f0bbf804eacb2170ac7eb61',
    },
    ('poql', 'gravity'): {
        'run_record.csv': '51a183ff53e27a54ea97e10dffd2bc923acf4b149836ee374b35976e4ff05f1c',
        'traces.txt': '6e07f00d088fc0823f8102e0325a54f43e97012ea6235e06d6c3470b394661db',
        'qtable.txt': '7733f83a32f6d6e37d5632e5a51170acfdb563a8edf05bbfb7b121c9022b0ff9',
        'model.json': 'bc3fea4a4b1fc4c2f805a353924ec3aad3287eeb57b53dbacae6e0ed47a36f1b',
    },
    ('poql', 'thinmaze'): {
        'run_record.csv': '8896ffc175df21746211f104baac67d366713c79277c276a39373fd0fb7f1e77',
        'traces.txt': '22ebfdaf63deb1d215033d59254ce76089299f8e8d418089542a30334dd13a09',
        'qtable.txt': '9a75ce427444bfc05789fa105f0f0127b0cbba5775208cf0ea0f7cb1f838edfa',
        'model.json': 'c600f88b604097a1c74a7202b113e41b4181005306b6e1553b5ab2b4c1ca88b5',
    },
    ('random', 'confusing_officeworld'): {
        'run_record.csv': '7e8ae11ec4621cb3109c07b3a1be3e4e55ef2c97cb362e27b7d14dac5c81823e',
        'traces.txt': None,
        'qtable.txt': None,
        'model.json': None,
    },
    ('random', 'hot_beverage'): {
        'run_record.csv': '8cc8132b7db667a06f8ad0820f8d55876b971565158c57dea022ecd047f4a202',
        'traces.txt': None,
        'qtable.txt': None,
        'model.json': None,
    },
}


def _artifact_digests(outdir):
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            if (outdir / name).exists() else None for name in GOLDEN_ARTIFACT_FILES}


@pytest.mark.parametrize("agent,env_name", sorted(GOLDEN_ARTIFACTS))
def test_train_artifacts_match_golden_digests(tmp_path, agent, env_name):
    cfg = _config(tmp_path / "run", agent=agent, env_name=env_name)
    cfg["agent_config"] = dict(GOLDEN_AGENT_CONFIG,
                               **GOLDEN_OVERRIDES.get((agent, env_name), {}))
    path = _write_config(tmp_path, "golden.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    assert _artifact_digests(tmp_path / "run") == GOLDEN_ARTIFACTS[(agent, env_name)]


# The stdout of `poql eval <run> --episodes 200 --seed 3` on small checkpoints
# trained at seed 7, recorded before `evaluate` scored each episode in one pass
# and before `parse_trace` looked steps up through one `map`.
GOLDEN_EVAL_OVERRIDES = {
    ("poql", "hot_beverage"): {},
    ("poql", "confusing_officeworld"): dict(max_episodes=2000, bootstrap_episodes=200,
                                            update_interval=500, eval_every=1000,
                                            epsilon_decay_episodes=1000),
    ("obs_baseline", "gravity"): dict(max_episodes=1000, eval_every=500,
                                      epsilon_decay_episodes=500),
}
GOLDEN_EVAL_STDOUT = {
    ("poql", "hot_beverage"):
        '{"agent": "poql", "environment": "hot_beverage", "episodes": 200, '
        '"goal_rate": 1.0, "mean_return": 93.23482464695533, "mean_steps": 8}\n',
    ("poql", "confusing_officeworld"):
        '{"agent": "poql", "environment": "confusing_officeworld", "episodes": 200, '
        '"goal_rate": 1.0, "mean_return": 92.95058964616372, "mean_steps": 8}\n',
    ("obs_baseline", "gravity"):
        '{"agent": "obs_baseline", "environment": "gravity", "episodes": 200, '
        '"goal_rate": 0.565, "mean_return": 32.990393030965116, "mean_steps": 57}\n',
}


@pytest.mark.parametrize("agent,env_name", sorted(GOLDEN_EVAL_STDOUT))
def test_eval_stdout_matches_golden(tmp_path, capsys, agent, env_name):
    cfg = _config(tmp_path / "run", agent=agent, env_name=env_name,
                  **GOLDEN_EVAL_OVERRIDES[(agent, env_name)])
    path = _write_config(tmp_path, "golden.json", cfg)
    assert main(["train", str(path), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "run"), "--episodes", "200", "--seed", "3"]) == 0
    assert capsys.readouterr().out == GOLDEN_EVAL_STDOUT[(agent, env_name)]
