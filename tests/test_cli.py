import hashlib
import json
import math
import shutil

import pytest

from poql.checkpoint import ConfigError, load_checkpoint, model_from_dict
from poql.cli import main
from poql.agent import evaluate
from poql.envs import make_environment


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


def test_existing_run_needs_force(beverage_run, tmp_path, capsys):
    outdir, cfg = beverage_run
    path = _write_config(tmp_path, "again.json", cfg)
    assert main(["train", str(path)]) == 2
    assert "--force" in capsys.readouterr().err


def test_reproducible_runs_are_byte_identical(tmp_path):
    cfg_a = _config(tmp_path / "a", max_episodes=200)
    cfg_b = {**_config(tmp_path / "b", max_episodes=200)}
    path_a = _write_config(tmp_path, "a.json", cfg_a)
    path_b = _write_config(tmp_path, "b.json", cfg_b)
    assert main(["train", str(path_a), "--quiet"]) == 0
    assert main(["train", str(path_b), "--quiet"]) == 0
    traces_a = (tmp_path / "a" / "traces.txt").read_bytes()
    traces_b = (tmp_path / "b" / "traces.txt").read_bytes()
    assert traces_a == traces_b
    rr_a = (tmp_path / "a" / "run_record.csv").read_bytes()
    rr_b = (tmp_path / "b" / "run_record.csv").read_bytes()
    assert rr_a == rr_b


def test_eval_on_reloaded_checkpoint_matches_in_process(beverage_run, capsys):
    outdir, cfg = beverage_run
    assert main(["eval", str(outdir), "--episodes", "50", "--seed", "9"]) == 0
    printed = json.loads(capsys.readouterr().out.strip())

    agent, config = load_checkpoint(outdir)
    env = make_environment(config["environment"]["name"], seed=9)
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


def test_eval_reports_config_without_agent(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    del config["agent"]
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys) == f"{ckpt / 'config.json'}: missing key 'agent'"


def test_eval_reports_config_with_non_list_actions(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    config["actions"] = 5
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys).startswith(f"{ckpt / 'config.json'}: ")


def test_eval_reports_config_with_non_symbol_actions(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    config["actions"][0] = ["coin"]
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys).startswith(f"{ckpt / 'config.json'}: invalid symbol ")


def test_eval_reports_config_without_environment(beverage_run, tmp_path, capsys):
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    del config["environment"]
    (ckpt / "config.json").write_text(json.dumps(config))
    assert _eval_error(ckpt, capsys).startswith(
        f"{ckpt / 'config.json'}: invalid environment: ")


def _delete_actions(config):
    del config["actions"]


def _reorder_actions(config):
    config["actions"].reverse()


def _add_action(config):
    config["actions"].append("kick")


@pytest.mark.parametrize("edit", [_delete_actions, _reorder_actions, _add_action],
                         ids=["deleted", "reordered", "extra"])
def test_eval_rejects_actions_other_than_the_environments(beverage_run, tmp_path, capsys,
                                                          edit):
    """`actions` lies outside config_hash, so eval compares it with the
    environment's own actions and refuses a checkpoint without it."""
    ckpt = _checkpoint_copy(beverage_run, tmp_path)
    config = json.loads((ckpt / "config.json").read_text())
    edit(config)
    (ckpt / "config.json").write_text(json.dumps(config))
    if edit is _delete_actions:
        expected = f"{ckpt / 'config.json'}: missing key 'actions'"
    else:
        expected = (f"{ckpt / 'config.json'}: actions {config['actions']} are not "
                    f"the environment's ['coin', 'button']")
    assert _eval_error(ckpt, capsys) == expected


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


def test_sweep_without_matches_fails(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "missing*.json")]) == 2


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
