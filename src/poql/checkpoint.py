"""Checkpoint persistence: learned model, Q-table, config echo, and traces.

A checkpoint directory holds:
  config.json   experiment config echo with its hash
  model.json    exact learned model (integer edge counts), when one exists
  model.dot     rendered model, sorted for byte-stable re-export
  qtable.txt    sorted `obs,state,flag,action,value` records
  traces.txt    full episode history in the trace file format

Everything reloads losslessly; eval runs on reloaded checkpoints match the
original agent.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .agent import AgentConfig, BaselineAgent, PoqlAgent, QTable
from .envs import Environment, make_environment
from .models import (
    DeterministicLabeledMdp,
    ExtendedState,
    atomic_open,
    check_symbol,
    dlmdp_to_dot,
    read_trace_file,
    write_trace_file,
)

_FLAG = {True: "T", False: "U"}
_FLAG_BACK = {"T": True, "U": False}
_HASH_LINE = "# config_hash="  # the first line of qtable.txt, before the hash


def config_hash(config: dict) -> str:
    """Digest of the result-affecting part of an experiment config.

    The output location does not influence results, so two runs of the same
    experiment share a hash (and, given the same seed, identical artifacts).
    """
    semantic = {k: v for k, v in config.items() if k not in ("output_dir", "actions")}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def model_to_dict(model: DeterministicLabeledMdp) -> dict:
    """The `model.json` encoding of a learned model: every transition as an
    integer edge `count` out of its (state, action) `total`."""
    if model.counts is None:
        raise ValueError("model has no edge counts; model.json holds learned models only")
    transitions = []
    for (s, a), dist in sorted(model.trans.items()):
        counts = model.counts[(s, a)]
        total = sum(counts.values())
        for succ in sorted(dist):
            transitions.append({"src": s, "action": a, "dst": succ,
                                "count": counts[succ], "total": total})
    return {
        "initial": model.initial,
        "actions": list(model.actions),
        "states": [{"id": s, "label": model.label[s]} for s in sorted(model.states)],
        "transitions": transitions,
    }


def model_from_dict(data: dict) -> DeterministicLabeledMdp:
    states = tuple(entry["id"] for entry in data["states"])
    if not states:
        raise ValueError("model has no states")
    label = {entry["id"]: entry["label"] for entry in data["states"]}
    trans: dict[tuple[int, str], dict[int, Fraction]] = {}
    counts: dict[tuple[int, str], dict[int, int]] = {}
    for entry in data["transitions"]:
        key = (entry["src"], entry["action"])
        counts.setdefault(key, {})[entry["dst"]] = entry["count"]
        trans.setdefault(key, {})[entry["dst"]] = Fraction(entry["count"], entry["total"])
    return DeterministicLabeledMdp(
        states=states,
        initial=data["initial"],
        actions=tuple(data["actions"]),
        label=label,
        trans=trans,
        counts=counts,
    )


def qtable_rows(q: QTable) -> list[str]:
    rows = []
    for state in q.states():
        row = q.row(state)
        if isinstance(state, ExtendedState):
            prefix = (state.obs, str(state.state), _FLAG[state.defined])
        else:
            prefix = (str(state), "-", "-")
        for action, value in zip(q.actions, row):
            rows.append(",".join((*prefix, action, repr(value))))
    return sorted(rows)


def qtable_from_rows(lines: list[str], actions: tuple[str, ...]) -> QTable:
    """Rebuild a Q-table from `qtable.txt` lines; blank and `#` lines are skipped.

    A malformed row raises ValueError prefixed with its 1-based line number.
    """
    q = QTable(actions)
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        try:
            obs, state, flag, action, value = line.strip().split(",")
            if state == "-":
                key: object = obs
            else:
                key = ExtendedState(obs, int(state), _FLAG_BACK[flag])
            index = q._index[action]
            number = float(value)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{lineno}: malformed Q-table row {line!r}") from exc
        q._rows.setdefault(key, [0.0] * len(actions))[index] = number
    return q


class ConfigError(ValueError):
    """An unusable input (config, flag or run file) or an output that cannot be
    written; the message names the file."""


@contextmanager
def _loading(path: Path):
    """Re-raise a failure to read or decode `path` as a ConfigError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_environment(config: dict, seed: int | str) -> Environment:
    """The environment that the config's "environment" object names."""
    try:
        return make_environment(seed=seed, **config.get("environment"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid environment: {exc}") from exc


def read_json_object(path) -> dict:
    """The JSON object stored in `path`; every failure names the file."""
    path = Path(path)
    with _loading(path):
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
    return data


def load_model(path) -> tuple[DeterministicLabeledMdp, str]:
    """A `model.json` as (model, the config hash it records)."""
    data = read_json_object(path)
    with _loading(path):
        return model_from_dict(data), data.get("config_hash", "")


@contextmanager
def _writing(path):
    """Re-raise a failure to write `path` as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc


def write_text_atomic(path, text: str) -> None:
    """Write `text` to `path` as `Path.write_text` would, replacing the file
    atomically (see `atomic_open`); a failure raises ConfigError naming `path`."""
    with _writing(path), atomic_open(path) as fh:
        fh.write(text)


def save_checkpoint(path, agent, exp_config: dict) -> None:
    """Write the checkpoint files, each replaced atomically; a failed write
    raises ConfigError naming the file."""
    out = Path(path)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(exp_config)
    # The action tuple rides along for reload; it is derived state, so it
    # stays outside the hash.
    exp_config = {**exp_config, "actions": list(agent.actions)}
    write_text_atomic(
        out / "config.json",
        json.dumps({"config_hash": digest, **exp_config}, indent=2, sort_keys=True),
    )
    if agent.model is not None:
        write_text_atomic(
            out / "model.json",
            json.dumps(
                {"config_hash": digest, **model_to_dict(agent.model)},
                indent=2,
                sort_keys=True,
            ),
        )
        write_text_atomic(
            out / "model.dot",
            dlmdp_to_dot(agent.model, comment=f"config_hash={digest}"),
        )
    header = f"{_HASH_LINE}{digest}\n"
    rows = "\n".join(qtable_rows(agent.q))
    write_text_atomic(out / "qtable.txt", header + rows + "\n")
    traces_path = out / "traces.txt"
    with _writing(traces_path):
        write_trace_file(agent.history, traces_path)


def _check_hash(path: Path, found, digest) -> None:
    """Raise ConfigError naming `path` unless it records config hash `digest`."""
    if found != digest:
        raise ConfigError(f"{path}: config_hash {found or 'missing'}, "
                          f"but config.json has {digest}")


def load_checkpoint(path):
    """Reload (agent, exp_config) from a checkpoint directory.

    Every failure to load raises ConfigError whose message starts with the
    offending file, and with its line for `qtable.txt` and `traces.txt`. The
    config hash of `qtable.txt` and `model.json` must be the one in
    `config.json`, and so must the hash of `config.json`'s own fields, so an
    edited field never pairs the agent with another experiment. An edited
    environment that no longer builds is reported as invalid.
    """
    out = Path(path)
    config_path = out / "config.json"
    exp_config = read_json_object(config_path)
    with _loading(config_path):
        agent_config = AgentConfig(**exp_config.get("agent_config", {}))
        kind = exp_config["agent"]
        digest = exp_config["config_hash"]
    qtable_path = out / "qtable.txt"
    with _loading(qtable_path):
        qtable_lines = qtable_path.read_text().splitlines()
    header = qtable_lines[0] if qtable_lines else ""
    found = header[len(_HASH_LINE):] if header.startswith(_HASH_LINE) else ""
    _check_hash(qtable_path, found, digest)
    if kind == "poql":
        model_path = out / "model.json"
        model, model_digest = load_model(model_path)
        _check_hash(model_path, model_digest, digest)
    elif kind == "obs_baseline":
        model = None
    else:
        raise ConfigError(f"{config_path}: cannot reload agent kind {kind!r}")
    with _loading(config_path):
        actions = tuple(map(check_symbol, exp_config["actions"]))
    fields_digest = config_hash({k: v for k, v in exp_config.items() if k != "config_hash"})
    if fields_digest != digest:
        try:
            build_environment(exp_config, seed=0)
        except ConfigError as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        raise ConfigError(f"{config_path}: config_hash {digest}, "
                          f"but its fields hash to {fields_digest}")
    try:
        q = qtable_from_rows(qtable_lines, actions)
    except ValueError as exc:
        raise ConfigError(f"{qtable_path}:{exc}") from exc
    if model is not None:
        agent = PoqlAgent(model, q, agent_config)
    else:
        agent = BaselineAgent(q, agent_config)
    traces_path = out / "traces.txt"
    if traces_path.exists():
        try:
            agent.history = read_trace_file(traces_path)
        except OSError as exc:
            raise ConfigError(f"{traces_path}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # already `<path>:<line>: ...`
            raise ConfigError(str(exc)) from exc
    return agent, exp_config
