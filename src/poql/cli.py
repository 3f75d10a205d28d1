"""Command-line front end: run, persist, and compare experiments.

Subcommands:
  train <config.json>          run one experiment, write artifacts
  eval <checkpoint-dir>        evaluate a saved agent
  export-dot <checkpoint-dir>  re-emit the learned model as DOT
  compare <run-dirs...>        summarize finished runs as a table and CSV
  sweep <config-glob...>       run many configs as separate processes

The POQL_OUTPUT_ROOT environment variable prefixes relative output dirs.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from .agent import AgentConfig, RandomAgent, _eval_row, baseline_obs_q, evaluate, train
from .checkpoint import (ConfigError, _writing, build_environment, config_hash,
                         load_checkpoint, load_model, read_json_object,
                         save_checkpoint, write_text_atomic)
from .models import atomic_open, dlmdp_to_dot

SCHEMA_VERSION = 1
AGENT_KINDS = ("poql", "obs_baseline", "random")
RUN_RECORD_COLUMNS = (
    "episode",
    "goal_rate",
    "mean_steps",
    "mean_return",
    "model_state_count",
    "q_rows",
    "config_hash",
)


def load_experiment_config(path) -> dict:
    return validate_experiment_config(read_json_object(path))


def validate_experiment_config(raw: dict) -> dict:
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    required = {"schema_version", "seed", "agent", "environment", "output_dir"}
    missing = required - raw.keys()
    if missing:
        raise ConfigError(f"config missing keys: {sorted(missing)}")
    if not isinstance(raw["output_dir"], str):
        raise ConfigError(f"output_dir must be a string, got {raw['output_dir']!r}")
    if raw["agent"] not in AGENT_KINDS:
        raise ConfigError(f"agent must be one of {AGENT_KINDS}, got {raw['agent']!r}")
    env = raw["environment"]
    if not isinstance(env, dict) or "name" not in env:
        raise ConfigError("environment must be an object with a 'name'")
    build_environment(raw, seed=0)
    if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool):
        raise ConfigError("seed must be an explicit integer")
    try:
        AgentConfig(**raw.get("agent_config", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid agent_config: {exc}") from exc
    return raw


def resolve_output_dir(config: dict) -> Path:
    out = Path(config["output_dir"])
    if not out.is_absolute():
        root = os.environ.get("POQL_OUTPUT_ROOT", "")
        if root:
            out = Path(root) / out
    return out


def _write_run_record(path: Path, rows: list[dict], digest: str) -> None:
    """Write the evaluation rows as CSV, replacing `path` atomically."""
    with _writing(path), atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_RECORD_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["config_hash"] = digest
            if out.get("mean_steps") is None:
                out["mean_steps"] = ""
            writer.writerow(out)


def cmd_train(args) -> int:
    config = load_experiment_config(args.config)
    out = resolve_output_dir(config)
    if (out / "run.json").exists() and not args.force:
        raise ConfigError(f"{out} already holds a run (use --force)")
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)

    env = build_environment(config, seed=config["seed"])
    agent_config = AgentConfig(**config.get("agent_config", {}))
    run_meta = {
        "status": "incomplete",
        "environment": config["environment"]["name"],
        "agent": config["agent"],
        "seed": config["seed"],
    }
    write_text_atomic(out / "run.json", json.dumps(run_meta, indent=2, sort_keys=True))

    started = time.perf_counter()
    log = print if not args.quiet else None
    if config["agent"] == "random":
        policy = RandomAgent(env.actions, gamma=agent_config.gamma)
        stats = evaluate(policy, env, agent_config.eval_episodes, f"{config['seed']}|eval")
        agent, eval_rows, stop_episode = None, [_eval_row(0, stats, policy)], 0
    else:
        trainer = train if config["agent"] == "poql" else baseline_obs_q
        agent = trainer(env, agent_config, seed=config["seed"], log=log)
        eval_rows, stop_episode = agent.eval_rows, agent.stop_episode
    wall_time = time.perf_counter() - started

    if agent is not None:
        save_checkpoint(out, agent, config)
    _write_run_record(out / "run_record.csv", eval_rows, digest)
    final = eval_rows[-1] if eval_rows else {}
    run_meta.update(
        status="complete",
        config_hash=digest,
        stop_episode=stop_episode,
        wall_time_s=wall_time,
        final={
            "goal_rate": final.get("goal_rate"),
            "mean_steps": final.get("mean_steps"),
            "mean_return": final.get("mean_return"),
        },
    )
    write_text_atomic(out / "run.json", json.dumps(run_meta, indent=2, sort_keys=True))
    if not args.quiet:
        print(f"run complete: {out} (wall time {wall_time:.1f}s)")
    return 0


def cmd_eval(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be at least 1, got {args.episodes}")
    agent, config = load_checkpoint(args.checkpoint)
    config_path = Path(args.checkpoint) / "config.json"
    try:
        env = build_environment(config, seed=args.seed)
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from exc
    if agent.actions != env.actions:
        raise ConfigError(f"{config_path}: actions {list(agent.actions)} are not "
                          f"the environment's {list(env.actions)}")
    stats = evaluate(agent, env, args.episodes, args.seed)
    print(json.dumps({
        "environment": env.name,
        "agent": config["agent"],
        "episodes": args.episodes,
        "goal_rate": stats.goal_rate,
        "mean_steps": stats.mean_steps,
        "mean_return": stats.mean_return,
    }, sort_keys=True))
    return 0


def cmd_export_dot(args) -> int:
    model, digest = load_model(Path(args.checkpoint) / "model.json")
    dot = dlmdp_to_dot(model, comment=f"config_hash={digest}")
    if args.out:
        write_text_atomic(args.out, dot)
    else:
        sys.stdout.write(dot)
    return 0


def _compare_rows(run_dirs) -> list[dict]:
    rows = []
    for d in run_dirs:
        path = Path(d)
        meta_path = path / "run.json"
        row = {"run": str(d), "environment": "?", "agent": "?",
               "steps_to_goal": "", "episodes_to_stop": "", "status": "incomplete"}
        if meta_path.exists():
            meta = read_json_object(meta_path)
            row["environment"] = str(meta.get("environment", "?"))
            row["agent"] = str(meta.get("agent", "?"))
            if meta.get("status") == "complete" and (path / "run_record.csv").exists():
                final = meta.get("final")
                if not isinstance(final, dict):
                    raise ConfigError(f"{meta_path}: 'final' is not an object")
                steps = final.get("mean_steps")
                row["steps_to_goal"] = "x" if steps is None else str(steps)
                row["episodes_to_stop"] = str(meta.get("stop_episode", ""))
                row["status"] = "complete"
        rows.append(row)
    rows.sort(key=lambda r: (r["environment"], r["agent"], r["run"]))
    return rows


def cmd_compare(args) -> int:
    rows = _compare_rows(args.run_dirs)
    columns = ("environment", "agent", "steps_to_goal", "episodes_to_stop", "status", "run")
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c) for c in columns}
    # The CSV goes first, so a failed write prints no table.
    if args.csv:
        with _writing(args.csv), atomic_open(args.csv, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows({c: r[c] for c in columns} for r in rows)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in columns))
    return 0


def cmd_sweep(args) -> int:
    configs = sorted(p for pattern in args.patterns for p in glob.glob(pattern))
    if not configs:
        raise ConfigError("no configs matched")
    failures = 0
    for cfg in configs:
        print(f"== {cfg}")
        proc = subprocess.run([sys.executable, "-m", "poql", "train", cfg])
        if proc.returncode != 0:
            failures += 1
    print(f"sweep finished: {len(configs) - failures}/{len(configs)} runs succeeded")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poql")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a JSON config")
    p_train.add_argument("config")
    p_train.add_argument("--force", action="store_true",
                         help="overwrite an existing run directory")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_dot = sub.add_parser("export-dot", help="emit the learned model as DOT")
    p_dot.add_argument("checkpoint")
    p_dot.add_argument("--out")
    p_dot.set_defaults(func=cmd_export_dot)

    p_cmp = sub.add_parser("compare", help="summarize finished runs")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--csv", help="also write the table as CSV")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run every matching config")
    p_sweep.add_argument("patterns", nargs="+")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; an unusable input prints one `error:` line and gives 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
