#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes, about half a minute.

    python3 perfbench/smoke.py

For each workload it runs the benchmark's own measurement loop with tracing
on, then checks the tracer's counts against totals known without the tracer:
the step counts in the artifacts, the relearn schedule, and the evaluation
results. It repeats the counts in a second process with another string-hash
seed and requires them to be identical, checks that a traced name the
program lacks is reported absent, and checks that the benchmark refuses to
run without the program's sources. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402

SEED = 2024
GRAVITY = dict(episodes=40, overrides={"bootstrap_episodes": 10, "update_interval": 10,
                                       "eval_every": 20, "eval_episodes": 5})


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)


def traced_op(workload, state, tracer):
    """One traced operation that also records every EvalStats returned."""
    import poql.agent

    stats: list = []
    with tracer.installed(), run.returns_of(poql.agent, "evaluate", stats), \
            tracer.span("bench.op"):
        output = workload.op(state, 0)
    return output, stats


def eval_steps(stats, episodes: int, max_steps: int) -> int:
    """Env steps of the evaluations, from their results: a failed episode
    runs to the step cap."""
    total = 0
    for s in stats:
        successes = round(s.goal_rate * episodes)
        if successes:
            total += round(s.mean_steps_exact * successes)
        total += (episodes - successes) * max_steps
    return total


def smoke_gravity(workdir: Path) -> dict:
    from poql.envs import DEFAULT_MAX_STEPS

    workload = run.TrainGravity(**GRAVITY)
    state = workload.setup(workdir, SEED)
    config = state["config"]
    tracer = run.Tracer("smoke-gravity")
    code, stats = traced_op(workload, state, tracer)
    workload.check(state, code)
    m = tracer.metrics()

    lengths = [line.count(";") for line in
               (state["out"] / "traces.txt").read_text().splitlines()]
    boot = config.bootstrap_episodes
    stop = json.loads((state["out"] / "run.json").read_text())["stop_episode"]
    relearns = [e for e in range(stop)
                if e < config.resolved_freeze_after() and e % config.update_interval == 0]
    replay_steps = sum(sum(lengths[:boot + e + 1]) for e in relearns)
    online = sum(lengths[boot:])
    evals = eval_steps(stats, config.eval_episodes, DEFAULT_MAX_STEPS)

    expect(len(stats) == stop // config.eval_every, "unexpected number of evaluations")
    expect(m["envs.step.calls"] == sum(lengths) + evals,
           f"envs.step.calls {m['envs.step.calls']} != {sum(lengths)} + {evals}")
    expect(m["agent.evaluate.steps"] == evals, "agent.evaluate.steps")
    expect(m["agent.replay.steps"] == replay_steps,
           f"agent.replay.steps {m['agent.replay.steps']} != {replay_steps}")
    expect(m["agent.replay.calls"] == len(relearns), "agent.replay.calls")
    expect(m["learn.run_ioalergia.calls"] == len(relearns) + 1, "run_ioalergia.calls")
    expect(m["learn.input_steps"] == sum(lengths[:boot]) + replay_steps,
           "learn.input_steps")
    expect(m["models.step_to.calls"] == online + replay_steps + evals,
           "models.step_to.calls")
    expect(m["agent.update_q_values.calls"] == online + replay_steps,
           "agent.update_q_values.calls")
    expect(m["agent.get_action.calls"] == online + evals, "agent.get_action.calls")
    expect(m["envs.reset.calls"] == boot + stop + len(stats) * config.eval_episodes,
           "envs.reset.calls")
    expect(m["checkpoint.bytes_written"] == sum(
        (state["out"] / n).stat().st_size for n in tracer_module.CHECKPOINT_FILES),
        "checkpoint.bytes_written")
    expect(0 < m["learn.iofpta.tail_nodes"] < m["learn.iofpta.nodes"], "tree counts")
    expect(m["cli.main.s"] > 0 and m["gc.collections"] >= 0, "root span")
    return tracer.counts()


def smoke_eval(workdir: Path) -> dict:
    workload = run.EvalConfusing(episodes=50)
    state = workload.setup(workdir, SEED)
    tracer = run.Tracer("smoke-eval")
    output, _ = traced_op(workload, state, tracer)
    steps, _ = workload.check(state, output)
    m = tracer.metrics()
    expect(m["envs.step.calls"] == m["agent.evaluate.steps"] == steps,
           f"eval steps {m['envs.step.calls']} != {steps}")
    expect(m["agent.evaluate.calls"] == 1 and m["envs.reset.calls"] == 50, "eval calls")
    expect(m["checkpoint.bytes_read"] == sum(
        (state["out"] / n).stat().st_size
        for n in ("config.json", "qtable.txt", "model.json", "traces.txt")),
        "checkpoint.bytes_read")
    traces = (state["out"] / "traces.txt").read_text().splitlines()
    expect(m["models.parse_trace.calls"] == len(traces), "parse_trace.calls")
    expect(m["agent.replay.calls"] == 0 and m["learn.run_ioalergia.calls"] == 0,
           "eval must not learn")
    return tracer.counts()


def smoke_thinmaze(workdir: Path) -> dict:
    workload = run.LearnThinmaze(episodes=60)
    state = workload.setup(workdir, SEED)
    tracer = run.Tracer("smoke-thinmaze")
    output, _ = traced_op(workload, state, tracer)
    steps, _ = workload.check(state, output)
    m = tracer.metrics()
    expect(m["learn.input_steps"] == steps == state["steps"], "learn.input_steps")
    expect(m["models.parse_trace.calls"] == 60, "parse_trace.calls")
    expect(m["learn.run_ioalergia.calls"] == 1, "run_ioalergia.calls")
    expect(m["learn.iofpta.nodes"] - 1 <= steps, "tree larger than its sample")
    expect(m["learn.model_states"] == len(output[1].states), "learn.model_states")
    expect(m["learn.compatible.accepted"] <= m["learn.compatible.calls"], "accepted")
    return tracer.counts()


def smoke_loop(workdir: Path) -> None:
    """The measurement loop and per-layer report, traced, at tiny size."""
    workload = run.TrainGravity(**GRAVITY)
    norm = run.Normaliser(workload.tree_share)
    figures = run.run_workload(workload, SEED, 0.0, True, workdir, norm)
    expect(figures["failed"] == 0 and figures["attempted"]
           == run.WARMUP_OPS + 2 * run.MIN_TRACED_OPS,
           "measurement loop")
    metrics = run.layer_metrics(workload, figures)
    names = set(tracer_module.LAYER_COUNTS) | set(tracer_module.LAYER_TIMES)
    expect(set(metrics) == names | {"trace_overhead_s"}, "per-layer metric names")


def smoke_absent() -> None:
    """A traced name the program lacks is reported, not fatal."""
    saved = tracer_module.TARGETS
    tracer_module.TARGETS = saved + (("poql.agent", "no_such_function", "span", {}),)
    try:
        t = run.Tracer("smoke-absent")
        with t.installed():
            pass
    finally:
        tracer_module.TARGETS = saved
    expect(t.absent == ["poql.agent.no_such_function"], f"absent {t.absent}")


def smoke_no_sources(tmp: Path) -> None:
    """Without src/ the benchmark exits non-zero and prints no result."""
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "learn_thinmaze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "the benchmark ran without sources")


def all_counts(tmp: Path) -> dict:
    return {"train_gravity": smoke_gravity(tmp),
            "eval_confusing": smoke_eval(tmp),
            "learn_thinmaze": smoke_thinmaze(tmp)}


def main() -> int:
    run.import_poql()
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=work_root))
    try:
        counts = all_counts(tmp)
        if "--counts-only" in sys.argv:
            print(json.dumps(counts, sort_keys=True))
            return 0
        expect(all_counts(tmp) == counts, "counters differ between two traced runs")
        env = dict(os.environ, PYTHONHASHSEED="1")
        child = subprocess.run([sys.executable, __file__, "--counts-only"], env=env,
                               capture_output=True, text=True, timeout=600)
        expect(child.returncode == 0, f"child failed: {child.stderr}")
        expect(json.loads(child.stdout.splitlines()[-1]) == counts,
               "counters differ in a second process")
        smoke_loop(tmp)
        smoke_absent()
        smoke_no_sources(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
