#!/usr/bin/env python3
"""The poql benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train_gravity --seed 2024 --seconds 15 --trace 0

Each workload sets up its inputs from --seed several times (set-up time is
the median), then repeats one operation until --seconds of operation time
have been measured and reports medians. Every operation's outputs are
checked; a failed check counts as a failed operation. With --trace 0 the
last line of standard output carries the end-to-end metrics, with times
normalised to a fixed machine speed (see Normaliser); with --trace 1
untraced and traced operations alternate, and the line carries the
per-layer metrics of the traced ones (see tracer.py). A line starting with
`# detail` before it gives the quality figures, artifact digest, measured
times and machine.

The benchmark imports poql from the checkout's `src/` directory and exits
with code 2 when that directory is missing. Scratch files go to
`.bench_work/` in the checkout; span files stay in `.bench_work/traces/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_COUNTS, LAYER_TIMES, Tracer  # noqa: E402

clock = time.perf_counter

SETUP_REPS = 3
MIN_OPS = 3
# Operations run and checked before timing starts, so that the heap and
# caches have grown to their steady size.
WARMUP_OPS = 1
MIN_TRACED_OPS = 2
CHILD_TIMEOUT_S = 150
# Training seed of the eval_confusing checkpoint: the acceptance suite's seed.
CHECKPOINT_SEED = 2024
# Nominal times of reference_tree() and reference_calls(): about their
# medians on the 2-core machine the baseline was measured on. Normalised
# times read as seconds on that machine at those speeds.
TREE_S = 0.2
CALLS_S = 0.25


class CheckFailed(Exception):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def import_poql() -> float:
    """Import poql from the checkout's sources; returns the import time."""
    src = ROOT / "src"
    if not (src / "poql" / "__init__.py").is_file():
        print(f"error: no poql sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = clock()
    import poql  # noqa: F401
    import poql.cli  # noqa: F401
    elapsed = clock() - t0
    if Path(poql.__file__).resolve().parent != src / "poql":
        print(f"error: imported poql from {poql.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes() + b"\0")
    return h.hexdigest()[:16]


def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2, sort_keys=True))
    return path


@contextlib.contextmanager
def returns_of(module, name: str, sink: list):
    """Record what module.name returns while the block runs."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, recording)
    try:
        yield
    finally:
        setattr(module, name, original)


# -- workloads ----------------------------------------------------------------
#
# A workload has setup(workdir, seed) -> state, op(state, i) -> output (the
# timed part) and check(state, output) -> (steps, info); check raises
# CheckFailed on a wrong output. info["digest"] fingerprints the output.


class TrainGravity:
    """The first `episodes` episodes of the default poql run on gravity.

    The config keeps the default AgentConfig schedule: epsilon decays over
    max_episodes // 2 of the default budget and the model is relearned
    every update_interval episodes, exactly as in the uncapped run, whose
    prefix this run reproduces byte for byte. The oracle stop target of
    26.0 stays on.
    """

    name = "train_gravity"
    same_input_every_op = True
    tree_share = 0.75

    def __init__(self, episodes: int = 2000, overrides: dict | None = None):
        self.episodes = episodes
        self.overrides = overrides or {}

    def setup(self, workdir: Path, seed: int) -> dict:
        from poql.agent import AgentConfig
        from poql.beliefs import optimal_expected_steps
        from poql.envs import make_environment

        env = make_environment("gravity", seed=seed)
        pomdp = env.pomdp
        oracle = optimal_expected_steps(pomdp.mdp, pomdp.goal_states)[pomdp.mdp.initial]
        check(round(oracle, 6) == 26.0, f"gravity MDP oracle is {oracle}, not 26.0")
        default = AgentConfig()
        agent_config = {
            "oracle_steps": 26.0,
            "max_episodes": self.episodes,
            "freeze_after": self.episodes,
            "epsilon_decay_episodes": default.max_episodes // 2,
            **self.overrides,
        }
        out = workdir / "gravity-run"
        cfg = write_config(workdir / "gravity.json", {
            "schema_version": 1, "seed": seed, "agent": "poql",
            "environment": {"name": "gravity"}, "agent_config": agent_config,
            "output_dir": str(out),
        })
        return {"cfg": cfg, "out": out, "seed": seed,
                "config": AgentConfig(**agent_config)}

    def op(self, state: dict, i: int):
        import poql.cli

        return poql.cli.main(["train", str(state["cfg"]), "--quiet", "--force"])

    def check(self, state: dict, code) -> tuple[int, dict]:
        from poql.agent import evaluate
        from poql.checkpoint import load_checkpoint
        from poql.envs import make_environment

        out, config = state["out"], state["config"]
        check(code == 0, f"train exited with {code}")
        meta = json.loads((out / "run.json").read_text())
        check(meta.get("status") == "complete", "run.json is not complete")
        for key in ("config_hash", "stop_episode", "wall_time_s", "final"):
            check(key in meta, f"run.json lacks {key}")
        stop = meta["stop_episode"]
        check(0 < stop <= config.max_episodes, f"stop episode {stop} out of range")
        rows = (out / "run_record.csv").read_text().splitlines()[1:]
        check(len(rows) == -(-stop // config.eval_every), "wrong run_record row count")
        lines = (out / "traces.txt").read_text().splitlines()
        check(len(lines) == config.bootstrap_episodes + stop, "wrong traces.txt length")
        # The reloaded checkpoint must reproduce the run's last evaluation.
        agent, _ = load_checkpoint(out)
        env = make_environment("gravity", seed=state["seed"])
        stats = evaluate(agent, env, config.eval_episodes,
                         f"{state['seed']}|eval|{stop - 1}")
        final = meta["final"]
        check((stats.goal_rate, stats.mean_steps, stats.mean_return)
              == (final["goal_rate"], final["mean_steps"], final["mean_return"]),
              "reloaded checkpoint does not reproduce the final evaluation")
        steps = sum(line.count(";") for line in lines)
        digest = digest_files(out / n for n in
                              ("run_record.csv", "model.json", "qtable.txt", "traces.txt"))
        return steps, {"digest": digest, "episodes_to_stop": stop,
                       "goal_rate": final["goal_rate"],
                       "mean_steps": final["mean_steps"]}


class EvalConfusing:
    """`poql eval` of a confusing_officeworld checkpoint, one eval seed per op.

    The checkpoint is trained during set-up, in a child process, at the
    acceptance seed with the belief-oracle stop target: training time varies
    from 2.5 s to 70 s across seeds, and some seeds stop on a policy that
    misses the goal now and then, which would test learning rather than the
    evaluation path. --seed picks the evaluation episodes.
    """

    name = "eval_confusing"
    same_input_every_op = False
    tree_share = 0.25

    def __init__(self, episodes: int = 20_000):
        self.episodes = episodes

    def setup(self, workdir: Path, seed: int) -> dict:
        from poql.beliefs import belief_mdp_as_mdp, build_belief_mdp, optimal_expected_steps
        from poql.envs import make_environment

        env = make_environment("confusing_officeworld", seed=CHECKPOINT_SEED)
        bmdp = build_belief_mdp(env.pomdp)
        check(not bmdp.truncated, "belief MDP truncated")
        oracle = optimal_expected_steps(
            belief_mdp_as_mdp(bmdp), bmdp.goal_states(env.pomdp))[bmdp.model.initial]
        check(abs(oracle - 8.2222) < 1e-3, f"belief oracle is {oracle}, not 8.2222")
        out = workdir / "confusing-ckpt"
        cfg = write_config(workdir / "confusing.json", {
            "schema_version": 1, "seed": CHECKPOINT_SEED, "agent": "poql",
            "environment": {"name": "confusing_officeworld"},
            "agent_config": {"oracle_steps": round(oracle, 4)},
            "output_dir": str(out),
        })
        env_vars = dict(os.environ)
        env_vars["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env_vars.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "poql", "train", str(cfg), "--quiet", "--force"],
            env=env_vars, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"checkpoint training failed: {proc.stderr.strip()}")
        return {"out": out, "seed": seed, "oracle": oracle}

    def op(self, state: dict, i: int):
        import poql.cli

        stats: list = []
        text = io.StringIO()
        with returns_of(poql.cli, "evaluate", stats), contextlib.redirect_stdout(text):
            code = poql.cli.main(["eval", str(state["out"]), "--episodes",
                                  str(self.episodes), "--seed",
                                  str(state["seed"] * 1000 + i)])
        return code, text.getvalue(), stats

    def check(self, state: dict, output) -> tuple[int, dict]:
        code, text, stats = output
        check(code == 0, f"eval exited with {code}")
        check(len(stats) == 1, "eval did not evaluate exactly once")
        report, exact = json.loads(text), stats[0]
        check(report["goal_rate"] == exact.goal_rate == 1.0,
              f"goal rate {exact.goal_rate} is not 1.0")
        check(exact.mean_steps_exact <= 1.6 * state["oracle"],
              f"mean steps {exact.mean_steps_exact} exceed 1.6 x oracle")
        steps = round(exact.mean_steps_exact * self.episodes)
        h = hashlib.sha256(text.encode())
        h.update(digest_files(state["out"] / n for n in (
            "run_record.csv", "model.json", "qtable.txt", "traces.txt")).encode())
        return steps, {"digest": h.hexdigest()[:16], "goal_rate": report["goal_rate"],
                       "mean_steps": report["mean_steps"],
                       "mean_steps_exact": exact.mean_steps_exact}


class LearnThinmaze:
    """Offline IOAlergia over a file of uniform-random thinmaze episodes.

    eps_al = 0.5 lies above 2/e^2, so the exact Hoeffding test stays live on
    frequency-1 tails of the prefix tree.
    """

    name = "learn_thinmaze"
    same_input_every_op = True
    tree_share = 1.0
    eps_al = 0.5

    def __init__(self, episodes: int = 1500):
        self.episodes = episodes

    def setup(self, workdir: Path, seed: int) -> dict:
        from poql.envs import make_environment
        from poql.models import RewardObservationTrace, write_trace_file

        env = make_environment("thinmaze", seed=seed)
        rng = random.Random(f"{seed}|perfbench")
        actions = env.actions
        history = []
        for _ in range(self.episodes):
            obs, reward = env.reset()
            steps = []
            done = False
            while not done:
                action = actions[rng.randrange(len(actions))]
                new_obs, r, done = env.step(action)
                steps.append((action, r, new_obs))
            history.append(RewardObservationTrace(obs, reward, tuple(steps)))
        path = workdir / "thinmaze-traces.txt"
        write_trace_file(history, path)
        return {"path": path, "steps": sum(len(t.steps) for t in history)}

    def op(self, state: dict, i: int):
        from poql import learn

        traces = learn.observation_traces_from_file(state["path"])
        return traces, learn.run_ioalergia(traces, learn.LearnerConfig(eps_al=self.eps_al))

    def check(self, state: dict, output) -> tuple[int, dict]:
        from poql.checkpoint import model_to_dict
        from poql.models import reset_to_initial, step_to

        traces, model = output
        steps = sum(len(s) for _, s in traces)
        check(steps == state["steps"], "trace file lost steps")
        mass = sum(sum(dist.values()) for dist in model.counts.values())
        check(mass == steps, f"model edge counts sum to {mass}, not {steps}")
        for init, trace_steps in traces:
            check(model.label[model.initial] == init, "initial label differs")
            tracker = reset_to_initial(model)
            for action, obs in trace_steps:
                tracker = step_to(tracker, action, obs, model)
            check(tracker.defined, "a sample trace left the learned model")
        blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
        return steps, {"digest": hashlib.sha256(blob).hexdigest()[:16],
                       "model_states": len(model.states)}


WORKLOADS = {w.name: w for w in (TrainGravity, EvalConfusing, LearnThinmaze)}


# -- measurement ----------------------------------------------------------------


class _Node:
    __slots__ = ("children", "freq")

    def __init__(self):
        self.children = {}
        self.freq = {}


def reference_tree() -> int:
    """Grow and walk a prefix tree of small slotted objects: allocation-,
    dict- and GC-heavy work, like the learner's and the trace parser's."""
    root = _Node()
    for t in range(1000):
        node = root
        for s in range(60):
            key = (f"a{t * s % 3}", f"o{(t + s) % 5}") if s < 3 else (s, t)
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _Node()
                node.freq[key] = 0
            node.freq[key] += 1
            node = child
    nodes, stack = 0, [root]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children.values())
    return nodes


def reference_calls() -> float:
    """Many small function calls over short float rows, like the act loop
    and the Q-updates."""

    def update(row, i, value):
        row[i] = 0.9 * row[i] + 0.1 * value
        return max(row)

    rng = random.Random(1)
    rows = {i: [0.0] * 4 for i in range(64)}
    total = 0.0
    for i in range(300_000):
        total += update(rows[(i * 7) & 63], i & 3, rng.random())
    return total


class Normaliser:
    """Converts measured times to seconds at a fixed machine speed.

    On a shared machine the same code runs up to 1.6 times slower for
    minutes at a time, and each core drifts on its own. The process is
    therefore pinned to one CPU, and every timed section is divided by the
    machine's speed factor, taken as the mean of one measurement just
    before and one just after the section on that CPU.

    A measurement times two fixed computations that use no poql code,
    reference_tree() and reference_calls(). The machine slows the two kinds
    of work down by different amounts, so the factor weighs them by the
    workload's `tree_share`. Each workload's share was chosen on the baseline
    machine as the one that best tracked its drift; it lies near the share
    of the operation's time spent building trees and parsing or writing
    traces. A factor of 1 means both run in their nominal times, TREE_S and
    CALLS_S.
    """

    def __init__(self, tree_share: float):
        self.tree_share = tree_share
        self.before: float | None = None
        self.factors: list[float] = []

    def _factor(self) -> float:
        factor = 0.0
        for share, work, nominal in ((self.tree_share, reference_tree, TREE_S),
                                     (1.0 - self.tree_share, reference_calls, CALLS_S)):
            if share > 0:
                gc.collect()
                t0 = clock()
                work()
                factor += share * (clock() - t0) / nominal
        self.factors.append(factor)
        return factor

    def start(self) -> None:
        """Call before a timed section."""
        if self.before is None:
            self.before = self._factor()

    def scale(self, elapsed: float) -> float:
        """Call right after the timed section that took `elapsed` seconds."""
        after = self._factor()
        scaled = elapsed * 2 / (self.before + after)
        self.before = after
        return scaled


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, norm: Normaliser) -> dict:
    """Set up, measure and check one workload; returns the raw figures."""
    setup_times, setup_norm, tracers = [], [], []
    state = None
    for rep in range(SETUP_REPS):
        state = None
        tracer = Tracer(f"{workload.name}-{seed}-setup") if trace and rep == 0 else None
        norm.start()
        t0 = clock()
        if tracer:
            with tracer.installed(), tracer.span("bench.setup"):
                state = workload.setup(workdir, seed)
            tracers.append(tracer)
        else:
            state = workload.setup(workdir, seed)
        setup_times.append(clock() - t0)
        setup_norm.append(norm.scale(setup_times[-1]))

    plain, plain_norm, traced, rates, norm_rates = [], [], [], [], []
    attempted = failed = 0
    first_info = None
    measured = 0.0
    needed = WARMUP_OPS + (2 * MIN_TRACED_OPS if trace else MIN_OPS)
    while attempted < needed or measured < seconds:
        warmup = attempted < WARMUP_OPS
        use_tracer = trace and not warmup and (attempted - WARMUP_OPS) % 2 == 0
        tracer = Tracer(f"{workload.name}-{seed}-op{attempted}") if use_tracer else None
        if not warmup:
            norm.start()
        gc.collect()
        t0 = clock()
        if tracer:
            with tracer.installed(), tracer.span("bench.op"):
                output = workload.op(state, attempted)
        else:
            output = workload.op(state, attempted)
        elapsed = clock() - t0
        if warmup:
            norm.before = None  # measure the speed again after the warm-up
            scaled = None
        else:
            scaled = norm.scale(elapsed)
        attempted += 1
        if not warmup:
            measured += elapsed
        try:
            steps, info = workload.check(state, output)
            if first_info is None:
                first_info = info
            elif workload.same_input_every_op:
                check(info["digest"] == first_info["digest"],
                      "a repeated operation gave different outputs")
        except CheckFailed as exc:
            failed += 1
            print(f"# check failed on operation {attempted}: {exc}")
            continue
        finally:
            output = None
        if warmup:
            continue
        if tracer:
            traced.append(elapsed)
            tracers.append(tracer)
        else:
            plain.append(elapsed)
            plain_norm.append(scaled)
            rates.append(steps / elapsed)
            norm_rates.append(steps / scaled)
    return {"setup_times": setup_times, "setup_norm": setup_norm, "plain": plain,
            "plain_norm": plain_norm, "traced": traced, "rates": rates,
            "norm_rates": norm_rates, "attempted": attempted, "failed": failed,
            "info": first_info or {}, "tracers": tracers}


def layer_metrics(workload, figures: dict) -> dict:
    """Per-layer metrics of the traced set-up plus each traced operation.

    Counts come from the first traced operation, and must repeat exactly on
    the others when every operation has the same input; times are medians,
    in measured (not normalised) seconds.
    """
    setup = figures["tracers"][0].metrics()
    per_op = []
    for tracer in figures["tracers"][1:]:
        op = tracer.metrics()
        per_op.append({k: setup[k] + op[k] for k in op})
    if workload.same_input_every_op:
        counts = [t.counts() for t in figures["tracers"][1:]]
        if any(c != counts[0] for c in counts[1:]):
            raise CheckFailed("traced operations gave different counters")
    out = {key: {"value": per_op[0][key], "unit": "count"} for key in LAYER_COUNTS}
    for name in ("checkpoint.bytes_written", "checkpoint.bytes_read"):
        out[name]["unit"] = "B"
    for key in LAYER_TIMES:
        out[key] = {"value": statistics.median(m[key] for m in per_op), "unit": "s"}
    out["trace_overhead_s"] = {
        "value": statistics.median(figures["traced"]) - statistics.median(figures["plain"]),
        "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_to_one_cpu()
    import_s = import_poql()
    workload = WORKLOADS[args.workload]()
    norm = Normaliser(workload.tree_share)
    norm.start()
    import_norm = import_s / norm.before
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        figures = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               workdir, norm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(key):
        return statistics.median(figures[key]) if figures[key] else 0.0

    correct = figures["failed"] == 0 and bool(figures["rates"])
    if args.trace:
        try:
            metrics = layer_metrics(workload, figures)
        except CheckFailed as exc:
            print(f"# check failed: {exc}")
            correct = False
            metrics = {}
        trace_dir = work_root / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w") as fh:
            for tracer in figures["tracers"]:
                tracer.write(fh)
        absent = sorted({a for t in figures["tracers"] for a in t.absent})
    else:
        metrics = {
            "setup_s": {"value": import_norm + median("setup_norm"), "unit": "s"},
            "wall_s": {"value": median("plain_norm"), "unit": "s"},
            "steps_per_s": {"value": median("norm_rates"), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        absent = []
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **figures["info"],
        "measured": {"setup_s": import_s + median("setup_times"),
                     "wall_s": median("plain"), "steps_per_s": median("rates"),
                     "op_s": figures["plain"], "traced_op_s": figures["traced"],
                     "setup_reps_s": figures["setup_times"], "import_s": import_s},
        "speed_factors": norm.factors,
        "absent": absent, "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": figures["attempted"],
                      "failed": figures["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
