"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything is seeded, so each run reproduces the same numbers. The trained
agents are shared between criteria through session fixtures; run with -s to
see the per-criterion lines as they happen.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import poql
from poql.agent import (
    AgentConfig,
    ExtendedState,
    QTable,
    RepeatActionAgent,
    baseline_obs_q,
    evaluate,
    replay,
    round_steps,
    train,
    update_q_values,
)
from poql.beliefs import build_belief_mdp, optimal_expected_steps
from poql.cli import main as cli_main
from poql.envs import hot_beverage_world, make_environment
from poql.learn import run_ioalergia
from poql.models import (
    label_determinism_violations,
    reset_to_initial,
    step_to,
)

from helpers import isomorphic, sample_pomdp_traces

SEED = 2024


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL - {text}")
        raise
    print(f"\n[criterion {num}] PASS - {text}")


def _oracle_steps(env):
    steps = optimal_expected_steps(env.pomdp.mdp, env.pomdp.goal_states)
    return steps[env.pomdp.mdp.initial]


def _train_run(name, oracle=None, **overrides):
    env = make_environment(name, seed=SEED)
    config = AgentConfig(oracle_steps=oracle, **overrides)
    started = time.perf_counter()
    agent = train(env, config, seed=SEED)
    elapsed = time.perf_counter() - started
    stats = evaluate(agent, env, 100, seed=SEED * 7)
    return agent, stats, elapsed, env


@pytest.fixture(scope="session")
def officeworld_run():
    env = make_environment("officeworld", seed=SEED)
    return _train_run("officeworld", oracle=_oracle_steps(env))


@pytest.fixture(scope="session")
def confusing_run():
    env = make_environment("confusing_officeworld", seed=SEED)
    return _train_run("confusing_officeworld", oracle=_oracle_steps(env))


@pytest.fixture(scope="session")
def gravity_run():
    return _train_run("gravity", oracle=26.0)


@pytest.fixture(scope="session")
def thinmaze_run():
    return _train_run("thinmaze")


# ---------------------------------------------------------------------------
# 1. belief-oracle exactness
# ---------------------------------------------------------------------------

def test_criterion_1_belief_oracle_exactness():
    with criterion(1, "belief oracle reproduces both beverage belief spaces exactly"):
        started = time.perf_counter()

        finite = hot_beverage_world()
        bmdp = build_belief_mdp(finite.pomdp)
        model = bmdp.model
        assert not bmdp.truncated and len(model.states) == 5
        expected_edges = {
            (0, "coin"): {1: 1.0},
            (0, "button"): {0: 1.0},
            (1, "coin"): {2: 1.0},
            (1, "button"): {3: 0.9, 4: 0.1},
            (2, "coin"): {2: 1.0},
            (2, "button"): {3: 0.5, 4: 0.5},
            (3, "coin"): {0: 1.0},
            (3, "button"): {0: 1.0},
            (4, "coin"): {0: 1.0},
            (4, "button"): {0: 1.0},
        }
        for key, dist in expected_edges.items():
            got = {s: float(p) for s, p in model.successors(*key).items()}
            assert set(got) == set(dist)
            for s, p in dist.items():
                assert abs(got[s] - p) <= 1e-9
        assert [model.label[s] for s in sorted(model.states)] == \
            ["init", "beep", "beep", "coffee", "tea"]

        chain = hot_beverage_world(Fraction(1, 5), Fraction(1), Fraction(1, 5))
        truncated = build_belief_mdp(chain.pomdp, max_states=6)
        assert truncated.truncated and len(truncated.model.states) == 6
        beep_beliefs = [
            sorted(float(p) for p in b.support.values())
            for s, b in sorted(truncated.belief_of_state.items())
            if truncated.model.label[s] == "beep"
        ]
        expected_beliefs = [[0.2, 0.8], [0.04, 0.96], [0.008, 0.992]]
        assert len(beep_beliefs) == 3
        for got, want in zip(beep_beliefs, expected_beliefs):
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9

        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. learner convergence at finite scale
# ---------------------------------------------------------------------------

def test_criterion_2_learner_recovers_belief_mdp():
    with criterion(2, "learner recovers the finite belief space from 50k traces"):
        started = time.perf_counter()
        world = hot_beverage_world()
        traces = sample_pomdp_traces(world.pomdp, 50_000, 6, seed=SEED)
        learned = run_ioalergia(traces)
        oracle = build_belief_mdp(world.pomdp).model
        assert isomorphic(learned, oracle, prob_tol=0.02)
        assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 3. update arithmetic
# ---------------------------------------------------------------------------

def test_criterion_3_update_matches_closed_form():
    with criterion(3, "1000 randomized updates match the closed form exactly"):
        rng = random.Random(SEED)
        actions = ("a", "b", "c")
        for _ in range(1000):
            old = rng.uniform(-50, 50)
            reward = rng.uniform(-10, 110)
            max_next = rng.uniform(-50, 50)
            alpha = rng.uniform(1e-6, 1.0)
            gamma = rng.uniform(0.0, 0.999)
            q = QTable(actions)
            q._rows["s"] = [old, -1e9, -1e9]
            q._rows["t"] = [max_next, max_next - 1, max_next - 2]
            update_q_values(q, "s", "a", reward, "t", alpha, gamma)
            assert q.value("s", "a") == (1.0 - alpha) * old + alpha * (
                reward + gamma * max_next
            )


# ---------------------------------------------------------------------------
# 4. replay/online equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_replay_equals_online():
    with criterion(4, "replaying a recorded episode reproduces online updates exactly"):
        world = hot_beverage_world()
        model = build_belief_mdp(world.pomdp).model
        env = make_environment("hot_beverage", seed=SEED)
        rng = random.Random(SEED)
        for _ in range(10):
            obs, reward = env.reset()
            steps = []
            done = False
            while not done:
                action = env.actions[rng.randrange(len(env.actions))]
                new_obs, r, done = env.step(action)
                steps.append((action, r, new_obs))
            episode = poql.RewardObservationTrace(obs, reward, tuple(steps))

            online = QTable(env.actions)
            tracker = reset_to_initial(model)
            ext = ExtendedState(episode.initial_obs, tracker.state, tracker.defined)
            for action, r, o in episode.steps:
                tracker = step_to(tracker, action, o, model)
                nxt = ExtendedState(o, tracker.state, tracker.defined)
                update_q_values(online, ext, action, r, nxt, 0.1, 0.99)
                ext = nxt
            replayed = QTable(env.actions)
            replay(replayed, model, [episode], 0.1, 0.99)
            assert replayed._rows == online._rows


# ---------------------------------------------------------------------------
# 5. poql solves the aliased tasks
# ---------------------------------------------------------------------------

def test_criterion_5_poql_solves_aliased_tasks(
    officeworld_run, confusing_run, gravity_run, thinmaze_run
):
    with criterion(5, "poql reaches the oracle across the gridworld suite"):
        # ConfusingOfficeWorld: poql solves it, the baseline never comes close.
        confusing_agent, confusing_stats, _, confusing_env = confusing_run
        assert confusing_agent.stop_episode <= 30_000
        assert confusing_stats.goal_rate == 1.0
        baseline_env = make_environment("confusing_officeworld", seed=SEED)
        baseline = baseline_obs_q(
            baseline_env, AgentConfig(eval_every=5000), seed=SEED
        )
        baseline_stats = evaluate(baseline, baseline_env, 100, seed=SEED * 7)
        assert baseline_stats.goal_rate <= 0.5
        assert max(r["goal_rate"] for r in baseline.eval_rows) <= 0.5

        # GravityDomain: poql solves it; blindly repeating `up` succeeds about
        # half the time under the 100-step cap.
        gravity_agent, gravity_stats, _, gravity_env = gravity_run
        assert gravity_stats.goal_rate == 1.0
        repeat_stats = evaluate(
            RepeatActionAgent("up"), gravity_env, 100, seed=SEED * 7
        )
        assert abs(repeat_stats.goal_rate - 0.5) <= 0.1

        # Step optimality relative to the exact oracle on these layouts.
        _, office_stats, _, office_env = officeworld_run
        assert office_stats.mean_steps == round_steps(_oracle_steps(office_env))
        assert gravity_stats.mean_steps == round_steps(_oracle_steps(gravity_env))
        assert confusing_stats.mean_steps_exact <= 1.6 * _oracle_steps(confusing_env)
        _, maze_stats, _, maze_env = thinmaze_run
        assert maze_stats.goal_rate == 1.0
        assert maze_stats.mean_steps_exact <= 1.6 * _oracle_steps(maze_env)


# ---------------------------------------------------------------------------
# 6. determinism invariant under fuzzing
# ---------------------------------------------------------------------------

def test_criterion_6_learned_models_always_deterministic():
    with criterion(6, "10,000 fuzzed samples all yield label-deterministic models"):
        rng = random.Random(SEED)
        for _ in range(10_000):
            n_obs = rng.randrange(1, 4)
            obs = [f"o{k}" for k in range(n_obs)]
            actions = ["x", "y"][: rng.randrange(1, 3)]
            traces = []
            for _ in range(rng.randrange(1, 16)):
                steps = tuple(
                    (rng.choice(actions), rng.choice(obs))
                    for _ in range(rng.randrange(0, 7))
                )
                traces.append(("o0", steps))
            model = run_ioalergia(traces)
            assert not label_determinism_violations(model.label, model.trans)


# ---------------------------------------------------------------------------
# 7. runtime sanity
# ---------------------------------------------------------------------------

def test_criterion_7_officeworld_run_is_fast(officeworld_run):
    with criterion(7, "a full OfficeWorld training run finishes in under 60s"):
        agent, stats, elapsed, _ = officeworld_run
        assert agent.stop_episode < agent.config.max_episodes
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_identical_configs_are_byte_identical(tmp_path):
    with criterion(8, "identical config and seed give byte-identical artifacts"):
        def run(outdir):
            config = {
                "schema_version": 1,
                "seed": SEED,
                "agent": "poql",
                "environment": {"name": "hot_beverage"},
                "agent_config": {
                    "max_episodes": 400,
                    "bootstrap_episodes": 40,
                    "update_interval": 200,
                    "eval_every": 200,
                    "epsilon_decay_episodes": 200,
                },
                "output_dir": str(outdir),
            }
            path = tmp_path / f"{outdir.name}.json"
            path.write_text(json.dumps(config))
            assert cli_main(["train", str(path), "--quiet"]) == 0

        run(tmp_path / "first")
        run(tmp_path / "second")
        for artifact in ("traces.txt", "run_record.csv"):
            first = (tmp_path / "first" / artifact).read_bytes()
            second = (tmp_path / "second" / artifact).read_bytes()
            assert first == second, artifact
