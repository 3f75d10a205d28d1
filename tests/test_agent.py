import _random
import copy
import dataclasses
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import poql.agent as agent_mod
from poql.agent import (
    AgentConfig,
    ExtendedState,
    RandomAgent,
    TabularAgent,
    baseline_obs_q,
    evaluate,
    get_action,
    randbelow,
    replay,
    run_episode,
    train,
    update_q_values,
)
from poql.beliefs import build_belief_mdp
from poql.checkpoint import load_checkpoint, model_to_dict, qtable_rows, save_checkpoint
from poql.envs import ENVIRONMENT_NAMES, Environment, make_environment
from poql.models import (
    Mdp,
    Pomdp,
    RewardObservationTrace,
    read_trace_file,
    reset_to_initial,
    step_to,
    write_trace_file,
)

from helpers import (RepeatActionAgent, fully_observable, reference_episode,
                     reference_evaluate, reference_train, value_iteration)

ACTIONS = ("up", "down", "left", "right")


def _quick_config(**overrides):
    base = dict(
        max_episodes=600,
        bootstrap_episodes=50,
        update_interval=200,
        eval_every=200,
        epsilon_decay_episodes=300,
    )
    base.update(overrides)
    return AgentConfig(**base)


# ---------------------------------------------------------------------------
# get_action
# ---------------------------------------------------------------------------

def test_get_action_pure_greedy_unique_max():
    q = {}
    update_q_values(q, ACTIONS, "s", "left", 5.0, "t", 1.0, 0.0)
    rng = random.Random(0)
    assert all(get_action(q, "s", 0.0, ACTIONS, rng) == "left" for _ in range(50))


def test_get_action_pure_exploration_is_uniform():
    q = {}
    update_q_values(q, ACTIONS, "s", "left", 5.0, "t", 1.0, 0.0)
    rng = random.Random(1)
    counts = Counter(get_action(q, "s", 1.0, ACTIONS, rng) for _ in range(10_000))
    expected = 2500
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    for action in ACTIONS:
        assert abs(counts[action] - expected) < 3 * sigma


def test_get_action_breaks_ties_uniformly():
    q = {}
    rng = random.Random(2)
    counts = Counter(get_action(q, "fresh", 0.0, ACTIONS, rng) for _ in range(10_000))
    expected = 2500
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    for action in ACTIONS:
        assert abs(counts[action] - expected) < 3 * sigma


def _reference_get_action(q, state, epsilon, actions, rng):
    """Epsilon-greedy choice that always builds the list of tied maxima."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return actions[rng.randrange(len(actions))]
    row = q.get(state)
    if row is None:
        return actions[rng.randrange(len(actions))]
    best = max(row)
    ties = [i for i, v in enumerate(row) if v == best]
    if len(ties) == 1:
        return actions[ties[0]]
    return actions[ties[rng.randrange(len(ties))]]


_Q_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300)
@given(row=st.lists(_Q_VALUES, min_size=4, max_size=4), epsilon=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**32), known=st.booleans(), memo=st.booleans())
@example(row=[0.0, -0.0, -1.0, 0.0], epsilon=0.0, seed=3, known=True, memo=True)
@example(row=[-0.0, 0.0, 2.0, 2.0], epsilon=0.0, seed=4, known=True, memo=True)
def test_get_action_matches_the_tie_list_rule(row, epsilon, seed, known, memo):
    """Draws for a row and for an absent key match the reference, with or
    without one memo of greedy picks shared by every draw."""
    q = {}
    if known:
        q["s"] = row
    greedy = {} if memo else None
    fast, reference = random.Random(seed), random.Random(seed)
    for _ in range(3):
        for state in ("s", "absent"):
            assert (get_action(q, state, epsilon, ACTIONS, fast, greedy)
                    == _reference_get_action(q, state, epsilon, ACTIONS, reference))
            assert fast.getstate() == reference.getstate()


_REPEATED_NAN = """
import random
from poql.agent import get_action
nan = float("nan")
for memo in ((), ({},)):
    try:
        get_action({"s": [nan, nan, 0.0, 0.0]}, "s", 0.0, "abcd", random.Random(0), *memo)
    except ValueError:
        continue
    raise SystemExit("no ValueError")
"""


def test_get_action_picks_a_leading_nan_and_refuses_a_repeated_one():
    """NaN is the maximum only at the front of a row. An object that repeats
    leaves no tied value, which raises ValueError (run in a child process, so
    that a draw from no ties fails the test instead of hanging it); alone it
    is picked."""
    env = dict(os.environ, PYTHONPATH=str(Path(agent_mod.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _REPEATED_NAN], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stdout + done.stderr
    nan = float("nan")
    for memo in ((), ({},)):
        for row in ([nan, 1.0, 2.0, 0.0], [nan, 1.0, float("nan"), 0.0]):
            assert get_action({"s": row}, "s", 0.0, ACTIONS, random.Random(0), *memo) == "up"


@settings(max_examples=200)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32))
def test_randbelow_draws_what_randrange_draws(n, seed):
    fast, reference = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert randbelow(n, fast) == reference.randrange(n)
    assert fast.getstate() == reference.getstate()


@given(actions=st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1,
                        max_size=9, unique=True),
       seed=st.integers(0, 2**32))
def test_random_agent_picks_what_randrange_picks(actions, seed):
    agent = RandomAgent(actions)
    fast, reference = random.Random(seed), random.Random(seed)
    for _ in range(10):
        assert agent.choose("obs", fast) == actions[reference.randrange(len(actions))]
    assert fast.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# update_q_values
# ---------------------------------------------------------------------------

def test_update_full_overwrite_no_bootstrap():
    q = {}
    update_q_values(q, ACTIONS, "s", "up", 5.0, "t", 1.0, 0.0)
    assert q["s"][0] == 5.0


def test_update_direct_substitution():
    q = {}
    update_q_values(q, ACTIONS, "t", "up", 0.0, "u", 1.0, 0.0)
    q["t"][0] = 2.0  # maxNext = 2
    update_q_values(q, ACTIONS, "s", "up", 1.0, "t", 0.5, 0.9)
    assert q["s"][0] == pytest.approx(0.5 * (1.0 + 0.9 * 2.0))


def test_update_unseen_state_behaves_as_zero():
    q = {}
    update_q_values(q, ACTIONS, "new", "down", 3.0, "unseen", 0.5, 0.99)
    assert q["new"][1] == pytest.approx(0.5 * 3.0)
    assert "unseen" not in q


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def beverage_model(beverage_world):
    return build_belief_mdp(beverage_world.pomdp).model


def _record_episode(env, seed):
    agent = RandomAgent(env.actions)
    return RewardObservationTrace(*run_episode(env, agent, random.Random(seed)))


def test_replay_empty_history_keeps_zeros(beverage_model):
    q = {}
    replay(q, beverage_model, [], ("coin", "button"), 0.1, 0.99)
    assert len(q) == 0


def test_replay_matches_online_updates(beverage_model):
    env = make_environment("hot_beverage", seed=77)
    episode = _record_episode(env, seed=3)

    online = {}
    tracker = reset_to_initial(beverage_model)
    ext = ExtendedState(episode.initial_obs, tracker.state, tracker.defined)
    for action, r, obs in episode.steps:
        tracker = step_to(tracker, action, obs, beverage_model)
        nxt = ExtendedState(obs, tracker.state, tracker.defined)
        update_q_values(online, env.actions, ext, action, r, nxt, 0.1, 0.99)
        ext = nxt

    replayed = {}
    replay(replayed, beverage_model, [episode], env.actions, 0.1, 0.99)
    assert replayed == online


def test_replay_is_deterministic(beverage_model):
    env = make_environment("hot_beverage", seed=78)
    history = [_record_episode(env, seed=i) for i in range(10)]
    q1, q2 = {}, {}
    replay(q1, beverage_model, history, env.actions, 0.1, 0.99)
    replay(q2, beverage_model, history, env.actions, 0.1, 0.99)
    assert q1 == q2


def test_run_episode_learning_matches_replay(beverage_model):
    """The runner's online updates equal a replay of the traces it returns."""
    env = make_environment("hot_beverage", seed=79)
    agent = TabularAgent(env.actions, AgentConfig(), beverage_model)
    rng = random.Random(4)
    history = [RewardObservationTrace(*run_episode(env, agent, rng, 0.5, (0.1, 0.99)))
               for _ in range(10)]
    replayed = {}
    replay(replayed, beverage_model, history, env.actions, 0.1, 0.99)
    assert len(agent.q) > 1
    assert agent.q == replayed


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_beverage():
    env = make_environment("hot_beverage", seed=3)
    agent = train(env, _quick_config(), seed=7)
    return agent, env


def test_train_learns_the_delayed_route(trained_beverage):
    """Optimal play charges the machine twice before pressing the button;
    the oracle policy on the exact belief model does the same."""
    agent, env = trained_beverage
    env.reseed(123)
    _, _, steps = run_episode(env, agent, random.Random(0))
    assert [action for action, _, _ in steps[:3]] == ["coin", "coin", "button"]


def test_train_relearn_schedule():
    env = make_environment("hot_beverage", seed=5)
    config = _quick_config(max_episodes=1000, update_interval=300,
                           freeze_after=700, target_goal_rate=2.0, eval_every=1000)
    agent = train(env, config, seed=5)
    assert agent.relearn_episodes == [0, 300, 600]
    assert max(agent.relearn_episodes) < 700
    assert agent.stop_episode == 1000 and len(agent.history) == 50 + 1000


def test_train_one_tracker_advance_per_step(monkeypatch):
    calls = 0
    real_step_to = agent_mod.step_to

    def counting(tracker, action, obs, model):
        nonlocal calls
        calls += 1
        return real_step_to(tracker, action, obs, model)

    monkeypatch.setattr(agent_mod, "step_to", counting)
    monkeypatch.setattr(
        agent_mod, "evaluate",
        lambda *a, **k: agent_mod.EvalStats(0.0, None, 0.0, None),
    )
    env = make_environment("hot_beverage", seed=9)
    config = _quick_config(max_episodes=40, freeze_after=0, target_goal_rate=2.0,
                           eval_every=100_000, bootstrap_episodes=10)
    agent = train(env, config, seed=9)
    online_steps = sum(len(t.steps) for t in agent.history[10:])
    assert calls == online_steps


@pytest.mark.parametrize("trainer", [train, baseline_obs_q])
def test_every_episode_draws_on_the_exact_generator_type(monkeypatch, trainer):
    """`train`, `baseline_obs_q` and `evaluate` hand `run_episode` generators
    of the exact C type, and so does the environment draw on one."""
    seen = Counter()
    real_run_episode = agent_mod.run_episode

    def spying(env, agent, rng, *args, **kwargs):
        seen[type(rng), type(env._rng), "discount" in kwargs] += 1
        return real_run_episode(env, agent, rng, *args, **kwargs)

    monkeypatch.setattr(agent_mod, "run_episode", spying)
    config = _quick_config(max_episodes=20, bootstrap_episodes=5, update_interval=10,
                           eval_every=10, eval_episodes=3, target_goal_rate=2.0)
    trainer(make_environment("hot_beverage", seed=5), config, seed=5)
    exact = _random.Random
    boot = 5 if trainer is train else 0
    assert seen == {(exact, exact, False): boot + 20, (exact, exact, True): 2 * 3}


def test_train_freeze_keeps_collecting_history():
    env = make_environment("hot_beverage", seed=13)
    config = _quick_config(max_episodes=100, freeze_after=0, target_goal_rate=2.0,
                           eval_every=200, bootstrap_episodes=10)
    agent = train(env, config, seed=13)
    assert agent.relearn_episodes == []
    assert len(agent.history) == 110


@pytest.mark.parametrize("kind", ["poql", "obs_baseline"])
def test_the_q_table_is_an_exact_dict(tmp_path, kind):
    """CPython specialises `dict.get` and `d[k] = v` only on exact dicts, so
    every Q-table an agent holds is a plain `dict`: after training without a
    relearn, after a relearn, and after a checkpoint reload."""
    env = make_environment("hot_beverage", seed=21)
    config = _quick_config(max_episodes=40, bootstrap_episodes=10, update_interval=20,
                           freeze_after=0, eval_every=40, eval_episodes=5)
    trainer = train if kind == "poql" else baseline_obs_q
    agent = trainer(env, config, seed=21)
    assert agent.relearn_episodes == [] and len(agent.q) > 0
    assert type(agent.q) is dict
    if kind == "poql":
        config = _quick_config(max_episodes=40, bootstrap_episodes=10, update_interval=20,
                               eval_every=40, eval_episodes=5)
        agent = train(env, config, seed=21)
        assert agent.relearn_episodes == [0, 20]
        assert type(agent.q) is dict
    exp_config = {"schema_version": 1, "seed": 21, "agent": kind,
                  "environment": {"name": "hot_beverage"},
                  "agent_config": dataclasses.asdict(config)}
    save_checkpoint(tmp_path, agent, exp_config)
    loaded, _ = load_checkpoint(tmp_path)
    assert type(loaded.q) is dict
    assert loaded.q == agent.q


# Each example is a whole run, so a failure is reported unshrunk: shrinking
# one takes minutes.
@settings(max_examples=8, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(name=st.sampled_from([n for n in ENVIRONMENT_NAMES if n != "grid"]),
       seed=st.integers(0, 2**16), bootstrap=st.integers(1, 60),
       interval=st.integers(40, 160), freeze=st.one_of(st.none(), st.integers(0, 300)),
       eps_al=st.sampled_from([0.05, 0.2, 0.3, 0.5, 1.0]))
def test_train_matches_the_reference_trainer(name, seed, bootstrap, interval, freeze, eps_al):
    """A whole run of `train` equals `reference_train`, which relearns with
    `reference_ioalergia`, replays over `model.trans` and `label`, and plays
    every episode through the reference loop: same Q-table, model, eval
    rows, relearn episodes, stop episode and history."""
    config = AgentConfig(max_episodes=300, bootstrap_episodes=bootstrap,
                         update_interval=interval, freeze_after=freeze, eps_al=eps_al,
                         eval_every=100, eval_episodes=10, epsilon_decay_episodes=150)
    agent = train(make_environment(name, seed=seed), config, seed=seed)
    ref = reference_train(make_environment(name, seed=seed), config, seed)
    assert qtable_rows(agent.q, agent.actions) == qtable_rows(ref.q, agent.actions)
    assert model_to_dict(agent.model) == ref.model
    assert agent.eval_rows == ref.eval_rows
    assert agent.relearn_episodes == ref.relearn_episodes
    assert agent.stop_episode == ref.stop_episode
    assert agent.history == ref.history


def test_train_q_keys_stay_inside_extended_space(trained_beverage):
    agent, _ = trained_beverage
    states = set(agent.model.states)
    for key in agent.q:
        assert isinstance(key, ExtendedState)
        assert key.state in states


def test_unreachable_extended_pairs_stay_zero(trained_beverage):
    """An observation paired with a model state it can never co-occur with
    keeps the default value and no materialized row."""
    agent, _ = trained_beverage
    tea_states = [s for s in agent.model.states if agent.model.label[s] == "tea"]
    ghost = ExtendedState("init", tea_states[0], True)
    assert ghost not in agent.q


def test_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AgentConfig(gamma=1.0)
    with pytest.raises(ValueError):
        AgentConfig(update_interval=0)
    with pytest.raises(ValueError):
        AgentConfig(freeze_after=50, max_episodes=40)
    for bad in ({"eval_every": 0}, {"eval_episodes": 0}, {"eps_al": 0.0}, {"eps_al": 1.5},
                {"max_episodes": 0}, {"max_episodes": -5}, {"epsilon_start": 1.5},
                {"epsilon_end": -0.2}, {"freeze_after": -3},
                {"epsilon_decay_episodes": -10}, {"oracle_steps": -1.0}):
        with pytest.raises(ValueError):
            AgentConfig(**bad)
    # Edge values stay legal; a goal rate above 1 means "never stop early".
    AgentConfig(epsilon_start=0.0, epsilon_end=1.0, freeze_after=0,
                epsilon_decay_episodes=0, target_goal_rate=2.0)


def test_config_default_episode_budget():
    config = AgentConfig()
    assert config.max_episodes == 30_000
    assert config.resolved_freeze_after() == 22_500


def test_eval_rows_monotone_and_frozen_state_count():
    env = make_environment("hot_beverage", seed=41)
    config = _quick_config(max_episodes=800, update_interval=200, freeze_after=400,
                           eval_every=200, target_goal_rate=2.0)
    agent = train(env, config, seed=41)
    episodes = [row["episode"] for row in agent.eval_rows]
    assert episodes == sorted(set(episodes))
    after_freeze = [row["model_state_count"] for row in agent.eval_rows
                    if row["episode"] > 400]
    assert len(set(after_freeze)) == 1


def test_epsilon_schedule_linear_then_flat():
    config = AgentConfig(max_episodes=1000, epsilon_decay_episodes=500,
                         epsilon_start=1.0, epsilon_end=0.1)
    assert config.epsilon_at(0) == 1.0
    assert config.epsilon_at(250) == pytest.approx(0.55)
    assert config.epsilon_at(500) == 0.1
    assert config.epsilon_at(999) == 0.1


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_requires_episodes(trained_beverage):
    agent, env = trained_beverage
    with pytest.raises(ValueError):
        evaluate(agent, env, 0, seed=1)


def test_evaluate_reports_rounded_steps(trained_beverage):
    agent, env = trained_beverage
    stats = evaluate(agent, env, 100, seed=11)
    assert stats.goal_rate == 1.0
    assert stats.mean_steps == int(math.floor(stats.mean_steps_exact + 0.5))


def test_evaluate_mean_return_matches_discounted_return(trained_beverage):
    """Recompute the evaluation from an identical rollout, for the poql
    agent, the baseline and a RandomAgent."""
    agent, env = trained_beverage
    baseline = baseline_obs_q(env, _quick_config(), seed=7)
    for policy in (agent, baseline, RandomAgent(env.actions)):
        assert evaluate(policy, env, 20, seed=42) == reference_evaluate(policy, env, 20, 42)


def test_evaluate_oracle_policy_matches_shortest_path():
    """A policy read off value iteration, driven through evaluate on a
    deterministic grid, needs exactly the breadth-first distance."""
    from collections import deque

    from poql.envs import GridSpec, grid_pomdp

    layout = """
    S....
    .##..
    ..#..
    .....
    ..#.G
    """
    spec = GridSpec.from_text(layout)
    world = grid_pomdp(spec)
    pomdp = fully_observable(world.pomdp)
    env = Environment(pomdp, seed=0, name="grid")
    _, policy = value_iteration(pomdp.mdp, pomdp.reward_fn, 0.9,
                                terminal_states=pomdp.goal_states)
    obs_to_state = {obs: s for s, obs in pomdp.obs_fn.items()}

    class OracleAgent:
        gamma = 0.9

        def choose(self, obs, rng):
            return policy[obs_to_state[obs]]

    frontier = deque([(spec.start, 0)])
    seen = {spec.start}
    bfs = None
    while frontier:
        cell, d = frontier.popleft()
        if cell == spec.goal:
            bfs = d
            break
        for action in ACTIONS:
            nxt = spec.move(cell, action)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))

    stats = evaluate(OracleAgent(), env, 20, seed=4)
    assert stats.goal_rate == 1.0
    assert stats.mean_steps == bfs


def test_evaluate_random_agent_rarely_solves_thinmaze():
    env = make_environment("thinmaze", seed=0)
    stats = evaluate(RandomAgent(env.actions), env, 100, seed=17)
    assert stats.goal_rate < 0.1


def test_evaluate_mean_steps_none_without_successes():
    env = make_environment("thinmaze", seed=0)
    stats = evaluate(RepeatActionAgent("up"), env, 10, seed=3)
    assert stats.goal_rate == 0.0
    assert stats.mean_steps is None and stats.mean_steps_exact is None


def test_evaluate_rejects_gamma_outside_the_unit_interval():
    env = make_environment("thinmaze", seed=0)
    for gamma in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="gamma must be in"):
            evaluate(RepeatActionAgent("up", gamma=gamma), env, 3, seed=0)


EVAL_ENVS = ("hot_beverage", "gravity", "confusing_officeworld")


@pytest.fixture(scope="module")
def eval_agents():
    """Per environment: the environment, a short-trained poql agent and a
    short-trained baseline."""
    config = _quick_config(max_episodes=200, update_interval=100, eval_every=200,
                           epsilon_decay_episodes=100)
    agents = {}
    for name in EVAL_ENVS:
        env = make_environment(name, seed=1)
        agents[name] = (env, train(env, config, seed=1), baseline_obs_q(env, config, seed=1))
    return agents


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "baseline", "poql"]),
    env_name=st.sampled_from(EVAL_ENVS),
    gamma=st.sampled_from([0.0, 0.5, 0.99, 1.0]),
    n_episodes=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_evaluate_matches_the_rewards_list_reference(
    eval_agents, kind, env_name, gamma, n_episodes, seed
):
    env, poql_agent, baseline = eval_agents[env_name]
    if kind == "random":
        agent = RandomAgent(env.actions, gamma=gamma)
    else:
        agent = copy.copy(poql_agent if kind == "poql" else baseline)
        agent.gamma = gamma
    assert evaluate(agent, env, n_episodes, seed) == reference_evaluate(
        agent, env, n_episodes, seed)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "baseline", "poql"]),
    env_name=st.sampled_from(EVAL_ENVS),
    epsilon=st.sampled_from([0.0, 0.3, 1.0]),
    learn=st.sampled_from([None, (0.1, 0.99), (1.0, 0.0)]),
    n_episodes=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_run_episode_matches_the_protocol_loop(
    eval_agents, kind, env_name, epsilon, learn, n_episodes, seed
):
    """`run_episode` plays, learns and draws exactly as the reference loop
    `reference_episode` does, for tabular agents and a fixed policy."""
    env, poql_agent, baseline = eval_agents[env_name]
    results = []
    for play in (run_episode, reference_episode):
        if kind == "random":
            agent, learn, rows = RandomAgent(env.actions), None, None
        else:
            agent = copy.copy(poql_agent if kind == "poql" else baseline)
            agent.q = copy.deepcopy(agent.q)
            rows = agent.q
        env.reseed(seed)
        rng = random.Random(seed)
        episodes = []
        for _ in range(n_episodes):
            episodes.append((play(env, agent, rng, epsilon, learn),
                             env.goal_reached, env.step_count))
        results.append((episodes, rows, rng.getstate()))
    assert results[0] == results[1]


def _signed_zero_environment() -> Environment:
    """One observation and one action; every step enters state 1 (reward
    -0.0) or state 2 (reward 0.0) with probability 1/2 each."""
    coin = {1: 0.5, 2: 0.5}
    pomdp = Pomdp(
        mdp=Mdp((0, 1, 2), 0, ("go",), {(s, "go"): coin for s in (0, 1, 2)}),
        obs_fn={0: "o", 1: "o", 2: "o"},
        reward_fn={1: -0.0},
        goal_states=frozenset(),
    )
    return Environment(pomdp, seed=3, max_steps=30)


@pytest.mark.parametrize("kind", ["random", "baseline"])
def test_recorded_steps_keep_the_sign_of_a_zero_reward(tmp_path, kind):
    """Steps with the same (action, obs) and rewards 0.0 and -0.0 keep their
    own signs in the recorded history and through `write_trace_file`."""
    env = _signed_zero_environment()
    if kind == "random":
        agent = RandomAgent(env.actions)
    else:
        agent = TabularAgent(env.actions, _quick_config())
    history = [RewardObservationTrace(*run_episode(env, agent, random.Random(0)))
               for _ in range(3)]
    env.reseed(3)
    played = [reference_episode(env, agent, random.Random(0), 0.0, None)[2]
              for _ in range(3)]

    def signs(steps):
        return [math.copysign(1.0, r) for _, r, _ in steps]

    assert [signs(t.steps) for t in history] == [signs(steps) for steps in played]
    assert {-1.0, 1.0} <= set(signs(history[0].steps))
    write_trace_file(history, tmp_path / "traces.txt")
    reread = read_trace_file(tmp_path / "traces.txt")
    assert [signs(t.steps) for t in reread] == [signs(t.steps) for t in history]


class _UnresetEnvironment:
    """An environment whose reset fails, to show a call never got that far."""

    def reset(self):
        raise AssertionError("reset before the learn check")


@pytest.mark.parametrize("policy", [RandomAgent(ACTIONS), RepeatActionAgent("up")],
                         ids=["random", "repeat"])
def test_run_episode_refuses_learn_for_a_fixed_policy(policy):
    """A fixed policy has no Q-table to back up, so learn is refused before
    the episode starts."""
    with pytest.raises(TypeError, match="learn needs a TabularAgent"):
        run_episode(_UnresetEnvironment(), policy, random.Random(0), learn=(0.1, 0.99))


def test_run_episode_refuses_a_greedy_memo_with_learn():
    """A memo of greedy picks holds only while the Q-table is not written, so
    learn refuses one before the episode starts."""
    agent = TabularAgent(ACTIONS, AgentConfig())
    with pytest.raises(ValueError, match="greedy memo"):
        run_episode(_UnresetEnvironment(), agent, random.Random(0), learn=(0.1, 0.99),
                    greedy={})


def _count_get_action(monkeypatch) -> list:
    """Patch `poql.agent.get_action` to log each call's key; return the log."""
    keys = []
    real_get_action = agent_mod.get_action

    def counting(q, state, *args):
        keys.append(state)
        return real_get_action(q, state, *args)

    monkeypatch.setattr(agent_mod, "get_action", counting)
    return keys


@pytest.mark.parametrize("policy", [RandomAgent(("coin", "button")),
                                    RepeatActionAgent("coin")], ids=["random", "repeat"])
def test_a_fixed_policy_episode_calls_no_get_action(monkeypatch, policy):
    """A fixed policy picks by its own `choose`: no `get_action` call, and a
    greedy memo stays empty."""
    keys = _count_get_action(monkeypatch)
    env = make_environment("hot_beverage", seed=2)
    greedy = {}
    _, _, steps = run_episode(env, policy, random.Random(0), 0.5)
    run_episode(env, policy, random.Random(1), discount=0.9, greedy=greedy)
    assert steps and keys == [] and greedy == {}


@pytest.mark.parametrize("kind", ["poql", "baseline"])
def test_a_tabular_episode_calls_get_action_once_per_step(monkeypatch, beverage_model,
                                                          kind):
    """Learning or greedy, a TabularAgent makes exactly one `get_action`
    call per step, for the key the step starts from."""
    keys = _count_get_action(monkeypatch)
    env = make_environment("hot_beverage", seed=2)
    model = beverage_model if kind == "poql" else None
    agent = TabularAgent(env.actions, AgentConfig(), model)
    rng = random.Random(0)
    obs, _, steps = run_episode(env, agent, rng, 0.5, (0.1, 0.99))
    assert len(keys) == len(steps) > 0
    assert keys[0] == (reset_to_initial(model) if model else obs)
    del keys[:]
    run_episode(env, agent, rng, discount=0.9, greedy={})
    assert len(keys) == env.step_count > 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def test_baseline_matches_poql_under_full_observability():
    """With injective observations the extension adds no information."""
    base = make_environment("hot_beverage", seed=21)
    pomdp = fully_observable(base.pomdp)
    config = _quick_config()
    env1 = Environment(pomdp, seed=100, name="fo")
    env2 = Environment(pomdp, seed=100, name="fo")
    poql_agent = train(env1, config, seed=31)
    base_agent = baseline_obs_q(env2, config, seed=31)
    s1 = evaluate(poql_agent, env1, 100, seed=55)
    s2 = evaluate(base_agent, env2, 100, seed=55)
    assert s1.goal_rate == s2.goal_rate == 1.0
    assert abs(s1.mean_steps - s2.mean_steps) <= 1


def test_baseline_officeworld_rows_have_no_dominant_action():
    env = make_environment("officeworld", seed=23)
    config = _quick_config(max_episodes=2000, eval_every=2000, target_goal_rate=2.0,
                           epsilon_decay_episodes=1000)
    agent = baseline_obs_q(env, config, seed=23)
    row = agent.q.get("Room1")
    assert row is not None
    spread = max(row) - min(row)
    scale = max(1.0, max(abs(v) for v in row))
    assert spread / scale < 0.75
