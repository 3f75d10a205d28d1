import copy
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import poql.agent as agent_mod
from poql.agent import (
    AgentConfig,
    EvalStats,
    ExtendedState,
    PoqlAgent,
    QTable,
    RandomAgent,
    RepeatActionAgent,
    baseline_obs_q,
    evaluate,
    get_action,
    replay,
    round_steps,
    run_episode,
    train,
    update_q_values,
)
from poql.beliefs import build_belief_mdp
from poql.envs import Environment, make_environment
from poql.models import (
    RewardObservationTrace,
    reset_to_initial,
    step_to,
)

from helpers import discounted_return, fully_observable

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
    q = QTable(ACTIONS)
    update_q_values(q, "s", "left", 5.0, "t", 1.0, 0.0)
    rng = random.Random(0)
    assert all(get_action(q, "s", 0.0, ACTIONS, rng) == "left" for _ in range(50))


def test_get_action_pure_exploration_is_uniform():
    q = QTable(ACTIONS)
    update_q_values(q, "s", "left", 5.0, "t", 1.0, 0.0)
    rng = random.Random(1)
    counts = Counter(get_action(q, "s", 1.0, ACTIONS, rng) for _ in range(10_000))
    expected = 2500
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    for action in ACTIONS:
        assert abs(counts[action] - expected) < 3 * sigma


def test_get_action_breaks_ties_uniformly():
    q = QTable(ACTIONS)
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
    row = q.row(state)
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
       seed=st.integers(0, 2**32), known=st.booleans())
def test_get_action_matches_the_tie_list_rule(row, epsilon, seed, known):
    q = QTable(ACTIONS)
    if known:
        q._rows["s"] = row
    fast, reference = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert (get_action(q, "s", epsilon, ACTIONS, fast)
                == _reference_get_action(q, "s", epsilon, ACTIONS, reference))
        assert fast.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# update_q_values
# ---------------------------------------------------------------------------

def test_update_full_overwrite_no_bootstrap():
    q = QTable(ACTIONS)
    update_q_values(q, "s", "up", 5.0, "t", 1.0, 0.0)
    assert q.value("s", "up") == 5.0


def test_update_direct_substitution():
    q = QTable(ACTIONS)
    update_q_values(q, "t", "up", 0.0, "u", 1.0, 0.0)
    q._rows["t"][0] = 2.0  # maxNext = 2
    update_q_values(q, "s", "up", 1.0, "t", 0.5, 0.9)
    assert q.value("s", "up") == pytest.approx(0.5 * (1.0 + 0.9 * 2.0))


def test_update_unseen_state_behaves_as_zero():
    q = QTable(ACTIONS)
    update_q_values(q, "new", "down", 3.0, "unseen", 0.5, 0.99)
    assert q.value("new", "down") == pytest.approx(0.5 * 3.0)
    assert q.value("unseen", "down") == 0.0
    assert "unseen" not in set(q.states())


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
    q = QTable(("coin", "button"))
    replay(q, beverage_model, [], 0.1, 0.99)
    assert len(q) == 0


def test_replay_matches_online_updates(beverage_model):
    env = make_environment("hot_beverage", seed=77)
    episode = _record_episode(env, seed=3)

    online = QTable(env.actions)
    tracker = reset_to_initial(beverage_model)
    ext = ExtendedState(episode.initial_obs, tracker.state, tracker.defined)
    for action, r, obs in episode.steps:
        tracker = step_to(tracker, action, obs, beverage_model)
        nxt = ExtendedState(obs, tracker.state, tracker.defined)
        update_q_values(online, ext, action, r, nxt, 0.1, 0.99)
        ext = nxt

    replayed = QTable(env.actions)
    replay(replayed, beverage_model, [episode], 0.1, 0.99)
    assert replayed._rows == online._rows


def test_replay_is_deterministic(beverage_model):
    env = make_environment("hot_beverage", seed=78)
    history = [_record_episode(env, seed=i) for i in range(10)]
    q1 = QTable(env.actions)
    q2 = QTable(env.actions)
    replay(q1, beverage_model, history, 0.1, 0.99)
    replay(q2, beverage_model, history, 0.1, 0.99)
    assert q1._rows == q2._rows


def test_run_episode_learning_matches_replay(beverage_model):
    """The runner's online updates equal a replay of the traces it returns."""
    env = make_environment("hot_beverage", seed=79)
    agent = PoqlAgent(beverage_model, QTable(env.actions), AgentConfig())
    rng = random.Random(4)
    history = [RewardObservationTrace(*run_episode(env, agent, rng, 0.5, (0.1, 0.99)))
               for _ in range(10)]
    replayed = QTable(env.actions)
    replay(replayed, beverage_model, history, 0.1, 0.99)
    assert len(agent.q) > 1
    assert agent.q._rows == replayed._rows


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
    assert agent.episodes_trained == 1000


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


def test_train_freeze_keeps_collecting_history():
    env = make_environment("hot_beverage", seed=13)
    config = _quick_config(max_episodes=100, freeze_after=0, target_goal_rate=2.0,
                           eval_every=200, bootstrap_episodes=10)
    agent = train(env, config, seed=13)
    assert agent.relearn_episodes == []
    assert len(agent.history) == 110


def test_train_q_keys_stay_inside_extended_space(trained_beverage):
    agent, _ = trained_beverage
    states = set(agent.model.states)
    for key in agent.q.states():
        assert isinstance(key, ExtendedState)
        assert key.state in states


def test_unreachable_extended_pairs_stay_zero(trained_beverage):
    """An observation paired with a model state it can never co-occur with
    keeps the default value and no materialized row."""
    agent, _ = trained_beverage
    tea_states = [s for s in agent.model.states if agent.model.label[s] == "tea"]
    ghost = ExtendedState("init", tea_states[0], True)
    assert ghost not in set(agent.q.states())
    assert all(agent.q.value(ghost, a) == 0.0 for a in agent.actions)


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
                {"max_episodes": 0}, {"max_episodes": -5}):
        with pytest.raises(ValueError):
            AgentConfig(**bad)


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


def _reference_episode(env, agent, rng, epsilon, learn):
    """`run_episode` spelled out in one loop. A tabular agent picks by
    `get_action` for a key that starts at `reset_to_initial` and moves by
    `step_to` (the raw observation without a model); a fixed policy's key is
    the latest observation, passed to its `choose`."""
    obs, reward = env.reset()
    model = getattr(agent, "model", None)
    key = obs if model is None else reset_to_initial(model)
    steps = []
    done = False
    while not done:
        if hasattr(agent, "q"):
            action = get_action(agent.q, key, epsilon, agent.actions, rng)
        else:
            action = agent.choose(key, rng)
        new_obs, r, done = env.step(action)
        nxt = new_obs if model is None else step_to(key, action, new_obs, model)
        if learn is not None:
            update_q_values(agent.q, key, action, r, nxt, *learn)
        steps.append((action, r, new_obs))
        key = nxt
    return obs, reward, tuple(steps)


def _reference_evaluate(agent, env, n_episodes, seed) -> EvalStats:
    """`evaluate` spelled out: reference rollouts that keep every episode's
    rewards list and score it with `discounted_return`."""
    env.reseed(f"{seed}|env")
    rng = random.Random(f"{seed}|ties")
    success_steps, returns = [], []
    for _ in range(n_episodes):
        trace = RewardObservationTrace(*_reference_episode(env, agent, rng, 0.0, None))
        if env.goal_reached:
            success_steps.append(env.step_count)
        returns.append(discounted_return(trace.rewards(), 0, agent.gamma))
    exact = sum(success_steps) / len(success_steps) if success_steps else None
    return EvalStats(
        goal_rate=len(success_steps) / n_episodes,
        mean_steps=round_steps(exact) if exact is not None else None,
        mean_return=sum(returns) / n_episodes,
        mean_steps_exact=exact,
    )


def test_evaluate_mean_return_matches_discounted_return(trained_beverage):
    """Recompute the evaluation from an identical rollout, for the poql
    agent, the baseline and a RandomAgent."""
    agent, env = trained_beverage
    baseline = baseline_obs_q(env, _quick_config(), seed=7)
    for policy in (agent, baseline, RandomAgent(env.actions)):
        assert evaluate(policy, env, 20, seed=42) == _reference_evaluate(policy, env, 20, 42)


def test_evaluate_oracle_policy_matches_shortest_path():
    """A policy read off value iteration, driven through evaluate on a
    deterministic grid, needs exactly the breadth-first distance."""
    from collections import deque

    from poql.beliefs import value_iteration
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
    _, policy = value_iteration(pomdp.mdp, pomdp.reward_fn, 0.9, 1e-12,
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
    assert evaluate(agent, env, n_episodes, seed) == _reference_evaluate(
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
    `_reference_episode` does, for tabular agents and a fixed policy."""
    env, poql_agent, baseline = eval_agents[env_name]
    results = []
    for play in (run_episode, _reference_episode):
        if kind == "random":
            agent, learn, rows = RandomAgent(env.actions), None, None
        else:
            agent = copy.copy(poql_agent if kind == "poql" else baseline)
            agent.q = copy.deepcopy(agent.q)
            rows = agent.q._rows
        env.reseed(seed)
        rng = random.Random(seed)
        episodes = []
        for _ in range(n_episodes):
            episodes.append((play(env, agent, rng, epsilon, learn),
                             env.goal_reached, env.step_count))
        results.append((episodes, rows, rng.getstate()))
    assert results[0] == results[1]


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
    row = agent.q.row("Room1")
    assert row is not None
    spread = max(row) - min(row)
    scale = max(1.0, max(abs(v) for v in row))
    assert spread / scale < 0.75
