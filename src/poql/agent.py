"""Tabular Q-learning over an extended state space fed by a learned model.

The agent couples epsilon-greedy Q-learning with a tracker that simulates
every environment step on the most recently learned labeled MDP. The
tracker's position, the `ExtendedState` (observation, model state, defined
flag) that `step_to` returns, is the Q-table key. Periodically the model
is relearned from the full episode history, the Q-table is reinitialized over
the grown state space, and all stored episodes are replayed into it; after
the freeze point the model stays fixed and only Q-values keep improving.

Every episode, whether training, random bootstrap or greedy evaluation, is
played by `run_episode`: a tabular agent acts on its Q-table key, a fixed
policy on the latest observation.

A training run is strictly sequential; runs with distinct seeds share nothing.
"""

from __future__ import annotations

import _random
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, NamedTuple, Sequence

from .envs import Environment, seeded_generator
from .learn import LearnerConfig, observation_traces, run_ioalergia
from .models import (
    DeterministicLabeledMdp,
    ExtendedState,
    RewardObservationTrace,
    reset_to_initial,
    step_to,
)


def randbelow(n: int, rng: _random.Random) -> int:
    """`rng.randrange(n)` for an integer n >= 1, from the same draws.

    This is the rejection loop that `random.Random.randrange(n)` runs, without
    its argument checks and the two calls around it, so a seeded generator
    gives the same values and ends in the same state. It reads only
    `getrandbits`, so the package's exact-type generators (see
    `seeded_generator`) serve as well as `random.Random`.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def greedy_choice(row: list[float] | None, n: int) -> int | Sequence[int]:
    """The greedy pick of a row of n action values: the index of its unique
    maximum, else the list of indices tied at the maximum, or range(n) for
    an absent row (every value 0).

    NaN is the maximum only at the front of a row; `list.count` finds it by
    identity, so its index is returned. If that object repeats, no value
    equals it and ValueError is raised.
    """
    if row is None:
        return range(n)
    best = max(row)
    if row.count(best) == 1:
        return row.index(best)
    ties = [i for i, v in enumerate(row) if v == best]
    if not ties:
        raise ValueError(f"no action value equals the row maximum {best!r}")
    return ties


def get_action(
    q: dict, state, epsilon: float, actions: Sequence[str], rng: _random.Random,
    greedy: dict | None = None,
) -> str:
    """Epsilon-greedy action choice with uniform tie-breaking among maxima.

    The greedy pick is `greedy_choice` of the state's row; a tie draws one
    of the tied indices at every call. `greedy`, when given, memoizes that
    pick per state, so it is valid only while `q` is not written.
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        return actions[randbelow(len(actions), rng)]
    if greedy is None:
        choice = greedy_choice(q.get(state), len(actions))
    else:
        choice = greedy.get(state)
        if choice is None:
            choice = greedy[state] = greedy_choice(q.get(state), len(actions))
    if type(choice) is int:
        return actions[choice]
    return actions[choice[randbelow(len(choice), rng)]]


def update_q_values(
    q: dict, actions: tuple[str, ...], state, action: str, reward: float, next_state,
    alpha: float, gamma: float,
) -> None:
    """One temporal-difference backup toward reward + gamma * best next value.

    `q` maps a state key to its row of action values, in the order of
    `actions`. Rows materialize lazily, so keys never paired with an action
    have no row (every value 0) and never appear in exports.
    """
    row = q.get(state)
    if row is None:
        row = q[state] = [0.0] * len(actions)
    i = actions.index(action)
    next_row = q.get(next_state)
    max_next = max(next_row) if next_row is not None else 0.0
    row[i] = (1.0 - alpha) * row[i] + alpha * (reward + gamma * max_next)


def replay(
    q: dict,
    model: DeterministicLabeledMdp,
    history: Iterable[RewardObservationTrace],
    actions: tuple[str, ...],
    alpha: float,
    gamma: float,
) -> None:
    """Rebuild a fresh Q-table, with columns in the order of `actions`, by
    replaying stored episodes through a model.

    Each episode is traced on the model exactly as it would have been online:
    reset the tracker, then advance it by (action, new observation) and apply
    the same update with the keys before and after the step.
    """
    for episode in history:
        key = reset_to_initial(model)
        for action, reward, obs in episode.steps:
            nxt = step_to(key, action, obs, model)
            update_q_values(q, actions, key, action, reward, nxt, alpha, gamma)
            key = nxt


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters of a training run. None fields derive from max_episodes."""

    alpha: float = 0.1
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay_episodes: int | None = None
    update_interval: int = 1000
    freeze_after: int | None = None
    max_episodes: int = 30_000
    eps_al: float = LearnerConfig.eps_al
    bootstrap_episodes: int = 500
    eval_every: int = 1000
    eval_episodes: int = 100
    target_goal_rate: float = 1.0
    # Expected steps of an optimal policy, when an oracle supplies one; the
    # early stop then additionally requires matching it after rounding.
    oracle_steps: float | None = None

    def __post_init__(self) -> None:
        # Each annotation gives its field's type: `int` counts episodes,
        # `float` takes any finite number, and `| None` also admits None.
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.type.endswith("| None"):
                continue
            kind = int if field.type.startswith("int") else (int, float)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or isinstance(value, float) and not math.isfinite(value)):
                what = "an integer" if kind is int else "a finite number"
                raise ValueError(f"{field.name} must be {what}, got {value!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("update_interval", "max_episodes", "bootstrap_episodes",
                     "eval_every", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("freeze_after", "epsilon_decay_episodes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")
        for name in ("epsilon_start", "epsilon_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.oracle_steps is not None and self.oracle_steps <= 0:
            raise ValueError(f"oracle_steps must be above 0, got {self.oracle_steps}")
        if self.freeze_after is not None and self.freeze_after > self.max_episodes:
            raise ValueError("freeze_after cannot exceed max_episodes")
        LearnerConfig(eps_al=self.eps_al)  # raises on an eps_al outside (0, 1]

    def resolved_freeze_after(self) -> int:
        if self.freeze_after is not None:
            return self.freeze_after
        return math.ceil(0.75 * self.max_episodes)

    def epsilon_at(self, episode: int) -> float:
        span = self.epsilon_decay_episodes
        if span is None:
            span = max(1, self.max_episodes // 2)
        if span <= 0 or episode >= span:
            return self.epsilon_end
        frac = episode / span
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


class EvalStats(NamedTuple):
    goal_rate: float
    mean_steps: int | None
    mean_return: float
    mean_steps_exact: float | None


def round_steps(x: float) -> int:
    """Round half up; evaluation reports step counts as integers."""
    return int(math.floor(x + 0.5))


class TabularAgent:
    """A Q-learner: Q-table, optional learned model, episode history and
    evaluation rows.

    The Q-table `q` is a plain dict from key to row, whose columns follow
    `actions` (the environment's action tuple). The key is the tracker's
    position on `model` (see `step_to`), or the raw observation when `model`
    is None, as for the observation-only baseline. `run_episode` and
    `replay` are the only code that applies that rule.
    """

    def __init__(self, actions: Sequence[str], config: AgentConfig,
                 model: DeterministicLabeledMdp | None = None):
        self.actions = tuple(actions)
        self.q: dict = {}
        self.config = config
        self.model = model
        self.gamma = config.gamma
        self.history: list[RewardObservationTrace] = []
        self.eval_rows: list[dict] = []
        self.relearn_episodes: list[int] = []
        self.stop_episode: int | None = None


class RandomAgent:
    """Uniform-random policy, for floors, sanity checks and bootstrap episodes."""

    def __init__(self, actions: Sequence[str], gamma: float = AgentConfig.gamma):
        self.actions = tuple(actions)
        self.gamma = gamma

    def choose(self, obs: str, rng: _random.Random) -> str:
        return self.actions[randbelow(len(self.actions), rng)]


def run_episode(
    env: Environment,
    agent,
    rng: _random.Random,
    epsilon: float = 0.0,
    learn: tuple[float, float] | None = None,
    discount: float | None = None,
    greedy: dict | None = None,
) -> tuple[str, float, tuple[tuple[str, float, str], ...]] | float:
    """Play one episode and return (initial obs, initial reward, steps).

    Each step picks an action for the key, steps the environment and moves
    the key. A TabularAgent picks by `get_action` on agent.q, keyed by its
    tracker (`step_to` on its model) or, without a model, by the latest
    observation; learn=(alpha, gamma) also backs up agent.q at every step.
    Any other agent is a fixed policy keyed like the baseline that plays
    agent.choose(key, rng); learn then raises TypeError before the
    environment is reset. The result unpacks into a RewardObservationTrace;
    recorded steps with the same action and observation share one tuple
    while their rewards are one object (identity, not equality, so 0.0 and
    -0.0 never share). With discount=gamma no steps are recorded, and the
    result is the discounted return of the step rewards, summed as `total
    += factor * r; factor *= gamma` from total 0.0 and factor 1.0. `greedy`
    is a memo of greedy picks that `get_action` fills (see there); it needs
    a Q-table that does not change, so with learn it raises ValueError
    before the environment is reset. A fixed policy ignores it.
    """
    if isinstance(agent, TabularAgent):
        q, actions, model, select = agent.q, agent.actions, agent.model, get_action
    elif learn is not None:
        raise TypeError(f"learn needs a TabularAgent, got {type(agent).__name__}")
    else:
        q = actions = model = None
        choose = agent.choose

        def select(q, key, epsilon, actions, rng, greedy):
            return choose(key, rng)
    if learn is not None:
        if greedy is not None:
            raise ValueError("a greedy memo needs a Q-table that learn does not write")
        alpha, gamma = learn
    obs, reward = env.reset()
    step = env.step
    steps = shared = None
    if discount is None:
        # shared: (action, obs) -> the last step recorded with them.
        steps, shared = [], {}
    total = 0.0
    factor = 1.0
    done = False
    key = obs if model is None else reset_to_initial(model)
    while not done:
        action = select(q, key, epsilon, actions, rng, greedy)
        new_obs, r, done = step(action)
        nxt = new_obs if model is None else step_to(key, action, new_obs, model)
        if learn is not None:
            update_q_values(q, actions, key, action, r, nxt, alpha, gamma)
        if steps is None:
            total += factor * r
            factor *= discount
        else:
            record = shared.get((action, new_obs))
            if record is None or record[1] is not r:
                record = shared[action, new_obs] = (action, r, new_obs)
            steps.append(record)
        key = nxt
    if steps is None:
        return total
    return obs, reward, tuple(steps)


def evaluate(agent, env: Environment, n_episodes: int, seed: int | str) -> EvalStats:
    """Run greedy episodes and report goal rate, steps, and discounted return.

    mean_steps averages the step counts of successful episodes and is rounded
    to the closest integer (None when no episode reached the goal). Each
    episode's return is summed by `run_episode` itself (discount=agent.gamma)
    as the rewards after the initial one are played; gamma must lie in
    [0, 1]. The Q-table is not written, so one memo of greedy picks serves
    every episode of the call.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    gamma = agent.gamma
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    env.reseed(f"{seed}|env")
    rng = seeded_generator(f"{seed}|ties")
    success_steps: list[int] = []
    # Summed left to right from 0.0: `sum` of floats rounds otherwise from
    # Python 3.12 on, which would change the reported mean.
    total_return = 0.0
    greedy: dict = {}
    for _ in range(n_episodes):
        total_return += run_episode(env, agent, rng, discount=gamma, greedy=greedy)
        if env.goal_reached:
            success_steps.append(env.step_count)
    successes = len(success_steps)
    exact = sum(success_steps) / successes if successes else None
    return EvalStats(
        goal_rate=successes / n_episodes,
        mean_steps=round_steps(exact) if exact is not None else None,
        mean_return=total_return / n_episodes,
        mean_steps_exact=exact,
    )


def _stop_reached(stats: EvalStats, config: AgentConfig) -> bool:
    if stats.goal_rate < config.target_goal_rate:
        return False
    if config.oracle_steps is not None:
        if stats.mean_steps is None:
            return False
        return stats.mean_steps <= round_steps(config.oracle_steps)
    return True


def _learn_model(
    history: list[RewardObservationTrace], config: AgentConfig
) -> DeterministicLabeledMdp:
    return run_ioalergia(
        observation_traces(history), LearnerConfig(eps_al=config.eps_al)
    )


def _train_loop(
    env: Environment,
    agent: TabularAgent,
    rng: _random.Random,
    seed: int | str,
    log: Callable[[str], None] | None,
) -> TabularAgent:
    """Epsilon-greedy episodes with periodic relearning and greedy evaluation,
    until max_episodes or until an evaluation meets the stop target.

    With a model, every update_interval episodes before the freeze point, the
    model is relearned from the full history and the history is replayed into
    a fresh Q-table; without one, never."""
    config = agent.config
    learn = (config.alpha, config.gamma)
    relearn_before = config.resolved_freeze_after() if agent.model is not None else 0
    for episode in range(config.max_episodes):
        trace = run_episode(env, agent, rng, config.epsilon_at(episode), learn)
        agent.history.append(RewardObservationTrace(*trace))
        if episode < relearn_before and episode % config.update_interval == 0:
            agent.model = _learn_model(agent.history, config)
            agent.relearn_episodes.append(episode)
            agent.q = {}
            replay(agent.q, agent.model, agent.history, agent.actions,
                   config.alpha, config.gamma)
            if log:
                log(
                    f"episode {episode}: relearned model with "
                    f"{len(agent.model.states)} states from {len(agent.history)} traces"
                )

        if (episode + 1) % config.eval_every == 0 or episode + 1 == config.max_episodes:
            stats = evaluate(agent, env, config.eval_episodes, f"{seed}|eval|{episode}")
            agent.eval_rows.append(_eval_row(episode + 1, stats, agent))
            if log:
                states = f" states={len(agent.model.states)}" if agent.model else ""
                log(
                    f"episode {episode + 1}: goal_rate={stats.goal_rate:.2f} "
                    f"mean_steps={stats.mean_steps}{states}"
                )
            if _stop_reached(stats, config):
                agent.stop_episode = episode + 1
                break
    else:
        agent.stop_episode = config.max_episodes
    return agent


def train(
    env: Environment,
    config: AgentConfig = AgentConfig(),
    seed: int | str = 0,
    log: Callable[[str], None] | None = None,
) -> TabularAgent:
    """Train a poql agent on an environment.

    Bootstraps an initial model from random episodes, then runs epsilon-greedy
    Q-learning over the extended state space. Every update_interval episodes
    before the freeze point the model is relearned from the full history, the
    Q-table is zeroed over the new extended space, and the history is replayed
    into it. Training stops early once a periodic greedy evaluation meets the
    configured target.
    """
    rng = seeded_generator(f"{seed}|agent")
    explorer = RandomAgent(env.actions)
    history = [
        RewardObservationTrace(*run_episode(env, explorer, rng))
        for _ in range(config.bootstrap_episodes)
    ]
    agent = TabularAgent(env.actions, config, _learn_model(history, config))
    agent.history = history
    return _train_loop(env, agent, rng, seed, log)


def baseline_obs_q(
    env: Environment,
    config: AgentConfig = AgentConfig(),
    seed: int | str = 0,
    log: Callable[[str], None] | None = None,
) -> TabularAgent:
    """Train the observation-only baseline: the same loop keyed by raw
    observations, with no learned model, tracker, or replay."""
    rng = seeded_generator(f"{seed}|agent")
    return _train_loop(env, TabularAgent(env.actions, config), rng, seed, log)


def _eval_row(episode: int, stats: EvalStats, agent) -> dict:
    """One run_record.csv row, whose keys are the file's columns before
    config_hash; a fixed policy has neither model nor Q-table."""
    model = getattr(agent, "model", None)
    return {
        "episode": episode,
        "goal_rate": stats.goal_rate,
        "mean_steps": stats.mean_steps,
        "mean_return": stats.mean_return,
        "model_state_count": len(model.states) if model else 0,
        "q_rows": len(getattr(agent, "q", ())),
    }
