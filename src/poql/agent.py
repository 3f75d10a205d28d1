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

import math
import random
from dataclasses import dataclass, fields
from typing import Callable, Iterable, NamedTuple, Sequence

from .envs import Environment
from .learn import LearnerConfig, observation_traces, run_ioalergia
from .models import (
    DeterministicLabeledMdp,
    ExtendedState,
    RewardObservationTrace,
    reset_to_initial,
    step_to,
)


class QTable:
    """Map from (state key, action) to a real value, 0 for unseen keys.

    Rows materialize lazily, so keys never paired with an action keep the
    default and never appear in exports.
    """

    def __init__(self, actions: Sequence[str]):
        self.actions = tuple(actions)
        self._index = {a: i for i, a in enumerate(self.actions)}
        self._rows: dict[object, list[float]] = {}

    def value(self, state, action: str) -> float:
        row = self._rows.get(state)
        return row[self._index[action]] if row is not None else 0.0

    def row(self, state) -> list[float] | None:
        return self._rows.get(state)

    def states(self) -> Iterable:
        return self._rows.keys()

    def __len__(self) -> int:
        return len(self._rows)


def get_action(
    q: QTable, state, epsilon: float, actions: Sequence[str], rng: random.Random
) -> str:
    """Epsilon-greedy action choice with uniform tie-breaking among maxima.

    NaN is the maximum only at the front of a row; `list.count` finds it by
    identity, so its action is picked (ValueError if that object repeats).
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        return actions[rng.randrange(len(actions))]
    row = q._rows.get(state)
    if row is None:
        return actions[rng.randrange(len(actions))]
    best = max(row)
    if row.count(best) == 1:
        return actions[row.index(best)]
    ties = [i for i, v in enumerate(row) if v == best]
    return actions[ties[rng.randrange(len(ties))]]


def update_q_values(
    q: QTable, state, action: str, reward: float, next_state, alpha: float, gamma: float
) -> None:
    """One temporal-difference backup toward reward + gamma * best next value."""
    rows = q._rows
    row = rows.get(state)
    if row is None:
        row = rows[state] = [0.0] * len(q.actions)
    i = q._index[action]
    next_row = rows.get(next_state)
    max_next = max(next_row) if next_row is not None else 0.0
    row[i] = (1.0 - alpha) * row[i] + alpha * (reward + gamma * max_next)


def replay(
    q: QTable,
    model: DeterministicLabeledMdp,
    history: Iterable[RewardObservationTrace],
    alpha: float,
    gamma: float,
) -> None:
    """Rebuild a fresh Q-table by replaying stored episodes through a model.

    Each episode is traced on the model exactly as it would have been online:
    reset the tracker, then advance it by (action, new observation) and apply
    the same update with the keys before and after the step.
    """
    for episode in history:
        key = reset_to_initial(model)
        for action, reward, obs in episode.steps:
            nxt = step_to(key, action, obs, model)
            update_q_values(q, key, action, reward, nxt, alpha, gamma)
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
    eps_al: float = 0.05
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
    """A Q-learner's state: Q-table, episode history and evaluation rows.

    The Q-table key is the tracker's position on `model` (see `step_to`), or
    the raw observation when `model` is None. `run_episode` and `replay` are
    the only code that applies that rule.
    """

    model: DeterministicLabeledMdp | None = None

    def __init__(self, q: QTable, config: AgentConfig):
        self.q = q
        self.config = config
        self.actions = q.actions
        self.gamma = config.gamma
        self.history: list[RewardObservationTrace] = []
        self.eval_rows: list[dict] = []
        self.episodes_trained = 0
        self.stop_episode: int | None = None

    def relearn(self, episode: int, log: Callable[[str], None] | None) -> None:
        """Called after every training episode; only a model-based agent acts."""


class PoqlAgent(TabularAgent):
    """Trained artifact: learned model, extended Q-table, and run history."""

    def __init__(self, model: DeterministicLabeledMdp, q: QTable, config: AgentConfig):
        super().__init__(q, config)
        self.model = model
        self.relearn_episodes: list[int] = []

    def relearn(self, episode: int, log: Callable[[str], None] | None) -> None:
        """Every update_interval episodes before the freeze point, relearn the
        model from the full history and replay the history into a fresh Q-table."""
        config = self.config
        if episode >= config.resolved_freeze_after() or episode % config.update_interval:
            return
        self.model = _learn_model(self.history, config)
        self.relearn_episodes.append(episode)
        self.q = QTable(self.actions)
        replay(self.q, self.model, self.history, config.alpha, config.gamma)
        if log:
            log(
                f"episode {episode}: relearned model with "
                f"{len(self.model.states)} states from {len(self.history)} traces"
            )


class BaselineAgent(TabularAgent):
    """Observation-only Q-learner: no model, so the raw observation is the key."""


class RandomAgent:
    """Uniform-random policy, for floors, sanity checks and bootstrap episodes."""

    def __init__(self, actions: Sequence[str], gamma: float = 0.99):
        self.actions = tuple(actions)
        self.gamma = gamma

    def choose(self, obs: str, rng: random.Random) -> str:
        return self.actions[rng.randrange(len(self.actions))]


class RepeatActionAgent:
    """Always performs the same action."""

    def __init__(self, action: str, gamma: float = 0.99):
        self.action = action
        self.gamma = gamma

    def choose(self, obs: str, rng: random.Random) -> str:
        return self.action


def run_episode(
    env: Environment,
    agent,
    rng: random.Random,
    epsilon: float = 0.0,
    learn: tuple[float, float] | None = None,
    discount: float | None = None,
) -> tuple[str, float, tuple[tuple[str, float, str], ...]] | float:
    """Play one episode and return (initial obs, initial reward, steps).

    A TabularAgent's step calls `get_action` for its current key, steps the
    environment, and takes the next key from `step_to` on its model (without
    a model, as the baseline, the raw observation is the key). With
    learn=(alpha, gamma) every step also backs up agent.q. Any other agent
    is a fixed policy: each step plays agent.choose(latest observation,
    rng), and learn raises TypeError before the environment is reset. The
    result unpacks into a RewardObservationTrace. With discount=gamma no
    steps are recorded, and the result is the discounted return of the step
    rewards, summed as `total += factor * r; factor *= gamma` from total 0.0
    and factor 1.0.
    """
    tabular = isinstance(agent, TabularAgent)
    if learn is not None:
        if not tabular:
            raise TypeError(f"learn needs a TabularAgent, got {type(agent).__name__}")
        alpha, gamma = learn
    obs, reward = env.reset()
    step = env.step
    steps = [] if discount is None else None
    total = 0.0
    factor = 1.0
    done = False
    if tabular:
        q = agent.q
        actions = agent.actions
        model = agent.model
        key = obs if model is None else reset_to_initial(model)
        while not done:
            action = get_action(q, key, epsilon, actions, rng)
            new_obs, r, done = step(action)
            nxt = new_obs if model is None else step_to(key, action, new_obs, model)
            if learn is not None:
                update_q_values(q, key, action, r, nxt, alpha, gamma)
            if steps is None:
                total += factor * r
                factor *= discount
            else:
                steps.append((action, r, new_obs))
            key = nxt
    else:
        choose = agent.choose
        new_obs = obs
        while not done:
            action = choose(new_obs, rng)
            new_obs, r, done = step(action)
            if steps is None:
                total += factor * r
                factor *= discount
            else:
                steps.append((action, r, new_obs))
    if steps is None:
        return total
    return obs, reward, tuple(steps)


def evaluate(agent, env: Environment, n_episodes: int, seed: int | str) -> EvalStats:
    """Run greedy episodes and report goal rate, steps, and discounted return.

    mean_steps averages the step counts of successful episodes and is rounded
    to the closest integer (None when no episode reached the goal). Each
    episode's return is summed by `run_episode` itself (discount=agent.gamma)
    as the rewards after the initial one are played; gamma must lie in
    [0, 1].
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    gamma = agent.gamma
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    env.reseed(f"{seed}|env")
    rng = random.Random(f"{seed}|ties")
    success_steps: list[int] = []
    returns: list[float] = []
    for _ in range(n_episodes):
        returns.append(run_episode(env, agent, rng, discount=gamma))
        if env.goal_reached:
            success_steps.append(env.step_count)
    successes = len(success_steps)
    exact = sum(success_steps) / successes if successes else None
    return EvalStats(
        goal_rate=successes / n_episodes,
        mean_steps=round_steps(exact) if exact is not None else None,
        mean_return=sum(returns) / n_episodes,
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
    rng: random.Random,
    seed: int | str,
    log: Callable[[str], None] | None,
) -> TabularAgent:
    """Epsilon-greedy episodes with periodic relearning and greedy evaluation,
    until max_episodes or until an evaluation meets the stop target."""
    config = agent.config
    learn = (config.alpha, config.gamma)
    for episode in range(config.max_episodes):
        trace = run_episode(env, agent, rng, config.epsilon_at(episode), learn)
        agent.history.append(RewardObservationTrace(*trace))
        agent.episodes_trained = episode + 1
        agent.relearn(episode, log)

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
    if agent.stop_episode is None:
        agent.stop_episode = agent.episodes_trained
    return agent


def train(
    env: Environment,
    config: AgentConfig = AgentConfig(),
    seed: int | str = 0,
    log: Callable[[str], None] | None = None,
) -> PoqlAgent:
    """Train a poql agent on an environment.

    Bootstraps an initial model from random episodes, then runs epsilon-greedy
    Q-learning over the extended state space. Every update_interval episodes
    before the freeze point the model is relearned from the full history, the
    Q-table is zeroed over the new extended space, and the history is replayed
    into it. Training stops early once a periodic greedy evaluation meets the
    configured target.
    """
    rng = random.Random(f"{seed}|agent")
    explorer = RandomAgent(env.actions)
    history = [
        RewardObservationTrace(*run_episode(env, explorer, rng))
        for _ in range(config.bootstrap_episodes)
    ]
    agent = PoqlAgent(_learn_model(history, config), QTable(env.actions), config)
    agent.history = history
    return _train_loop(env, agent, rng, seed, log)


def baseline_obs_q(
    env: Environment,
    config: AgentConfig = AgentConfig(),
    seed: int | str = 0,
    log: Callable[[str], None] | None = None,
) -> BaselineAgent:
    """Train the observation-only baseline: the same loop keyed by raw
    observations, with no learned model, tracker, or replay."""
    rng = random.Random(f"{seed}|agent")
    return _train_loop(env, BaselineAgent(QTable(env.actions), config), rng, seed, log)


def _eval_row(episode: int, stats: EvalStats, agent) -> dict:
    """One run_record.csv row; a fixed policy has neither model nor Q-table."""
    model = getattr(agent, "model", None)
    return {
        "episode": episode,
        "goal_rate": stats.goal_rate,
        "mean_steps": stats.mean_steps,
        "mean_return": stats.mean_return,
        "model_state_count": len(model.states) if model else 0,
        "q_rows": len(getattr(agent, "q", ())),
    }
