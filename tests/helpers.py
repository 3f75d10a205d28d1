"""Reference code that only the tests use: oracles, samplers and walks
written out plainly, to check the package against."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

from poql.agent import (AgentConfig, EvalStats, RandomAgent, get_action, round_steps,
                        update_q_values)
from poql.beliefs import Belief, BeliefMdp
from poql.envs import Environment
from poql.learn import Iofpta
from poql.models import (DeterministicLabeledMdp, ExtendedState, Mdp, ObsTrace, Pomdp, Prob,
                         RewardObservationTrace)


class RepeatActionAgent:
    """A fixed policy that always performs the same action."""

    def __init__(self, action: str, gamma: float = 0.99):
        self.action = action
        self.gamma = gamma

    def choose(self, obs: str, rng: random.Random) -> str:
        return self.action


def observation_part(trace: RewardObservationTrace) -> ObsTrace:
    """Drop the rewards, keeping the (action, observation) skeleton."""
    return (trace.initial_obs, tuple((a, o) for a, _, o in trace.steps))


def rewards(trace: RewardObservationTrace) -> list[float]:
    """The initial reward, then the reward of each step."""
    return [trace.initial_reward] + [r for _, r, _ in trace.steps]


def discounted_return(trace_rewards: Sequence[float], t: int, gamma: float) -> float:
    """Discounted sum of the rewards strictly after step t.

    trace_rewards holds the reward of every state along a path, including the
    initial state's. The result is sum_i gamma**i * trace_rewards[t + 1 + i].
    """
    if not 0 <= t < len(trace_rewards):
        raise IndexError(f"step index {t} out of range for {len(trace_rewards)} rewards")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    total = 0.0
    factor = 1.0
    for r in trace_rewards[t + 1 :]:
        total += factor * r
        factor *= gamma
    return total


def isomorphic(
    m1: DeterministicLabeledMdp,
    m2: DeterministicLabeledMdp,
    prob_tol: float = 0.0,
) -> bool:
    """Check for a label- and structure-preserving bijection on reachable parts.

    Determinism makes the candidate pairing unique: starting from the two
    initial states, matching (action, successor label) edges must pair up
    exactly, with transition probabilities within prob_tol.
    """
    if m1.label[m1.initial] != m2.label[m2.initial]:
        return False
    pairing = {m1.initial: m2.initial}
    reverse = {m2.initial: m1.initial}
    queue = [(m1.initial, m2.initial)]
    actions = set(m1.actions) | set(m2.actions)
    while queue:
        s1, s2 = queue.pop()
        for a in actions:
            d1 = m1.successors(s1, a)
            d2 = m2.successors(s2, a)
            e1 = {m1.label[succ]: (succ, float(p)) for succ, p in d1.items() if p > 0}
            e2 = {m2.label[succ]: (succ, float(p)) for succ, p in d2.items() if p > 0}
            if set(e1) != set(e2):
                return False
            for lbl, (succ1, p1) in e1.items():
                succ2, p2 = e2[lbl]
                if abs(p1 - p2) > prob_tol:
                    return False
                if succ1 in pairing:
                    if pairing[succ1] != succ2:
                        return False
                elif succ2 in reverse:
                    return False
                else:
                    pairing[succ1] = succ2
                    reverse[succ2] = succ1
                    queue.append((succ1, succ2))
    return True


def edge_mass(tree: Iofpta) -> int:
    """Total frequency over all edges of a prefix tree, compressed tails
    included; equals the total number of steps it was built from."""
    total = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.steps is not None:
            total += len(node.steps) - node.pos
        total += sum(node.freq.values())
        stack.extend(node.children.values())
    return total


def reachable_states(model: DeterministicLabeledMdp) -> list[int]:
    """The sorted states reachable from the initial state by positive edges."""
    seen = {model.initial}
    frontier = [model.initial]
    while frontier:
        s = frontier.pop()
        for a in model.actions:
            for succ, p in model.successors(s, a).items():
                if p > 0 and succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return sorted(seen)


def fully_observable(pomdp: Pomdp) -> Pomdp:
    """Replace the observation function by an injective one."""
    obs_fn = {s: f"st{s}" for s in pomdp.mdp.states}
    return Pomdp(
        mdp=pomdp.mdp,
        obs_fn=obs_fn,
        reward_fn=pomdp.reward_fn,
        goal_states=pomdp.goal_states,
    )


class ImpossibleObservation(ValueError):
    """Raised when a belief is conditioned on an observation of probability 0."""


def observation_probability(b: Belief, action: str, obs: str, pomdp: Pomdp) -> Prob:
    """Pr(obs | b, action): the sum of b(s) * delta(s, action)(s') over the
    successors s' that emit `obs`, taken over the belief's support, then
    over each distribution, in their order."""
    total = 0
    for s, w in b.support.items():
        for succ, p in pomdp.mdp.delta[(s, action)].items():
            if pomdp.obs_fn[succ] == obs:
                total += w * p
    return total


def belief_update(b: Belief, action: str, obs: str, pomdp: Pomdp) -> Belief:
    """Bayes' rule: condition `b` on taking `action` and then observing `obs`.
    The new weights are summed in the order observation_probability uses and
    the support is listed in state order."""
    norm = observation_probability(b, action, obs, pomdp)
    if norm == 0:
        raise ImpossibleObservation(
            f"observation {obs!r} has probability 0 after action {action!r}")
    mass: dict[int, Prob] = {}
    for s, w in b.support.items():
        for succ, p in pomdp.mdp.delta[(s, action)].items():
            if p != 0 and pomdp.obs_fn[succ] == obs:
                mass[succ] = mass.get(succ, 0) + w * p
    return Belief({s: m / norm for s, m in sorted(mass.items())})


def belief_rewards(bmdp: BeliefMdp, pomdp: Pomdp) -> dict[int, float]:
    """Expected ground reward of each belief state."""
    return {
        s: float(sum(w * pomdp.reward(q) for q, w in b.support.items()))
        for s, b in bmdp.belief_of_state.items()
    }


#: value_iteration stops after a sweep that changes no value by VALUE_TOL or more.
VALUE_TOL = 1e-12


def value_iteration(
    mdp: Mdp,
    reward_fn: Mapping[int, float],
    gamma: float,
    terminal_states: frozenset[int] | set[int] = frozenset(),
) -> tuple[dict[int, float], dict[int, str]]:
    """Optimal state values and a greedy policy for a known MDP.

    Rewards are earned on entering the successor state. Terminal states have
    value 0 and no policy entry: reaching one ends the episode, so nothing
    accrues beyond the entry reward. Iterates until the sup-norm residual
    drops below VALUE_TOL.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    values = {s: 0.0 for s in mdp.states}
    live = [s for s in mdp.states if s not in terminal_states]

    def backup(s: int, a: str) -> float:
        total = 0.0
        for succ, p in mdp.distribution(s, a).items():
            fp = float(p)
            total += fp * reward_fn.get(succ, 0.0)
            if succ not in terminal_states:
                total += fp * gamma * values[succ]
        return total

    while True:
        residual = 0.0
        for s in live:
            best = max(backup(s, a) for a in mdp.actions)
            residual = max(residual, abs(best - values[s]))
            values[s] = best
        if residual < VALUE_TOL:
            break
    policy: dict[int, str] = {}
    for s in live:
        best_a, best_v = None, None
        for a in mdp.actions:
            total = backup(s, a)
            if best_v is None or total > best_v + 1e-12:
                best_a, best_v = a, total
        policy[s] = best_a
    return values, policy


def reference_expected_steps(
    mdp: Mdp,
    goal_states: frozenset[int] | set[int],
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
) -> dict[int, float]:
    """Minimal expected steps to a goal, by the plain Gauss-Seidel loop that
    looks up and converts every transition on every backup. It has no guard
    for states that cannot reach a goal with probability 1."""
    steps = {s: 0.0 for s in mdp.states}
    live = [s for s in mdp.states if s not in goal_states]
    for _ in range(max_iter):
        residual = 0.0
        for s in live:
            best = None
            for a in mdp.actions:
                total = 1.0
                for succ, p in mdp.distribution(s, a).items():
                    if succ not in goal_states:
                        total += float(p) * steps[succ]
                if best is None or total < best:
                    best = total
            residual = max(residual, abs(best - steps[s]))
            steps[s] = best
        if residual < tol:
            break
    return steps


def cumulative_sampler(dist: Mapping[int, Prob]) -> tuple[list[float], list[int]]:
    """A distribution as (cumulative float probabilities, successors), in
    sorted successor order, with the last cumulative value pinned to 1.0.
    A uniform draw r picks `succs[bisect_right(cum, r)]`: the first successor
    whose cumulative probability exceeds r."""
    succs = sorted(dist)
    cum = []
    acc = 0.0
    for succ in succs:
        acc += float(dist[succ])
        cum.append(acc)
    cum[-1] = 1.0
    return cum, succs


def sample_pomdp_traces(
    pomdp: Pomdp, n_traces: int, length: int, seed: int | str = 0
) -> list[ObsTrace]:
    """Uniform-random-policy traces from the ground-truth POMDP.

    Walks the underlying MDP directly, ignoring goals and caps; this is the
    oracle-side sampler used to exercise the learner on known distributions.
    """
    rng = random.Random(seed)
    mdp = pomdp.mdp
    samplers = {key: cumulative_sampler(dist) for key, dist in mdp.delta.items()}
    n_actions = len(mdp.actions)
    traces: list[ObsTrace] = []
    for _ in range(n_traces):
        state = mdp.initial
        steps = []
        for _ in range(length):
            action = mdp.actions[rng.randrange(n_actions)]
            cum, succs = samplers[(state, action)]
            state = succs[bisect_right(cum, rng.random())]
            steps.append((action, pomdp.obs(state)))
        traces.append((pomdp.obs(mdp.initial), tuple(steps)))
    return traces


class _PlainNode:
    """Uncompressed prefix tree node: edge frequencies and children, both
    keyed by (action, observation), and the promotion index once red."""

    def __init__(self, label: str):
        self.label = label
        self.freq: dict[tuple[str, str], int] = {}
        self.children: dict[tuple[str, str], _PlainNode] = {}
        self.red: int | None = None

    def total(self, action: str) -> int:
        return sum(f for (a, _), f in self.freq.items() if a == action)


def reference_ioalergia(traces: Sequence[ObsTrace], eps_al: float) -> dict:
    """IOAlergia written out plainly, as the `model_to_dict` of its model.

    No tail is compressed: every prefix is a node. Compatibility and folding
    recurse. Passes run over the red states in promotion order, and each
    state's blue children go in (action, observation) order, children that a
    fold grafts on included; the passes repeat until no blue node is left. A
    blue node merges into the first compatible red state or is promoted.
    """
    root = _PlainNode(traces[0][0])
    for _, steps in traces:
        node = root
        for key in steps:
            node.freq[key] = node.freq.get(key, 0) + 1
            node = node.children.setdefault(key, _PlainNode(key[1]))
    scale = math.sqrt(0.5 * math.log(2.0 / eps_al))

    def compatible(r: _PlainNode, b: _PlainNode) -> bool:
        if r.label != b.label:
            return False
        for action in {a for a, _ in b.freq}:
            n1, n2 = r.total(action), b.total(action)
            if n1 == 0:
                continue
            bound = scale * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            for key in {k for k in (*r.freq, *b.freq) if k[0] == action}:
                if abs(r.freq.get(key, 0) / n1 - b.freq.get(key, 0) / n2) >= bound:
                    return False
        return all(compatible(r.children[key], child)
                   for key, child in b.children.items() if key in r.children)

    def fold(target: _PlainNode, source: _PlainNode) -> None:
        for key, count in source.freq.items():
            target.freq[key] = target.freq.get(key, 0) + count
            if key in target.children:
                fold(target.children[key], source.children[key])
            else:
                target.children[key] = source.children[key]

    root.red = 0
    red = [root]
    blue_left = True
    while blue_left:
        blue_left = False
        for node in red:  # also visits the states promoted during the pass
            while blues := [k for k, child in node.children.items() if child.red is None]:
                blue_left = True
                key = min(blues)
                blue = node.children[key]
                target = next((r for r in red if compatible(r, blue)), None)
                if target is None:
                    blue.red = len(red)
                    red.append(blue)
                else:
                    node.children[key] = target
                    fold(target, blue)

    transitions = []
    for node in red:
        counts: dict[str, dict[int, int]] = {}
        for key, count in node.freq.items():
            dsts = counts.setdefault(key[0], {})
            dst = node.children[key].red
            dsts[dst] = dsts.get(dst, 0) + count
        for action, dsts in sorted(counts.items()):
            transitions += [{"src": node.red, "action": action, "dst": dst, "count": c,
                             "total": sum(dsts.values())} for dst, c in sorted(dsts.items())]
    return {
        "initial": 0,
        "actions": sorted({t["action"] for t in transitions}),
        "states": [{"id": node.red, "label": node.label} for node in red],
        "transitions": transitions,
    }


# ---------------------------------------------------------------------------
# A whole training run written out plainly
# ---------------------------------------------------------------------------

class PlainModel(NamedTuple):
    """A `model_to_dict` encoding as what `reference_step` reads: the
    initial state, the state labels, and the edge counts per (state, action)."""

    initial: int
    label: dict[int, str]
    trans: dict[tuple[int, str], dict[int, int]]


def plain_model(data: dict) -> PlainModel:
    trans: dict[tuple[int, str], dict[int, int]] = {}
    for t in data["transitions"]:
        trans.setdefault((t["src"], t["action"]), {})[t["dst"]] = t["count"]
    return PlainModel(data["initial"], {s["id"]: s["label"] for s in data["states"]}, trans)


def reference_step(key, action: str, obs: str, model) -> ExtendedState:
    """`step_to` read off `model.trans` and `model.label` directly."""
    _, state, defined = key
    if defined:
        for succ, p in model.trans.get((state, action), {}).items():
            if p > 0 and model.label[succ] == obs:
                return ExtendedState(obs, succ, True)
    return ExtendedState(obs, state, False)


def reference_replay(q: dict, model, history, actions: tuple[str, ...], alpha: float,
                     gamma: float) -> None:
    """`replay` with a fresh key built at every step, starting from each
    episode's own initial observation."""
    for episode in history:
        key = ExtendedState(episode.initial_obs, model.initial, True)
        for action, reward, obs in episode.steps:
            nxt = reference_step(key, action, obs, model)
            update_q_values(q, actions, key, action, reward, nxt, alpha, gamma)
            key = nxt


def reference_episode(env: Environment, agent, rng: random.Random, epsilon: float, learn):
    """`run_episode` spelled out in one loop. A tabular agent picks by
    `get_action` for a key that starts at its model's initial state and
    moves by `reference_step` (the raw observation without a model); a fixed
    policy's key is the latest observation, passed to its `choose`."""
    obs, reward = env.reset()
    model = getattr(agent, "model", None)
    if model is None:
        key = obs
    else:
        key = ExtendedState(model.label[model.initial], model.initial, True)
    steps = []
    done = False
    while not done:
        if hasattr(agent, "q"):
            action = get_action(agent.q, key, epsilon, agent.actions, rng)
        else:
            action = agent.choose(key, rng)
        new_obs, r, done = env.step(action)
        nxt = new_obs if model is None else reference_step(key, action, new_obs, model)
        if learn is not None:
            update_q_values(agent.q, agent.actions, key, action, r, nxt, *learn)
        steps.append((action, r, new_obs))
        key = nxt
    return obs, reward, tuple(steps)


def reference_evaluate(agent, env: Environment, n_episodes: int, seed) -> EvalStats:
    """`evaluate` spelled out: reference rollouts that keep every episode's
    rewards list and score it with `discounted_return`."""
    env.reseed(f"{seed}|env")
    rng = random.Random(f"{seed}|ties")
    success_steps, returns = [], []
    for _ in range(n_episodes):
        trace = RewardObservationTrace(*reference_episode(env, agent, rng, 0.0, None))
        if env.goal_reached:
            success_steps.append(env.step_count)
        returns.append(discounted_return(rewards(trace), 0, agent.gamma))
    exact = sum(success_steps) / len(success_steps) if success_steps else None
    total_return = 0.0  # left to right, as `sum` of floats no longer does on 3.12+
    for ret in returns:
        total_return += ret
    return EvalStats(
        goal_rate=len(success_steps) / n_episodes,
        mean_steps=round_steps(exact) if exact is not None else None,
        mean_return=total_return / n_episodes,
        mean_steps_exact=exact,
    )


class ReferenceRun(NamedTuple):
    q: dict
    model: dict
    eval_rows: list[dict]
    relearn_episodes: list[int]
    stop_episode: int
    history: list[RewardObservationTrace]


def reference_train(env: Environment, config: AgentConfig, seed) -> ReferenceRun:
    """`train` written out plainly from the reference parts above, with its
    random streams: one `{seed}|agent` generator for the bootstrap and
    training episodes, and `evaluate`'s own per evaluation.

    The bootstrap episodes give the first model, learned by
    `reference_ioalergia`, and are not backed up. Each training episode then
    learns online; at every update_interval-th episode before the freeze
    point the model is relearned from the whole history and the history is
    replayed into an empty Q-table. Every eval_every episodes, and after the
    last, a greedy evaluation may stop the run.
    """
    rng = random.Random(f"{seed}|agent")
    explorer = RandomAgent(env.actions)
    history = [RewardObservationTrace(*reference_episode(env, explorer, rng, 0.0, None))
               for _ in range(config.bootstrap_episodes)]
    model = reference_ioalergia([observation_part(t) for t in history], config.eps_al)
    agent = SimpleNamespace(q={}, actions=env.actions,
                            model=plain_model(model), gamma=config.gamma)
    eval_rows, relearns, stop = [], [], config.max_episodes
    for episode in range(config.max_episodes):
        learn = (config.alpha, config.gamma)
        trace = reference_episode(env, agent, rng, config.epsilon_at(episode), learn)
        history.append(RewardObservationTrace(*trace))
        if (episode < config.resolved_freeze_after()
                and episode % config.update_interval == 0):
            model = reference_ioalergia([observation_part(t) for t in history], config.eps_al)
            agent.model, agent.q = plain_model(model), {}
            reference_replay(agent.q, agent.model, history, env.actions, config.alpha,
                             config.gamma)
            relearns.append(episode)
        if (episode + 1) % config.eval_every and episode + 1 < config.max_episodes:
            continue
        stats = reference_evaluate(agent, env, config.eval_episodes,
                                   f"{seed}|eval|{episode}")
        eval_rows.append({"episode": episode + 1, "goal_rate": stats.goal_rate,
                          "mean_steps": stats.mean_steps, "mean_return": stats.mean_return,
                          "model_state_count": len(agent.model.label),
                          "q_rows": len(agent.q)})
        if stats.goal_rate >= config.target_goal_rate and (
                config.oracle_steps is None or stats.mean_steps is not None
                and stats.mean_steps <= round_steps(config.oracle_steps)):
            stop = episode + 1
            break
    return ReferenceRun(agent.q, model, eval_rows, relearns, stop, history)
