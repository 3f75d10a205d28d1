"""Exact belief-space construction and value iteration over known POMDPs.

Everything here is an oracle: it sees the ground-truth POMDP and exists to
verify learned models and learned policies on small instances. All functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .models import (
    PROB_SUM_TOL,
    DeterministicLabeledMdp,
    Mdp,
    Pomdp,
    Prob,
)


class ImpossibleObservation(ValueError):
    """Raised when a belief is conditioned on an observation of probability 0."""


@dataclass(frozen=True)
class Belief:
    """A probability distribution over POMDP states that share one observation."""

    support: Mapping[int, Prob]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("belief must have nonempty support")
        total = sum(self.support.values())
        if abs(float(total) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"belief sums to {float(total)!r}, not 1")

    def items(self):
        return sorted(self.support.items())

    def key(self) -> tuple:
        """Canonical identity for deduplication during belief-space search.

        Exact when probabilities are Fractions; otherwise probabilities are
        quantized well below the 1e-9 identification tolerance.
        """
        if all(isinstance(p, Fraction) for p in self.support.values()):
            return tuple(self.items())
        return tuple((s, round(float(p), 10)) for s, p in self.items())


def initial_belief(pomdp: Pomdp) -> Belief:
    return Belief({pomdp.mdp.initial: Fraction(1)})


def observation_probability(b: Belief, action: str, obs: str, pomdp: Pomdp) -> Prob:
    """Probability of observing `obs` after executing `action` in belief `b`."""
    total = 0
    for s, w in b.support.items():
        if w == 0:
            continue
        for succ, p in pomdp.mdp.distribution(s, action).items():
            if pomdp.obs_fn[succ] == obs:
                total += w * p
    return total


def belief_update(b: Belief, action: str, obs: str, pomdp: Pomdp) -> Belief:
    """Condition belief `b` on taking `action` and then observing `obs`."""
    new, _ = _successor(b, action, obs, pomdp)
    if new is None:
        raise ImpossibleObservation(
            f"observation {obs!r} has probability 0 after action {action!r}"
        )
    return new


def _successor(
    b: Belief, action: str, obs: str, pomdp: Pomdp
) -> tuple[Belief | None, Prob]:
    """(belief_update, observation_probability) of one branch in one pass,
    summed in the same order as observation_probability; None for a branch
    of probability 0."""
    norm = 0
    new: dict[int, Prob] = {}
    for s, w in b.support.items():
        if w == 0:
            continue
        for succ, p in pomdp.mdp.distribution(s, action).items():
            if pomdp.obs_fn[succ] == obs:
                weight = w * p
                norm += weight
                if p != 0:
                    new[succ] = new.get(succ, 0) + weight
    if norm == 0:
        return None, norm
    return Belief({s: w / norm for s, w in sorted(new.items())}), norm


@dataclass(frozen=True)
class BeliefMdp:
    """The reachable belief space of a POMDP, packaged as a labeled model.

    truncated is set when the breadth-first expansion hit the state budget;
    unexpanded frontier beliefs are then absorbing self-loop states, keeping
    the result a well-formed MDP.
    """

    model: DeterministicLabeledMdp
    belief_of_state: Mapping[int, Belief]
    truncated: bool

    def reward_fn(self, pomdp: Pomdp) -> dict[int, float]:
        """Expected ground reward of each belief state."""
        return {
            s: float(sum(w * pomdp.reward(q) for q, w in b.support.items()))
            for s, b in self.belief_of_state.items()
        }

    def goal_states(self, pomdp: Pomdp) -> frozenset[int]:
        """Belief states whose entire support lies in the POMDP's goal set."""
        return frozenset(
            s
            for s, b in self.belief_of_state.items()
            if all(q in pomdp.goal_states for q in b.support)
        )


def build_belief_mdp(pomdp: Pomdp, max_states: int = 10_000) -> BeliefMdp:
    """Breadth-first closure of the beliefs reachable from {s0 -> 1}.

    Beliefs equal within 1e-9 (exactly, for rational inputs) are identified.
    Branches of probability 0 are dropped; float branch probabilities are
    renormalized to sum to 1. A state is only expanded if all its
    successor beliefs fit within max_states; otherwise it becomes absorbing
    and the result is flagged truncated.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    b0 = initial_belief(pomdp)
    beliefs = [b0]
    index = {b0.key(): 0}
    label = {0: pomdp.obs_fn[pomdp.mdp.initial]}
    trans: dict[tuple[int, str], dict[int, Prob]] = {}
    truncated = False

    cursor = 0
    while cursor < len(beliefs):
        sid = cursor
        b = beliefs[sid]
        cursor += 1
        # Compute all successor beliefs first so the budget check is atomic.
        outgoing: list[tuple[str, list[tuple[Belief, Prob]]]] = []
        fresh: list[Belief] = []
        fresh_keys = set()
        for a in pomdp.mdp.actions:
            branches: list[tuple[Belief, Prob]] = []
            for obs in pomdp.observations:
                nb, p = _successor(b, a, obs, pomdp)
                if p > 0:
                    branches.append((nb, p))
            kept = sum(p for _, p in branches)
            if float(kept) != 1.0:
                branches = [(nb, p / kept) for nb, p in branches]
            outgoing.append((a, branches))
            for nb, _ in branches:
                k = nb.key()
                if k not in index and k not in fresh_keys:
                    fresh_keys.add(k)
                    fresh.append(nb)
        if len(beliefs) + len(fresh) > max_states:
            truncated = True
            for a in pomdp.mdp.actions:
                trans[(sid, a)] = {sid: Fraction(1)}
            continue
        for nb in fresh:
            nid = len(beliefs)
            beliefs.append(nb)
            index[nb.key()] = nid
            support = next(iter(nb.support))
            label[nid] = pomdp.obs_fn[support]
        for a, branches in outgoing:
            dist: dict[int, Prob] = {}
            for nb, p in branches:
                dist[index[nb.key()]] = p
            trans[(sid, a)] = dist

    model = DeterministicLabeledMdp(
        states=tuple(range(len(beliefs))),
        initial=0,
        actions=pomdp.mdp.actions,
        label=label,
        trans=trans,
    )
    return BeliefMdp(model, dict(enumerate(beliefs)), truncated)


def belief_mdp_as_mdp(bmdp: BeliefMdp) -> Mdp:
    """View the belief model as a plain MDP (absorbing where undefined)."""
    model = bmdp.model
    delta: dict[tuple[int, str], dict[int, Prob]] = {}
    for s in model.states:
        for a in model.actions:
            dist = model.successors(s, a)
            delta[(s, a)] = dict(dist) if dist else {s: Fraction(1)}
    return Mdp(model.states, model.initial, model.actions, delta)


def value_iteration(
    mdp: Mdp,
    reward_fn: Mapping[int, float] | Callable[[int], float],
    gamma: float,
    tol: float,
    terminal_states: frozenset[int] | set[int] = frozenset(),
) -> tuple[dict[int, float], dict[int, str]]:
    """Optimal state values and a greedy policy for a known MDP.

    Rewards are earned on entering the successor state. Terminal states have
    value 0 and no policy entry: reaching one ends the episode, so nothing
    accrues beyond the entry reward. Iterates until the sup-norm residual
    drops below tol.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    reward = reward_fn if callable(reward_fn) else lambda s: reward_fn.get(s, 0.0)
    values = {s: 0.0 for s in mdp.states}
    live = [s for s in mdp.states if s not in terminal_states]

    def backup(s: int, a: str) -> float:
        total = 0.0
        for succ, p in mdp.distribution(s, a).items():
            fp = float(p)
            total += fp * reward(succ)
            if succ not in terminal_states:
                total += fp * gamma * values[succ]
        return total

    while True:
        residual = 0.0
        for s in live:
            best = max(backup(s, a) for a in mdp.actions)
            residual = max(residual, abs(best - values[s]))
            values[s] = best
        if residual < tol:
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


def optimal_expected_steps(
    mdp: Mdp,
    goal_states: frozenset[int] | set[int],
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
) -> dict[int, float]:
    """Minimal expected number of steps to reach a goal state, per state.

    Stochastic-shortest-path value iteration; diverges (large values) for
    states that cannot reach the goal under any policy.
    """
    if not goal_states:
        raise ValueError("need at least one goal state")
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
