"""Exact belief-space construction and expected-step analysis of known POMDPs.

Everything here is an oracle: it sees the ground-truth POMDP and exists to
verify learned models and learned policies on small instances. All functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .models import (
    DeterministicLabeledMdp, Mdp, Pomdp, Prob, _check_distribution, check_integer)

#: optimal_expected_steps stops after a sweep that changes no value by
#: STEPS_TOL or more, or after STEPS_MAX_ITER sweeps.
STEPS_TOL, STEPS_MAX_ITER = 1e-10, 1_000_000


@dataclass(frozen=True)
class Belief:
    """A probability distribution over POMDP states that share one observation."""

    support: Mapping[int, Prob]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("belief must have nonempty support")
        _check_distribution(self.support, "belief")

    def key(self) -> tuple:
        """Canonical identity for deduplication during belief-space search:
        exact for Fractions, else each weight rounded to 10 decimal places, so
        near-equal beliefs whose weights straddle a rounding step still differ."""
        items = sorted(self.support.items())
        if all(isinstance(p, Fraction) for _, p in items):
            return tuple(items)
        return tuple((s, round(float(p), 10)) for s, p in items)


def initial_belief(pomdp: Pomdp) -> Belief:
    return Belief({pomdp.mdp.initial: Fraction(1)})


def _successor(
    b: Belief, action: str, obs: str, pomdp: Pomdp
) -> tuple[Belief | None, Prob]:
    """The belief after taking `action` in `b` and observing `obs`, and the
    probability of that observation, in one pass: the probability summed left
    to right over the belief's support and each distribution; None for a
    branch of probability 0. Its one caller is build_belief_mdp."""
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

    def goal_states(self, pomdp: Pomdp) -> frozenset[int]:
        """Belief states whose entire support lies in the POMDP's goal set."""
        return frozenset(
            s
            for s, b in self.belief_of_state.items()
            if all(q in pomdp.goal_states for q in b.support)
        )


def build_belief_mdp(pomdp: Pomdp, max_states: int = 10_000) -> BeliefMdp:
    """Breadth-first closure of the beliefs reachable from {s0 -> 1}.

    Beliefs with equal keys (Belief.key) are identified: for floats, those
    whose weights round alike to 10 decimal places. Branches of probability
    0 are dropped; float branch probabilities are renormalized to sum to 1.
    A belief is expanded in one pass, which stops as soon as its new
    successor beliefs no longer fit within max_states; such a belief becomes
    an absorbing self-loop and the result is flagged truncated.
    """
    check_integer(max_states, "max_states", 1)
    b0 = initial_belief(pomdp)
    beliefs = [b0]
    index = {b0.key(): 0}
    trans: dict[tuple[int, str], dict[int, Prob]] = {}
    truncated = False
    for sid, b in enumerate(beliefs):
        # Compute the successor beliefs before numbering any, so the budget
        # check is atomic, and stop as soon as the new ones cannot all fit.
        room = max_states - len(beliefs)
        outgoing: list[tuple[str, list[tuple[tuple, Prob]]]] = []
        fresh: dict[tuple, Belief] = {}
        for a in pomdp.mdp.actions:
            branches: list[tuple[tuple, Prob]] = []
            for obs in pomdp.observations:
                nb, p = _successor(b, a, obs, pomdp)
                if p > 0:
                    k = nb.key()
                    branches.append((k, p))
                    if k not in index:
                        fresh.setdefault(k, nb)
            if len(fresh) > room:
                truncated = True
                loop = [(b.key(), Fraction(1))]
                outgoing = [(a, loop) for a in pomdp.mdp.actions]
                break
            kept = sum(p for _, p in branches)
            if float(kept) != 1.0:
                branches = [(k, p / kept) for k, p in branches]
            outgoing.append((a, branches))
        else:
            for k, nb in fresh.items():
                index[k] = len(beliefs)
                beliefs.append(nb)
        for a, branches in outgoing:
            trans[(sid, a)] = {index[k]: p for k, p in branches}

    label = {s: pomdp.obs_fn[next(iter(b.support))] for s, b in enumerate(beliefs)}
    model = DeterministicLabeledMdp(initial=0, actions=pomdp.mdp.actions, label=label,
                                    trans=trans)
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


def optimal_expected_steps(
    mdp: Mdp,
    goal_states: frozenset[int] | set[int],
) -> dict[int, float]:
    """Minimal expected number of steps to reach a goal state, per state.

    Stochastic-shortest-path value iteration (Gauss-Seidel, in state order)
    over the states from which some policy reaches a goal with probability 1;
    every other non-goal state gets math.inf without a sweep.
    """
    if not goal_states:
        raise ValueError("need at least one goal state")
    # States are numbered by their position in mdp.states. Each non-goal
    # state has one row per action: its non-goal successors with p > 0 and
    # their float probabilities, in the distribution's order.
    position = {s: k for k, s in enumerate(mdp.states)}
    rows: dict[int, list[list[tuple[int, float]]]] = {}
    exits: set[tuple[int, int]] = set()
    for k, s in enumerate(mdp.states):
        if s in goal_states:
            continue
        state_rows = rows[k] = []
        for i, a in enumerate(mdp.actions):
            row = []
            for succ, p in mdp.distribution(s, a).items():
                if p > 0:
                    if succ in goal_states:
                        exits.add((k, i))
                    else:
                        row.append((position[succ], float(p)))
            state_rows.append(row)
    live = _reach_goal_almost_surely(rows, exits)
    steps = [math.inf if k in rows and k not in live else 0.0 for k in range(len(mdp.states))]
    sweep = [(k, state_rows) for k, state_rows in rows.items() if k in live]
    for _ in range(STEPS_MAX_ITER):
        residual = 0.0
        for k, state_rows in sweep:
            best = math.inf
            for row in state_rows:
                total = 1.0
                for succ, p in row:
                    total += p * steps[succ]
                if total < best:
                    best = total
            change = abs(best - steps[k])
            if change > residual:
                residual = change
            steps[k] = best
        if residual < STEPS_TOL:
            break
    return dict(zip(mdp.states, steps))


def _reach_goal_almost_surely(
    rows: Mapping[int, list[list[tuple[int, float]]]],
    exits: set[tuple[int, int]],
) -> set[int]:
    """The non-goal states from which some policy reaches a goal with
    probability 1: the Prob1E fixpoint (Baier & Katoen, Principles of Model
    Checking, 2008). Each round keeps the states that reach a goal through
    rows whose successors all stay in the current set, walking predecessor
    lists backwards from the rows in `exits` (those with a goal successor),
    and the rounds repeat until the set stops shrinking."""
    preds: dict[int, list[tuple[int, int]]] = {}
    for s, state_rows in rows.items():
        for i, row in enumerate(state_rows):
            for succ, _ in row:
                preds.setdefault(succ, []).append((s, i))
    alive = set(rows)
    while True:
        inside = {(s, i) for s in alive for i, row in enumerate(rows[s])
                  if all(succ in alive for succ, _ in row)}
        stack = [s for s, i in exits & inside]
        reached: set[int] = set()
        while stack:
            t = stack.pop()
            if t not in reached:
                reached.add(t)
                stack.extend(s for s, i in preds.get(t, ()) if (s, i) in inside)
        if reached == alive:
            return alive
        alive = reached
