"""Reference code that only the tests use: oracles, samplers and walks
written out plainly, to check the package against."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Mapping, Sequence

from poql.learn import Iofpta
from poql.models import DeterministicLabeledMdp, ObsTrace, Pomdp, Prob


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
        observations=tuple(sorted(obs_fn.values())),
        obs_fn=obs_fn,
        reward_fn=pomdp.reward_fn,
        goal_states=pomdp.goal_states,
    )


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
