import dataclasses
import random
from fractions import Fraction

import pytest

from poql.beliefs import (
    Belief,
    ImpossibleObservation,
    belief_mdp_as_mdp,
    belief_update,
    build_belief_mdp,
    initial_belief,
    observation_probability,
    optimal_expected_steps,
    value_iteration,
)
from poql.envs import GridSpec, confusing_officeworld_world, grid_pomdp
from poql.models import Mdp

from helpers import fully_observable


# ---------------------------------------------------------------------------
# observation_probability
# ---------------------------------------------------------------------------

def test_observation_probability_certain(beverage_chain_world):
    b = initial_belief(beverage_chain_world.pomdp)
    assert observation_probability(b, "coin", "beep", beverage_chain_world.pomdp) == 1


def test_observation_probability_mixed(beverage_chain_world):
    b = Belief({1: Fraction(4, 5), 2: Fraction(1, 5)})
    p = observation_probability(b, "button", "coffee", beverage_chain_world.pomdp)
    assert p == Fraction(4, 5)


def test_observation_probability_unreachable(beverage_world):
    b = initial_belief(beverage_world.pomdp)
    assert observation_probability(b, "coin", "tea", beverage_world.pomdp) == 0


def test_observation_probabilities_sum_to_one(beverage_chain_world):
    pomdp = beverage_chain_world.pomdp
    bmdp = build_belief_mdp(pomdp, max_states=12)
    for b in bmdp.belief_of_state.values():
        for a in pomdp.mdp.actions:
            total = sum(
                observation_probability(b, a, z, pomdp) for z in pomdp.observations
            )
            assert abs(float(total) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# belief_update
# ---------------------------------------------------------------------------

def test_belief_update_chain_values(beverage_chain_world):
    pomdp = beverage_chain_world.pomdp
    b = belief_update(initial_belief(pomdp), "coin", "beep", pomdp)
    assert dict(b.support) == {1: Fraction(4, 5), 2: Fraction(1, 5)}
    b = belief_update(b, "coin", "beep", pomdp)
    assert dict(b.support) == {1: Fraction(24, 25), 2: Fraction(1, 25)}
    b = belief_update(b, "coin", "beep", pomdp)
    assert dict(b.support) == {1: Fraction(124, 125), 2: Fraction(1, 125)}


def test_belief_update_finite_setting(beverage_world):
    pomdp = beverage_world.pomdp
    b = belief_update(initial_belief(pomdp), "coin", "beep", pomdp)
    assert dict(b.support) == {1: Fraction(9, 10), 2: Fraction(1, 10)}


def test_belief_update_impossible_observation(beverage_world):
    pomdp = beverage_world.pomdp
    with pytest.raises(ImpossibleObservation):
        belief_update(initial_belief(pomdp), "coin", "tea", pomdp)


def test_belief_update_support_shares_label(beverage_chain_world):
    pomdp = beverage_chain_world.pomdp
    b = initial_belief(pomdp)
    for _ in range(4):
        b = belief_update(b, "coin", "beep", pomdp)
        labels = {pomdp.obs_fn[s] for s in b.support}
        assert labels == {"beep"}
        assert sum(b.support.values()) == 1


# ---------------------------------------------------------------------------
# build_belief_mdp
# ---------------------------------------------------------------------------

def test_finite_belief_mdp_exact(beverage_world):
    bmdp = build_belief_mdp(beverage_world.pomdp)
    model = bmdp.model
    assert not bmdp.truncated
    assert len(model.states) == 5
    beliefs = {s: dict(b.support) for s, b in bmdp.belief_of_state.items()}
    assert beliefs[0] == {0: Fraction(1)}
    assert beliefs[1] == {1: Fraction(9, 10), 2: Fraction(1, 10)}
    assert beliefs[2] == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert dict(model.successors(0, "coin")) == {1: Fraction(1)}
    assert dict(model.successors(0, "button")) == {0: Fraction(1)}
    assert dict(model.successors(1, "button")) == {3: Fraction(9, 10), 4: Fraction(1, 10)}
    assert dict(model.successors(1, "coin")) == {2: Fraction(1)}
    assert dict(model.successors(2, "button")) == {3: Fraction(1, 2), 4: Fraction(1, 2)}
    assert dict(model.successors(2, "coin")) == {2: Fraction(1)}


def test_truncated_belief_chain(beverage_chain_world):
    bmdp = build_belief_mdp(beverage_chain_world.pomdp, max_states=6)
    assert bmdp.truncated
    assert len(bmdp.model.states) == 6
    beep_beliefs = [
        dict(b.support)
        for s, b in sorted(bmdp.belief_of_state.items())
        if bmdp.model.label[s] == "beep"
    ]
    assert beep_beliefs == [
        {1: Fraction(4, 5), 2: Fraction(1, 5)},
        {1: Fraction(24, 25), 2: Fraction(1, 25)},
        {1: Fraction(124, 125), 2: Fraction(1, 125)},
    ]
    # the unexpanded frontier state is absorbing
    frontier = max(bmdp.model.states)
    for a in bmdp.model.actions:
        assert dict(bmdp.model.successors(frontier, a)) == {frontier: Fraction(1)}


def test_injective_observations_recover_the_mdp(beverage_world):
    pomdp = fully_observable(beverage_world.pomdp)
    bmdp = build_belief_mdp(pomdp)
    assert len(bmdp.model.states) == len(pomdp.mdp.states)
    ground = Mdp(
        pomdp.mdp.states, pomdp.mdp.initial, pomdp.mdp.actions, pomdp.mdp.delta
    )
    vals_ground, _ = value_iteration(ground, pomdp.reward_fn, 0.9, 1e-10,
                                     terminal_states=pomdp.goal_states)
    as_mdp = belief_mdp_as_mdp(bmdp)
    reward = bmdp.reward_fn(pomdp)
    vals_belief, _ = value_iteration(as_mdp, reward, 0.9, 1e-10,
                                     terminal_states=bmdp.goal_states(pomdp))
    for s, b in bmdp.belief_of_state.items():
        (q,) = b.support
        assert vals_belief[s] == pytest.approx(vals_ground[q], abs=1e-6)


def test_belief_mdp_max_states_validation(beverage_world):
    with pytest.raises(ValueError):
        build_belief_mdp(beverage_world.pomdp, max_states=0)


def _reference_belief_mdp(pomdp, max_states):
    """build_belief_mdp branch by branch: each branch's probability from
    observation_probability and its belief from belief_update."""
    beliefs = [initial_belief(pomdp)]
    index = {beliefs[0].key(): 0}
    trans = {}
    truncated = False
    sid = 0
    while sid < len(beliefs):
        b = beliefs[sid]
        outgoing, fresh = {}, {}
        for a in pomdp.mdp.actions:
            branches = []
            for z in pomdp.observations:
                p = observation_probability(b, a, z, pomdp)
                if p > 0:
                    branches.append((belief_update(b, a, z, pomdp), p))
            kept = sum(p for _, p in branches)
            if float(kept) != 1.0:
                branches = [(nb, p / kept) for nb, p in branches]
            outgoing[a] = branches
            for nb, _ in branches:
                if nb.key() not in index:
                    fresh.setdefault(nb.key(), nb)
        if len(beliefs) + len(fresh) > max_states:
            truncated = True
            outgoing = {a: [(b, Fraction(1))] for a in pomdp.mdp.actions}
        else:
            for k, nb in fresh.items():
                index[k] = len(beliefs)
                beliefs.append(nb)
        for a, branches in outgoing.items():
            trans[(sid, a)] = {index[nb.key()]: p for nb, p in branches}
        sid += 1
    return beliefs, trans, truncated


def _with_float_probabilities(pomdp):
    mdp = pomdp.mdp
    delta = {key: {s: float(p) for s, p in dist.items()} for key, dist in mdp.delta.items()}
    return dataclasses.replace(pomdp, mdp=Mdp(mdp.states, mdp.initial, mdp.actions, delta))


def _typed(mapping):
    """The items of a mapping with each value's type, so that equal Fraction
    and float values still differ."""
    return [(k, type(v), v) for k, v in mapping.items()]


@pytest.mark.parametrize("floats", [False, True], ids=["fraction", "float"])
@pytest.mark.parametrize("world,max_states", [
    ("beverage_world", 10_000),
    ("beverage_chain_world", 12),
    ("confusing_officeworld", 10_000),
])
def test_belief_mdp_matches_the_branch_by_branch_build(request, world, max_states, floats):
    if world == "confusing_officeworld":
        pomdp = confusing_officeworld_world().pomdp
    else:
        pomdp = request.getfixturevalue(world).pomdp
    if floats:
        pomdp = _with_float_probabilities(pomdp)
    bmdp = build_belief_mdp(pomdp, max_states)
    beliefs, trans, truncated = _reference_belief_mdp(pomdp, max_states)
    assert bmdp.truncated == truncated
    assert bmdp.model.states == tuple(range(len(beliefs)))
    assert [_typed(bmdp.belief_of_state[s].support) for s in bmdp.model.states] == [
        _typed(b.support) for b in beliefs]
    assert bmdp.model.label == {
        s: pomdp.obs_fn[next(iter(b.support))] for s, b in enumerate(beliefs)}
    assert list(bmdp.model.trans) == list(trans)
    assert [_typed(bmdp.model.trans[k]) for k in trans] == [_typed(d) for d in trans.values()]


# ---------------------------------------------------------------------------
# value_iteration
# ---------------------------------------------------------------------------

def _chain_mdp(n):
    """0 -> 1 -> ... -> n-1 (absorbing), single action."""
    delta = {(i, "go"): {min(i + 1, n - 1): 1} for i in range(n)}
    return Mdp(tuple(range(n)), 0, ("go",), delta)


def test_value_iteration_one_step_to_goal():
    mdp = _chain_mdp(2)
    values, _ = value_iteration(mdp, {1: 1.0}, 0.5, 1e-12, terminal_states={1})
    assert values[0] == pytest.approx(1.0)


def test_value_iteration_two_steps_to_goal():
    mdp = _chain_mdp(3)
    values, _ = value_iteration(mdp, {2: 1.0}, 0.5, 1e-12, terminal_states={2})
    assert values[0] == pytest.approx(0.5)


def _bfs_steps(spec: GridSpec) -> int:
    from collections import deque

    frontier = deque([(spec.start, 0)])
    seen = {spec.start}
    while frontier:
        cell, d = frontier.popleft()
        if cell == spec.goal:
            return d
        for action in ("up", "down", "left", "right"):
            nxt = spec.move(cell, action)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise AssertionError("goal unreachable")


def test_value_iteration_greedy_matches_bfs_on_deterministic_grid():
    layout = """
    S....#
    .##..#
    .#...#
    .#.#.#
    ...#.G
    ####..
    """
    spec = GridSpec.from_text(layout)
    world = grid_pomdp(spec)
    pomdp = world.pomdp
    _, policy = value_iteration(pomdp.mdp, pomdp.reward_fn, 0.9, 1e-12,
                                terminal_states=pomdp.goal_states)
    state = pomdp.mdp.initial
    steps = 0
    while state not in pomdp.goal_states:
        (state,) = pomdp.mdp.distribution(state, policy[state])
        steps += 1
        assert steps < 200
    assert steps == _bfs_steps(spec)


def test_value_iteration_rejects_gamma_one(beverage_world):
    with pytest.raises(ValueError):
        value_iteration(beverage_world.pomdp.mdp, {}, 1.0, 1e-9)


def test_value_iteration_monotone_in_rewards():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(3, 7)
        actions = ("a", "b")
        delta = {}
        for s in range(n):
            for a in actions:
                succ1, succ2 = rng.randrange(n), rng.randrange(n)
                p = Fraction(rng.randrange(1, 10), 10)
                dist = {succ1: p}
                dist[succ2] = dist.get(succ2, 0) + (1 - p)
                delta[(s, a)] = dist
        mdp = Mdp(tuple(range(n)), 0, actions, delta)
        rewards = {s: rng.uniform(-1, 1) for s in range(n)}
        base, _ = value_iteration(mdp, rewards, 0.8, 1e-12)
        bumped = dict(rewards)
        bumped[rng.randrange(n)] += 0.5
        more, _ = value_iteration(mdp, bumped, 0.8, 1e-12)
        for s in range(n):
            assert more[s] >= base[s] - 1e-9


def test_memoryless_policy_gamma_threshold(beverage_world):
    """The coin-coin-button route beats the early button press for all but
    very small discounts; the oracle locates the exact switching point.

    Independent oracle: writing out the Bellman fixed point of the two
    candidate policies on the five belief states and equating the two action
    values at the mixed beep belief reduces to 4g^3 + 4g^2 + 4g - 1 = 0.
    """
    pomdp = beverage_world.pomdp
    bmdp = build_belief_mdp(pomdp)
    mdp = belief_mdp_as_mdp(bmdp)
    reward = bmdp.reward_fn(pomdp)
    goals = bmdp.goal_states(pomdp)

    def action_at_b1(gamma):
        _, policy = value_iteration(mdp, reward, gamma, 1e-12, terminal_states=goals)
        return policy[1]

    lo, hi = 0.01, 0.99
    assert action_at_b1(lo) == "button"
    assert action_at_b1(hi) == "coin"
    for _ in range(40):
        mid = (lo + hi) / 2
        if action_at_b1(mid) == "button":
            lo = mid
        else:
            hi = mid

    poly_lo, poly_hi = 0.0, 1.0
    for _ in range(60):
        mid = (poly_lo + poly_hi) / 2
        if 4 * mid**3 + 4 * mid**2 + 4 * mid - 1 < 0:
            poly_lo = mid
        else:
            poly_hi = mid
    assert (lo + hi) / 2 == pytest.approx((poly_lo + poly_hi) / 2, abs=1e-6)


def test_optimal_expected_steps_simple_chain():
    mdp = _chain_mdp(4)
    steps = optimal_expected_steps(mdp, {3})
    assert steps[0] == pytest.approx(3.0)
