import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poql.beliefs import (
    Belief,
    belief_mdp_as_mdp,
    build_belief_mdp,
    initial_belief,
    optimal_expected_steps,
)
from poql.envs import GridSpec, grid_pomdp, make_environment
from poql.models import Mdp

from helpers import (
    ImpossibleObservation,
    belief_rewards,
    belief_update,
    fully_observable,
    observation_probability,
    reference_expected_steps,
    value_iteration,
)


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


def test_belief_refuses_a_negative_weight_and_a_sum_other_than_one():
    with pytest.raises(ValueError, match="belief: negative probability"):
        Belief({0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="belief: distribution sums to 0.5, not 1"):
        Belief({0: Fraction(1, 2)})


def test_float_belief_key_rounds_each_weight_to_ten_decimal_places():
    # Weights that round alike to 10 places share a key...
    assert Belief({1: 0.25 + 1e-12, 2: 0.75 - 1e-12}).key() == Belief({1: 0.25, 2: 0.75}).key()
    # ...but two beliefs 2e-14 apart whose weights straddle a rounding step do not.
    x, y = 0.12345678905001, 0.12345678904999
    near, far = Belief({1: x, 2: 1 - x}).key(), Belief({1: y, 2: 1 - y}).key()
    assert near == ((1, 0.1234567891), (2, 0.8765432109))
    assert far == ((1, 0.123456789), (2, 0.876543211))


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
    vals_ground, _ = value_iteration(ground, pomdp.reward_fn, 0.9,
                                     terminal_states=pomdp.goal_states)
    as_mdp = belief_mdp_as_mdp(bmdp)
    reward = belief_rewards(bmdp, pomdp)
    vals_belief, _ = value_iteration(as_mdp, reward, 0.9,
                                     terminal_states=bmdp.goal_states(pomdp))
    steps_ground = optimal_expected_steps(ground, pomdp.goal_states)
    steps_belief = optimal_expected_steps(as_mdp, bmdp.goal_states(pomdp))
    for s, b in bmdp.belief_of_state.items():
        (q,) = b.support
        assert vals_belief[s] == pytest.approx(vals_ground[q], abs=1e-6)
        assert steps_belief[s] == steps_ground[q]


def test_belief_mdp_max_states_validation(beverage_world):
    with pytest.raises(ValueError):
        build_belief_mdp(beverage_world.pomdp, max_states=0)
    for budget in (2.5, True):
        with pytest.raises(ValueError, match="max_states must be an integer"):
            build_belief_mdp(beverage_world.pomdp, max_states=budget)


def _reference_belief_mdp(pomdp, max_states):
    """build_belief_mdp branch by branch: each branch's probability from
    observation_probability and its belief from belief_update, both written
    out from the POMDP in tests/helpers.py, and every branch computed before
    the budget check."""
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
    ("gravity", 300),
])
def test_belief_mdp_matches_the_branch_by_branch_build(request, world, max_states, floats):
    if world in ("confusing_officeworld", "gravity"):
        pomdp = make_environment(world).pomdp
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
    values, _ = value_iteration(mdp, {1: 1.0}, 0.5, terminal_states={1})
    assert values[0] == pytest.approx(1.0)


def test_value_iteration_two_steps_to_goal():
    mdp = _chain_mdp(3)
    values, _ = value_iteration(mdp, {2: 1.0}, 0.5, terminal_states={2})
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
    _, policy = value_iteration(pomdp.mdp, pomdp.reward_fn, 0.9,
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
        value_iteration(beverage_world.pomdp.mdp, {}, 1.0)


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
        base, _ = value_iteration(mdp, rewards, 0.8)
        bumped = dict(rewards)
        bumped[rng.randrange(n)] += 0.5
        more, _ = value_iteration(mdp, bumped, 0.8)
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
    reward = belief_rewards(bmdp, pomdp)
    goals = bmdp.goal_states(pomdp)

    def action_at_b1(gamma):
        _, policy = value_iteration(mdp, reward, gamma, terminal_states=goals)
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


# ---------------------------------------------------------------------------
# optimal_expected_steps against the plain loop, and states that never reach
# a goal with probability 1
# ---------------------------------------------------------------------------

_ORACLE_ENVIRONMENTS = ["hot_beverage", "officeworld", "confusing_officeworld", "gravity",
                        "thinmaze"]


@pytest.mark.parametrize("name", _ORACLE_ENVIRONMENTS)
def test_optimal_expected_steps_equals_the_reference_on_each_environment(name):
    pomdp = make_environment(name).pomdp
    assert (optimal_expected_steps(pomdp.mdp, pomdp.goal_states)
            == reference_expected_steps(pomdp.mdp, pomdp.goal_states))


@pytest.mark.parametrize("name", [n for n in _ORACLE_ENVIRONMENTS if n != "gravity"])
def test_optimal_expected_steps_equals_the_reference_on_each_belief_mdp(name):
    pomdp = make_environment(name).pomdp
    bmdp = build_belief_mdp(pomdp)
    assert not bmdp.truncated
    mdp, goals = belief_mdp_as_mdp(bmdp), bmdp.goal_states(pomdp)
    assert optimal_expected_steps(mdp, goals) == reference_expected_steps(mdp, goals)


@st.composite
def _goal_reaching_mdps(draw):
    """A small MDP over Fractions whose top `n_goals` states are the goals.
    From every other state the first action moves only upwards, and to the
    next state with a positive probability, so every state reaches a goal
    with probability 1. Zero-probability entries stay in the distributions."""
    n = draw(st.integers(2, 5))
    n_goals = draw(st.integers(1, n - 1))
    actions = tuple("abc"[:draw(st.integers(1, 3))])
    delta = {}
    for s in range(n):
        for i, a in enumerate(actions):
            weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            if i == 0 and s < n - n_goals:
                weights = [0] * s + [weights[s], weights[s + 1] + 1] + weights[s + 2:]
            elif not any(weights):
                weights[s] = 1
            total = sum(weights)
            delta[(s, a)] = {t: Fraction(w, total) for t, w in enumerate(weights)}
    return Mdp(tuple(range(n)), 0, actions, delta), frozenset(range(n - n_goals, n))


@settings(max_examples=200, deadline=None)
@given(case=_goal_reaching_mdps())
def test_optimal_expected_steps_equals_the_reference_on_random_mdps(case):
    mdp, goals = case
    steps = optimal_expected_steps(mdp, goals)
    assert steps == reference_expected_steps(mdp, goals)
    assert all(math.isfinite(v) for v in steps.values())


def _timed_expected_steps(mdp, goals):
    start = time.perf_counter()
    steps = optimal_expected_steps(mdp, goals)
    assert time.perf_counter() - start < 0.1
    return steps


def test_optimal_expected_steps_is_inf_behind_a_trap():
    # 0 -a-> {goal 1: 1/2, trap 2: 1/2}: without a guard the sweeps never
    # converge and stop at max_iter with state 0 near max_iter / 2.
    half = Fraction(1, 2)
    mdp = Mdp((0, 1, 2), 0, ("a",), {
        (0, "a"): {1: half, 2: half}, (1, "a"): {1: Fraction(1)}, (2, "a"): {2: Fraction(1)}})
    assert _timed_expected_steps(mdp, {1}) == {0: math.inf, 1: 0.0, 2: math.inf}


def test_optimal_expected_steps_is_inf_when_the_only_other_action_loops():
    # State 0 risks the trap with "a" or stays put with "b"; state 3 reaches
    # the goal by "a" in 2 expected steps, while its "b" leads into state 0.
    half, one = Fraction(1, 2), Fraction(1)
    mdp = Mdp((0, 1, 2, 3), 3, ("a", "b"), {
        (0, "a"): {1: half, 2: half}, (0, "b"): {0: one},
        (1, "a"): {1: one}, (1, "b"): {1: one},
        (2, "a"): {2: one}, (2, "b"): {2: one},
        (3, "a"): {1: half, 3: half}, (3, "b"): {0: one}})
    steps = _timed_expected_steps(mdp, {1})
    assert steps[0] == steps[2] == math.inf
    assert steps[1] == 0.0
    assert steps[3] == pytest.approx(2.0)
