import _random
import hashlib
import json
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from poql.beliefs import optimal_expected_steps
from poql.envs import (
    DEFAULT_MAX_STEPS,
    ENVIRONMENT_NAMES,
    EpisodeProtocolError,
    GridSpec,
    confusing_officeworld_world,
    grid_pomdp,
    gravity_world,
    make_environment,
    officeworld_world,
    seeded_generator,
    thinmaze_world,
)

from helpers import cumulative_sampler, fully_observable, sample_pomdp_traces


# ---------------------------------------------------------------------------
# construction and the reset/step protocol
# ---------------------------------------------------------------------------

def test_all_names_construct():
    for name in ("hot_beverage", "officeworld", "confusing_officeworld", "gravity", "thinmaze"):
        env = make_environment(name, seed=0)
        obs, reward = env.reset()
        assert obs in env.pomdp.observations
        assert name in ENVIRONMENT_NAMES


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown environment"):
        make_environment("labyrinth", seed=0)


@pytest.mark.parametrize("params", [{"width": 0}, {"height": 1}, {"width": 3, "height": 0}],
                         ids=["width", "height", "both"])
def test_gravity_takes_no_size_parameters(params):
    """Gravity's geometry is fixed; a width or height key is refused rather
    than building a world that starts on the goal or loses its toggle."""
    with pytest.raises(ValueError) as info:
        make_environment("gravity", seed=0, **params)
    assert str(info.value) == f"unused environment parameters: {sorted(params)}"


def test_grid_without_layout_names_the_missing_parameter():
    with pytest.raises(ValueError, match="'layout'"):
        make_environment("grid", seed=0)


def test_reset_observations():
    assert make_environment("hot_beverage", seed=0).reset()[0] == "init"
    assert make_environment("officeworld", seed=0).reset()[0] == "Room1"
    assert make_environment("thinmaze", seed=0).reset()[0] == "corridor"
    assert make_environment("gravity", seed=0).reset()[0] == "floor"


def test_beverage_parameters_build_five_states():
    env = make_environment("hot_beverage", seed=0, p_t=0.1, p_cc=0.5, p_tt=0.5)
    assert len(env.pomdp.mdp.states) == 5
    assert env.pomdp.mdp.distribution(0, "coin")[2] == Fraction(1, 10)


def test_beverage_coin_always_beeps():
    env = make_environment("hot_beverage", seed=7)
    for _ in range(20):
        env.reset()
        obs, reward, done = env.step("coin")
        assert obs == "beep" and reward == 0.0 and not done


def test_step_after_done_is_protocol_error():
    env = make_environment("hot_beverage", seed=1, max_steps=1)
    env.reset()
    env.step("coin")
    with pytest.raises(EpisodeProtocolError):
        env.step("coin")


def test_unknown_action_rejected():
    env = make_environment("hot_beverage", seed=1)
    env.reset()
    with pytest.raises(ValueError):
        env.step("kick")


def test_episode_caps_at_max_steps():
    env = make_environment("thinmaze", seed=3)
    env.reset()
    done = False
    steps = 0
    while not done:
        _, _, done = env.step("up")  # bumps forever, never reaches the goal
        steps += 1
    assert steps == DEFAULT_MAX_STEPS
    assert not env.goal_reached


def test_goal_ends_episode_with_reward():
    env = make_environment("hot_beverage", seed=5)
    rewards = []
    env.reset()
    done = False
    while not done:
        obs, r, done = env.step("coin") if env.step_count % 2 == 0 else env.step("button")
        rewards.append((obs, r))
    assert env.goal_reached
    assert rewards[-1][0] == "tea" and rewards[-1][1] == 100.0


def test_fixed_seed_reproduces_episodes_bitwise():
    def run(name, seed):
        env = make_environment(name, seed=seed)
        out = []
        for _ in range(30):
            obs, r = env.reset()
            out.append((obs, r))
            done = False
            i = 0
            while not done:
                action = env.actions[i % 4]
                i += 1
                result = env.step(action)
                out.append(result)
                done = result[2]
        return out

    assert run("officeworld", 42) == run("officeworld", 42)
    assert run("gravity", 42) == run("gravity", 42)
    assert run("gravity", 42) != run("gravity", 43)


@pytest.mark.parametrize("max_steps", [7, DEFAULT_MAX_STEPS])
@pytest.mark.parametrize("seed", [0, 1, 2024])
@pytest.mark.parametrize("name", ENVIRONMENT_NAMES)
def test_step_matches_the_pomdp_read_directly(name, seed, max_steps):
    """Each step draws once from the env's generator, samples the successor
    from the sorted cumulative distribution, and reports what the POMDP's own
    functions give for it, capped at max_steps."""
    params = {"layout": GRID_TEXT} if name == "grid" else {}
    env = make_environment(name, seed=seed, max_steps=max_steps, **params)
    pomdp = env.pomdp
    draws, policy = random.Random(seed), random.Random(seed + 1)
    for _ in range(20):
        state = pomdp.mdp.initial
        assert env.reset() == (pomdp.obs_fn[state], pomdp.reward_fn.get(state, 0.0))
        done, steps = False, 0
        while not done:
            action = policy.choice(env.actions)
            r, acc = draws.random(), 0.0
            for succ, p in sorted(pomdp.mdp.distribution(state, action).items()):
                acc += float(p)
                if r < acc:
                    break
            state, steps = succ, steps + 1
            goal = state in pomdp.goal_states
            done = goal or steps >= max_steps
            assert env.step(action) == (pomdp.obs_fn[state], pomdp.reward_fn.get(state, 0.0), done)
            assert (env.goal_reached, env.step_count) == (goal, steps)
            assert env._rng.getstate() == draws.getstate()[1]


# ---------------------------------------------------------------------------
# observation aliasing
# ---------------------------------------------------------------------------

def test_officeworld_rooms_alias_nine_states_each():
    world = officeworld_world()
    counts = Counter(world.pomdp.obs_fn.values())
    assert counts == {"Room1": 9, "Room2": 9, "Room3": 9, "Room4": 9}


def test_confusing_officeworld_reuses_labels_diagonally():
    world = confusing_officeworld_world()
    counts = Counter(world.pomdp.obs_fn.values())
    assert counts == {"Room1": 18, "Room2": 18}
    # diagonal pairing: start corner and goal corner share an observation
    obs = world.pomdp.obs_fn
    assert obs[world.state_of[((0, 0), False)]] == obs[world.state_of[((5, 5), False)]]
    assert obs[world.state_of[((5, 0), False)]] == obs[world.state_of[((0, 5), False)]]


def test_thinmaze_has_at_most_three_observations():
    world = thinmaze_world()
    assert set(world.pomdp.observations) == {"corridor", "wall", "cookie"}


def test_thinmaze_wall_bump_keeps_position():
    world = thinmaze_world()
    pomdp = world.pomdp
    start = pomdp.mdp.initial
    (succ,) = pomdp.mdp.distribution(start, "up")
    assert pomdp.obs(succ) == "wall"
    # bumped twin of the same cell: moving right afterwards works as normal
    (after,) = pomdp.mdp.distribution(succ, "right")
    assert pomdp.obs(after) == "corridor"
    assert world.state_of[((1, 0), False)] == after


# ---------------------------------------------------------------------------
# gravity dynamics
# ---------------------------------------------------------------------------

def test_gravity_pulls_down_half_the_time_before_toggle():
    world = gravity_world()
    pomdp = world.pomdp
    mid = world.state_of[((0, 5), 0)]
    dist = pomdp.mdp.distribution(mid, "up")
    assert dist == {
        world.state_of[((0, 4), 0)]: Fraction(1, 2),
        world.state_of[((0, 6), 0)]: Fraction(1, 2),
    }


def test_gravity_becomes_deterministic_after_toggle():
    world = gravity_world()
    pomdp = world.pomdp
    for (cell, g), sid in world.state_of.items():
        for a in pomdp.mdp.actions:
            dist = pomdp.mdp.distribution(sid, a)
            if g == 1:
                assert len(dist) == 1 and sum(dist.values()) == 1
            support_flags = {key[1] for key in world.state_of if world.state_of[key] in dist}
    toggle_state = world.state_of[((5, 11), 1)]
    assert pomdp.obs(toggle_state) == "toggle"


def test_gravity_toggle_entry_sets_flag():
    world = gravity_world()
    pomdp = world.pomdp
    near = world.state_of[((4, 11), 0)]
    dist = pomdp.mdp.distribution(near, "right")
    assert dist[world.state_of[((5, 11), 1)]] == Fraction(1, 2)
    assert dist[world.state_of[((4, 11), 0)]] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# solvability and oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["hot_beverage", "officeworld", "confusing_officeworld", "gravity", "thinmaze"]
)
def test_goal_reachable_well_within_step_cap(name):
    env = make_environment(name, seed=0)
    steps = optimal_expected_steps(env.pomdp.mdp, env.pomdp.goal_states)
    assert steps[env.pomdp.mdp.initial] < DEFAULT_MAX_STEPS / 2


def test_officeworld_oracle_value():
    world = officeworld_world()
    steps = optimal_expected_steps(world.pomdp.mdp, world.pomdp.goal_states)
    # eight deterministic moves plus two sticky doorways at 10/9 tries each
    assert steps[world.pomdp.mdp.initial] == pytest.approx(8 + 2 * 10 / 9, abs=1e-6)


def test_thinmaze_oracle_is_twenty():
    world = thinmaze_world()
    steps = optimal_expected_steps(world.pomdp.mdp, world.pomdp.goal_states)
    assert steps[world.pomdp.mdp.initial] == pytest.approx(20.0, abs=1e-9)


def test_gravity_oracle_is_twenty_six():
    world = gravity_world()
    steps = optimal_expected_steps(world.pomdp.mdp, world.pomdp.goal_states)
    assert steps[world.pomdp.mdp.initial] == pytest.approx(26.0, abs=1e-9)


# ---------------------------------------------------------------------------
# declarative grid text format
# ---------------------------------------------------------------------------

GRID_TEXT = """
S 1 1 # 2
. 1 1 . 2
# # # # T
. . . . G
"""


_WALK_CASES = [(name, {"layout": GRID_TEXT} if name == "grid" else {})
               for name in ENVIRONMENT_NAMES]
_WALK_CASES.append(("grid", {"layout": GRID_TEXT, "slip": Fraction(1, 5)}))


@pytest.mark.parametrize("name,params", _WALK_CASES,
                         ids=[*ENVIRONMENT_NAMES, "grid-slip"])
def test_step_draws_the_successors_of_a_bisect_walk_over_delta(name, params):
    """The linked state rows make the same draws as a walk over
    pomdp.mdp.delta that bisects cumulative float probabilities, reach the
    same hidden state (the id each row carries last) at every step, and
    reject bad steps with the same errors."""
    env = make_environment(name, seed=11, **params)
    mdp = env.pomdp.mdp
    samplers = {key: cumulative_sampler(dist) for key, dist in mdp.delta.items()}
    draws, policy = random.Random(11), random.Random(12)
    env.reset()
    state = mdp.initial
    walked, expected = [], []
    for _ in range(600):
        action = policy.choice(env.actions)
        cum, succs = samplers[(state, action)]
        state = succs[bisect_right(cum, draws.random())]
        done = env.step(action)[2]
        walked.append(env._row[-1])
        expected.append(state)
        assert env._row[:3] == (env.pomdp.obs(state), env.pomdp.reward(state),
                                state in env.pomdp.goal_states)
        if done:
            env.reset()
            state = mdp.initial
            assert env._row[-1] == state
    assert walked == expected
    assert env._rng.getstate() == draws.getstate()[1]

    with pytest.raises(ValueError, match="unknown action 'kick'"):
        env.step("kick")
    with pytest.raises(TypeError):
        env.step(["up"])
    assert env._rng.getstate() == draws.getstate()[1]
    env = make_environment(name, seed=11, max_steps=1, **params)
    with pytest.raises(EpisodeProtocolError):
        env.step(env.actions[0])
    env.reset()
    env.step(env.actions[0])
    with pytest.raises(EpisodeProtocolError):
        env.step(env.actions[0])


_POMDP_CASES = {
    **{name: {} for name in ENVIRONMENT_NAMES if name != "grid"},
    "hot_beverage-p": {"p_t": Fraction(3, 10), "p_cc": Fraction(1, 4), "p_tt": Fraction(3, 4)},
    "grid-slip": {"layout": GRID_TEXT, "slip": Fraction(1, 5)},
}

GOLDEN_POMDPS = {
    "confusing_officeworld": "9fa175073bf48ae0b7692ea300522dff6c27e7fc8581bbb368e51633e7e0ae6d",
    "gravity": "28236bef80cc2e53afa49cea93c06f9018cbb042a8625434a2e099bf4ef366e7",
    "hot_beverage": "22509d088e1e079093bb468f6b22799c819690560fdd81335a24501059c686a9",
    "officeworld": "f0ff7a123b1674836c679d5f4701935c215b9aae94ad94448628d69086d2ea72",
    "thinmaze": "88e35d0902e84ce7a0d81c2e2adb1742e2f3d73238be510f8be817fe52a1848e",
    "hot_beverage-p": "0b55358d0609d9dc5000f1dfea72edd24c828612082f4d737104cda3970a18a0",
    "grid-slip": "11f94b96050144f2b284becae4670a38cb1f2346d717e3797a17969b6e5cc24c",
}


def _pomdp_digest(pomdp) -> str:
    """sha256 of canonical JSON holding the whole POMDP: every mapping in its
    own order except the goal set, probabilities as exact fractions."""
    mdp = pomdp.mdp
    blob = json.dumps({
        "states": list(mdp.states),
        "initial": mdp.initial,
        "actions": list(mdp.actions),
        "delta": [[s, a, [[t, str(p)] for t, p in dist.items()]]
                  for (s, a), dist in mdp.delta.items()],
        "obs_fn": list(pomdp.obs_fn.items()),
        "reward_fn": list(pomdp.reward_fn.items()),
        "goal_states": sorted(pomdp.goal_states),
    }, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_builtin_pomdps_match_golden_digests():
    """Every built-in environment, parameters included, builds exactly the
    POMDP it always has: state ids, successor order, observations, rewards
    and goals."""
    digests = {}
    for case, params in _POMDP_CASES.items():
        name = case.split("-")[0]
        digests[case] = _pomdp_digest(make_environment(name, seed=0, **params).pomdp)
    assert digests == GOLDEN_POMDPS


def test_grid_text_parses_layout():
    spec = GridSpec.from_text(GRID_TEXT)
    assert {x for x, _ in spec.room_of} == set(range(5))
    assert {y for _, y in spec.room_of} == set(range(4))
    assert spec.start == (0, 0) and spec.goal == (4, 3)
    assert spec.room_of[(1, 0)] == "Room1"
    assert spec.room_of[(4, 1)] == "Room2"
    assert spec.room_of[(4, 2)] == "toggle"
    assert (3, 2) not in spec.room_of
    assert spec.move((0, 0), "down") == (0, 1)
    assert spec.move((0, 1), "down") is None


def test_grid_text_environment_is_playable():
    env = make_environment("grid", seed=0, layout=GRID_TEXT)
    obs, reward = env.reset()
    assert obs == "floor" and reward == 0.0
    steps = optimal_expected_steps(env.pomdp.mdp, env.pomdp.goal_states)
    assert steps[env.pomdp.mdp.initial] == pytest.approx(7.0)


def test_grid_text_rejects_unknown_glyphs():
    with pytest.raises(ValueError, match="glyph"):
        GridSpec.from_text("S?G")


def test_grid_text_requires_start_and_goal():
    with pytest.raises(ValueError):
        GridSpec.from_text("S..")


@pytest.mark.parametrize("text", ["S.GG", "SS.G"])
def test_grid_text_rejects_a_second_start_or_goal(text):
    with pytest.raises(ValueError, match="exactly one S and one G"):
        GridSpec.from_text(text)


def test_grid_text_takes_only_ascii_room_digits():
    assert GridSpec.from_text("S9G").room_of[(1, 0)] == "Room9"
    with pytest.raises(ValueError, match="glyph"):
        GridSpec.from_text("S\u00b2G")


def test_grid_slip_is_one_probability_for_every_cell():
    spec = GridSpec.from_text("S.G", slip=Fraction(1, 5))
    world = grid_pomdp(spec)
    start, middle = world.state_of[((0, 0), False)], world.state_of[((1, 0), False)]
    # A slip to up or down hits the boundary and stays put.
    assert world.pomdp.mdp.distribution(start, "right") == {
        start: Fraction(1, 5), middle: Fraction(4, 5)}
    with pytest.raises(ValueError, match="slip probability"):
        GridSpec.from_text("S.G", slip=Fraction(3, 2))


def test_grid_pomdp_takes_bump_obs_by_keyword_only():
    with pytest.raises(TypeError):
        grid_pomdp(GridSpec.from_text("S.G"), "x")


_ROW = {(0, 0): "floor", (1, 0): "floor", (2, 0): "goal"}


def test_grid_spec_wall_blocks_whichever_cell_comes_first():
    spec = GridSpec(frozenset({((1, 0), (0, 0))}), _ROW, start=(0, 0), goal=(2, 0))
    assert spec.blocked == frozenset({((0, 0), (1, 0))})
    assert spec.move((0, 0), "right") is None
    assert spec.move((1, 0), "left") is None
    assert spec.move((1, 0), "right") == (2, 0)


def test_grid_spec_sticky_edge_sticks_whichever_cell_comes_first():
    spec = GridSpec(frozenset(), _ROW, start=(0, 0), goal=(2, 0),
                    sticky={((1, 0), (0, 0)): Fraction(1, 4)})
    world = grid_pomdp(spec)
    start, middle = world.state_of[((0, 0), False)], world.state_of[((1, 0), False)]
    assert world.pomdp.mdp.distribution(start, "right") == {
        middle: Fraction(3, 4), start: Fraction(1, 4)}
    with pytest.raises(ValueError, match="twice"):
        GridSpec(frozenset(), _ROW, start=(0, 0), goal=(2, 0),
                 sticky={((0, 0), (1, 0)): Fraction(1, 4), ((1, 0), (0, 0)): Fraction(1, 2)})


@pytest.mark.parametrize("pair", [((0, 0), (2, 0)), ((1, 0), (1, 1)), ((0, 0), (0, 0))],
                         ids=["apart", "solid", "same"])
def test_grid_spec_refuses_an_edge_between_cells_that_do_not_touch(pair):
    for blocked, sticky in [({pair}, {}), (set(), {pair: Fraction(1, 2)})]:
        with pytest.raises(ValueError, match=re.escape(f"edge {pair} does not join")):
            GridSpec(frozenset(blocked), _ROW, start=(0, 0), goal=(2, 0), sticky=sticky)


def test_grid_text_requires_rectangular_rows():
    with pytest.raises(ValueError):
        GridSpec.from_text("S..\n..\n..G")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_fully_observable_wrapper_is_injective(beverage_world):
    pomdp = fully_observable(beverage_world.pomdp)
    assert len(set(pomdp.obs_fn.values())) == len(pomdp.mdp.states)


def test_sample_pomdp_traces_ignores_goals(beverage_world):
    traces = sample_pomdp_traces(beverage_world.pomdp, 50, 6, seed=3)
    assert len(traces) == 50
    assert all(len(steps) == 6 for _, steps in traces)
    assert any(
        "tea" in [o for _, o in steps[:-1]] for _, steps in traces
    )  # walks continue past the goal observation


@given(seed=st.one_of(st.integers(-2**70, 2**70), st.text(max_size=12)),
       calls=st.lists(st.one_of(st.none(), st.integers(1, 70)), max_size=40))
def test_seeded_generator_draws_what_random_random_draws(seed, calls):
    """The exact-type generator continues `random.Random(seed)`'s stream: the
    same `random()` (None) and `getrandbits(k)` values, and the same state
    at the end."""
    fast, reference = seeded_generator(seed), random.Random(seed)
    assert type(fast) is _random.Random
    for k in calls:
        if k is None:
            assert fast.random() == reference.random()
        else:
            assert fast.getrandbits(k) == reference.getrandbits(k)
    assert fast.getstate() == reference.getstate()[1]


def test_environment_reseed_replays_episode():
    env = make_environment("gravity", seed=9)
    env.reseed("replay")
    env.reset()
    first = [env.step("up") for _ in range(10)]
    env.reseed("replay")
    env.reset()
    second = [env.step("up") for _ in range(10)]
    assert first == second


_glyphs = st.sampled_from(list("#.SGT0123456789?x \t"))
_layouts = st.one_of(
    # Rectangles of grid glyphs, so that many layouts parse.
    st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(_glyphs, min_size=width, max_size=width).map("".join),
        max_size=5)).map("\n".join),
    st.text(alphabet=st.sampled_from(list("#.SGT19?\n\r \x0b\x1c\u2028\u00b2\u0663")),
            max_size=30),
    st.text(max_size=20),
)


@given(_layouts)
def test_grid_from_text_succeeds_or_raises_value_error(text):
    try:
        spec = GridSpec.from_text(text)
    except ValueError:
        return
    assert spec.start in spec.room_of and spec.goal in spec.room_of
