import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poql.agent import (ExtendedState, QTable, RandomAgent, replay, run_episode,
                        update_q_values)
from poql.checkpoint import model_to_dict
from poql.envs import ENVIRONMENT_NAMES, hot_beverage_world, make_environment
from poql.learn import (
    InconsistentSample,
    LearnerConfig,
    _bound_scale,
    build_iofpta,
    compatible,
    observation_traces,
    observation_traces_from_file,
    run_ioalergia,
)
from poql.models import (
    RewardObservationTrace,
    label_determinism_violations,
    read_trace_file,
    reset_to_initial,
    step_to,
    write_trace_file,
)

from helpers import edge_mass, reachable_states, reference_ioalergia, sample_pomdp_traces


def _trace(initial, *steps):
    return (initial, tuple(steps))


# ---------------------------------------------------------------------------
# build_iofpta
# ---------------------------------------------------------------------------

def test_iofpta_single_trace():
    tree = build_iofpta([_trace("init", ("coin", "beep"))])
    assert tree.root.label == "init"
    assert tree.root.freq == {("coin", "beep"): 1}
    assert tree.root.children[("coin", "beep")].label == "beep"
    assert tree.num_traces == 1


def test_iofpta_counts_multiplicities():
    traces = [
        _trace("init", ("coin", "beep")),
        _trace("init", ("coin", "beep")),
        _trace("init", ("button", "init")),
    ]
    tree = build_iofpta(traces)
    assert tree.root.freq == {("coin", "beep"): 2, ("button", "init"): 1}
    assert tree.root.totals == {"coin": 2, "button": 1}
    assert edge_mass(tree) == 3


def test_iofpta_merges_common_prefixes():
    # Hand-built expectation: one shared beep node carrying both button edges.
    traces = [
        _trace("init", ("coin", "beep"), ("button", "coffee")),
        _trace("init", ("coin", "beep"), ("button", "tea")),
    ]
    tree = build_iofpta(traces)
    beep = tree.root.children[("coin", "beep")]
    assert tree.root.freq == {("coin", "beep"): 2}
    assert beep.freq == {("button", "coffee"): 1, ("button", "tea"): 1}
    assert set(beep.children) == {("button", "coffee"), ("button", "tea")}


def test_iofpta_compresses_unique_tails():
    steps = (("coin", "beep"), ("button", "coffee"), ("coin", "beep"))
    tree = build_iofpta([_trace("init", *steps), _trace("init", ("coin", "beep"))])
    beep = tree.root.children[("coin", "beep")]
    # Two traces reach beep, but only one continues past it: a tail.
    assert tree.root.freq == {("coin", "beep"): 2}
    assert (beep.steps, beep.pos) == (steps, 1)
    assert beep.children == beep.freq == beep.totals == {}
    with pytest.raises(TypeError):
        beep.freq[("button", "tea")] = 1
    assert edge_mass(tree) == 4

    beep.expand()
    coffee = beep.children[("button", "coffee")]
    assert beep.steps is None
    assert beep.freq == {("button", "coffee"): 1}
    assert beep.totals == {"button": 1}
    assert (coffee.label, coffee.steps, coffee.pos) == ("coffee", steps, 2)
    assert edge_mass(tree) == 4


def test_iofpta_rejects_differing_initial_observations():
    with pytest.raises(InconsistentSample):
        build_iofpta([_trace("a"), _trace("b")])


def test_iofpta_rejects_empty_sample():
    with pytest.raises(InconsistentSample):
        build_iofpta([])


# ---------------------------------------------------------------------------
# compatible
# ---------------------------------------------------------------------------

def test_compatible_label_mismatch():
    t1 = build_iofpta([_trace("beep")])
    t2 = build_iofpta([_trace("coffee")])
    assert not compatible(t1.root, t2.root, 0.05)


def test_compatible_parameter_validation():
    node = build_iofpta([_trace("init")]).root
    with pytest.raises(ValueError):
        compatible(node, node, 0.0)
    with pytest.raises(ValueError):
        compatible(node, node, 1.5)


def test_compatible_identical_subtrees():
    traces = [
        _trace("init", ("coin", "beep"), ("coin", "beep")),
        _trace("init", ("button", "init")),
    ] * 50
    t1 = build_iofpta(traces)
    t2 = build_iofpta(traces)
    assert compatible(t1.root, t2.root, 0.05)


def test_compatible_separates_aliased_beverage_states():
    """Sample futures of the two beep states of a sharply skewed machine
    (p_cc=0.9, p_tt=0.1) and check the recursive test tells them apart."""
    world = hot_beverage_world(Fraction(1, 2), Fraction(9, 10), Fraction(1, 10))
    pomdp = world.pomdp

    def traces_from(state, n, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            s = state
            steps = []
            for _ in range(3):
                a = pomdp.mdp.actions[rng.randrange(2)]
                dist = sorted(pomdp.mdp.distribution(s, a).items())
                r = rng.random()
                acc = 0.0
                for succ, p in dist:
                    acc += float(p)
                    if r < acc:
                        break
                s = succ
                steps.append((a, pomdp.obs(s)))
            out.append(("beep", tuple(steps)))
        return out

    node1 = build_iofpta(traces_from(1, 10_000, 1)).root
    node2 = build_iofpta(traces_from(2, 10_000, 2)).root
    assert node1.label == node2.label == "beep"
    assert not compatible(node1, node2, 0.05)
    # and each side remains compatible with an independent sample of itself
    assert compatible(node1, build_iofpta(traces_from(1, 10_000, 3)).root, 0.05)


def test_compatible_tests_tails_exactly_above_two_over_e_squared():
    """A tail has n=1 on every edge. Below 2/e^2 no bound involving it can
    reach 1; above, a well-sampled node rejects a tail that takes an edge
    it has never seen, whichever side the tail is on."""
    seen = build_iofpta([_trace("a", ("x", "b"))] * 5000).root
    tail = build_iofpta([_trace("a", ("y", "a"), ("x", "c"))]).root.children[("y", "a")]
    assert tail.steps is not None and tail.label == "a"
    assert 0.27 < 2 / math.e**2 < 0.28
    for eps_al in (0.005, 0.05, 0.27):
        assert compatible(seen, tail, eps_al)
        assert compatible(tail, seen, eps_al)
    for eps_al in (0.3, 0.5, 1.0):
        assert not compatible(seen, tail, eps_al)
        assert not compatible(tail, seen, eps_al)


# ---------------------------------------------------------------------------
# run_ioalergia
# ---------------------------------------------------------------------------

def _random_episodes(env, n, seed):
    """Observation traces of n uniform-random-policy episodes of env."""
    agent, rng = RandomAgent(env.actions), random.Random(seed)
    return [RewardObservationTrace(*run_episode(env, agent, rng)).observation_part()
            for _ in range(n)]


def _assert_sample_replays(traces, model):
    mass = sum(c for counts in model.counts.values() for c in counts.values())
    assert mass == sum(len(steps) for _, steps in traces)
    for init, steps in traces:
        assert model.label[model.initial] == init
        tracker = reset_to_initial(model)
        for action, obs in steps:
            tracker = step_to(tracker, action, obs, model)
        assert tracker.defined


# sha256 of json.dumps(model_to_dict(model), sort_keys=True) for 300 random
# episodes (env seed 7, policy seed 7), recorded with a learner that expanded
# the whole prefix tree and compared nodes recursively.
GOLDEN_MODELS = {
    "thinmaze": {
        0.005: "3688f0a2d898745be47e3857f64f4416584c1f47470f7538076e67d3911119ee",
        0.05: "3699be869698eb71716c73a4cdef23bea7436144883abacf69972c49d102df95",
        0.27: "8d493a813c2a9eb01ab0155b786a279b017c65e206b4b92244e807d6d2eb7f5f",
        0.3: "2fce452b0b73ea21ba429b141aa829cf75c645be74ba01c56d47ff439536cbe7",
        0.5: "2b93cd8c630249eb7a2471d2151bdd441e7bde690a8b5f909d100db58f479e79",
        1.0: "12719e4bce49a8ad112998d4bd7a0248d74990ce9b1a91da67ac36cdaf735a05",
    },
    "gravity": {
        0.005: "05c3489958ce580ad67e2c86dd62df5518cf7d01ada4f3d9e0dccdfe6403b77a",
        0.05: "180d29b86e431ad8c165afafd627c6e7b820c3c31d7d7cd47f59370e7e12b4b2",
        0.27: "2de8358a11fb3689c9a51c862b717e73142a8f69d86dd7ef6953623d4217e73f",
        0.3: "2de8358a11fb3689c9a51c862b717e73142a8f69d86dd7ef6953623d4217e73f",
        0.5: "d97b090a2dcb7a8793f47dcc3a00a5cace253b338acad545cb3cc1f8c80b2871",
        1.0: "911620fce3db7311081823d3ad21fa3affc10f43d286d6ab323b28a5895655c2",
    },
    "hot_beverage": {
        0.005: "00178cb5992af0a8a6b566f682f857fd8e38a0f7e544aabe22333363a728a912",
        0.05: "00178cb5992af0a8a6b566f682f857fd8e38a0f7e544aabe22333363a728a912",
        0.27: "00178cb5992af0a8a6b566f682f857fd8e38a0f7e544aabe22333363a728a912",
        0.3: "00178cb5992af0a8a6b566f682f857fd8e38a0f7e544aabe22333363a728a912",
        0.5: "10e8f164c1d981669350834bf958c7543c0cb527cf8f6a52b2eba4462bf41032",
        1.0: "0d9ced067bd8369a8a5dd4c02d6e495fb45c0a2481103f87cc3f56ac6f406846",
    },
    "confusing_officeworld": {
        0.005: "1295446210ebf4937b86d47a305edc930cb4e3e5af13e7355114cd2a2a44d49b",
        0.05: "accbca543319120a8d2bf84cfe98326d8b25bd3270b1f71e82ba695e85756a7d",
        0.27: "f54602b29fe12881a6c054dd1be272f8d356aa01ec6c88b2ca7daf334656456e",
        0.3: "516dfd1c79a7c69ec8b01c0bca864c360dc05c6b12bd533eb63aab0213e4389f",
        0.5: "d83bbcb1cbd65d860c4df3bc885014a498f142c963208d0191235ab09ac9b986",
        1.0: "93119c8704dae2b3aca42bf2264ce52211aff7bc50fac1085451454881e93ae8",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_learner_matches_golden_models(name):
    traces = _random_episodes(make_environment(name, seed=7), 300, 7)
    digests = {}
    for eps_al in GOLDEN_MODELS[name]:
        model = run_ioalergia(traces, LearnerConfig(eps_al=eps_al))
        blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
        digests[eps_al] = hashlib.sha256(blob).hexdigest()
    assert digests == GOLDEN_MODELS[name]


@pytest.mark.parametrize("name", ENVIRONMENT_NAMES)
def test_learned_initial_label_is_the_environment_initial_observation(name):
    """reset_to_initial keys every episode by the model's initial label, so a
    model learned from an environment's own episodes must carry the
    observation that each of its episodes starts with."""
    params = {"layout": "S 1 .\n. # G"} if name == "grid" else {}
    env = make_environment(name, seed=5, **params)
    model = run_ioalergia(_random_episodes(env, 30, 5), LearnerConfig())
    assert reset_to_initial(model).obs == env.reset()[0]


def test_learner_handles_episodes_longer_than_the_recursion_limit():
    env = make_environment("thinmaze", seed=1, max_steps=3000)
    traces = _random_episodes(env, 50, 1)
    longest = sorted(traces, key=lambda t: len(t[1]), reverse=True)
    assert len(longest[0][1]) > 2000
    # At eps_al=0.5 the six longest episodes already nest deeper than the
    # interpreter's recursion limit; the full sample takes seconds.
    for sample, eps_al in (
        (traces, 0.05),
        (longest[:6], 0.5),
        ([longest[0]] * 3, 0.05),
        ([longest[0]] * 3, 0.5),
    ):
        _assert_sample_replays(sample, run_ioalergia(sample, LearnerConfig(eps_al)))

def _alternating_traces(n, length=6):
    steps = tuple(("go", "b" if i % 2 == 0 else "a") for i in range(length))
    return [_trace("a", *steps) for _ in range(n)]


def test_learner_recovers_deterministic_machine():
    model = run_ioalergia(_alternating_traces(20))
    assert len(model.states) == 2
    assert model.label == {0: "a", 1: "b"}
    assert dict(model.successors(0, "go")) == {1: Fraction(1)}
    assert dict(model.successors(1, "go")) == {0: Fraction(1)}


def test_learner_probabilities_are_exact_count_ratios():
    world = hot_beverage_world()
    traces = sample_pomdp_traces(world.pomdp, 2000, 5, seed=9)
    model = run_ioalergia(traces)
    for (s, a), dist in model.trans.items():
        counts = model.counts[(s, a)]
        total = sum(counts.values())
        for succ, p in dist.items():
            assert p == Fraction(counts[succ], total)


def test_learner_conserves_frequency_mass():
    world = hot_beverage_world()
    traces = sample_pomdp_traces(world.pomdp, 1500, 6, seed=4)
    tree_mass = edge_mass(build_iofpta(traces))
    model = run_ioalergia(traces)
    model_mass = sum(
        c for counts in model.counts.values() for c in counts.values()
    )
    assert model_mass == tree_mass == 1500 * 6


def test_learner_is_deterministic():
    world = hot_beverage_world()
    traces = sample_pomdp_traces(world.pomdp, 3000, 6, seed=12)
    m1 = run_ioalergia(traces)
    m2 = run_ioalergia(list(traces))
    assert m1.label == m2.label
    assert m1.trans == m2.trans
    assert m1.counts == m2.counts


def test_learner_labels_cover_observed_symbols():
    world = hot_beverage_world()
    traces = sample_pomdp_traces(world.pomdp, 2000, 6, seed=31)
    seen = {traces[0][0]} | {o for _, steps in traces for _, o in steps}
    model = run_ioalergia(traces)
    assert {model.label[s] for s in reachable_states(model)} == seen


def test_learner_eps_controls_model_size():
    """Smaller eps_al widens the acceptance bound and merges more, so the
    model learned at eps_al=0.05 is never larger than one learned with the
    test made near-maximally strict on the same noisy sample."""
    world = hot_beverage_world()
    traces = sample_pomdp_traces(world.pomdp, 400, 6, seed=77)
    small = run_ioalergia(traces, LearnerConfig(eps_al=0.05))
    strict = run_ioalergia(traces, LearnerConfig(eps_al=0.9999))
    assert len(small.states) <= len(strict.states)


def test_learner_requires_min_traces():
    with pytest.raises(ValueError):
        run_ioalergia([], LearnerConfig())
    with pytest.raises(InconsistentSample, match="empty sample"):
        run_ioalergia(iter(()))


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(eps_al=0.0)


def test_learner_ingests_trace_files_discarding_rewards(tmp_path):
    episodes = [
        RewardObservationTrace("a", 0.0, (("go", 5.0, "b"), ("go", -1.0, "a"))),
        RewardObservationTrace("a", 2.0, (("go", 0.0, "b"),)),
    ]
    path = tmp_path / "episodes.txt"
    write_trace_file(episodes, path)
    traces = observation_traces_from_file(path)
    assert traces == [
        ("a", (("go", "b"), ("go", "a"))),
        ("a", (("go", "b"),)),
    ]
    model = run_ioalergia(traces)
    assert {model.label[s] for s in model.states} == {"a", "b"}


def test_trace_files_load_with_one_tuple_per_distinct_pair(tmp_path):
    episodes = [
        RewardObservationTrace("a", 0.0, (("go", 5.0, "b"), ("go", -1.0, "a"))),
        RewardObservationTrace("a", 2.0, (("go", 0.0, "b"), ("go", -1.0, "a"))),
    ]
    path = tmp_path / "episodes.txt"
    write_trace_file(episodes, path)
    traces = observation_traces_from_file(path)
    assert traces == [t.observation_part() for t in read_trace_file(path)]
    (_, first), (_, second) = traces
    assert first[0] is second[0]  # ("go", "b") after rewards 5.0 and 0.0
    assert first[1] is second[1]
    for text in ("", "\n  \n\n"):
        path.write_text(text)
        assert observation_traces_from_file(path) == []


def test_learned_models_satisfy_label_determinism():
    rng = random.Random(123)
    for _ in range(50):
        obs = ["a", "b", "c"][: rng.randrange(2, 4)]
        actions = ["x", "y"]
        traces = []
        for _ in range(rng.randrange(1, 25)):
            steps = tuple(
                (rng.choice(actions), rng.choice(obs))
                for _ in range(rng.randrange(0, 8))
            )
            traces.append(("a", steps))
        model = run_ioalergia(traces)
        assert not label_determinism_violations(model.label, model.trans)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_STEPS = st.tuples(st.sampled_from(["x", "y"]), st.sampled_from(["a", "b", "c"]))


@st.composite
def _samples(draw):
    """Traces cut from a few shared bases and given random tails, so that
    duplicates, shared prefixes and unique tails all occur."""
    bases = draw(st.lists(st.lists(_STEPS, max_size=12), min_size=1, max_size=4))
    traces = []
    for _ in range(draw(st.integers(1, 30))):
        base = draw(st.sampled_from(bases))
        cut = draw(st.integers(0, len(base)))
        traces.append(("a", tuple(base[:cut] + draw(st.lists(_STEPS, max_size=6)))))
    return traces


_EPS_AL = st.one_of(st.floats(0.001, 0.27), st.floats(0.28, 1.0))


@settings(max_examples=100, deadline=None)
@given(traces=_samples())
def test_iofpta_edge_mass_counts_every_step(traces):
    tree = build_iofpta(traces)
    assert edge_mass(tree) == sum(len(steps) for _, steps in traces)


@settings(max_examples=100, deadline=None)
@given(traces=_samples(), eps_al=_EPS_AL)
def test_learned_model_conserves_mass_and_replays_its_sample(traces, eps_al):
    _assert_sample_replays(traces, run_ioalergia(traces, LearnerConfig(eps_al)))


@settings(max_examples=100, deadline=None)
@given(traces=_samples(), eps_al=_EPS_AL)
def test_learned_model_does_not_depend_on_key_identity(traces, eps_al):
    shared: dict = {}
    one_tuple_per_pair = [
        (init, tuple(shared.setdefault(step, step) for step in steps))
        for init, steps in traces
    ]
    fresh_tuples = [(init, tuple((a, o) for a, o in steps)) for init, steps in traces]
    steps = [step for _, trace_steps in fresh_tuples for step in trace_steps]
    assert len({id(step) for step in steps}) == len(steps)
    config = LearnerConfig(eps_al)
    shared_model = run_ioalergia(one_tuple_per_pair, config)
    fresh_model = run_ioalergia(fresh_tuples, config)
    assert model_to_dict(shared_model) == model_to_dict(fresh_model)
    assert list(shared_model.counts.items()) == list(fresh_model.counts.items())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["a", "b"]),
    st.lists(st.tuples(st.sampled_from(["x", "y"]), st.sampled_from([0.0, -0.0, 1.0]),
                       st.sampled_from(["a", "b", "c"])), max_size=8),
), max_size=6))
def test_observation_traces_share_one_tuple_per_pair(episodes):
    history = [RewardObservationTrace(init, 0.0, tuple(steps))
               for init, steps in episodes]
    traces = observation_traces(history)
    assert traces == [t.observation_part() for t in history]
    first: dict = {}
    for _, steps in traces:
        for pair in steps:
            assert first.setdefault(pair, pair) is pair


# ---------------------------------------------------------------------------
# compatible against the per-key test it replaced
# ---------------------------------------------------------------------------

_TWO_OVER_E2 = 2 / math.e**2


def _reference_compatible(r, b, eps_al):
    """compatible as first written for compressed tails: a key set per tested
    action of two expanded nodes, and at every tail step with a bound of at
    most 1 a scan over all keys of the other side."""
    scale = math.sqrt(0.5 * math.log(2.0 / eps_al))
    if r.label != b.label:
        return False
    pairs = [(r, b)]
    while pairs:
        r, b = pairs.pop()
        if r.steps is not None or b.steps is not None:
            if scale < 1.0 and not _reference_tail_compatible(r, b, scale):
                return False
            continue
        for action, n2 in b.totals.items():
            n1 = r.totals.get(action, 0)
            if n1 == 0 or n2 == 0:
                continue
            bound = scale * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            if bound <= 1.0:
                keys = {k for k in r.freq if k[0] == action}
                keys.update(k for k in b.freq if k[0] == action)
                for key in keys:
                    if abs(r.freq.get(key, 0) / n1 - b.freq.get(key, 0) / n2) >= bound:
                        return False
        for key, b_child in b.children.items():
            r_child = r.children.get(key)
            if r_child is not None and r_child is not b_child:
                if r_child.label != b_child.label:
                    return False
                pairs.append((r_child, b_child))
    return True


def _reference_tail_compatible(r, b, scale):
    tail, other = (b, r) if b.steps is not None else (r, b)
    steps = tail.steps
    for pos in range(tail.pos, len(steps)):
        if other.steps is not None:
            return True
        action, obs = steps[pos]
        key = (action, obs)
        n = other.totals.get(action, 0)
        if n:
            bound = scale * (1.0 / math.sqrt(n) + 1.0)
            if bound <= 1.0:
                if key not in other.freq:
                    return False
                for k, f in other.freq.items():
                    if k[0] == action and abs(f / n - (k == key)) >= bound:
                        return False
        other = other.children.get(key)
        if other is None:
            return True
    return True


# Above 2/e^2 a tail's bound reaches 1 from n = 3 (eps_al 1) to n = 40
# (eps_al 0.45); next to 2/e^2 that n is out of reach, and at and below it
# no tail bound reaches 1.
_EPS_AL_AROUND_TAIL_LIMIT = st.one_of(
    st.floats(0.001, 0.27),
    st.floats(0.45, 1.0),
    st.sampled_from([math.nextafter(_TWO_OVER_E2, 0.0), _TWO_OVER_E2,
                     math.nextafter(_TWO_OVER_E2, 1.0), 0.3]),
)


def _first_tail_n(eps_al, cap=40):
    """The least n <= cap whose tail bound is at most 1, else cap."""
    scale = math.sqrt(0.5 * math.log(2.0 / eps_al))
    return next((n for n in range(1, cap + 1)
                 if scale * (1.0 / math.sqrt(n) + 1.0) <= 1.0), cap)


@st.composite
def _tail_cases(draw):
    """eps_al, a sample of traces repeated about as often as the n where a
    tail's bound reaches 1, so that node counts fall on both sides of it, and
    a sample of single traces, whose tree is mostly tails."""
    eps_al = draw(_EPS_AL_AROUND_TAIL_LIMIT)
    around = _first_tail_n(eps_al)
    bases = draw(st.lists(st.lists(_STEPS, min_size=1, max_size=8),
                          min_size=1, max_size=4))
    repeated = []
    for base in bases:
        count = draw(st.integers(max(1, around - 3), around + 3))
        repeated += [("a", tuple(base))] * count
    singles = [("a", tuple(steps)) for steps in draw(
        st.lists(st.lists(_STEPS, min_size=1, max_size=8), min_size=1, max_size=6))]
    return eps_al, repeated, singles


def _first_nodes(tree, limit=16):
    nodes, queue = [], [tree.root]
    while queue and len(nodes) < limit:
        node = queue.pop(0)
        nodes.append(node)
        queue.extend(node.children.values())
    return nodes


@settings(max_examples=200, deadline=None)
@given(case=_tail_cases())
def test_compatible_matches_the_per_key_test(case):
    eps_al, repeated, singles = case
    nodes = _first_nodes(build_iofpta(repeated)) + _first_nodes(build_iofpta(singles))
    for r in nodes:
        for b in nodes:
            assert compatible(r, b, eps_al) == _reference_compatible(r, b, eps_al)


@settings(max_examples=100, deadline=None)
@given(case=_tail_cases(), other_eps_al=_EPS_AL_AROUND_TAIL_LIMIT)
def test_compatible_monotone_in_eps(case, other_eps_al):
    """Compatibility at some eps_al implies compatibility at any smaller
    eps_al, because every acceptance bound grows as eps_al shrinks."""
    eps_al, repeated, singles = case
    lo, hi = sorted((eps_al, other_eps_al))
    assume(lo < hi)
    nodes = _first_nodes(build_iofpta(repeated)) + _first_nodes(build_iofpta(singles))
    for r in nodes:
        for b in nodes:
            if compatible(r, b, hi):
                assert compatible(r, b, lo)


def _least_eps_al_with_tail_bound_at_most(high, n):
    """The least float eps_al above 2/e^2 whose tail bound against n is at
    most high; the bound falls as eps_al grows."""
    def bound(eps_al):
        return _bound_scale(eps_al) * (1.0 / math.sqrt(n) + 1.0)

    lo, hi = math.nextafter(_TWO_OVER_E2, 1.0), 1.0
    while math.nextafter(lo, 1.0) < hi:
        mid = (lo + hi) / 2
        if bound(mid) > high:
            lo = mid
        else:
            hi = mid
    return hi, bound(hi)


def test_compatible_keeps_the_float_rounding_of_the_per_key_test():
    """Where 1 - f0/n and (n - f0)/n round apart and the bound falls between
    them, the own key's 1 - f0/n and the other key's f/n decide."""
    tree = build_iofpta([_trace("a", ("y", "a"), ("x", "b"))])
    tail = tree.root.children[("y", "a")]
    decided_by = set()
    for n in range(2, 41):
        for f0 in range(1, n):
            own, rest = 1.0 - f0 / n, (n - f0) / n
            if own == rest:
                continue
            eps_al, bound = _least_eps_al_with_tail_bound_at_most(max(own, rest), n)
            if not min(own, rest) < bound <= max(own, rest):
                continue
            other = build_iofpta([_trace("a", ("x", "b"))] * f0
                                 + [_trace("a", ("x", "c"))] * (n - f0)).root
            assert not _reference_compatible(other, tail, eps_al)
            assert not compatible(other, tail, eps_al)
            assert not compatible(tail, other, eps_al)
            decided_by.add("other key" if rest > own else "own key")
    assert decided_by == {"own key", "other key"}


# ---------------------------------------------------------------------------
# run_ioalergia against a plain IOAlergia
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from([n for n in ENVIRONMENT_NAMES if n != "grid"]),
       n_traces=st.integers(1, 40), length=st.integers(0, 15),
       repeats=st.lists(st.sampled_from([1, 1, 2, 5, 12]), min_size=1, max_size=8),
       seed=st.integers(0, 2**32), eps_al=_EPS_AL_AROUND_TAIL_LIMIT)
def test_run_ioalergia_matches_a_plain_ioalergia(name, n_traces, length, repeats, seed,
                                                 eps_al):
    """Whole learned models equal those of `reference_ioalergia`, which
    expands every tree node, on uniform-random POMDP samples whose traces
    repeat, with eps_al on both sides of 2/e^2."""
    traces = sample_pomdp_traces(make_environment(name).pomdp, n_traces, length, seed)
    sample = [trace for i, trace in enumerate(traces)
              for _ in range(repeats[i % len(repeats)])]
    model = run_ioalergia(sample, LearnerConfig(eps_al))
    assert model_to_dict(model) == reference_ioalergia(sample, eps_al)


# ---------------------------------------------------------------------------
# tracker and replay on learned models, against reference code
# ---------------------------------------------------------------------------

# Action "z" is never in a learning sample, so this episode leaves the model
# by its second step and stays undefined for the two steps after it.
_UNDEFINED_EPISODE = ("a", (("x", "a"), ("z", "b"), ("x", "a"), ("y", "c")))


def _reference_step(key, action, obs, model):
    """step_to read off model.trans and model.label directly."""
    _, state, defined = key
    if defined:
        for succ, p in model.trans.get((state, action), {}).items():
            if p > 0 and model.label[succ] == obs:
                return (obs, succ, True)
    return (obs, state, False)


def _reference_replay(q, model, history, alpha, gamma):
    """replay with a fresh ExtendedState built at every step, starting from
    each episode's own initial observation."""
    for episode in history:
        ext = ExtendedState(episode.initial_obs, model.initial, True)
        for action, reward, obs in episode.steps:
            nxt = ExtendedState(*_reference_step(ext, action, obs, model))
            update_q_values(q, ext, action, reward, nxt, alpha, gamma)
            ext = nxt


@st.composite
def _model_and_history(draw):
    """A model learned from one sample, and a rewarded history that mixes
    that sample with another one and an episode that leaves the model."""
    model = run_ioalergia(draw(_samples()), LearnerConfig(draw(_EPS_AL)))
    rewards = st.sampled_from([0.0, -0.0, 1.0, -2.5, 100.0])
    traces = draw(_samples())
    traces.insert(draw(st.integers(0, len(traces))), _UNDEFINED_EPISODE)
    history = [
        RewardObservationTrace(init, draw(rewards),
                               tuple((a, draw(rewards), o) for a, o in steps))
        for init, steps in traces
    ]
    return model, history


@settings(max_examples=100, deadline=None)
@given(case=_model_and_history())
def test_step_to_matches_a_walk_over_trans_and_label(case):
    model, history = case
    undefined = 0
    for episode in history:
        tracker = reset_to_initial(model)
        expected = (episode.initial_obs, model.initial, True)
        assert tracker == expected
        for action, _, obs in episode.steps:
            prev, tracker = tracker, step_to(tracker, action, obs, model)
            expected = _reference_step(expected, action, obs, model)
            assert tracker == expected
            if tracker.defined:  # the model's shared object for that step
                assert step_to(prev, action, obs, model) is tracker
            undefined += not tracker.defined
    assert undefined > 0


@settings(max_examples=100, deadline=None)
@given(case=_model_and_history(), alpha=st.sampled_from([0.1, 0.5, 1.0]),
       gamma=st.sampled_from([0.0, 0.9, 0.99]))
def test_replay_matches_a_replay_that_builds_every_key(case, alpha, gamma):
    model, history = case
    actions = ("x", "y", "z")
    fast, reference = QTable(actions), QTable(actions)
    replay(fast, model, history, alpha, gamma)
    _reference_replay(reference, model, history, alpha, gamma)
    assert list(fast._rows.items()) == list(reference._rows.items())
