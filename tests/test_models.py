import re
import tempfile
from fractions import Fraction
from math import copysign
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from poql.beliefs import build_belief_mdp
from poql.learn import observation_traces
from poql.models import (
    DeterministicLabeledMdp,
    Mdp,
    Pomdp,
    ExtendedState,
    RewardObservationTrace,
    dlmdp_to_dot,
    format_trace,
    parse_trace,
    read_trace_file,
    reset_to_initial,
    step_to,
    write_trace_file,
)

from helpers import discounted_return, isomorphic, observation_part, reachable_states, rewards


# ---------------------------------------------------------------------------
# discounted_return
# ---------------------------------------------------------------------------

def test_discounted_return_direct_substitution():
    assert discounted_return([9.0, 0.0, 0.0, 1.0], 0, 0.5) == 0.25


def test_discounted_return_gamma_zero_takes_next_reward():
    assert discounted_return([1.0, 7.0, 3.0], 0, 0.0) == 7.0


def test_discounted_return_gamma_one_is_plain_sum():
    assert discounted_return([1.0, 2.0, 3.0, 4.0], 1, 1.0) == 7.0


def test_discounted_return_index_error():
    with pytest.raises(IndexError):
        discounted_return([1.0, 2.0], 2, 0.5)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=20))
def test_discounted_return_extremes(rewards):
    assert discounted_return(rewards, 0, 1.0) == pytest.approx(sum(rewards[1:]))
    assert discounted_return(rewards, 0, 0.0) == rewards[1]


# ---------------------------------------------------------------------------
# tracker
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def beverage_belief_model(beverage_world):
    return build_belief_mdp(beverage_world.pomdp).model


def test_reset_to_initial(beverage_belief_model):
    assert reset_to_initial(beverage_belief_model) == ExtendedState("init", 0, True)


def test_step_to_defined(beverage_belief_model):
    t = reset_to_initial(beverage_belief_model)
    t = step_to(t, "coin", "beep", beverage_belief_model)
    assert t.defined and beverage_belief_model.label[t.state] == "beep"


def test_step_to_mismatch_sets_flag(beverage_belief_model):
    t = reset_to_initial(beverage_belief_model)
    t2 = step_to(t, "coin", "coffee", beverage_belief_model)
    assert t2 == ExtendedState("coffee", t.state, False)


def test_step_to_undefined_is_absorbing(beverage_belief_model):
    t = ExtendedState("beep", 2, False)
    for action, obs in [("coin", "beep"), ("button", "tea"), ("coin", "init")]:
        t = step_to(t, action, obs, beverage_belief_model)
        assert t == ExtendedState(obs, 2, False)


def test_step_to_label_agrees_with_observation(beverage_belief_model):
    model = beverage_belief_model
    for s in model.states:
        for a in model.actions:
            for succ, p in model.successors(s, a).items():
                key = ExtendedState(model.label[s], s, True)
                t = step_to(key, a, model.label[succ], model)
                assert t.defined
                assert model.label[t.state] == t.obs == model.label[succ]


def test_step_to_replay_is_deterministic(beverage_belief_model):
    model = beverage_belief_model
    steps = [("coin", "beep"), ("coin", "beep"), ("button", "tea"), ("coin", "init")]

    def run():
        t = reset_to_initial(model)
        seq = [t]
        for a, o in steps:
            t = step_to(t, a, o, model)
            seq.append(t)
        return seq

    assert run() == run()


# ---------------------------------------------------------------------------
# traces and the trace file format
# ---------------------------------------------------------------------------

def test_trace_observation_part():
    rt = RewardObservationTrace("init", 0.0, (("coin", 0.0, "beep"), ("button", 100.0, "tea")))
    assert observation_part(rt) == ("init", (("coin", "beep"), ("button", "tea")))
    assert observation_traces([rt]) == [observation_part(rt)]
    assert rewards(rt) == [0.0, 0.0, 100.0]


def test_trace_format_line():
    rt = RewardObservationTrace("init", 0.0, (("coin", 0.0, "beep"),))
    assert format_trace(rt) == "init:0.0;coin:0.0:beep"
    assert parse_trace(format_trace(rt)) == rt


def test_trace_file_roundtrip(tmp_path):
    traces = [
        RewardObservationTrace("a", 0.0, (("go", 1.5, "b"), ("go", -2.0, "a"))),
        RewardObservationTrace("a", 0.25, ()),
    ]
    path = tmp_path / "traces.txt"
    write_trace_file(traces, path)
    assert read_trace_file(path) == traces


def test_trace_rejects_bad_symbols():
    with pytest.raises(ValueError):
        format_trace(RewardObservationTrace("a:b", 0.0, ()))
    with pytest.raises(ValueError):
        RewardObservationTrace("", 0.0, ())


def test_read_trace_file_names_the_bad_line(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text("a:0.0;go:1.0:b\n\na:0.0;x:y\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: malformed trace step 'x:y'$"):
        read_trace_file(path)
    path.write_text("a:0.0\na:0.0;go:1.0:b c\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: invalid symbol 'b c'"):
        read_trace_file(path)
    path.write_bytes(b"a:0.0;go:1.0:\xff\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'ascii' codec"):
        read_trace_file(path)


def test_read_trace_file_shares_equal_steps(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text("a:0.0;go:1.0:b;go:1.0:b\na:0.0;go:1.0:b\n")
    first, second = read_trace_file(path)
    assert first.steps[0] is first.steps[1] is second.steps[0]


def test_trace_file_keeps_the_sign_of_zero(tmp_path):
    path = tmp_path / "traces.txt"
    for x, y in ((0.0, -0.0), (-0.0, 0.0)):
        traces = [
            RewardObservationTrace("s", x, (("a", x, "o"), ("a", y, "o"))),
            RewardObservationTrace("s", y, (("a", y, "o"), ("a", x, "o"))),
        ]
        write_trace_file(traces, path)
        assert path.read_text() == (
            f"s:{x!r};a:{x!r}:o;a:{y!r}:o\ns:{y!r};a:{y!r}:o;a:{x!r}:o\n")
        back = read_trace_file(path)
        assert [repr(r) for t in back for r in rewards(t)] == [
            repr(x), repr(x), repr(y), repr(y), repr(y), repr(x)]


def test_write_trace_file_keeps_the_previous_file_on_failure(tmp_path, monkeypatch):
    """A write that fails midway or at the replace keeps the previous bytes
    and leaves no temp file."""
    import os

    path = tmp_path / "traces.txt"
    good = [RewardObservationTrace("a", 0.0, (("go", 1.0, "b"),))]
    write_trace_file(good, path)
    before = path.read_bytes()
    bad = RewardObservationTrace("a", 0.0, (("go", 1.0, "b c"),))
    with pytest.raises(ValueError, match="invalid symbol"):
        write_trace_file([*good, *good, bad], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traces.txt"]

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write_trace_file(good * 3, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traces.txt"]


_SYMBOL_CHARS = "".join(c for c in map(chr, range(33, 127)) if c not in ";:,|")
_symbols = st.text(alphabet=_SYMBOL_CHARS, min_size=1, max_size=3)
_rewards = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, -7, True, Fraction(1, 4), 5e-324, -5e-324,
                     1e-300, 1e300, -1.7976931348623157e308]),
    st.floats(),
    st.integers(-10**6, 10**6),
)


@st.composite
def _trace_lists(draw):
    """Episodes over a small pool of steps, so that most steps repeat.

    Every zero-reward step also enters the pool with the zero of the other
    sign: the two compare equal but print differently.
    """
    pool = draw(st.lists(st.tuples(_symbols, _rewards, _symbols), min_size=1, max_size=6))
    pool += [(a, -copysign(0.0, r), o) for a, r, o in pool if r == 0]
    steps = st.lists(st.sampled_from(pool), max_size=8).map(tuple)
    return draw(st.lists(st.builds(RewardObservationTrace, _symbols, _rewards, steps),
                         max_size=6))


def _plain_line(trace) -> str:
    """The trace file line of one episode, spelled out without the codec."""
    head = f"{trace.initial_obs}:{float(trace.initial_reward)!r}"
    return ";".join([head, *(f"{a}:{float(r)!r}:{o}" for a, r, o in trace.steps)])


def _reprs(trace):
    return (trace.initial_obs, repr(float(trace.initial_reward)),
            [(a, repr(float(r)), o) for a, r, o in trace.steps])


@given(_trace_lists())
def test_trace_file_roundtrip_property(traces):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.txt"
        write_trace_file(traces, path)
        text = path.read_text()
        back = read_trace_file(path)
    assert text == "".join(format_trace(t) + "\n" for t in traces)
    assert text == "".join(_plain_line(t) + "\n" for t in traces)
    assert [_reprs(t) for t in back] == [_reprs(t) for t in traces]


_bad_symbols = st.sampled_from(["a b", "a|b", "a,b", "\tx", "", "x;y", "p:q"])


@given(_trace_lists(), st.data())
def test_trace_codec_rejects_a_bad_symbol_wherever_it_first_appears(traces, data):
    traces = [t for t in traces if t.steps]
    if not traces:
        return
    i = data.draw(st.integers(0, len(traces) - 1))
    j = data.draw(st.integers(0, len(traces[i].steps) - 1))
    field = data.draw(st.sampled_from([0, 2]))
    bad = data.draw(_bad_symbols)
    step = list(traces[i].steps[j])
    step[field] = bad
    steps = list(traces[i].steps)
    steps[j] = tuple(step)
    broken = RewardObservationTrace(traces[i].initial_obs, traces[i].initial_reward,
                                    tuple(steps))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.txt"
        with pytest.raises(ValueError):
            write_trace_file([*traces[:i], broken, *traces[i:]], path)
        if bad and not set(bad) & set(";:\n"):
            # The same line in a file that the writer would refuse.
            lines = [_plain_line(t) for t in traces]
            lines.insert(i, _plain_line(broken))
            path.write_text("".join(line + "\n" for line in lines))
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{i + 1}: invalid symbol"):
                read_trace_file(path)


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_mdp_requires_total_delta():
    with pytest.raises(ValueError, match="total"):
        Mdp((0, 1), 0, ("a",), {(0, "a"): {1: 1}})


def test_mdp_refuses_an_empty_action_tuple():
    # An agent has nothing to choose from, so the first episode would never end.
    with pytest.raises(ValueError, match="at least one action"):
        Mdp((0,), 0, (), {})


def test_mdp_rejects_bad_distribution():
    with pytest.raises(ValueError, match="sums"):
        Mdp((0,), 0, ("a",), {(0, "a"): {0: 0.5}})


def test_pomdp_requires_total_obs_fn(beverage_world):
    mdp = beverage_world.pomdp.mdp
    with pytest.raises(ValueError, match="total"):
        Pomdp(mdp, {0: "x"}, {}, frozenset())


def test_dlmdp_rejects_label_nondeterminism():
    with pytest.raises(ValueError, match="determinism"):
        DeterministicLabeledMdp(
            initial=0,
            actions=("a",),
            label={0: "s", 1: "t", 2: "t"},
            trans={(0, "a"): {1: Fraction(1, 2), 2: Fraction(1, 2)}},
        )


def test_dlmdp_allows_partial_transitions():
    m = DeterministicLabeledMdp(
        initial=0,
        actions=("a", "b"),
        label={0: "s", 1: "t"},
        trans={(0, "a"): {1: 1}},
    )
    assert step_to(reset_to_initial(m), "a", "t", m) == ExtendedState("t", 1, True)
    assert step_to(reset_to_initial(m), "b", "t", m) == ExtendedState("t", 0, False)
    assert reachable_states(m) == [0, 1]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_dot_export_shape(beverage_belief_model):
    dot = dlmdp_to_dot(beverage_belief_model)
    assert dot.startswith("digraph model {")
    assert '  s0 [label="0|init"];' in dot
    assert '  s0 -> s1 [label="coin:1.0000"];' in dot
    assert dot == dlmdp_to_dot(beverage_belief_model)


def test_empty_model_cannot_exist():
    with pytest.raises(ValueError):
        DeterministicLabeledMdp(0, (), {}, {})


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def _two_state(prob: Fraction):
    return DeterministicLabeledMdp(
        initial=0,
        actions=("go",),
        label={0: "a", 1: "b"},
        trans={(0, "go"): {1: prob, 0: 1 - prob}, (1, "go"): {0: 1}},
    )


def test_isomorphic_to_itself(beverage_belief_model):
    assert isomorphic(beverage_belief_model, beverage_belief_model)


def test_isomorphic_under_relabeling(beverage_belief_model):
    m = beverage_belief_model
    perm = {s: (s + 1) % len(m.states) for s in m.states}
    relabeled = DeterministicLabeledMdp(
        initial=perm[m.initial],
        actions=m.actions,
        label={perm[s]: m.label[s] for s in m.states},
        trans={(perm[s], a): {perm[q]: p for q, p in dist.items()}
               for (s, a), dist in m.trans.items()},
    )
    assert isomorphic(m, relabeled)


def test_isomorphic_respects_probability_tolerance():
    m1 = _two_state(Fraction(9, 10))
    m2 = _two_state(Fraction(88, 100))
    assert not isomorphic(m1, m2, prob_tol=0.01)
    assert isomorphic(m1, m2, prob_tol=0.03)


def test_isomorphic_detects_structure_mismatch(beverage_belief_model):
    assert not isomorphic(beverage_belief_model, _two_state(Fraction(1, 2)))
