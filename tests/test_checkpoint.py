import string

import pytest
from hypothesis import given, strategies as st

from poql.beliefs import build_belief_mdp
from poql.checkpoint import (
    config_hash,
    model_from_dict,
    model_to_dict,
    qtable_from_rows,
    qtable_rows,
)
from poql.agent import ExtendedState, QTable, update_q_values
from poql.envs import hot_beverage_world
from poql.learn import run_ioalergia

from helpers import sample_pomdp_traces


def test_learned_model_roundtrip_preserves_counts():
    world = hot_beverage_world()
    model = run_ioalergia(sample_pomdp_traces(world.pomdp, 2000, 5, seed=1))
    back = model_from_dict(model_to_dict(model))
    assert back.states == model.states
    assert back.label == dict(model.label)
    assert back.trans == dict(model.trans)
    assert back.counts == dict(model.counts)


def test_exact_belief_model_roundtrip_without_counts(beverage_world):
    """`model.json` encodes edge counts only, so a model without counts (an
    exact belief model) is refused rather than written in another encoding."""
    model = build_belief_mdp(beverage_world.pomdp).model
    assert model.counts is None
    with pytest.raises(ValueError, match="no edge counts"):
        model_to_dict(model)


def test_qtable_rows_roundtrip_exact_floats():
    q = QTable(("coin", "button"))
    update_q_values(q, ExtendedState("beep", 2, True), "coin", 1.23456789e-3, "x", 0.7, 0.99)
    update_q_values(q, ExtendedState("beep", 2, False), "button", -7.25, "x", 1.0, 0.0)
    update_q_values(q, "rawobs", "coin", 3.0, "y", 0.5, 0.9)
    rows = qtable_rows(q)
    assert all(len(r.split(",")) == 5 for r in rows)
    back = qtable_from_rows(rows, ("coin", "button"))
    assert back._rows == q._rows


_names = st.text(alphabet=string.ascii_letters + string.digits + "_-.", min_size=1, max_size=4)
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e300, float("inf"), float("-inf")]),
    st.floats(allow_nan=False),
)


@st.composite
def _qtables(draw):
    """Q-tables over extended and raw-observation keys with extreme values."""
    actions = tuple(draw(st.lists(_names, min_size=1, max_size=4, unique=True)))
    keys = st.one_of(
        st.builds(ExtendedState, _names, st.integers(-10**9, 10**9), st.booleans()),
        _names,
    )
    rows = draw(st.dictionaries(keys, st.lists(_values, min_size=len(actions),
                                               max_size=len(actions)), max_size=6))
    q = QTable(actions)
    q._rows.update(rows)
    return q


@given(_qtables())
def test_qtable_rows_roundtrip_property(q):
    rows = qtable_rows(q)
    back = qtable_from_rows(rows, q.actions)
    assert {k: list(map(repr, v)) for k, v in back._rows.items()} == {
        k: list(map(repr, v)) for k, v in q._rows.items()}
    assert qtable_rows(back) == rows


def test_qtable_from_rows_skips_comments_and_numbers_bad_rows():
    rows = ["# config_hash=0", "", "rawobs,-,-,coin,3.0", "rawobs,-,-,tea,1.0"]
    with pytest.raises(ValueError, match=r"^4: malformed Q-table row 'rawobs,-,-,tea,1.0'$"):
        qtable_from_rows(rows, ("coin", "button"))
    assert qtable_from_rows(rows[:3], ("coin", "button"))._rows == {"rawobs": [3.0, 0.0]}


def test_config_hash_ignores_output_dir_only():
    base = {"seed": 1, "agent": "poql", "output_dir": "a"}
    assert config_hash(base) == config_hash({**base, "output_dir": "b"})
    assert config_hash(base) != config_hash({**base, "seed": 2})
