import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsched.model import (
    AsymptoticInstance,
    Instance,
    StateIndexer,
    exceedance_count,
    exclusion_state,
    instance_from_json,
    slot_cost,
    step_distribution,
    successor_on_failure,
    successor_on_success,
    transition_tables,
)

taus_strategy = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(tuple)


def test_instance_rejects_bad_data():
    with pytest.raises(ValueError):
        Instance((0,), (0.5,), 0.1)
    with pytest.raises(ValueError):
        Instance((2,), (1.0,), 0.1)
    with pytest.raises(ValueError):
        Instance((2,), (0.0,), 0.1)
    with pytest.raises(ValueError):
        Instance((2,), (0.5,), 0.0)
    with pytest.raises(ValueError):
        Instance((2, 2), (0.5,), 0.1)
    with pytest.raises(ValueError):
        Instance((2,), (0.5,), math.inf)
    with pytest.raises(ValueError):
        AsymptoticInstance((2,), (1.0,), 0.1, math.inf)
    # an integral JSON number is a threshold; the malformed JSON fields are CLI test inputs
    assert instance_from_json({"taus": [2.0], "ps": [0.5], "theta": 1}).thresholds == (2,)


def test_instance_state_spaces_stop_where_numpys_tables_do():
    # the (client, state) int64 tables need fewer than 2**60 entries; memory rules below that
    assert Instance((30,) * 8, (0.99,) * 8, 0.05).total_states == 31**8
    assert Instance((1,) * 54, (0.9,) * 54, 0.05).total_states == 2**54  # 54 * 2**54 entries
    assert Instance((2**60 - 2,), (0.9,), 0.05).total_states == 2**60 - 1
    for taus in ((1,) * 55, (1,) * 63, (2**60 - 1,)):
        with pytest.raises(ValueError, match="past the range of numpy's"):
            Instance(taus, (0.9,) * len(taus), 0.05)


def test_asymptotic_instance_materializes_reliabilities():
    ai = AsymptoticInstance((3, 5), (2.0, 1.0), 0.01, 0.05)
    inst = ai.materialize()
    assert inst.reliabilities == (1.0 - 0.02, 1.0 - 0.01)
    assert inst.thresholds == (3, 5)
    with pytest.raises(ValueError):
        AsymptoticInstance((3,), (2.0,), 0.5, 0.05)  # b * eps = 1 kills p


def test_successor_on_success_examples():
    assert successor_on_success((2, 4), 1, (3, 5)) == (0, 5)
    assert successor_on_success((3, 5), 2, (3, 5)) == (3, 0)
    assert successor_on_success((2, 4), 1) == (0, 5)
    with pytest.raises(ValueError):
        successor_on_success((2, 4), 3, (3, 5))


def test_step_distribution_examples():
    inst = Instance((3, 5), (0.4, 0.1), 0.01)
    d = step_distribution((1, 2), 2, inst)
    assert (d.success_state, d.success_prob) == ((2, 0), 0.1)
    assert (d.failure_state, d.failure_prob) == ((2, 3), 0.9)

    d = step_distribution((3, 4), 1, inst)
    assert d.success_state == (0, 5)
    assert d.failure_state == (3, 5)

    single = Instance((2,), (0.7,), 0.01)
    d = step_distribution((2,), 1, single)
    assert d.success_state == (0,)
    assert d.failure_state == (2,)


def test_slot_cost_examples():
    inst = Instance((3, 5), (0.4, 0.1), 0.01)
    assert slot_cost((1, 2), inst) == 1.0
    assert slot_cost((3, 5), inst) == pytest.approx(math.exp(0.02), rel=1e-15)
    assert slot_cost((3, 1), inst) == pytest.approx(math.exp(0.01), rel=1e-15)
    assert exceedance_count((3, 1), (3, 5)) == 1


@given(taus_strategy)
@settings(max_examples=50, deadline=None)
def test_indexer_round_trip(taus):
    indexer = StateIndexer(taus)
    for i in range(indexer.total_states):
        assert indexer.index(indexer.deindex(i)) == i
    states = list(indexer.states())
    assert [indexer.index(s) for s in states] == list(range(indexer.total_states))
    assert states == sorted(states)  # index order is lexicographic


@given(taus_strategy, st.integers(min_value=0, max_value=10**6), st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_step_distribution_is_a_distribution(taus, pick, p):
    inst = Instance(taus, (p,) * len(taus), 0.05)
    indexer = inst.indexer()
    x = indexer.deindex(pick % indexer.total_states)
    for u in range(1, inst.n_clients + 1):
        d = step_distribution(x, u, inst)
        assert d.success_prob + d.failure_prob == 1.0
        for state in (d.success_state, d.failure_state):
            assert all(0 <= v <= t for v, t in zip(state, taus))


def test_clipping_commutes_with_unbounded_successors():
    taus = (2, 3)
    indexer = StateIndexer(taus)
    for x in indexer.states():
        for u in (1, 2):
            unclipped = successor_on_success(x, u)
            clipped = tuple(min(v, t) for v, t in zip(unclipped, taus))
            assert clipped == successor_on_success(x, u, taus)
        assert tuple(min(v, t) for v, t in zip(successor_on_failure(x), taus)) == successor_on_failure(x, taus)


def test_slot_cost_at_least_one_iff_threshold_hit():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    for x in inst.indexer().states():
        c = slot_cost(x, inst)
        assert c >= 1.0
        assert (c == 1.0) == (exceedance_count(x, inst.thresholds) == 0)


def test_exclusion_state():
    assert exclusion_state((2, 3), 1) == (0, 3)
    assert exclusion_state((2, 3), 2) == (2, 0)
    assert exclusion_state((4,), 1) == (0,)


def test_instances_read_from_json_with_fixed_field_names():
    # a JSON string or its dict; the asymptotic form has "bs"
    fixed = {"taus": [3, 5], "ps": [0.4, 0.1], "theta": 0.01}
    assert instance_from_json(json.dumps(fixed)) == instance_from_json(fixed) == Instance((3, 5), (0.4, 0.1), 0.01)

    asymptotic = {"taus": [3, 5], "bs": [2.0, 1.0], "epsilon": 0.001, "theta": 0.01}
    expected = AsymptoticInstance((3, 5), (2.0, 1.0), 0.001, 0.01)
    assert instance_from_json(json.dumps(asymptotic)) == instance_from_json(asymptotic) == expected


def test_transition_tables_agree_with_tuple_operations():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    tables = transition_tables(inst.thresholds)
    indexer = tables.indexer
    for x in indexer.states():
        i = indexer.index(x)
        assert indexer.deindex(int(tables.fail[i])) == successor_on_failure(x, inst.thresholds)
        for u in (1, 2):
            assert indexer.deindex(int(tables.succ[i, u - 1])) == successor_on_success(x, u, inst.thresholds)
        assert int(tables.hits[i]) == exceedance_count(x, inst.thresholds)
