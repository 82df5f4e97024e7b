import dataclasses
import math

import numpy as np
import pytest

from dense_oracle import cycle_expectations
from paper_oracle import is_ne, mlg_cost_leading, mlg_decide, mlg_optimality_check, optimal_cost_lower_bound

from idsched.asymptotic import (
    _excess_tables,
    build_level_sets,
    mlg_stationary_policy,
    sn_policy,
)
from idsched.exact import (
    StationaryPolicy,
    chain_average_costs,
    growth_rate_optimal,
    stationary_chain,
)
from idsched.model import AsymptoticInstance, Instance, exclusion_state, transition_tables


def test_mlg_decide_examples():
    assert mlg_decide((0, 1), (3, 5)) == 2  # override state
    assert mlg_decide((1, 0), (3, 5)) == 1  # 2 slots to go vs 5
    assert mlg_decide((2, 4), (3, 5)) == 2  # tie goes to the larger threshold


def test_mlg_policy_decides_as_mlg_decide_in_every_state():
    for tau1 in range(1, 8):
        for tau2 in range(tau1, 12):
            inst = Instance((tau1, tau2), (0.9, 0.9), 0.1)
            want = [mlg_decide(state, inst.thresholds) for state in inst.indexer().states()]
            assert mlg_stationary_policy(inst).decisions.tolist() == want


def test_mlg_policy_is_total_and_non_exclusionary():
    for tau in range(1, 7):
        for delta in range(5):
            inst = Instance((tau, tau + delta), (0.9, 0.9), 0.05)
            pol = mlg_stationary_policy(inst)
            pol.validate(inst)
            assert is_ne(pol, inst)


def test_mlg_cost_leading_cases():
    lead = mlg_cost_leading(AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01))
    assert lead.order == 2
    assert lead.case_tag == "delta>=2"
    assert lead.coefficient == pytest.approx(math.expm1(0.01) / 0.02 * 4, rel=1e-12)
    assert lead.evaluate(0.01) == pytest.approx(2.010e-4, rel=1e-3)

    # equal coefficients collapse the one-gap sum to tau equal terms
    lead1 = mlg_cost_leading(AsymptoticInstance((4, 5), (1.5, 1.5), 1e-3, 0.05))
    assert lead1.coefficient == pytest.approx(
        math.expm1(0.05) / 0.1 * 4 * 1.5**3, rel=1e-12
    )

    # no gap, tau=2: the middle sum is empty
    lead0 = mlg_cost_leading(AsymptoticInstance((2, 2), (2.0, 3.0), 1e-3, 0.05))
    assert lead0.coefficient == pytest.approx((2.0 + 3.0) / 0.1 * (math.e**2 - 1), rel=1e-12)


def test_lower_bound_cases():
    bound = optimal_cost_lower_bound(AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01))
    # min of 4/2, (4+2)/3, (4+2+3)/4
    assert bound.coefficient == pytest.approx(math.expm1(0.01) / 0.01 * 2.0, rel=1e-12)

    inst1 = AsymptoticInstance((4, 5), (1.5, 1.5), 1e-3, 0.05)
    bound1 = optimal_cost_lower_bound(inst1)
    assert bound1.coefficient == pytest.approx(mlg_cost_leading(inst1).coefficient, rel=1e-12)


def test_lower_bound_never_exceeds_mlg_cost():
    rng = np.random.default_rng(8)
    for _ in range(50):
        tau, delta = int(rng.integers(2, 6)), int(rng.integers(0, 5))
        bs = float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))
        inst = AsymptoticInstance((tau, tau + delta), bs, 1e-3, float(rng.uniform(0.005, 0.2)))
        assert optimal_cost_lower_bound(inst).coefficient <= mlg_cost_leading(inst).coefficient * (1 + 1e-12)


def test_mlg_optimality_check_cases():
    assert mlg_optimality_check(AsymptoticInstance((3, 3), (5.0, 1.0), 1e-3, 0.01)) == (True, "i")
    assert mlg_optimality_check(AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01)) == (True, "iii")  # boundary
    assert mlg_optimality_check(AsymptoticInstance((3, 4), (3.0, 1.0), 1e-3, 0.01)) == (False, None)


@pytest.mark.parametrize(
    "thresholds, bs",
    [((3, 4, 5), (1.0, 1.0, 1.0)), ((5, 3), (1.0, 1.0)), ((1, 3), (1.0, 1.0))],
    ids=["three-clients", "reversed-thresholds", "tau1-below-2"],
)
@pytest.mark.parametrize("closed_form", [mlg_cost_leading, optimal_cost_lower_bound, mlg_optimality_check])
def test_closed_forms_need_two_clients_in_threshold_order_and_tau1_at_least_2(thresholds, bs, closed_form):
    with pytest.raises(ValueError):
        closed_form(AsymptoticInstance(thresholds, bs, 1e-3, 0.01))


def _window(x, inst):
    """The all-success window's excess at state ``x``."""
    return float(_excess_tables(inst.thresholds, inst.theta)[inst.indexer().index(x)])


def test_all_success_excess_examples():
    inst = Instance((6, 7), (0.9, 0.9), 0.1)
    assert _window((1, 1), inst) == 0.0  # thresholds unreachable within the window
    assert _window((1, 1), Instance((2, 2), (0.9, 0.9), 0.1)) == pytest.approx(math.expm1(0.1), rel=1e-12)
    assert _window((1,), Instance((1,), (0.9,), 0.3)) == pytest.approx(math.expm1(0.3), rel=1e-12)


def test_level_sets_partition_and_membership():
    inst = Instance((3, 5), (0.99, 0.99), 0.01)
    levels = build_level_sets(inst)
    indexer = inst.indexer()
    sizes = sum(len(members) for members in levels.levels)
    assert sizes + len(levels.unplaced) == inst.total_states
    seen = set()
    for members in levels.levels:
        assert not (seen & members)
        seen |= members
    # zeroth level is exactly the states with positive window excess,
    # and contains every state with a component at threshold
    for x in indexer.states():
        idx = indexer.index(x)
        assert (idx in levels.levels[0]) == (_excess_tables(inst.thresholds, inst.theta)[idx] > 0.0)
        if any(v == t for v, t in zip(x, inst.thresholds)):
            assert idx in levels.levels[0]
    # seeding rule: an ungraded state whose failure successor sits one level
    # down joins the next level
    tables = transition_tables(inst.thresholds)
    for k in range(1, len(levels.levels)):
        z = set().union(*levels.levels[:k])
        for idx in range(inst.total_states):
            if idx not in z and int(tables.fail[idx]) in levels.levels[k - 1]:
                assert idx in levels.levels[k]


@pytest.mark.parametrize("taus", [(2, 3, 4), (4, 6, 8), (2, 2, 3, 3), (3, 4, 5, 6)])
def test_level_sets_are_seeded_and_closed_on_many_clients(taus):
    inst = Instance(taus, (0.9,) * len(taus), 0.05)
    levels = build_level_sets(inst)
    tables = transition_tables(inst.thresholds)
    level_of = {}
    for k, members in enumerate(levels.levels):
        for s in members:
            assert s not in level_of  # levels are disjoint
            level_of[s] = k
    assert not set(level_of) & levels.unplaced
    assert set(level_of) | levels.unplaced == set(range(inst.total_states))

    def graded_by(s, j):
        return s in level_of and level_of[s] <= j

    for s in range(inst.total_states):
        succs = [int(t) for t in tables.succ[s]]
        fail = int(tables.fail[s])
        k = level_of.get(s)
        if k is not None and k >= 1:
            # a level-k state is seeded by its failure successor or closed over its success successors
            assert level_of.get(fail) == k - 1 or all(graded_by(t, k) for t in succs)
        for j in range(1, len(levels.levels)):
            if k is None or k > j:
                # nothing the grading of level j should have taken is left above it
                assert level_of.get(fail) != j - 1 or graded_by(s, j - 1)
                assert not all(graded_by(t, j) for t in succs)


def test_level_sets_are_parallel_arrays_over_every_state():
    inst = Instance((2, 2), (0.9, 0.9), 0.1)
    _, levels = sn_policy(inst)
    assert {getattr(levels, name).shape for name in ("level", "a", "decision")} == {(9,)}
    assert sorted(i for members in levels.levels for i in members) == list(range(9))
    assert (levels.decision > 0).all()
    assert levels.unplaced == frozenset()


def _sn_oracle(inst, jacobi=False):
    """SN built one state at a time from the model: ``(decisions, a, remain)``, with dicts keyed by state.

    Level 0 takes its excess and the action whose success successor has the
    least excess.  Each later level settles its states in ascending passes,
    deep states (deepest success successor below the level) first; states
    left on within-level cycles go to ``n - 1`` in-order relaxation sweeps,
    or, with ``jacobi``, simultaneous ones.  Ties go to the first client by
    a strict ``<`` scan.  The coefficients are the failure rates 1 - p_n.
    """
    coefficients = tuple(1.0 - p for p in inst.reliabilities)
    n = inst.n_clients
    tables = transition_tables(inst.thresholds)
    level_of = build_level_sets(inst).level
    excess = _excess_tables(inst.thresholds, inst.theta).tolist()

    def argmin(pairs):
        best_u, best_val = None, math.inf
        for u, val in pairs:
            if val < best_val:
                best_u, best_val = u, val
        return best_val, best_u

    a_values, decisions, remain = {}, {}, set()
    for s in range(inst.total_states):
        if level_of[s] == 0:
            a_values[s] = excess[s]
            decisions[s] = argmin((u + 1, excess[int(tables.succ[s, u])]) for u in range(n))[1]

    for k in range(1, int(level_of.max()) + 1):
        members = [s for s in range(inst.total_states) if level_of[s] == k]
        meta = {}
        for s in members:
            succ_levels = [int(level_of[tables.succ[s, u]]) for u in range(n)]
            m = max(succ_levels)
            meta[s] = m, [u + 1 for u in range(n) if succ_levels[u] == m]

        def fail_term(s):
            fail = int(tables.fail[s])
            return a_values[fail] if level_of[fail] == k - 1 else 0.0

        pending = list(members)
        while pending:
            next_pending = []
            for s in pending:
                m, u_set = meta[s]
                if m > k:
                    fail = int(tables.fail[s])
                    pairs = [(u, coefficients[u - 1] * a_values[fail]) for u in u_set]
                else:
                    succs = [int(tables.succ[s, u - 1]) for u in u_set]
                    if any(level_of[t] == k and t not in a_values for t in succs):
                        next_pending.append(s)
                        continue
                    pairs = [
                        (u, a_values.get(t, 0.0) + coefficients[u - 1] * fail_term(s))
                        for u, t in zip(u_set, succs)
                    ]
                a_values[s], decisions[s] = argmin(pairs)
            if len(next_pending) == len(pending):
                break
            pending = next_pending

        if pending:
            remain |= set(pending)
            b_local = {s: 0.0 for s in members}

            def relax_value(s, b):
                restricted = [decisions[s]] if s in decisions else meta[s][1]
                return argmin(
                    (u, b.get(int(tables.succ[s, u - 1]), 0.0) + coefficients[u - 1] * fail_term(s))
                    for u in restricted
                )

            for _ in range(n - 1):
                snapshot = dict(b_local) if jacobi else b_local
                for s in members:
                    b_local[s] = relax_value(s, snapshot)[0]
            for s in sorted(pending):
                a_values[s], decisions[s] = relax_value(s, b_local)
    return decisions, a_values, remain


def _oracle_arrays(inst, oracle):
    """The oracle's dicts as state-indexed arrays: NaN for an unset value, 0 for no decision."""
    decisions, a_values, remain = oracle
    out = {"decision": np.zeros(inst.total_states, dtype=np.int64), "a": np.full(inst.total_states, np.nan)}
    out["a"][list(a_values)] = list(a_values.values())
    out["decision"][list(decisions)] = list(decisions.values())
    out["remain"] = frozenset(remain)
    return out


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    taus = tuple(sorted(int(t) for t in rng.integers(1, 7, size=n)))
    ps = tuple(float(p) for p in rng.uniform(0.5, 0.999, size=n))
    return Instance(taus, ps, float(rng.uniform(0.01, 0.3)))


_ORACLE_CASES = (
    [AsymptoticInstance((4, 6, 8), (1, 1, 1), eps, 0.05).materialize() for eps in (0.01, 0.03, 0.1)]
    + [AsymptoticInstance((7, 10, 13), (1, 1, 1), eps, 0.05).materialize() for eps in (0.1, 0.2, 0.3)]
    + [AsymptoticInstance((3, 5), (2, 1), 0.001, 0.01).materialize()]
    + [AsymptoticInstance((4, 6, 8, 10), (1, 1, 1, 1), 0.01, 0.05).materialize()]
    + [_random_instance(seed) for seed in range(12)]
)


@pytest.mark.parametrize("inst", _ORACLE_CASES, ids=lambda inst: f"{inst.thresholds}-{inst.reliabilities[0]:.4g}")
def test_sn_policy_matches_the_per_state_oracle_bitwise(inst):
    policy, levels = sn_policy(inst)
    expected = _oracle_arrays(inst, _sn_oracle(inst))
    assert np.array_equal(policy.decisions, expected["decision"])
    assert np.array_equal(levels.decision, expected["decision"])
    assert np.array_equal(np.isnan(levels.a), np.isnan(expected["a"]))
    assert levels.a.tobytes() == expected["a"].tobytes()
    assert levels.remain == expected["remain"]
    # the oracle grades by build_level_sets, which places every state
    assert np.array_equal(levels.level, build_level_sets(inst).level)
    assert levels.unplaced == frozenset()


def test_sn_oracle_cases_include_one_where_jacobi_sweeps_differ():
    # on thresholds (3, 4, 4), one of the oracle cases, the fallback settles
    # 35 states, and simultaneous (Jacobi) sweeps would decide some of them
    # differently from the in-order sweeps the construction reproduces
    inst = _random_instance(6)
    assert inst in _ORACLE_CASES
    assert len(sn_policy(inst)[1].remain) == 35
    in_order = _oracle_arrays(inst, _sn_oracle(inst))
    jacobi = _oracle_arrays(inst, _sn_oracle(inst, jacobi=True))
    assert not np.array_equal(jacobi["decision"], in_order["decision"])


def test_sn_policy_total_and_non_exclusionary():
    for taus, bs in [((3, 5), (2.0, 1.0)), ((2, 2), (1.0, 1.0)), ((4, 6, 8), (1.0, 1.0, 1.0))]:
        inst = AsymptoticInstance(taus, bs, 0.01, 0.05).materialize()
        pol, levels = sn_policy(inst)
        pol.validate(inst)
        indexer = inst.indexer()
        for n in range(1, inst.n_clients + 1):
            assert pol.decisions[indexer.index(exclusion_state(taus, n))] != n
        assert not levels.unplaced


def test_sn_policy_agrees_with_mlg_on_the_success_cycle():
    # strict two-client optimality condition: the level-set policy reproduces
    # the least-time-to-go decisions on the all-success cycle states
    for b in [(1.0, 1.0), (2.0, 2.0), (1.0, 3.0)]:
        base = AsymptoticInstance((3, 5), b, 1e-3, 0.01)
        optimal, _ = mlg_optimality_check(base)
        assert optimal
        inst = base.materialize()
        pol, _ = sn_policy(inst)
        mlg = mlg_stationary_policy(inst)
        indexer = inst.indexer()
        for x in [(1, 0), (0, 1)]:  # the cycle; (0, 0) precedes it from the start only
            assert pol.decisions[indexer.index(x)] == mlg.decisions[indexer.index(x)]


def test_sn_policy_symmetric_instances_relabel_cleanly():
    inst = AsymptoticInstance((3, 3), (1.0, 1.0), 0.01, 0.05).materialize()
    pol, _ = sn_policy(inst)
    indexer = inst.indexer()
    swapped = np.empty_like(pol.decisions)
    for x in indexer.states():
        swapped[indexer.index(x)] = 3 - pol.decisions[indexer.index((x[1], x[0]))]
    chains = [stationary_chain(pol, inst), stationary_chain(StationaryPolicy(swapped), inst)]
    j1, j2 = (report.average_cost for report in chain_average_costs(chains, [inst.theta] * 2))
    assert j1 == pytest.approx(j2, rel=1e-9)


def test_sn_policy_near_optimal_two_clients():
    # strictly inside the optimality region; on the boundary the one-step
    # level-set sweep can be indifferent and settle on a longer cycle
    inst = AsymptoticInstance((3, 5), (1.0, 1.0), 1e-3, 0.01).materialize()
    pol, _ = sn_policy(inst)
    j_sn = chain_average_costs([stationary_chain(pol, inst)], [inst.theta])[0].average_cost
    j_op = growth_rate_optimal(inst).average_cost
    assert j_sn / j_op <= 1.01


def _success_walk(inst):
    """The states MLG visits from (0, 0) while every delivery succeeds, up to the first repeat."""
    policy, tables, indexer = mlg_stationary_policy(inst), transition_tables(inst.thresholds), inst.indexer()
    walk, s = [], indexer.index((0, 0))
    while s not in walk:
        walk.append(s)
        s = int(tables.succ[s, policy.decisions[s] - 1])
    return [indexer.deindex(t) for t in walk], indexer.deindex(s)


def test_cycle_analytics_states_and_assembly():
    # for delta >= 2 the failure-free walk from (0, 0) enters the cycle
    # (1, 0), (0, 1), ..., (0, delta - 1) of length delta
    for tau, delta in [(3, 2), (2, 3), (4, 5)]:
        walk, repeat = _success_walk(Instance((tau, tau + delta), (0.9, 0.9), 0.01))
        assert walk == [(0, x2) for x2 in range(delta)] + [(1, 0)]
        assert repeat == (0, 1)
    # the cycle view, excess b1^(tau-1) (e^theta - 1) over theta * delta, reassembles the direct cost
    lead = mlg_cost_leading(AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01))
    assert lead.case_tag == "delta>=2"
    assert 4 * math.expm1(0.01) / (0.01 * 2) == pytest.approx(lead.coefficient, rel=1e-12)


def test_cycle_analytics_match_exact_cycle_expectations():
    base = AsymptoticInstance((3, 5), (2.0, 1.0), 0.02, 0.01)
    inst = base.materialize()
    lead_length, lead_excess = 2.0, 4 * math.expm1(0.01) * 0.02**2  # delta, b1^(tau-1) (e^theta - 1) eps^(tau-1)

    # population values sit within the stated slack of the leading terms
    e_v, e_l = cycle_expectations(mlg_stationary_policy(inst), inst, (1, 0))
    assert abs(e_l - lead_length) <= 0.05 * lead_length
    assert abs((e_v - 1.0) - lead_excess) <= 0.15 * lead_excess


def test_lower_bound_holds_against_the_exact_optimum():
    # at eps = 1e-3 the leading-order bound undercuts the exact optimal cost,
    # up to a slack covering the neglected higher-order terms.  The gapless
    # (delta = 0) constant is excluded: its published closed form carries an
    # exp(2) factor where the surrounding algebra calls for exp(2 theta), so
    # as printed it exceeds the exact optimum by orders of magnitude at small
    # theta; it is implemented as printed and checked only by its own formula
    # tests.
    for inst in (
        AsymptoticInstance((3, 4), (1.0, 2.0), 1e-3, 0.01),
        AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01),
        AsymptoticInstance((2, 5), (0.5, 1.5), 1e-3, 0.05),
        AsymptoticInstance((4, 5), (1.5, 1.5), 1e-3, 0.05),
    ):
        bound = optimal_cost_lower_bound(inst).evaluate(inst.epsilon)
        j_op = growth_rate_optimal(inst.materialize()).average_cost
        assert bound <= j_op * 1.10


def test_mlg_cost_approaches_leading_term():
    base = AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01)
    lead = mlg_cost_leading(base)
    ratios = []
    for eps in (1e-2, 3e-3, 1e-3):
        inst = dataclasses.replace(base, epsilon=eps).materialize()
        j = chain_average_costs([stationary_chain(mlg_stationary_policy(inst), inst)], [inst.theta])[0].average_cost
        ratios.append(j / lead.evaluate(eps))
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - 1.0) <= 0.05
