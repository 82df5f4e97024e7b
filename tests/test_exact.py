import math
from functools import lru_cache

import numpy as np
import pytest

from idsched.errors import ResourceLimitError
from idsched.exact import (
    Mdp1Table,
    StationaryPolicy,
    average_cost,
    communicating_structure,
    cycle_expectations,
    disutility_matrix,
    doeblin_hitting_times,
    dp_mdp1,
    dp_mdp2,
    exhaustive_optimal,
    growth_rate_optimal,
    is_ne,
    non_ne_trivial_cost,
    policy_count,
    spectral_radius,
    theta_threshold,
    transition_matrix,
)
from idsched.model import Instance, exclusion_state


def _random_ne_policy(inst, rng):
    decisions = rng.integers(1, inst.n_clients + 1, inst.total_states)
    indexer = inst.indexer()
    for n in range(1, inst.n_clients + 1):
        idx = indexer.index(exclusion_state(inst.thresholds, n))
        others = [u for u in range(1, inst.n_clients + 1) if u != n]
        decisions[idx] = rng.choice(others)
    return StationaryPolicy(decisions)


# ---------------------------------------------------------------------------
# finite-horizon DPs


def test_dp_zero_horizon_is_one():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    tab = dp_mdp2(inst, 0)
    assert np.all(tab.values[0] == 1.0)
    assert dp_mdp1(inst, 0, (7, 1)) == 1.0


def test_dp_single_client_one_step():
    inst = Instance((1,), (0.5,), 1.0)
    tab = dp_mdp2(inst, 1)
    assert tab.value(1, (1,)) == pytest.approx(math.e, rel=1e-12)
    assert tab.value(1, (0,)) == 1.0


def test_dp_matches_decision_tree_oracle():
    # oracle: explicit minimization over per-history action choices,
    # recomputed here with plain tuples (value frozen from that enumeration)
    taus, ps, theta = (2, 2), (0.5, 0.5), 0.1
    inst = Instance(taus, ps, theta)

    @lru_cache(maxsize=None)
    def best(x, steps):
        if steps == 0:
            return 1.0
        charge = math.exp(theta * sum(1 for v, t in zip(x, taus) if v == t))
        branches = []
        for u in range(2):
            succ = tuple(0 if i == u else min(v + 1, taus[i]) for i, v in enumerate(x))
            fail = tuple(min(v + 1, t) for v, t in zip(x, taus))
            branches.append(ps[u] * best(succ, steps - 1) + (1 - ps[u]) * best(fail, steps - 1))
        return charge * min(branches)

    assert best((0, 0), 3) == pytest.approx(1.1079361485778663, rel=1e-12)
    tab = dp_mdp2(inst, 3)
    for x in inst.indexer().states():
        assert tab.value(3, x) == pytest.approx(best(x, 3), rel=1e-12)


def test_unbounded_dp_equals_clipped_dp_on_shared_states():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    tab2 = dp_mdp2(inst, 8)
    tab1 = Mdp1Table(inst, 8, inst.thresholds)
    for x in inst.indexer().states():
        for t in range(9):
            assert tab1.value(t, x) == pytest.approx(tab2.value(t, x), rel=1e-9)
        for t in range(1, 9):
            assert tab1.minimizing_actions(t, x) == tab2.minimizing_actions(inst, t, x)


def test_unbounded_dp_equals_clipped_dp_at_scale():
    # 200 clipped states, 12-step horizon
    inst = Instance((9, 19), (0.55, 0.8), 0.03)
    horizon = 12
    tab2 = dp_mdp2(inst, horizon)
    tab1 = Mdp1Table(inst, horizon, inst.thresholds)
    worst = max(
        abs(tab1.value(t, x) - tab2.value(t, x)) / tab2.value(t, x)
        for x in inst.indexer().states()
        for t in range(horizon + 1)
    )
    assert worst <= 1e-9


def test_unbounded_dp_threshold_shift_scaling():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    for n, x, horizon in [(0, (1, 2), 6), (1, (2, 1), 5), (0, (0, 3), 4)]:
        shifted = tuple(v + inst.thresholds[n] if i == n else v for i, v in enumerate(x))
        pinned = tuple(inst.thresholds[n] if i == n else v for i, v in enumerate(x))
        lhs = dp_mdp1(inst, horizon, shifted)
        rhs = math.exp(inst.theta * x[n]) * dp_mdp1(inst, horizon, pinned)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_unbounded_dp_cell_cap():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    with pytest.raises(ResourceLimitError):
        dp_mdp1(inst, 10, (500, 500), cell_cap=10_000)


# ---------------------------------------------------------------------------
# policy structure


def test_is_ne_examples():
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    indexer = inst.indexer()
    decisions = np.ones(inst.total_states, dtype=np.int64)
    decisions[indexer.index((0, 2))] = 2
    decisions[indexer.index((2, 0))] = 1
    assert is_ne(StationaryPolicy(decisions), inst)

    decisions[indexer.index((0, 2))] = 1
    assert not is_ne(StationaryPolicy(decisions), inst)

    single = Instance((2,), (0.5,), 0.1)
    assert not is_ne(StationaryPolicy(np.ones(3, dtype=np.int64)), single)


def test_transition_matrix_rows_sum_to_one():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_ne_policy(inst, np.random.default_rng(0))
    mat = transition_matrix(pol, inst)
    assert np.all(mat >= 0)
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
    assert all((row > 0).sum() <= 2 for row in mat)


def test_disutility_row_sum_at_all_threshold_state():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_ne_policy(inst, np.random.default_rng(1))
    weighted = disutility_matrix(pol, inst)
    idx = inst.indexer().index(inst.thresholds)
    assert weighted[idx].sum() == pytest.approx(math.exp(inst.theta * 2), rel=1e-12)


def _swap_policy(inst, pol):
    indexer = inst.indexer()
    decisions = np.empty_like(pol.decisions)
    for x in indexer.states():
        swapped = (x[1], x[0])
        decisions[indexer.index(x)] = 3 - pol.decisions[indexer.index(swapped)]
    return StationaryPolicy(decisions)


def test_relabeling_conjugates_the_transition_matrix():
    # swapping client labels permutes states and matches the swapped policy's
    # matrix entrywise (exact permutation similarity)
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    indexer = inst.indexer()
    pol = _random_ne_policy(inst, np.random.default_rng(2))
    swapped = _swap_policy(inst, pol)
    perm = np.array([indexer.index((x[1], x[0])) for x in indexer.states()])
    mat = transition_matrix(pol, inst)
    np.testing.assert_allclose(
        transition_matrix(swapped, inst), mat[np.ix_(perm, perm)], atol=1e-15
    )


# ---------------------------------------------------------------------------
# spectral machinery


def test_spectral_radius_identity_and_permutation():
    res = spectral_radius(np.eye(5))
    assert res.value == pytest.approx(1.0, abs=1e-10)
    res = spectral_radius(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.converged


def test_spectral_radius_matches_quadratic_root():
    # forced single-client policy: weighted matrix [[p, 1-p], [p e, (1-p) e]]
    # has a zero determinant, so its radius is the trace p + (1-p) e
    inst = Instance((1,), (0.5,), 1.0)
    pol = StationaryPolicy(np.array([1, 1]))
    weighted = disutility_matrix(pol, inst)
    expected = 0.5 + 0.5 * math.e
    assert spectral_radius(weighted).value == pytest.approx(expected, rel=1e-10)


def test_communicating_structure_single_client():
    inst = Instance((1,), (0.5,), 1.0)
    pol = StationaryPolicy(np.array([1, 1]))
    structure = communicating_structure(transition_matrix(pol, inst))
    assert len(structure.classes) == 1
    assert structure.closed == (True,)
    assert structure.transient == frozenset()


def test_ne_policies_have_one_closed_class_with_threshold_state():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    idx_tau = inst.indexer().index(inst.thresholds)
    rng = np.random.default_rng(3)
    for _ in range(25):
        pol = _random_ne_policy(inst, rng)
        mat = transition_matrix(pol, inst)
        structure = communicating_structure(mat)
        closed = structure.closed_classes
        assert len(closed) == 1
        assert idx_tau in closed[0]
        for y in structure.transient:
            assert mat[y, y] == 0.0


def test_average_cost_single_client_matches_analytic_value():
    inst = Instance((1,), (0.5,), 1.0)
    pol = StationaryPolicy(np.array([1, 1]))
    report = average_cost(pol, inst)
    assert report.average_cost == pytest.approx(math.log(0.5 + 0.5 * math.e), rel=1e-10)
    assert report.recurrent_class == frozenset({0, 1})


def test_average_cost_invariant_under_client_relabeling():
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    pol = _random_ne_policy(inst, np.random.default_rng(4))
    swapped = _swap_policy(inst, pol)
    j1 = average_cost(pol, inst).average_cost
    j2 = average_cost(swapped, inst).average_cost
    assert j1 == pytest.approx(j2, rel=1e-10)


def test_average_cost_matches_empirical_growth_rate():
    # long-horizon growth of the weighted power applied to all-ones
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_ne_policy(inst, np.random.default_rng(5))
    report = average_cost(pol, inst)
    weighted = disutility_matrix(pol, inst)
    start = inst.indexer().index(inst.thresholds)
    v = np.ones(inst.total_states)
    log_acc = 0.0
    checkpoint = None
    horizon, window = 2000, 1000
    for t in range(1, horizon + 1):
        v = weighted @ v
        m = v.max()
        v /= m
        log_acc += math.log(m)
        if t == horizon - window:
            checkpoint = log_acc + math.log(v[start])
    final = log_acc + math.log(v[start])
    empirical = (final - checkpoint) / (inst.theta * window)
    assert abs(empirical - report.average_cost) < 1e-4


def test_pinned_policy_cost_matches_eigenvalue_oracle():
    # serve client 1 everywhere; the absorbed cycle is the three states with
    # client 2 stuck at threshold, whose radius is computed independently here
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    pol = StationaryPolicy(np.ones(inst.total_states, dtype=np.int64))
    report = non_ne_trivial_cost(pol, inst, 1)
    indexer = inst.indexer()
    pinned = [indexer.index((a, 2)) for a in range(3)]
    weighted = disutility_matrix(pol, inst)
    rho = max(abs(np.linalg.eigvals(weighted[np.ix_(pinned, pinned)])))
    assert report.spectral_radius == pytest.approx(rho, rel=1e-9)
    assert report.average_cost == pytest.approx(average_cost(pol, inst).average_cost, rel=1e-9)


def test_pinned_policy_cost_near_perfect_channel():
    inst = Instance((2, 2), (0.999, 0.5), 0.1)
    pol = StationaryPolicy(np.ones(inst.total_states, dtype=np.int64))
    report = non_ne_trivial_cost(pol, inst, 1)
    assert report.average_cost == pytest.approx(average_cost(pol, inst).average_cost, rel=1e-9)
    # client 2 pinned at threshold costs about one exceedance per slot
    assert report.average_cost == pytest.approx(1.0, rel=5e-2)


def test_pinned_policy_single_client_reduces_to_average_cost():
    inst = Instance((2,), (0.5,), 0.1)
    pol = StationaryPolicy(np.ones(inst.total_states, dtype=np.int64))
    report = non_ne_trivial_cost(pol, inst, 1)
    assert report.average_cost == pytest.approx(average_cost(pol, inst).average_cost, rel=1e-12)


def test_pinned_policy_requires_the_pattern():
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    decisions = np.ones(inst.total_states, dtype=np.int64)
    decisions[inst.indexer().index((1, 2))] = 2
    with pytest.raises(ValueError):
        non_ne_trivial_cost(StationaryPolicy(decisions), inst, 1)


def test_cycle_expectations_single_client():
    # two-state chain: return time to (1) from (1) is 1/(1-p) = 2
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    e_v, e_l = cycle_expectations(pol, inst, (0,))
    assert e_l == pytest.approx(2.0, rel=1e-10)
    assert e_v > 1.0


# ---------------------------------------------------------------------------
# threshold, hitting times, optimality


def test_solve_report_serialization():
    inst = Instance((1,), (0.5,), 1.0)
    pol = StationaryPolicy(np.array([1, 1]))
    report = average_cost(pol, inst)
    payload = report.to_json()
    assert payload["recurrent_class"] == [0, 1]
    assert payload["converged"] is True


def test_theta_threshold_examples():
    inst = Instance((2, 2), (0.5, 0.5), 0.01)
    th = theta_threshold(inst)
    assert th.k == 8
    assert th.value == pytest.approx((math.log(9) - math.log(8)) / 36, rel=1e-12)
    assert th.value == pytest.approx(3.272e-3, rel=1e-3)

    single = Instance((1,), (0.5,), 0.01)
    th = theta_threshold(single)
    assert th.k == 2
    assert th.value == pytest.approx(6.758e-2, rel=1e-3)


def test_theta_threshold_decreases_in_reliability_and_underflows():
    taus = (3, 3)
    values = [theta_threshold(Instance(taus, (p, p), 0.01)).value for p in (0.5, 0.7, 0.9)]
    assert values == sorted(values, reverse=True)
    extreme = Instance((5000,), (1 - 1e-12,), 0.01)
    th = theta_threshold(extreme)
    assert th.underflow
    assert th.value == 0.0


def test_hitting_times_single_client():
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    times = doeblin_hitting_times(pol, inst)
    indexer = inst.indexer()
    assert times[indexer.index((0,))] == pytest.approx(2.0, rel=1e-12)
    # from the target itself the value is the expected return time, not zero
    assert times[indexer.index((1,))] == pytest.approx(2.0, rel=1e-12)


def test_hitting_times_bounded_for_random_ne_policies():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    bound = theta_threshold(inst).k
    rng = np.random.default_rng(6)
    for _ in range(100):
        pol = _random_ne_policy(inst, rng)
        assert np.all(doeblin_hitting_times(pol, inst) <= bound)


def test_exhaustive_single_client_returns_forced_policy():
    inst = Instance((2,), (0.5,), 0.1)
    pol, report = exhaustive_optimal(inst)
    assert np.all(pol.decisions == 1)
    assert report.average_cost == pytest.approx(
        average_cost(pol, inst).average_cost, rel=1e-12
    )


def test_exhaustive_cost_invariant_under_relabeling():
    inst = Instance((2, 2), (0.5, 0.5), 0.01)
    _, report = exhaustive_optimal(inst)
    # relabeled instance is identical here; the optimum must match the swapped search
    swapped = Instance((2, 2), (0.5, 0.5), 0.01)
    _, report2 = exhaustive_optimal(swapped)
    assert report.average_cost == pytest.approx(report2.average_cost, rel=1e-12)


def test_exhaustive_full_enumeration_agrees_with_ne_only():
    inst = Instance((2, 2), (0.5, 0.5), 0.01)
    _, ne_report = exhaustive_optimal(inst, ne_only=True)
    _, full_report = exhaustive_optimal(inst, ne_only=False)
    assert full_report.average_cost == pytest.approx(ne_report.average_cost, rel=1e-10)


def test_exhaustive_enumeration_cap():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    with pytest.raises(ResourceLimitError):
        exhaustive_optimal(inst, policy_cap=100)
    # 12 states, two of them exclusion states: the count is exact up to the
    # cap and passes the cap exactly when the full count does
    assert policy_count(inst, True, 4096) == 2**10
    assert policy_count(inst, False, 4096) == 2**12
    for cap in (511, 512, 1023, 1024):
        assert (policy_count(inst, True, cap) <= cap) == (2**10 <= cap)
    three = Instance((1, 1, 1), (0.6, 0.7, 0.8), 0.05)  # 8 states, three exclusion states
    assert policy_count(three, True, 10**6) == 2**3 * 3**5
    big = Instance((6, 8, 10, 12, 14), (0.9,) * 5, 0.05)
    assert 4096 < policy_count(big, True, 4096) <= 5 * 4096


def test_growth_rate_single_client_matches_forced_policy():
    inst = Instance((2,), (0.5,), 0.1)
    result = growth_rate_optimal(inst)
    forced = average_cost(StationaryPolicy(np.ones(3, dtype=np.int64)), inst)
    assert result.converged
    assert result.average_cost == pytest.approx(forced.average_cost, rel=1e-8)


def test_growth_rate_cross_checks_enumeration_at_small_theta():
    inst = Instance((2, 3), (0.6, 0.7), 0.005)
    _, enum_report = exhaustive_optimal(inst)
    result = growth_rate_optimal(inst)
    assert abs(enum_report.average_cost - result.average_cost) <= 1e-6


def test_unconverged_runs_are_flagged_not_raised():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    result = growth_rate_optimal(inst, max_iter=3)
    assert not result.converged
    assert math.isfinite(result.average_cost)

    res = spectral_radius(np.array([[0.3, 0.7], [0.6, 0.4]]), max_iter=1)
    assert not res.converged
    assert math.isfinite(res.value)


def test_dp_greedy_breaks_ties_toward_the_lowest_client():
    # symmetric instance: at the one-step horizon every action is optimal,
    # so the recorded greedy action is client 1 everywhere
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    tab = dp_mdp2(inst, 4)
    assert np.all(tab.greedy[0] == 1)
    # at the diagonal states both actions stay tied by symmetry at any horizon
    indexer = inst.indexer()
    for a in range(3):
        s = indexer.index((a, a))
        for t in range(tab.horizon):
            assert tab.greedy[t, s] == 1
