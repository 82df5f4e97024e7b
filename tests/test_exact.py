import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from dense_oracle import cycle_expectations, dense_chain, eigvals_cost, recurrent, stationary_dense
from paper_oracle import (
    CellCapError,
    Mdp1Table,
    doeblin_hitting_times,
    dp_mdp1,
    dp_mdp2,
    enumerated_optimum,
    is_ne,
)

from idsched import exact
from idsched.asymptotic import mlg_stationary_policy, sn_policy
from idsched.errors import StructuralError
from idsched.heuristics import (
    PeriodicSchedule,
    build_periodic_schedule,
    periodic_chain,
    prr_chain,
)
from idsched.exact import (
    StationaryPolicy,
    growth_rate_optima,
    growth_rate_optimal,
    theta_threshold,
)
from idsched.model import Instance, exclusion_state


def _alone(chain, theta):
    """The report of ``chain`` evaluated alone: one row in its own ``chain_average_costs`` call."""
    return exact.chain_average_costs([chain], [theta])[0]


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
    # 5011**2 cells pass the cap; the check comes before any table is allocated
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    with pytest.raises(CellCapError, match="above the cap"):
        dp_mdp1(inst, 10, (5000, 5000))


@pytest.mark.parametrize(
    "inst, horizon",
    [(Instance((2, 3), (0.6, 0.7), 0.05), 100), (Instance((1, 2, 2), (0.5, 0.7, 0.9), 0.1), 300)],
)
def test_finite_horizon_growth_tends_to_the_certified_optimum(inst, horizon):
    # ln(V_{t+1}(x) / V_t(x)) / theta of the oracle's clipped DP tends to the
    # program's optimal J from every state.  Measured worst relative gaps over
    # the states: (2, 3) 4.3e-3 at t = 10, 6.7e-6 at 20 and 7.1e-15 at 100;
    # (1, 2, 2) 5.0e-3 at t = 10, 6.8e-8 at 100 and 1.6e-15 at 300.  The
    # optimum's certified bracket is about 2e-15 wide, narrower than the
    # DP's own rounding, so the tolerance is 1e-12, not the bracket.
    optimum = growth_rate_optima([inst])[0]
    assert optimum.converged
    table = dp_mdp2(inst, horizon + 1)

    def gap(t):
        growth = np.log(table.values[t + 1] / table.values[t]) / inst.theta
        return np.abs(growth / optimum.average_cost - 1).max()

    assert gap(10) > 1e-3 > gap(horizon // 5)
    assert gap(horizon) <= 1e-12


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


def _swap_policy(inst, pol):
    indexer = inst.indexer()
    decisions = np.empty_like(pol.decisions)
    for x in indexer.states():
        swapped = (x[1], x[0])
        decisions[indexer.index(x)] = 3 - pol.decisions[indexer.index(swapped)]
    return StationaryPolicy(decisions)


def test_relabeling_conjugates_the_transition_matrix():
    # swapping client labels permutes states and maps the swapped policy's
    # chain, its transition matrix in array form, onto the original's
    # (exact permutation similarity)
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    indexer = inst.indexer()
    pol = _random_ne_policy(inst, np.random.default_rng(2))
    perm = np.array([indexer.index((x[1], x[0])) for x in indexer.states()])
    chain = exact.stationary_chain(pol, inst)
    swapped = exact.stationary_chain(_swap_policy(inst, pol), inst)
    assert np.array_equal(swapped.succ, perm[chain.succ[perm]])
    assert np.array_equal(swapped.fail, perm[chain.fail[perm]])
    assert np.array_equal(swapped.p, chain.p[perm])
    assert np.array_equal(swapped.hits, chain.hits[perm])


def _assert_classes_from_every_start(chain, reach):
    # one walk over n copies of the chain side by side, copy i from state i,
    # against the dense closure
    closed = recurrent(reach)
    n = len(chain.p)
    offsets = np.arange(0, n * n, n)[:, None]
    succ, fail = ((a + offsets).ravel() for a in (chain.succ, chain.fail))
    member, reached = exact._closed_classes(succ, fail, offsets.ravel() + np.arange(n))
    assert closed.any() and (member.reshape(n, n) == closed).all()
    assert np.array_equal(reached.reshape(n, n), reach)


def test_ne_policies_have_one_closed_class_with_threshold_state():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    idx_tau = inst.indexer().index(inst.thresholds)
    rng = np.random.default_rng(3)
    for _ in range(25):
        pol = _random_ne_policy(inst, rng)
        weighted, reach = stationary_dense(pol, inst)
        closed = recurrent(reach)
        # all-threshold is recurrent and every recurrent state is in its class
        assert closed[idx_tau] and np.array_equal(closed, reach[idx_tau])
        assert not np.diag(weighted)[~closed].any()
        chain = exact.stationary_chain(pol, inst)
        _assert_classes_from_every_start(chain, reach)
        # every start's row is that one class, members in index order: the same report, bit for bit
        chains = [dataclasses.replace(chain, start=start) for start in range(inst.total_states)]
        reports = exact.chain_average_costs(chains, [inst.theta] * len(chains))
        assert all(report == reports[idx_tau] for report in reports)


@pytest.mark.parametrize("inst", [Instance((2, 3), (0.6, 0.7), 0.05), Instance((1, 2, 2), (0.5, 0.7, 0.9), 0.1)])
def test_round_robin_and_periodic_chains_have_one_closed_class_from_every_start(inst):
    # memory above one: the PRR token and the PS phase
    n = inst.n_clients
    _, reach = dense_chain(inst, n, lambda x, m: m + 1, lambda m, delivered: (m + 1) % n if delivered else m)
    _assert_classes_from_every_start(prr_chain(inst), reach)
    sequence = tuple(range(1, n + 1)) + (1,)
    _, reach = dense_chain(inst, len(sequence), lambda x, m: sequence[m], lambda m, delivered: (m + 1) % len(sequence))
    _assert_classes_from_every_start(periodic_chain(inst, PeriodicSchedule(sequence, n)), reach)


def test_a_start_that_reaches_two_closed_classes_is_a_structural_error():
    # state 0 moves to one of two absorbing states
    chain = exact.Chain(
        succ=np.array([1, 1, 2]),
        fail=np.array([2, 1, 2]),
        p=np.full(3, 0.5),
        hits=np.zeros(3),
        start=0,
    )
    with pytest.raises(StructuralError, match="more than one closed class"):
        _alone(chain, 0.1)
    # stacked with a good chain of another size, the bad row still raises
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    good = exact.stationary_chain(_random_ne_policy(inst, np.random.default_rng(1)), inst)
    with pytest.raises(StructuralError, match="more than one closed class"):
        exact.chain_average_costs([good, chain], [0.1, 0.1])
    assert exact._closed_classes(chain.succ, chain.fail, [1])[0].tolist() == [False, True, False]
    assert _alone(dataclasses.replace(chain, start=1), 0.1).average_cost == 0.0


def test_average_cost_single_client_matches_analytic_value():
    inst = Instance((1,), (0.5,), 1.0)
    pol = StationaryPolicy(np.array([1, 1]))
    chain = exact.stationary_chain(pol, inst)
    report = _alone(chain, inst.theta)
    assert report.average_cost == pytest.approx(math.log(0.5 + 0.5 * math.e), rel=1e-10)
    assert exact._closed_classes(chain.succ, chain.fail, [chain.start])[0].all()
    assert report.converged


def test_average_cost_invariant_under_client_relabeling():
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    pol = _random_ne_policy(inst, np.random.default_rng(4))
    swapped = _swap_policy(inst, pol)
    chains = [exact.stationary_chain(pol, inst), exact.stationary_chain(swapped, inst)]
    j1, j2 = (report.average_cost for report in exact.chain_average_costs(chains, [inst.theta] * 2))
    assert j1 == pytest.approx(j2, rel=1e-10)


def test_average_cost_matches_empirical_growth_rate():
    # long-horizon growth of the weighted power applied to all-ones
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_ne_policy(inst, np.random.default_rng(5))
    report = _alone(exact.stationary_chain(pol, inst), inst.theta)
    weighted, _ = stationary_dense(pol, inst)
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


def test_average_cost_from_a_transient_start_brackets_the_closed_class():
    # (0, 0) is never revisited, so the class is what the failure walk's
    # cycle reaches, not the states the start reaches
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_ne_policy(inst, np.random.default_rng(3))
    chain = exact.stationary_chain(pol, inst)
    chains = [chain, dataclasses.replace(chain, start=inst.indexer().index((0, 0)))]
    (member, reached), (start_member, start_reached) = (
        exact._closed_classes(chain.succ, chain.fail, [chain.start]) for chain in chains
    )
    assert (start_reached & ~start_member).any() and not (reached & ~member).any()
    assert np.array_equal(start_member, member)
    recurrent, report = (_alone(chain, inst.theta) for chain in chains)
    assert report.average_cost == recurrent.average_cost
    assert report.converged


def test_pinned_policy_cost_matches_eigenvalue_oracle():
    # serve client 1 everywhere; the absorbed cycle is the three states with
    # client 2 stuck at threshold, whose radius is computed independently here
    inst = Instance((2, 2), (0.5, 0.5), 0.1)
    pol = StationaryPolicy(np.ones(inst.total_states, dtype=np.int64))
    report = _alone(exact.stationary_chain(pol, inst), inst.theta)
    indexer = inst.indexer()
    pinned = [indexer.index((a, 2)) for a in range(3)]
    weighted, _ = stationary_dense(pol, inst)
    rho = max(abs(np.linalg.eigvals(weighted[np.ix_(pinned, pinned)])))
    assert math.exp(inst.theta * report.average_cost) == pytest.approx(rho, rel=1e-9)


def test_pinned_policy_cost_near_perfect_channel():
    inst = Instance((2, 2), (0.999, 0.5), 0.1)
    pol = StationaryPolicy(np.ones(inst.total_states, dtype=np.int64))
    report = _alone(exact.stationary_chain(pol, inst), inst.theta)
    # client 2 pinned at threshold costs about one exceedance per slot
    assert report.average_cost == pytest.approx(1.0, rel=5e-2)


def test_cycle_expectations_single_client():
    # two-state chain: return time to (1) from (1) is 1/(1-p) = 2
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    e_v, e_l = cycle_expectations(pol, inst, (0,))
    assert e_l == pytest.approx(2.0, rel=1e-10)
    assert e_v > 1.0


# ---------------------------------------------------------------------------
# threshold, hitting times, optimality


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
    # one client has one decision map, which the oracle enumerates even with ne_only
    inst = Instance((2,), (0.5,), 0.1)
    decisions, j = enumerated_optimum(inst)
    assert decisions == (1, 1, 1)
    forced = _alone(exact.stationary_chain(StationaryPolicy(np.array(decisions)), inst), inst.theta)
    assert j == pytest.approx(forced.average_cost, rel=1e-12)


def test_exhaustive_cost_invariant_under_relabeling():
    # swapping the clients' labels swaps the state axes, and leaves the optimum
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    swapped = Instance((3, 2), (0.7, 0.6), 0.05)
    assert enumerated_optimum(swapped)[1] == pytest.approx(enumerated_optimum(inst)[1], rel=1e-12)
    j, j_swapped = (growth_rate_optimal(labeled).average_cost for labeled in (inst, swapped))
    assert j_swapped == pytest.approx(j, rel=1e-12)


def test_exhaustive_full_enumeration_agrees_with_ne_only():
    # the best of all 2**9 decision maps avoids both exclusion states
    inst = Instance((2, 2), (0.5, 0.5), 0.01)
    _, ne_j = enumerated_optimum(inst, ne_only=True)
    full_decisions, full_j = enumerated_optimum(inst, ne_only=False)
    assert full_j == pytest.approx(ne_j, rel=1e-10)
    assert is_ne(StationaryPolicy(np.array(full_decisions)), inst)


def test_growth_rate_single_client_matches_forced_policy():
    # with one client the Bellman map is the forced chain's map, and PRR's
    # chain is that chain: one row, bit for bit
    for tau, p, theta in itertools.product((1, 2, 3, 5, 8), (0.3, 0.7, 0.99, 0.99999), (0.01, 0.1, 1.0)):
        inst = Instance((tau,), (p,), theta)
        result = growth_rate_optimal(inst)
        forced = exact.stationary_chain(StationaryPolicy(np.ones(tau + 1, dtype=np.int64)), inst)
        for report in exact.chain_average_costs([forced, prr_chain(inst)], [theta] * 2):
            assert (report.j_lo, report.j_hi, report.iterations) == (result.j_lo, result.j_hi, result.iterations)
    assert growth_rate_optimal(Instance((2,), (0.5,), 0.1)).converged


def test_growth_rate_cross_checks_enumeration_at_small_theta():
    # the bracket is about 2e-15 wide here, and the eigvals J of the best NE
    # map lies up to 4e-14 outside it, relative: eigvals' rounding
    inst = Instance((2, 3), (0.6, 0.7), 0.005)
    _, enum_j = enumerated_optimum(inst)
    result = growth_rate_optimal(inst)
    assert result.converged
    assert result.j_lo * (1 - 1e-12) <= enum_j <= result.j_hi * (1 + 1e-12)


def test_unconverged_runs_are_flagged_not_raised(monkeypatch):
    monkeypatch.setattr(exact, "MAX_ITER", 3)
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    result = growth_rate_optimal(inst)
    assert result.iterations == 3
    assert not result.converged
    assert math.isfinite(result.average_cost)


def test_converged_is_the_one_certification_rule(monkeypatch):
    # every solver flags its report by J_hi - J_lo <= TOL * J_lo, also when the cap stops it short
    monkeypatch.setattr(exact, "MAX_ITER", 3)
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    chains = [prr_chain(inst), exact.stationary_chain(mlg_stationary_policy(inst), inst)]
    reports = [*exact.chain_average_costs(chains, [0.05, 0.05]), growth_rate_optimal(inst)]
    for report in reports:
        assert report.iterations <= 3
        assert report.converged == (report.j_hi - report.j_lo <= exact.TOL * report.j_lo)
    assert not all(report.converged for report in reports)


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


# ---------------------------------------------------------------------------
# certified brackets


def _bracket_case(kind, inst, arg):
    """The program's report and the eigvals J of a ``stationary`` (random NE policy, seed ``arg``), ``mlg``,
    ``prr`` or ``ps`` (schedule ``arg``) chain."""
    if kind == "prr":
        n = inst.n_clients
        advance = lambda m, delivered: (m + 1) % n if delivered else m  # noqa: E731
        return _alone(prr_chain(inst), inst.theta), eigvals_cost(inst, n, lambda x, m: m + 1, advance)
    if kind == "ps":
        period = len(arg)
        report = _alone(periodic_chain(inst, PeriodicSchedule(arg, inst.n_clients)), inst.theta)
        advance = lambda m, delivered: (m + 1) % period  # noqa: E731
        return report, eigvals_cost(inst, period, lambda x, m: arg[m], advance)
    if kind == "mlg":
        policy = mlg_stationary_policy(inst)
    else:
        policy = _random_ne_policy(inst, np.random.default_rng(arg))
    indexer = inst.indexer()
    serve = lambda x, m: int(policy.decisions[indexer.index(x)])  # noqa: E731
    report = _alone(exact.stationary_chain(policy, inst), inst.theta)
    return report, eigvals_cost(inst, 1, serve, lambda m, delivered: 0)


@pytest.mark.parametrize(
    "kind, inst, arg",
    [
        ("stationary", Instance((3, 5), (0.8, 0.9), 0.1), 8),
        ("mlg", Instance((2, 3), (0.6, 0.7), 0.05), None),
        ("stationary", Instance((1, 2, 2), (0.6, 0.7, 0.8), 0.2), 9),
        # PRR stopped 4.4e-9 relative off this value under the old absolute stopping rule
        ("prr", Instance((2, 3), (0.7, 0.8), 0.5), None),
        ("prr", Instance((1, 2, 2), (0.6, 0.7, 0.8), 0.2), None),
        ("ps", Instance((2, 3), (0.7, 0.8), 0.5), (1, 2, 2)),
        ("ps", Instance((1, 2, 2), (0.6, 0.7, 0.8), 0.2), (1, 2, 3)),
    ],
)
def test_bracket_contains_the_excess_form_eigenvalue(kind, inst, arg):
    report, j = _bracket_case(kind, inst, arg)
    assert report.converged
    assert report.j_lo <= report.average_cost <= report.j_hi
    assert report.j_hi - report.j_lo <= 1e-6 * report.j_lo
    # a slack of 1e-12 relative allows for eigvals' own rounding
    assert report.j_lo * (1 - 1e-12) <= j <= report.j_hi * (1 + 1e-12)


def test_epsilon_sweep_is_certified_down_to_the_floating_point_floor():
    # fig4's instance; a 40-digit evaluation puts MLG's J at 1.00005 times
    # the leading term (e^theta - 1) / (theta delta) (b1 epsilon)^(tau1 - 1) at 1e-5
    taus, bs, theta = (3, 5), (2.0, 1.0), 0.01
    for epsilon in (1e-3, 1e-4, 3e-5, 1e-5, 1e-7, 1e-8):
        inst = Instance(taus, tuple(1 - b * epsilon for b in bs), theta)
        optimum = growth_rate_optimal(inst)
        chains = [exact.stationary_chain(mlg_stationary_policy(inst), inst), prr_chain(inst)]
        mlg, prr = exact.chain_average_costs(chains, [theta] * 2)
        converged = [optimum.converged, mlg.converged, prr.converged]
        if epsilon >= 3e-5:
            assert all(converged)
        if epsilon >= 1e-5:
            assert optimum.j_lo <= mlg.j_hi
        if epsilon == 1e-5:
            leading = math.expm1(theta) / (theta * 2) * (bs[0] * epsilon) ** 2
            assert mlg.average_cost / leading == pytest.approx(1.00005, abs=2e-6)
        if epsilon <= 1e-7:
            assert not any(converged)


def test_stacked_rows_match_per_policy_evaluation_where_cycles_lie_off_the_class():
    # some NE policies on thresholds (2, 3) cycle among states the
    # all-threshold start never reaches; in the stack those states must not
    # touch their row's bracket
    inst = Instance((2, 3), (0.6, 0.9), 0.3)
    start = inst.indexer().index(inst.thresholds)
    off_class, others = [], []
    for policy in (_random_ne_policy(inst, np.random.default_rng(seed)) for seed in range(400)):
        weighted, reach = stationary_dense(policy, inst)
        on_cycle = ((weighted > 0) & reach.T).any(axis=1)  # a successor leads back
        (off_class if (on_cycle & ~reach[start]).any() else others).append(policy.decisions)
    assert off_class
    policies = [StationaryPolicy(d) for d in off_class + others[:8]]
    chains = [exact.stationary_chain(pol, inst) for pol in policies]
    stacked = exact.chain_average_costs(chains, [inst.theta] * len(chains))
    expected = [_alone(chain, inst.theta).average_cost for chain in chains]
    assert [report.average_cost for report in stacked] == expected


def test_stacked_chains_of_any_size_match_their_own_evaluation():
    # rows of different lengths share one flat stack; none may move another's bracket
    two = Instance((2, 3), (0.6, 0.7), 0.05)
    three = Instance((2, 3, 4), (0.6, 0.7, 0.8), 0.3)
    stationary = exact.stationary_chain(_random_ne_policy(two, np.random.default_rng(3)), two)
    chains = [
        stationary,
        prr_chain(three),
        dataclasses.replace(stationary, start=two.indexer().index((0, 0))),  # a transient start
        periodic_chain(three, PeriodicSchedule((1, 2, 1, 3), 3)),
    ]
    thetas = [two.theta, three.theta, two.theta, three.theta]
    for stacked, chain, theta in zip(exact.chain_average_costs(chains, thetas), chains, thetas):
        assert stacked == _alone(chain, theta)


def test_stacked_rows_that_stop_at_different_windows_match_their_own_evaluation():
    # SN, PRR and PS classes of 960, 528 and 227 states stop between 96 and
    # 232 iterations; each stopped row leaves the stack, and the rows left
    # running must go on exactly as they would alone
    chains, thetas = [], []
    for epsilon in (0.1, 0.2, 0.3):
        inst = Instance((7, 10, 13), (1 - epsilon,) * 3, 0.05)
        chains += [
            exact.stationary_chain(sn_policy(inst)[0], inst),
            prr_chain(inst),
            periodic_chain(inst, build_periodic_schedule(inst, 12)),
        ]
        thetas += [inst.theta] * 3
    stacked = exact.chain_average_costs(chains, thetas)
    sizes = {int(exact._closed_classes(chain.succ, chain.fail, [chain.start])[0].sum()) for chain in chains}
    assert sorted(sizes) == [227, 528, 960]
    assert len({report.iterations for report in stacked}) >= 6
    for report, chain, theta in zip(stacked, chains, thetas):
        assert report == _alone(chain, theta)


def _assert_stacked_optima_match_their_own(insts):
    stacked = growth_rate_optima(insts)
    for result, inst in zip(stacked, insts):
        alone = growth_rate_optimal(inst)
        assert (result.j_lo, result.j_hi, result.iterations) == (alone.j_lo, alone.j_hi, alone.iterations)
        assert np.array_equal(result.policy.decisions, alone.policy.decisions)
    return stacked


@pytest.mark.parametrize(
    "insts",
    [
        [Instance((3, 5), (1 - 2 * eps, 1 - eps), 0.01) for eps in (1e-4, 0.01, 0.2, 0.3)],
        [Instance((2, 3), (0.6, 0.7), theta) for theta in (0.005, 0.02, 0.1, 0.5, 2.0)],
    ],
    ids=["epsilon", "theta"],
)
def test_stacked_optima_match_their_own(insts):
    stacked = _assert_stacked_optima_match_their_own(insts)
    assert len({result.iterations for result in stacked}) > 1  # rows leave at different windows
    assert all(result.converged for result in stacked)


def test_stacked_optima_match_their_own_when_the_cap_stops_some_rows(monkeypatch):
    # the rows stop at 72, 56 and 40 iterations: a cap of 60 stops the first
    # inside a window, after its last update, and the others by the floor rule
    monkeypatch.setattr(exact, "MAX_ITER", 60)
    insts = [Instance((2, 3), (0.6, 0.7), theta) for theta in (0.1, 0.5, 2.0)]
    stacked = _assert_stacked_optima_match_their_own(insts)
    assert [result.iterations for result in stacked] == [60, 56, 40]


def test_blocking_the_drift_changes_no_bit(monkeypatch):
    # blocks of 7 entries cut the rows, and the stack compacted as rows stop, at odd places
    insts = [Instance((2, 3, 4), (0.6, 0.7, 0.8), theta) for theta in (0.05, 0.5)]
    two = Instance((3, 5), (0.8, 0.9), 0.1)
    chains = [
        prr_chain(insts[0]),
        exact.stationary_chain(mlg_stationary_policy(two), two),
        periodic_chain(insts[1], PeriodicSchedule((1, 2, 1, 3), 3)),
    ]
    thetas = [insts[0].theta, two.theta, insts[1].theta]
    default = growth_rate_optima(insts), exact.chain_average_costs(chains, thetas)
    monkeypatch.setattr(exact, "_DRIFT_BLOCK", 7)
    assert (growth_rate_optima(insts), exact.chain_average_costs(chains, thetas)) == default


def test_stacked_optima_keep_their_client_rows_c_contiguous(monkeypatch):
    # fig3_small's instance at its five thetas: the rows stop at 120, 128,
    # 128, 120 and 96 iterations, and each stop compacts the (N, entries) stack;
    # a column-major stack makes the drift's minimum over clients many times slower
    layouts = []
    drift = exact._drift

    def recorded_drift(w, succ, fail, p):
        layouts.append((succ.flags.c_contiguous, p.flags.c_contiguous))
        return drift(w, succ, fail, p)

    monkeypatch.setattr(exact, "_drift", recorded_drift)
    insts = [Instance((4, 8), (0.4, 0.1), theta) for theta in (0.02, 0.05, 0.1, 0.2, 0.4)]
    assert [result.iterations for result in growth_rate_optima(insts)] == [120, 128, 128, 120, 96]
    assert len(layouts) == 128 and all(succ and p for succ, p in layouts)


def test_stacked_optima_need_shared_thresholds():
    with pytest.raises(ValueError):
        growth_rate_optima([Instance((2, 3), (0.6, 0.7), 0.1), Instance((3, 3), (0.6, 0.7), 0.1)])
