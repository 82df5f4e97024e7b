"""Acceptance gate: end-to-end checks at their stated tolerances.

Each gate prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its runtime budget.  Budgets are generous on modern hardware;
they guard against algorithmic regressions, not micro-variance.
"""

import dataclasses
import functools
import math
import time

import numpy as np

from dense_oracle import recurrent, stationary_dense
from paper_oracle import (
    Mdp1Table,
    doeblin_hitting_times,
    dp_mdp1,
    dp_mdp2,
    enumerated_optimum,
    is_ne,
    mlg_cost_leading,
)

from idsched.asymptotic import mlg_stationary_policy, sn_policy
from idsched.exact import (
    StationaryPolicy,
    chain_average_costs,
    growth_rate_optimal,
    stationary_chain,
    theta_threshold,
)
from idsched.heuristics import build_periodic_schedule, periodic_chain, prr_chain
from idsched.model import AsymptoticInstance, Instance, exclusion_state, slot_cost
from idsched.sim import SimConfig, estimate_costs

SEED = 20240817


def gate(label, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.time()
            try:
                fn()
            except BaseException:
                print(f"[acceptance] {label}: FAIL ({time.time() - t0:.1f}s)")
                raise
            elapsed = time.time() - t0
            print(f"[acceptance] {label}: PASS ({elapsed:.1f}s)")
            assert elapsed < budget_s, f"{label} exceeded its {budget_s}s budget"

        return run

    return wrap


def _random_instances(count, rng, n_choices=(1, 2, 3), tau_max=4):
    out = []
    for _ in range(count):
        n = int(rng.choice(n_choices))
        taus = tuple(int(t) for t in rng.integers(1, tau_max + 1, n))
        ps = tuple(float(p) for p in rng.uniform(0.25, 0.9, n))
        theta = float(rng.uniform(0.005, 0.1))
        out.append(Instance(taus, ps, theta))
    return out


@gate("A1 clipped-unclipped equivalence", 10)
def test_acceptance_01_formulation_equivalence():
    rng = np.random.default_rng(SEED)
    horizon = 10
    for inst in _random_instances(20, rng):
        clipped = dp_mdp2(inst, horizon)
        unbounded = Mdp1Table(inst, horizon, inst.thresholds)
        for x in inst.indexer().states():
            for t in range(horizon + 1):
                v2 = clipped.value(t, x)
                assert abs(unbounded.value(t, x) - v2) <= 1e-9 * v2
            for t in range(1, horizon + 1):
                assert unbounded.minimizing_actions(t, x) == clipped.minimizing_actions(inst, t, x)


@gate("A2 threshold-shift scaling law", 10)
def test_acceptance_02_scaling_law():
    rng = np.random.default_rng(SEED + 1)
    instances = _random_instances(10, rng)
    samples = 0
    while samples < 50:
        inst = instances[samples % len(instances)]
        n = int(rng.integers(inst.n_clients))
        x = tuple(int(rng.integers(0, t + 1)) for t in inst.thresholds)
        horizon = int(rng.integers(1, 9))
        shifted = tuple(v + inst.thresholds[n] if i == n else v for i, v in enumerate(x))
        pinned = tuple(inst.thresholds[n] if i == n else v for i, v in enumerate(x))
        lhs = dp_mdp1(inst, horizon, shifted)
        rhs = math.exp(inst.theta * x[n]) * dp_mdp1(inst, horizon, pinned)
        assert abs(lhs - rhs) <= 1e-9 * rhs
        samples += 1


@gate("A3 enumeration vs growth-rate optimum", 60)
def test_acceptance_03_optimum_cross_check():
    for taus in ((2, 2), (2, 3)):
        for ps in ((0.5, 0.5), (0.6, 0.7)):
            inst = Instance(taus, ps, 0.01)
            _, enum_j = enumerated_optimum(inst)
            iter_result = growth_rate_optimal(inst)
            assert iter_result.converged
            assert abs(enum_j - iter_result.average_cost) <= 1e-6
            # the bracket is about 1e-14 wide, and eigvals' rounding puts its J up to 2e-14 outside it
            assert iter_result.j_lo * (1 - 1e-12) <= enum_j <= iter_result.j_hi * (1 + 1e-12)


@gate("A4 two-client leading-order cost", 5)
def test_acceptance_04_leading_order_cost():
    base = AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01)
    lead = mlg_cost_leading(base)
    ratios = []
    for eps in (1e-2, 3e-3, 1e-3):
        inst = dataclasses.replace(base, epsilon=eps).materialize()
        j = chain_average_costs([stationary_chain(mlg_stationary_policy(inst), inst)], [inst.theta])[0].average_cost
        ratios.append(j / lead.evaluate(eps))
    assert ratios[0] >= ratios[1] >= ratios[2]
    assert 0.95 <= ratios[-1] <= 1.05


@gate("A5 two-client asymptotic optimality", 10)
def test_acceptance_05_mlg_near_optimal():
    base = AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01)
    # boundary of the delta >= 2 optimality condition b1^(tau-1) <= delta (tau-1) b2^(tau-1): 4 = 2 * 2 * 1
    b1, b2 = base.coefficients
    assert b1**2 == 2 * 2 * b2**2
    inst = base.materialize()
    j_mlg = chain_average_costs([stationary_chain(mlg_stationary_policy(inst), inst)], [inst.theta])[0].average_cost
    j_op = growth_rate_optimal(inst).average_cost
    assert j_mlg / j_op <= 1.02


@gate("A6 two-client comparison trends", 30)
def test_acceptance_06_two_client_trends():
    base = AsymptoticInstance((3, 5), (2.0, 1.0), 1e-3, 0.01)
    # warmup clears the start-state transient, which would otherwise swamp
    # the rare exceedances at the smallest failure rates
    sim_sizes = {1e-1: (30_000, 64), 1e-2: (100_000, 64), 1e-3: (100_000, 256)}
    final_mlg_norm = None
    for eps in (1e-1, 1e-2, 1e-3):
        inst = dataclasses.replace(base, epsilon=eps).materialize()
        j_op = growth_rate_optimal(inst).average_cost
        chains = [stationary_chain(mlg_stationary_policy(inst), inst), prr_chain(inst)]
        mlg, prr = chain_average_costs(chains, [inst.theta] * 2)
        mlg_norm = mlg.average_cost / j_op
        prr_norm = prr.average_cost / j_op
        horizon, trials = sim_sizes[eps]
        (wdd,) = estimate_costs([inst], [None], SimConfig(horizon=horizon, trials=trials, seed=SEED, warmup=2000))
        wdd_norm = wdd.j_hat / j_op
        print(f"  eps={eps}: mlg={mlg_norm:.4f} prr={prr_norm:.4f} wdd={wdd_norm:.4f}")
        assert mlg_norm <= wdd_norm
        assert mlg_norm <= prr_norm
        final_mlg_norm = mlg_norm
    assert final_mlg_norm <= 1.05


@gate("A7 three-client comparison trends", 60)
def test_acceptance_07_three_client_trends():
    base = AsymptoticInstance((4, 6, 8), (1.0, 1.0, 1.0), 1e-2, 0.05)
    norms = {}
    for eps in (1e-2, 3e-2, 1e-1):
        inst = dataclasses.replace(base, epsilon=eps).materialize()
        j_op = growth_rate_optimal(inst).average_cost
        pol_sn, _ = sn_policy(inst)
        chains = {"sn": stationary_chain(pol_sn, inst), "prr": prr_chain(inst)}
        if eps == 1e-2:
            chains["ps"] = periodic_chain(inst, build_periodic_schedule(inst, 12))
        reports = chain_average_costs(list(chains.values()), [inst.theta] * len(chains))
        norms[eps] = {name: report.average_cost / j_op for name, report in zip(chains, reports)}
        if eps == 1e-2:
            (wdd,) = estimate_costs([inst], [None], SimConfig(horizon=100_000, trials=96, seed=SEED, warmup=2000))
            norms[eps]["wdd"] = wdd.j_hat / j_op
        print(f"  eps={eps}: {norms[eps]}")
    at_small = norms[1e-2]
    assert at_small["sn"] <= 1.05
    assert at_small["sn"] <= min(at_small["prr"], at_small["wdd"])
    assert at_small["ps"] > 2 * at_small["sn"]


@gate("A8 simulator consistency", 120)
def test_acceptance_08_simulator_consistency():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    indexer = inst.indexer()
    regen = (1, 0)
    regen_idx = indexer.index(regen)
    cost = np.array([slot_cost(x, inst) for x in indexer.states()])
    rng = np.random.default_rng(SEED)

    def draw():
        # sampling guards are the cycle estimator's own preconditions: the
        # renewal state must be recurrent and the cycle cost needs a finite
        # second moment for standard errors to exist
        while True:
            pol = StationaryPolicy(rng.integers(1, 3, inst.total_states))
            weighted, reach = stationary_dense(pol, inst)
            if not recurrent(reach)[regen_idx]:
                continue
            excursion2 = cost[:, None] * weighted
            excursion2[:, regen_idx] = 0.0
            if abs(np.linalg.eigvals(excursion2)).max() >= 1.0:
                continue
            return pol

    def exact_finite_horizon_j(pol, horizon):
        # deterministic value of the estimator's target, free of sampling noise
        weighted, _ = stationary_dense(pol, inst)
        v = np.ones(inst.total_states)
        log_acc = 0.0
        for _ in range(horizon):
            v = weighted @ v
            m = v.max()
            v /= m
            log_acc += math.log(m)
        start = indexer.index(inst.thresholds)
        return (log_acc + math.log(v[start])) / (inst.theta * horizon)

    failures = []
    for i in range(5):
        pol = draw()
        chain = stationary_chain(pol, inst)
        exact_j = chain_average_costs([chain], [inst.theta])[0].average_cost
        cfg = SimConfig(horizon=100_000, trials=64, seed=SEED + i)
        (est,) = estimate_costs([inst], [chain], cfg)
        rel = abs(est.j_hat - exact_j) / exact_j
        j_target = exact_finite_horizon_j(pol, cfg.horizon)
        print(
            f"  policy {i}: J={exact_j:.5f} finite-horizon target={j_target:.5f} "
            f"estimate={est.j_hat:.5f} rel err={rel:.4f} block length={est.block_length:.1f} "
            f"tail coverage={est.tail_coverage:.2f}"
        )
        if rel > 0.02:
            failures.append(
                f"policy {i}: estimate off by {rel:.2%} (tolerance 2%) at block length "
                f"{est.block_length:.1f} with tail coverage {est.tail_coverage:.2f}; the "
                f"deterministic finite-horizon value is {j_target:.5f}"
            )
    assert not failures, "; ".join(failures)


@gate("A9 recurrence structure and hitting times", 120)
def test_acceptance_09_structure_suite():
    from itertools import product

    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    idx_tau = inst.indexer().index(inst.thresholds)
    bound = theta_threshold(inst).k
    ne_count = 0
    for decisions in product((1, 2), repeat=inst.total_states):
        pol = StationaryPolicy(np.asarray(decisions, dtype=np.int64))
        if not is_ne(pol, inst):
            continue
        ne_count += 1
        weighted, reach = stationary_dense(pol, inst)
        closed = recurrent(reach)
        # one closed class: all-threshold is recurrent and every recurrent state is in its class
        assert closed[idx_tau] and np.array_equal(closed, reach[idx_tau])
        assert not np.diag(weighted)[~closed].any()  # no self-loop on a transient state
        assert np.all(doeblin_hitting_times(pol, inst) <= bound)
    assert ne_count == 1024


@gate("A10 finite-horizon dominance properties", 30)
def test_acceptance_10_dominance_properties():
    rng = np.random.default_rng(SEED + 2)
    horizon = 10
    instances = []
    while len(instances) < 10:
        n = int(rng.integers(2, 4))
        taus = tuple(int(t) for t in rng.integers(1, 5, n))
        ps = tuple(float(p) for p in rng.uniform(0.2, 0.9, n))
        if len(set(ps)) < n:
            continue
        instances.append(Instance(taus, ps, float(rng.uniform(0.005, 0.1))))
    for inst in instances:
        table = dp_mdp2(inst, horizon)
        n = inst.n_clients
        for client in range(1, n + 1):
            x0 = exclusion_state(inst.thresholds, client)
            for t in range(1, horizon + 1):
                minimizers = table.minimizing_actions(inst, t, x0)
                # a strictly more reliable client is a minimizer whenever the
                # less reliable one is
                for other in range(1, n + 1):
                    if inst.reliabilities[other - 1] > inst.reliabilities[client - 1]:
                        if client in minimizers:
                            assert other in minimizers
            # for the least reliable client, optimality at the fresh state
            # extends over its whole elapsed range
            if inst.reliabilities[client - 1] == min(inst.reliabilities):
                for t in range(1, horizon + 1):
                    if client in table.minimizing_actions(inst, t, x0):
                        for a in range(1, inst.thresholds[client - 1] + 1):
                            xa = tuple(
                                a if i == client - 1 else tau
                                for i, tau in enumerate(inst.thresholds)
                            )
                            assert client in table.minimizing_actions(inst, t, xa)
