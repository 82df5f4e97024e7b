import pytest

from dense_oracle import eigvals_cost

from idsched.errors import ConfigError
from idsched.heuristics import (
    DebtLedger,
    PeriodicSchedule,
    RoundRobinState,
    build_periodic_schedule,
    deterministic_cycle_cost,
    periodic_schedule_average_cost,
    prr_advance,
    prr_average_cost,
    prr_decide,
    ps_decide,
    wdd_decide,
)
from idsched.model import Instance
from idsched.sim import PrrHandle, PsHandle, SimConfig, estimate_cost, run_trial


def test_round_robin_rotation():
    rr = RoundRobinState(1, 3)
    assert prr_decide(rr) == 1
    rr = prr_advance(rr, delivered=True)
    assert rr.current == 2
    rr = prr_advance(RoundRobinState(3, 3), delivered=True)
    assert rr.current == 1  # wrap
    rr = prr_advance(RoundRobinState(2, 3), delivered=False)
    assert rr.current == 2  # retry until delivery


def test_wdd_decide_examples():
    inst = Instance((2, 4), (0.5, 0.5), 0.05)
    ledger = DebtLedger(t=10, deliveries=(2, 1))
    assert wdd_decide(ledger, inst) == 1  # debts (6, 3)

    fresh = DebtLedger.fresh(2)
    assert wdd_decide(fresh, inst) == 1  # all-zero debts, lowest client

    sym = Instance((3, 3), (0.5, 0.5), 0.05)
    assert wdd_decide(DebtLedger(t=6, deliveries=(1, 1)), sym) == 1


def test_wdd_argmax_invariances():
    # common scaling of equal reliabilities never changes the winner
    lo = Instance((2, 4, 3), (0.4, 0.4, 0.4), 0.05)
    hi = Instance((2, 4, 3), (0.8, 0.8, 0.8), 0.05)
    for t, ms in [(5, (1, 0, 1)), (9, (2, 2, 1)), (12, (3, 1, 2))]:
        ledger = DebtLedger(t=t, deliveries=ms)
        assert wdd_decide(ledger, lo) == wdd_decide(ledger, hi)


def test_ledger_updates():
    ledger = DebtLedger.fresh(2)
    ledger = ledger.after_slot(None)
    assert (ledger.t, ledger.deliveries) == (1, (0, 0))
    ledger = ledger.after_slot(2)
    assert (ledger.t, ledger.deliveries) == (2, (0, 1))


def test_periodic_schedule_validation():
    with pytest.raises(ValueError):
        PeriodicSchedule((), 2)
    with pytest.raises(ValueError):
        PeriodicSchedule((1, 1), 2)  # client 2 missing
    sched = PeriodicSchedule((1, 2), 2)
    assert sched.to_json() == {"sequence": [1, 2]}


def test_build_periodic_schedule_examples():
    inst = Instance((2, 2), (0.5, 0.5), 0.05)
    sched = build_periodic_schedule(inst, 6)
    assert sched.sequence == (1, 2)

    inst3 = Instance((4, 6, 8), (0.9, 0.9, 0.9), 0.05)
    sched3 = build_periodic_schedule(inst3, 12)
    assert deterministic_cycle_cost(sched3.sequence, inst3.thresholds) == 0.0

    single = Instance((3,), (0.5,), 0.05)
    assert build_periodic_schedule(single, 4).sequence == (1,)

    with pytest.raises(ConfigError):
        build_periodic_schedule(inst3, 2)


def test_schedule_search_dominates_naive_rotation():
    inst = Instance((2, 5, 5), (0.9, 0.9, 0.9), 0.05)
    sched = build_periodic_schedule(inst, 8)
    naive = deterministic_cycle_cost((1, 2, 3), inst.thresholds)
    assert deterministic_cycle_cost(sched.sequence, inst.thresholds) <= naive


def test_ps_decide_is_clock_driven():
    sched = PeriodicSchedule((1, 2), 2)
    assert ps_decide(sched, 5) == 2
    assert ps_decide(sched, 0) == 1
    assert [ps_decide(sched, t) for t in range(4)] == [1, 2, 1, 2]


def test_round_robin_perfect_channels_cycle():
    # with no failures the token rotates every slot; from a start aligned
    # with the rotation nobody ever reaches a threshold covering the cycle,
    # and every client's inter-delivery gap is exactly the client count
    inst = Instance((3, 3, 3), (1.0, 1.0, 1.0), 0.05, allow_endpoint_reliabilities=True)
    res = run_trial(inst, PrrHandle(3), 60, (1, 0), (2, 1, 0), record_delivery_slots=True)
    assert res.exceedance_total == 0
    assert res.deliveries == (20, 20, 20)
    for slots in res.delivery_slots:
        gaps = {b - a for a, b in zip(slots, slots[1:])}
        assert gaps == {3}


def test_prr_exact_cost_matches_simulation():
    inst = Instance((3, 4), (0.7, 0.8), 0.05)
    report = prr_average_cost(inst)
    est = estimate_cost(inst, PrrHandle(2), SimConfig(horizon=60_000, trials=32, seed=17))
    assert est.j_hat == pytest.approx(report.average_cost, rel=0.05)


def test_periodic_exact_cost_matches_simulation():
    inst = Instance((3, 4), (0.8, 0.9), 0.05)
    sched = build_periodic_schedule(inst, 6)
    report = periodic_schedule_average_cost(inst, sched)
    est = estimate_cost(inst, PsHandle(sched), SimConfig(horizon=60_000, trials=32, seed=19))
    assert est.j_hat == pytest.approx(report.average_cost, rel=0.05)


@pytest.mark.parametrize(
    "inst, sequence",
    [
        (Instance((2, 3), (0.7, 0.8), 0.5), (1, 2, 2)),
        (Instance((2, 3, 4), (0.6, 0.7, 0.8), 0.3), (1, 2, 1, 3)),
    ],
)
def test_prr_and_periodic_exact_costs_match_eigenvalues(inst, sequence):
    n, period = inst.n_clients, len(sequence)
    prr = eigvals_cost(inst, n, lambda x, m: m + 1, lambda m, delivered: (m + 1) % n if delivered else m)
    ps = eigvals_cost(inst, period, lambda x, m: sequence[m], lambda m, delivered: (m + 1) % period)
    # a tight tolerance checks the chains, not the stopping rule: at the
    # default 1e-12, PRR on the two-client instance stops 4.4e-9 relative early
    sched = PeriodicSchedule(sequence, n)
    assert prr_average_cost(inst, tol=1e-14).average_cost == pytest.approx(prr, rel=1e-9)
    assert periodic_schedule_average_cost(inst, sched, tol=1e-14).average_cost == pytest.approx(ps, rel=1e-9)
