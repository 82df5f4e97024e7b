import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paper_oracle
import sim_oracle
from dense_oracle import eigvals_cost

from idsched.errors import ConfigError
from idsched.exact import chain_average_costs
from idsched.heuristics import (
    PeriodicSchedule,
    _necklaces,
    build_periodic_schedule,
    deterministic_cycle_cost,
    periodic_chain,
    prr_chain,
)
from idsched.model import Instance
from idsched.sim import SimConfig, estimate_costs

# a stand-in state: round robin, WDD and periodic decisions read only their memory
ANY = (0, 0, 0)


def test_round_robin_rotation():
    # the token is 0-based: token m serves client m + 1
    _, serve, advance = sim_oracle.prr(3)
    assert serve(ANY, 0) == 1
    assert serve(ANY, advance(0, 1, True)) == 2
    assert serve(ANY, advance(2, 3, True)) == 1  # wrap
    assert serve(ANY, advance(1, 2, False)) == 2  # retry until delivery


def test_wdd_decide_examples():
    inst = Instance((2, 4), (0.5, 0.5), 0.05)
    fresh, serve, _ = sim_oracle.wdd(inst)
    assert serve(ANY, (10, (2, 1))) == 1  # debts (6, 3)
    assert serve(ANY, fresh) == 1  # all-zero debts, lowest client

    sym = Instance((3, 3), (0.5, 0.5), 0.05)
    assert sim_oracle.wdd(sym)[1](ANY, (6, (1, 1))) == 1


def test_wdd_argmax_invariances():
    # common scaling of the reliabilities, equal or not, never changes the
    # winner, nor does a shift of the ledger by whole periods
    # (t, M) -> (t + k L, M + k L / tau), L = lcm(tau)
    taus = (2, 4, 3)
    period = math.lcm(*taus)
    for lo_ps, hi_ps in [((0.4, 0.4, 0.4), (0.8, 0.8, 0.8)), ((0.3, 0.45, 0.2), (0.6, 0.9, 0.4))]:
        lo = sim_oracle.wdd(Instance(taus, lo_ps, 0.05))[1]
        hi = sim_oracle.wdd(Instance(taus, hi_ps, 0.05))[1]
        for t, ms in [(5, (1, 0, 1)), (9, (2, 2, 1)), (12, (3, 1, 2)), (12, (6, 3, 4)), (24, (11, 6, 8))]:
            assert lo(ANY, (t, ms)) == hi(ANY, (t, ms))
            for k in (1, 7, 10**6 // period):
                shifted = (t + k * period, tuple(m + k * period // tau for m, tau in zip(ms, taus)))
                assert lo(ANY, shifted) == hi(ANY, shifted) == lo(ANY, (t, ms))
    # at unequal reliabilities the debts weigh e = t - tau M by 1 / (tau p):
    # e = (2, 4, 3) owes 10/3, 20/9 and 5
    assert sim_oracle.wdd(Instance(taus, (0.3, 0.45, 0.2), 0.05))[1](ANY, (12, (5, 2, 3))) == 3


@st.composite
def _equal_reliability_ledgers(draw):
    """An equal-reliability instance of 1 to 4 clients, thresholds up to 10, and a ledger ``(t, M)`` with t up to 10**7.

    Each count sits within a few of ``t / tau``; at a multiple of ``lcm(tau)``
    that makes exact ties common.
    """
    n = draw(st.integers(1, 4))
    taus = tuple(draw(st.integers(1, 10)) for _ in range(n))
    period = math.lcm(*taus)
    t = draw(st.one_of(st.integers(0, 10**7 // period).map(lambda j: j * period), st.integers(0, 10**7)))
    counts = tuple(max(0, t // tau - draw(st.integers(-3, 3))) for tau in taus)
    return Instance(taus, (draw(st.floats(0.01, 0.99)),) * n, 0.05), t, counts


@settings(max_examples=300, deadline=None)
@given(_equal_reliability_ledgers())
def test_equal_reliability_wdd_serves_the_largest_exact_debt(case):
    # the first client with the largest rational debt (t - tau M) / (tau p)
    inst, t, counts = case
    p = Fraction(inst.reliabilities[0])
    debts = [(t - tau * m) / (tau * p) for tau, m in zip(inst.thresholds, counts)]
    assert sim_oracle.wdd(inst)[1](ANY, (t, counts)) == debts.index(max(debts)) + 1


def _decimal(draw):
    """A reliability written with a few decimals, or as ``1 - b eps``, which floats hold inexactly (1 - 3 * 0.2 is 0.3999999999999999)."""
    if draw(st.booleans()):
        digits = draw(st.integers(1, 4))
        return draw(st.integers(1, 10**digits - 1)) / 10**digits
    eps = draw(st.sampled_from([0.2, 0.1, 0.03, 0.01, 0.003, 0.001]))
    return 1 - draw(st.integers(1, 3)) * eps


@st.composite
def _unequal_reliability_ledgers(draw):
    """An instance of 1 to 4 clients at decimal reliabilities, thresholds up to 10, and a ledger ``(t, M)`` with t up to 10**7.

    As in ``_equal_reliability_ledgers``, each count sits within a few of
    ``t / tau``; two clients often share a reliability, and their
    keys then tie exactly.
    """
    n = draw(st.integers(1, 4))
    taus = tuple(draw(st.integers(1, 10)) for _ in range(n))
    period = math.lcm(*taus)
    t = draw(st.one_of(st.integers(0, 10**7 // period).map(lambda j: j * period), st.integers(0, 10**7)))
    counts = tuple(max(0, t // tau - draw(st.integers(-3, 3))) for tau in taus)
    pool = [_decimal(draw) for _ in range(draw(st.integers(1, n)))]
    return Instance(taus, tuple(draw(st.sampled_from(pool)) for _ in range(n)), 0.05), t, counts


@settings(max_examples=300, deadline=None)
@given(_unequal_reliability_ledgers())
@example((Instance((1, 2, 1), (0.9, 0.9, 0.1), 0.05), 38, (39, 20, 39)))
def test_unequal_reliability_wdd_serves_the_largest_exact_debt(case):
    # the first client with the largest rational debt (t - tau M) / (tau p),
    # p the fraction nearest to the reliability with a denominator of at most
    # 10**6; in the example clients 1 and 2 both owe -10/9, and the float
    # debts t / (p tau) - M / p give the tie to client 2
    inst, t, counts = case
    ps = [Fraction(p).limit_denominator(10**6) for p in inst.reliabilities]
    debts = [(t - tau * m) / (tau * p) for tau, m, p in zip(inst.thresholds, counts, ps)]
    assert sim_oracle.wdd(inst)[1](ANY, (t, counts)) == debts.index(max(debts)) + 1


def test_ledger_updates():
    ledger, _, advance = sim_oracle.wdd(Instance((2, 4), (0.5, 0.5), 0.05))
    ledger = advance(ledger, 1, False)
    assert ledger == (1, (0, 0))
    ledger = advance(ledger, 2, True)
    assert ledger == (2, (0, 1))


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


def test_a_client_never_served_is_charged_in_every_slot():
    # the unserved clients sit at their thresholds in every slot of the steady state
    assert deterministic_cycle_cost((1,), (2, 3)) == 1.0
    assert deterministic_cycle_cost((2,), (2, 3, 4)) == 2.0
    assert deterministic_cycle_cost((1, 1, 3), (2, 3, 1)) == 5 / 3  # client 2 in all three slots, client 3 in two


@st.composite
def _covering_sequences(draw):
    """Thresholds of 1 to 4 clients, each from 1 to 6, and a sequence of up to 9 slots that serves every client."""
    n = draw(st.integers(1, 4))
    taus = tuple(draw(st.integers(1, 6)) for _ in range(n))
    sequence = draw(st.permutations(range(1, n + 1))) + draw(st.lists(st.integers(1, n), max_size=9 - n))
    return tuple(draw(st.permutations(sequence))), taus


@settings(max_examples=300, deadline=None)
@given(_covering_sequences())
def test_gap_cost_equals_the_slot_replay(case):
    sequence, taus = case
    assert deterministic_cycle_cost(sequence, taus) == paper_oracle.replayed_cycle_cost(sequence, taus)


def test_necklace_walk_yields_the_least_rotations_in_order():
    for n in range(1, 5):
        for length in range(1, 8):
            least = [seq for seq in product(range(1, n + 1), repeat=length) if paper_oracle.is_least_rotation(seq)]
            assert list(_necklaces(n, length)) == least


@st.composite
def _search_cases(draw):
    """An instance of 1 to 4 clients at thresholds 1 to 6, where cost ties are common, and a max_period of n to 7."""
    n = draw(st.integers(1, 4))
    taus = tuple(draw(st.integers(1, 6)) for _ in range(n))
    return Instance(taus, (0.9,) * n, 0.05), draw(st.integers(n, 7))


@settings(max_examples=150, deadline=None)
@given(_search_cases())
@example((Instance((2, 3, 4), (0.9,) * 3, 0.05), 7))
def test_schedule_search_matches_the_reference(case):
    inst, max_period = case
    assert build_periodic_schedule(inst, max_period).sequence == paper_oracle.periodic_schedule_search(inst, max_period)


def test_schedule_search_dominates_naive_rotation():
    inst = Instance((2, 5, 5), (0.9, 0.9, 0.9), 0.05)
    sched = build_periodic_schedule(inst, 8)
    naive = deterministic_cycle_cost((1, 2, 3), inst.thresholds)
    assert deterministic_cycle_cost(sched.sequence, inst.thresholds) <= naive


def test_ps_decide_is_clock_driven():
    # the phase advances every slot, whatever the state, client and outcome
    phase, serve, advance = sim_oracle.ps(PeriodicSchedule((1, 2), 2).sequence)
    decisions = []
    for t in range(6):
        decisions.append(serve((t % 3, 1), phase))
        phase = advance(phase, decisions[-1], t % 2 == 0)
    assert decisions[5] == 2
    assert decisions[0] == 1
    assert decisions[:4] == [1, 2, 1, 2]


def test_round_robin_perfect_channels_cycle():
    # with no failures the token rotates every slot; from a start aligned
    # with the rotation nobody ever reaches a threshold covering the cycle,
    # and every client's inter-delivery gap is exactly the client count;
    # a slot fails only on the uniform 1 - 2**-53, which these streams never draw
    perfect = math.nextafter(1.0, 0.0)
    inst = Instance((3, 3, 3), (perfect, perfect, perfect), 0.05)
    res = sim_oracle.run_trial(inst, sim_oracle.prr(3), 60, (1, 0), (2, 1, 0))
    assert res.exceedance_total == 0
    assert res.deliveries == (20, 20, 20)
    for slots in res.delivery_slots:
        gaps = {b - a for a, b in zip(slots, slots[1:])}
        assert gaps == {3}


def test_prr_exact_cost_matches_simulation():
    inst = Instance((3, 4), (0.7, 0.8), 0.05)
    (report,) = chain_average_costs([prr_chain(inst)], [inst.theta])
    (est,) = estimate_costs([inst], [prr_chain(inst)], SimConfig(horizon=60_000, trials=32, seed=17))
    assert est.j_hat == pytest.approx(report.average_cost, rel=0.05)


def test_periodic_exact_cost_matches_simulation():
    inst = Instance((3, 4), (0.8, 0.9), 0.05)
    sched = build_periodic_schedule(inst, 6)
    (report,) = chain_average_costs([periodic_chain(inst, sched)], [inst.theta])
    (est,) = estimate_costs([inst], [periodic_chain(inst, sched)], SimConfig(horizon=60_000, trials=32, seed=19))
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
    sched = PeriodicSchedule(sequence, n)
    reports = chain_average_costs([prr_chain(inst), periodic_chain(inst, sched)], [inst.theta] * 2)
    assert reports[0].average_cost == pytest.approx(prr, rel=1e-9)
    assert reports[1].average_cost == pytest.approx(ps, rel=1e-9)
