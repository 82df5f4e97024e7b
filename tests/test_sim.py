import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sim_oracle
from sim_oracle import run_trial, tally_trials

from idsched import cli, sim
from idsched.errors import ConfigError
from idsched.exact import StationaryPolicy, chain_average_costs, stationary_chain
from idsched.heuristics import PeriodicSchedule, periodic_chain, prr_chain
from idsched.model import Instance
from idsched.sim import (
    SimConfig,
    block_edges,
    estimate_costs,
    log_mean_exp,
)
from idsched.sim import _MIN_BLOCK, _SLICE, _TABLE, _batch_chain, _slices, _steps


def _random_policy(inst, seed):
    rng = np.random.default_rng(seed)
    return StationaryPolicy(rng.integers(1, inst.n_clients + 1, inst.total_states))


def _started(chain, inst, start):
    """``chain`` from clipped state ``start`` with memory 0, where the program starts it at the all-threshold state."""
    return dataclasses.replace(chain, start=inst.indexer().index(start) * (len(chain.p) // inst.total_states))


def _fields(result):
    return result.block_exceedances.tolist()


def _chain_tallies(chains, horizon, trials, seed, warmup):
    """The chain engine's block totals on a stack at its default step, then at one slot per step."""
    default = _batch_chain(chains, horizon, trials, seed, warmup)[0]
    with mock.patch.object(sim, "_TABLE", 0):
        assert _steps_of(chains)[0] == 1
        one_slot = _batch_chain(chains, horizon, trials, seed, warmup)[0]
    return [default, one_slot]


def _wdd_tally(insts, horizon, trials, seed, warmup):
    """WDD's block totals, rows ``(point, trial)``, from the all-threshold state, as a sweep runs them.

    That is as chains on key lattices, and slot by slot past their state cap.
    """
    runs = sim._run_trials(insts, [None] * len(insts), SimConfig(horizon, trials, seed, warmup))
    return np.concatenate([blocks[rows] for blocks, rows in runs])


def test_run_trial_is_deterministic():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 0)
    a = run_trial(inst, sim_oracle.stationary(pol, inst), 500, (11, 3), inst.thresholds)
    b = run_trial(inst, sim_oracle.stationary(pol, inst), 500, (11, 3), inst.thresholds)
    assert a.exceedance_total == b.exceedance_total
    assert a.deliveries == b.deliveries


def test_batch_engines_match_reference_exactly():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 2)
    policy = sim_oracle.stationary(pol, inst)
    ref = [run_trial(inst, policy, 400, (123, r), inst.thresholds, warmup=13) for r in range(5)]
    for tally in _chain_tallies([stationary_chain(pol, inst)], 400, 5, 123, 13):
        for r, b in zip(ref, tally_trials(tally, 1)[0]):
            assert r.exceedance_total == b.exceedance_total
            assert len(r.block_exceedances) > 1
            assert _fields(r) == _fields(b)

    # WDD on one client (a key lattice of one state), two and four clients
    inst1 = Instance((3,), (0.7,), 0.05)
    inst4 = Instance((2, 3, 4, 5), (0.6, 0.9, 0.7, 0.8), 0.05)
    for case in (inst1, inst, inst4):
        refw = [run_trial(case, sim_oracle.wdd(case), 400, (55, r), case.thresholds, warmup=7) for r in range(5)]
        batw = tally_trials(_wdd_tally([case], 400, 5, 55, 7), 1)[0]
        for r, b in zip(refw, batw):
            assert r.exceedance_total == b.exceedance_total
            assert r.block_exceedances.tolist() == b.block_exceedances.tolist()

    # round robin and periodic schedules on their augmented chains, with a
    # warmup that is not a multiple of the period; on three clients the token
    # wraps
    inst3 = Instance((2, 3, 4), (0.6, 0.7, 0.8), 0.05)
    sched = PeriodicSchedule((3, 2, 1, 2), 3)
    cases = [
        (inst, sim_oracle.prr(2), prr_chain(inst)),
        (inst3, sim_oracle.prr(3), prr_chain(inst3)),
        (inst3, sim_oracle.ps(sched.sequence), periodic_chain(inst3, sched)),
    ]
    for seed, (case, policy, chain) in enumerate(cases):
        ref = [run_trial(case, policy, 600, (seed, r), case.thresholds, warmup=13) for r in range(5)]
        for tally in _chain_tallies([chain], 600, 5, seed, 13):
            assert [_fields(r) for r in ref] == [_fields(b) for b in tally_trials(tally, 1)[0]]


def test_a_trial_runs_the_same_alone_or_among_others():
    # a trial's uniforms are a function of (seed, trial, slot): its stream,
    # and so its block totals in WDD's slot loop, do not depend on which
    # trials run beside it, and equal its row among all the trials of the
    # chain engine, as the rerun of a row that ends on its box's edge needs
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 2)
    horizon, seed, warmup, trials = 2500, 41, 13, [0, 5, 2, 9]
    together = [u for _, u, _ in _slices(seed, trials, warmup, horizon)]
    taus, ps = inst.thresholds, inst.reliabilities
    lattice = sim._wdd_chains(taus, [ps], [10**3])
    # trials 0 .. 9 of a chain and of WDD's key lattice, whose rows stay off its edge
    every, ends = _batch_chain([stationary_chain(pol, inst)], horizon, 10, seed, warmup, lattice, taus)
    assert not (ends[10:] == len(lattice[0].p) - 1).any()
    every = every.reshape(2, 10, -1)
    among = sim._batch_wdd(taus, [ps], horizon, np.array(trials), seed, warmup)
    assert np.array_equal(among, every[1, trials])
    for r, trial in enumerate(trials):
        alone = [u[:, 0] for _, u, _ in _slices(seed, [trial], warmup, horizon)]
        assert all(np.array_equal(a, u[:, r]) for a, u in zip(alone, together))
        assert np.array_equal(sim._batch_wdd(taus, [ps], horizon, np.array([trial]), seed, warmup)[0], among[r])
    # and a trial's row equals the oracle's
    ref = run_trial(inst, sim_oracle.stationary(pol, inst), horizon, (seed, trials[1]), taus, warmup)
    assert _fields(ref) == every[0, trials[1]].tolist()


def _assert_points_match_reference(insts, policies, tallies, horizon, seed, starts, warmup):
    """Every engine's block totals, rows ``(point, trial)``, against the oracle."""
    runs = [tally_trials(tally, len(insts)) for tally in tallies]
    for point, (inst, policy, start) in enumerate(zip(insts, policies, starts)):
        ref = [run_trial(inst, policy, horizon, (seed, r), start, warmup=warmup) for r in range(len(runs[0][point]))]
        for run in runs:
            assert [_fields(b) for b in run[point]] == [_fields(r) for r in ref]


@pytest.mark.parametrize(
    "taus, reliabilities, horizon, warmup",
    [
        # a repeated reliability vector (at another theta), warmup off the block grid
        ((2, 3), [(0.6, 0.7), (0.9, 0.5), (0.6, 0.7)], 600, 13),
        # no warmup: the rows pay from their first slot, with no delivery before it
        ((2, 3), [(0.6, 0.7), (0.8, 0.8)], 500, 0),
        ((2, 3), [(0.6, 0.7), (0.8, 0.5)], 500, 0),
        ((2, 3, 4), [(0.6, 0.7, 0.8), (0.7, 0.7, 0.7)], 500, 33),
        # a warmup of many sub-slices, far longer than the horizon
        ((2, 3), [(0.6, 0.7), (0.3, 0.9)], 50, 20_000),
        # client 1 with a threshold of 1
        ((1, 3), [(0.6, 0.7), (0.9, 0.4)], 600, 13),
        # equal reliabilities, where the decision ties exactly; a 3-slot warmup
        # makes a sub-slice shorter than the carried deliveries
        ((2, 4), [(0.9, 0.9), (0.6, 0.6)], 1000, 3),
        # a full 256-slot sub-slice in the warmup, and a horizon off the 256 grid
        ((2, 3), [(0.6, 0.7)], 777, 300),
        # unequal decimal reliabilities: two clients near fig4's, whose weights
        # are (165, 98), three, and four
        ((3, 5), [(0.98, 0.99), (0.8, 0.9)], 700, 9),
        ((2, 3, 4), [(0.95, 0.9, 0.85), (0.5, 0.6, 0.55)], 600, 17),
        ((2, 3, 4, 5), [(0.9, 0.95, 0.85, 0.8), (0.7, 0.6, 0.7, 0.9)], 500, 21),
        # one client: a key lattice of one state, and a slot loop whose keys
        # are the zero row alone
        ((3,), [(0.7,), (0.4,)], 500, 9),
    ],
)
def test_stacked_wdd_engine_matches_reference_per_point(taus, reliabilities, horizon, warmup):
    # every point runs on its key lattice, stacked in one call of the chain
    # engine; then slot by slot, past a state cap of 0
    insts = [Instance(taus, ps, 0.05 * (k + 1)) for k, ps in enumerate(reliabilities)]
    trials = 2 if warmup > horizon else 4
    tally = _wdd_tally(insts, horizon, trials, 17, warmup)
    runs = tally_trials(tally, len(insts))
    assert len(runs) == len(insts) and all(len(run) == trials for run in runs)
    with mock.patch.object(sim, "_WDD_STATES", 0):
        assert sim._wdd_chains(taus, reliabilities, [10**3] * len(insts)) == [None] * len(insts)
        slot_by_slot = _wdd_tally(insts, horizon, trials, 17, warmup)
    policies = [sim_oracle.wdd(inst) for inst in insts]
    _assert_points_match_reference(insts, policies, [tally, slot_by_slot], horizon, 17, [taus] * len(insts), warmup)


def test_wdd_rows_that_end_on_the_box_edge_rerun_in_the_slot_loop(monkeypatch):
    # a box of one largest step tau_c w_c, at reliabilities low enough that
    # failure runs carry the key differences out of it: the rows that end on
    # the edge, and only they, rerun alone in WDD's slot loop, which has no
    # box; the lattices are built once, the stationary chain never reruns,
    # and every row equals the oracle's
    taus = (2, 3, 4)
    insts = [Instance(taus, ps, 0.05) for ps in ((0.3,) * 3, (0.99,) * 3, (0.4, 0.3, 0.5), (0.6, 0.7, 0.8))]
    points = [inst.reliabilities for inst in insts[:3]]
    pol = _random_policy(insts[3], 11)
    builds = []  # per build of WDD's chains: its points
    calls = []  # per call of the chain engine: its finite chains and, per WDD point, the trials that ended on the edge
    reruns = []  # per call of the slot loop: its points and trials
    build, chain_engine, slot_loop = sim._wdd_chains, sim._batch_chain, sim._batch_wdd

    def recorded_build(taus, points, boxes):
        builds.append(list(points))
        return build(taus, points, boxes)

    def recorded_chains(chains, horizon, trials, seed, warmup, wdd, taus):
        totals, ends = chain_engine(chains, horizon, trials, seed, warmup, wdd, taus)
        rows = ends[len(chains) * trials :].reshape(len(wdd), trials)
        calls.append((len(chains), [np.flatnonzero(row == len(c.p) - 1).tolist() for row, c in zip(rows, wdd)]))
        return totals, ends

    def recorded_slots(taus, points, horizon, trials, seed, warmup):
        reruns.append((list(points), np.asarray(trials).tolist()))
        return slot_loop(taus, points, horizon, trials, seed, warmup)

    monkeypatch.setattr(sim, "_first_box", lambda taus, w, worst, trial_slots: max(t * x for t, x in zip(taus, w)))
    monkeypatch.setattr(sim, "_wdd_chains", recorded_build)
    monkeypatch.setattr(sim, "_batch_chain", recorded_chains)
    monkeypatch.setattr(sim, "_batch_wdd", recorded_slots)
    runs = sim._run_trials(insts, [None, None, None, stationary_chain(pol, insts[3])], SimConfig(600, 6, 23, 13))
    # one build and one call of the chain engine, with the stationary chain's
    # 6 rows and WDD's 18; some of WDD's rows end on the edge, and not all
    assert builds == [points]
    ((finite, edges),) = calls
    assert finite == 1 and len(edges) == 3 and 0 < sum(map(len, edges)) < 18
    # each point with rows on the edge reruns exactly those rows, alone
    assert reruns == [([ps], edge) for ps, edge in zip(points, edges) if edge]
    tallies = [np.concatenate([blocks[rows] for blocks, rows in runs])]
    policies = [sim_oracle.wdd(inst) for inst in insts[:3]] + [sim_oracle.stationary(pol, insts[3])]
    _assert_points_match_reference(insts, policies, tallies, 600, 23, [taus] * 4, 13)
    # the box's edge absorbs
    (chain,) = sim._wdd_chains(taus, [insts[0].reliabilities], [12])
    last = len(chain.p) - 1
    assert chain.succ[last] == chain.fail[last] == last


def test_no_wdd_row_of_a_bundled_figure_leaves_its_box(monkeypatch):
    # the slot loop is WDD's fallback, for lattices past their state cap and
    # rows that end on their box's edge: at the benchmark's sizes (6,000
    # slots after a 1,000-slot warmup) no WDD point of the bundled figures
    # needs it, at five seeds
    def refused(*args):
        raise AssertionError("WDD ran in its slot loop")

    monkeypatch.setattr(sim, "_batch_wdd", refused)
    for name, trials in (("fig3_small", 64), ("fig4", 192), ("fig5", 128)):
        cfg = cli.load_config(cli.bundled_config_path(name))
        insts = [cli._instance_at(cfg, value) for value in cfg.sweep_values]
        for seed in (29, 1, 2, 3, 4):
            sim._run_trials(insts, [None] * len(insts), SimConfig(6000, trials, seed, 1000))


def test_wdd_chains_share_one_set_of_table_rows():
    # at equal reliabilities the points' chains differ only in their
    # reliability, so the engine builds one table for all of them, at radix 2
    chains = sim._wdd_chains((4, 6, 8), [(0.99,) * 3, (0.97,) * 3, (0.9,) * 3], [48] * 3)
    assert all(c.succ is chains[0].succ and len(set(c.p.tolist())) == 1 for c in chains)
    levels = [np.array([c.p[0]]) for c in chains]
    *_, ok, base = sim._table_rows(chains, levels, 2)
    assert ok.shape == (len(chains[0].p), 2) and base.tolist() == [0, 0, 0]
    assert _steps_of(chains) == (_steps(len(chains[0].p), 2), 2)


def test_wdd_slot_loop_takes_any_reliabilities_and_keys_past_int64():
    # one call of the slot loop takes points at equal and unequal
    # reliabilities; reliabilities with large denominators give weights whose
    # key differences overflow int64 codes and keys, so they run slot by slot
    # on Python ints, and still equal the oracle
    taus = (2, 3, 4)
    ragged = (0.6180339887, 0.4142135623, 0.7320508075)
    step = max(t * x for t, x in zip(taus, sim._wdd_weights(taus, ragged)))
    assert 2 * 311 * step >= 2**63 and sim._wdd_chains(taus, [ragged], [2 * step]) == [None]
    insts = [Instance(taus, ps, 0.05) for ps in ((0.6, 0.6, 0.6), (0.6, 0.7, 0.8), ragged)]
    tally = _wdd_tally(insts, 300, 3, 5, 11)
    with mock.patch.object(sim, "_WDD_STATES", 0):
        assert np.array_equal(_wdd_tally(insts, 300, 3, 5, 11), tally)
    policies = [sim_oracle.wdd(inst) for inst in insts]
    _assert_points_match_reference(insts, policies, [tally], 300, 5, [taus] * 3, 11)
    # a reliability whose nearest fraction of denominator 10**6 is 0 has no key
    with pytest.raises(ConfigError):
        estimate_costs([Instance((2, 3), (0.9, 1e-7), 0.05)], [None], SimConfig(horizon=100, trials=1, seed=0))


def test_stacked_chain_engine_matches_reference_per_point():
    # chains of different sizes and reliabilities over one set of thresholds,
    # each from its own start, at the default step and at one slot per step
    taus = (2, 3, 4)
    a = Instance(taus, (0.6, 0.7, 0.8), 0.05)
    b = Instance(taus, (0.9, 0.5, 0.7), 0.05)
    pa, pb, sched = _random_policy(a, 3), _random_policy(b, 4), PeriodicSchedule((3, 2, 1, 2), 3)
    cases = [
        (a, sim_oracle.stationary(pa, a), stationary_chain(pa, a), taus),
        (b, sim_oracle.stationary(pb, b), _started(stationary_chain(pb, b), b, (0, 1, 2)), (0, 1, 2)),
        (a, sim_oracle.prr(3), prr_chain(a), taus),
        (b, sim_oracle.prr(3), _started(prr_chain(b), b, (1, 0, 4)), (1, 0, 4)),
        (b, sim_oracle.ps(sched.sequence), _started(periodic_chain(b, sched), b, (0, 1, 2)), (0, 1, 2)),
    ]
    insts, policies, chains, starts = zip(*cases)
    assert len({len(c.p) for c in chains}) == 3
    tallies = _chain_tallies(list(chains), 600, 4, 29, 13)
    _assert_points_match_reference(insts, policies, tallies, 600, 29, starts, 13)


def _two_client_stack():
    # 36 chain states over two reliabilities (radix 3): six slots per step
    taus = (2, 3)
    a, b = Instance(taus, (0.6, 0.7), 0.05), Instance(taus, (0.7, 0.6), 0.05)
    pol = _random_policy(a, 8)
    return [
        (a, sim_oracle.stationary(pol, a), stationary_chain(pol, a), taus),
        (b, sim_oracle.prr(2), _started(prr_chain(b), b, (0, 3)), (0, 3)),
    ]


def _level_groups_stack():
    # three clients, two chains at one epsilon and one at another: two sets of
    # three reliabilities, ranked once each for three chains of 660 states
    # (radix 4), two slots per step
    taus = (2, 3, 4)
    a, c = [Instance(taus, (1 - eps, 1 - 2 * eps, 1 - 3 * eps), 0.05) for eps in (0.01, 0.15)]
    pa, pb = _random_policy(a, 9), _random_policy(a, 10)
    sched, start = PeriodicSchedule((1, 2, 3, 3, 2, 1, 2, 3, 1), 3), (0, 1, 2)
    return [
        (a, sim_oracle.stationary(pa, a), stationary_chain(pa, a), taus),
        (a, sim_oracle.stationary(pb, a), stationary_chain(pb, a), taus),
        (c, sim_oracle.ps(sched.sequence), _started(periodic_chain(c, sched), c, start), start),
    ]


def _stack_above_the_table_limit():
    # 4,410 chain states over three reliabilities (radix 4): one slot per step
    taus = (4, 6, 8)
    inst = Instance(taus, (0.6, 0.7, 0.8), 0.05)
    sched = PeriodicSchedule((1, 2, 3, 3, 2, 3, 1, 3, 2, 3, 3, 2), 3)
    return [
        (inst, sim_oracle.ps(sched.sequence), periodic_chain(inst, sched), taus),
        (inst, sim_oracle.prr(3), _started(prr_chain(inst), inst, (0, 1, 2)), (0, 1, 2)),
    ]


def _steps_of(chains):
    """The chain engine's slots per lookup on a stack, and the radix of its uniforms' ranks.

    The radix is one more than the most distinct reliabilities of one chain,
    and chains equal but for their start and the values of their
    reliabilities share their table rows.
    """
    levels = [sorted(set(c.p.tolist())) for c in chains]
    shared = {
        (c.succ.tobytes(), c.fail.tobytes(), c.hits.tobytes(), np.searchsorted(lev, c.p).tobytes()): len(c.p)
        for c, lev in zip(chains, levels)
    }
    width = max(map(len, levels)) + 1
    return _steps(sum(shared.values()), width), width


@pytest.mark.parametrize(
    "stack, steps, width",
    [(_two_client_stack, 6, 3), (_level_groups_stack, 2, 4), (_stack_above_the_table_limit, 1, 4)],
)
def test_multi_slot_steps_match_the_oracle(stack, steps, width):
    # a 13-slot warmup and 75-slot blocks: most sub-slices end in a step of
    # fewer than K slots
    insts, policies, chains, starts = zip(*stack())
    assert _steps_of(chains) == (steps, width)
    if steps == 1:
        assert sum(len(c.p) for c in chains) * width**2 > _TABLE
    lengths = [len(u) for _, u, _ in _slices(0, [0], 13, 600)]
    assert steps == 1 or sum(size % steps > 0 for size in lengths) > 1
    tallies = _chain_tallies(list(chains), 600, 2, 31, 13)
    _assert_points_match_reference(insts, policies, tallies, 600, 31, starts, 13)


def test_chain_engine_ranks_uniforms_equal_to_a_reliability_as_failures(monkeypatch):
    # u < p delivers: a uniform equal to a reliability fails, the float just
    # below it delivers, and 0.0 always delivers
    insts, policies, chains, starts = zip(*_two_client_stack())
    levels = sorted({p for inst in insts for p in inst.reliabilities})
    edges = np.array([0.0] + levels + [np.nextafter(p, 0.0) for p in levels])
    real = sim._slices

    def slices_at_the_edges(seed, trials, warmup, horizon):
        for t0, u, block in real(seed, trials, warmup, horizon):
            yield t0, np.where(u < 0.5, edges[(2 * len(edges) * u).astype(int) % len(edges)], u), block

    monkeypatch.setattr(sim, "_slices", slices_at_the_edges)
    drawn = np.concatenate([u.ravel() for _, u, _ in sim._slices(31, [0], 13, 600)])
    assert set(edges) <= set(drawn.tolist())
    tallies = _chain_tallies(list(chains), 600, 2, 31, 13)
    _assert_points_match_reference(insts, policies, tallies, 600, 31, starts, 13)


def test_estimate_costs_equals_estimate_cost_per_point():
    # equal engine inputs share their trials, which must not change any point;
    # WDD runs in the chain engine's call
    taus = (2, 3)
    insts = [Instance(taus, (0.6, 0.7), 0.05), Instance(taus, (0.6, 0.7), 0.2), Instance(taus, (0.9, 0.5), 0.1)]
    insts.append(Instance(taus, (0.8, 0.8), 0.1))
    cfg = SimConfig(horizon=800, trials=6, seed=13, warmup=21)
    pol = _random_policy(insts[0], 5)
    makers = (
        lambda inst: None,  # WDD
        prr_chain,
        lambda inst: periodic_chain(inst, PeriodicSchedule((1, 2, 2), 2)),
        lambda inst: stationary_chain(pol, inst),
    )
    for make in makers:
        chains = [make(inst) for inst in insts]
        together = estimate_costs(insts, chains, cfg)
        assert together == [estimate_costs([inst], [c], cfg)[0] for inst, c in zip(insts, chains)]
    # every engine in one call, as a sweep with several simulated policies makes it
    points = [(inst, make(inst)) for make in makers for inst in insts]
    mixed = estimate_costs([inst for inst, _ in points], [c for _, c in points], cfg)
    assert mixed == [estimate_costs([inst], [c], cfg)[0] for inst, c in points]
    # at equal reliabilities two policies' chains differ only in their successors
    even = Instance(taus, (0.7, 0.7), 0.05)
    chains = [stationary_chain(_random_policy(even, k), even) for k in (6, 7)]
    together = estimate_costs([even, even], chains, cfg)
    assert together[0] != together[1]
    assert together == [estimate_costs([even], [c], cfg)[0] for c in chains]
    with pytest.raises(ValueError):
        estimate_costs([insts[0], Instance((3, 3), (0.6, 0.7), 0.05)], [None] * 2, cfg)


def test_single_client_threshold_frequency():
    # symmetric two-state chain spends half its accounted slots at threshold
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    (res,) = tally_trials(_batch_chain([_started(stationary_chain(pol, inst), inst, (0,))], 200_000, 1, 9, 0)[0], 1)[0]
    assert res.exceedance_total / 200_000 == pytest.approx(0.5, abs=0.01)


def test_estimate_cost_degenerate_and_single_trial():
    # perfect channels, generous thresholds: zero exceedances, zero cost (a
    # slot fails only on the uniform 1 - 2**-53, which these streams never draw)
    perfect = math.nextafter(1.0, 0.0)
    inst = Instance((3, 3), (perfect, perfect), 0.1)
    pol = StationaryPolicy(np.tile([1, 2], inst.total_states)[: inst.total_states])
    (est,) = estimate_costs([inst], [_started(stationary_chain(pol, inst), inst, (0, 1))], SimConfig(horizon=100, trials=8, seed=1))
    assert est.j_hat == 0.0
    assert est.degenerate
    assert est.stderr_j == 0.0

    # one trial: the estimate is the raw exceedance rate
    inst2 = Instance((1,), (0.5,), 0.1)
    forced = StationaryPolicy(np.array([1, 1]))
    (est2,) = estimate_costs([inst2], [stationary_chain(forced, inst2)], SimConfig(horizon=1000, trials=1, seed=2))
    single = run_trial(inst2, sim_oracle.stationary(forced, inst2), 1000, (2, 0), (1,))
    assert est2.j_hat == pytest.approx(single.exceedance_total / 1000, rel=1e-12)


def test_block_edges_nest_down_to_the_floor():
    assert block_edges(100) == [100]
    edges = block_edges(100_000)
    assert len(edges) == 1024 and edges[-1] == 100_000
    assert min(np.diff(edges, prepend=0)) >= 64
    # each coarser level keeps every other edge of the level below
    for level in range(10):
        coarse = [(j * 100_000) >> level for j in range(1, 2**level + 1)]
        assert coarse == edges[2 ** (10 - level) - 1 :: 2 ** (10 - level)]


def test_no_block_is_longer_than_a_sub_slice():
    # after the warmup each sub-slice is one whole block; 255 gives blocks of
    # 127 and 128 slots, and 16,383 has a 128-slot block too
    assert _SLICE == 2 * _MIN_BLOCK
    for horizon in (255, 16_383):
        assert max(np.diff(block_edges(horizon), prepend=0)) == 2 * _MIN_BLOCK
    assert all(max(np.diff(block_edges(h), prepend=0)) <= 2 * _MIN_BLOCK for h in range(1, 20_001))


def _splitmix64_uniforms(seed, trial, slots):
    """Trial ``trial``'s first uniforms, written out in Python ints: SplitMix64 on the counter ``(t + 1) * gamma``."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    key = mix(mix(seed) + trial * gamma & mask)
    return [(mix(key + (t + 1) * gamma & mask) >> 11) / 2**53 for t in range(slots)]


def test_slices_compute_splitmix64_and_cut_it_at_every_edge():
    # a warmup shorter than a sub-slice, one longer, and a one-block horizon;
    # the largest seed, and a subset of trials in any order, as a rerun reads
    for seed, trials in [(7, [0, 1]), (2**64 - 1, [3]), (29, [12, 0, 5])]:
        for warmup, horizon in [(5, 2148), (_SLICE + 45, 2148), (_SLICE + 44, 100)]:
            slices = list(_slices(seed, trials, warmup, horizon))
            total = warmup + horizon
            u = np.concatenate([u for _, u, _ in slices])
            assert u.shape == (total, len(trials)) and u.dtype == np.float64
            for row, trial in enumerate(trials):
                assert u[:, row].tolist() == _splitmix64_uniforms(seed, trial, total)
            edges = [warmup + e for e in block_edges(horizon)]
            # the sub-slices end at each block edge, the warmup's end and
            # every _SLICE slots inside the warmup, and nowhere else
            assert [t0 + len(u) for t0, u, _ in slices] == sorted({*range(_SLICE, warmup, _SLICE), warmup, *edges})
            start = 0
            for t0, u, block in slices:
                assert t0 == start and 0 < len(u) <= _SLICE
                assert block == sum(e <= t0 for e in edges)
                start = t0 + len(u)
    # 0 <= u < 1, and distinct trials of a seed draw distinct streams
    u = next(_slices(0, range(256), 0, 64))[1]
    assert 0.0 <= u.min() and u.max() < 1.0
    assert len({tuple(col) for col in u.T.tolist()}) == 256
    # a seed outside the 64-bit keys is refused, never folded
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            SimConfig(horizon=100, trials=1, seed=seed)


def test_a_simulated_sweep_imports_no_numpy_random():
    # the uniforms are computed with integer arithmetic; numpy.random (and
    # the hashlib and OpenSSL it imports) stays out of the process
    script = (
        "import sys\n"
        "from idsched import cli\n"
        "cfg = cli.load_config({'instance': {'taus': [2, 3], 'ps': [0.6, 0.7], 'theta': 0.05},"
        " 'policies': ['op-iterative', 'prr', 'wdd'], 'evaluation': 'simulate', 'sim': {'horizon': 500, 'trials': 4}})\n"
        "rows = cli.run_experiment(cfg)\n"
        "assert rows and all(row.method == 'simulate' for row in rows), rows\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(sim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_estimate_cost_halves_blocks_only_when_the_tail_is_uncovered():
    pol = StationaryPolicy(np.array([1, 1]))
    cfg = SimConfig(horizon=1000, trials=16, seed=4)

    # mild risk weighting: the trial totals cover their tail, so the estimate
    # is the whole-horizon log-mean-exp exactly
    mild = Instance((1,), (0.5,), 0.01)
    (est,) = estimate_costs([mild], [stationary_chain(pol, mild)], cfg)
    policy = sim_oracle.stationary(pol, mild)
    trials = [run_trial(mild, policy, cfg.horizon, (cfg.seed, r), mild.thresholds) for r in range(cfg.trials)]
    totals = np.array([res.exceedance_total for res in trials], dtype=float)
    assert est.block_length == 1000
    assert est.tail_coverage >= 0.5
    assert est.j_hat == log_mean_exp(mild.theta * totals) / (mild.theta * 1000)

    # stronger weighting: shorter blocks restore the coverage
    strong = Instance((1,), (0.5,), 0.1)
    (est,) = estimate_costs([strong], [stationary_chain(pol, strong)], cfg)
    assert est.block_length < 1000
    assert est.tail_coverage >= 0.5
    assert 0.0 < est.stderr_j < 0.02 * est.j_hat
    exact_j = chain_average_costs([stationary_chain(pol, strong)], [strong.theta])[0].average_cost
    assert abs(est.j_hat - exact_j) <= 4 * est.stderr_j

    # extreme weighting: even the shortest blocks leave the tail uncovered,
    # and the coverage says so
    extreme = Instance((1,), (0.5,), 2.0)
    (est,) = estimate_costs([extreme], [stationary_chain(pol, extreme)], cfg)
    assert est.block_length == 125
    assert est.tail_coverage < 0.5


def test_estimate_cost_tracks_exact_value_single_client():
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    chain = stationary_chain(pol, inst)
    exact_j = chain_average_costs([chain], [inst.theta])[0].average_cost
    (est,) = estimate_costs([inst], [chain], SimConfig(horizon=100_000, trials=64, seed=3))
    assert est.j_hat == pytest.approx(exact_j, rel=0.02)


def test_log_mean_exp_is_overflow_safe():
    vals = np.array([1e4, 1e4 - 3.0, 5.0])
    out = log_mean_exp(vals)
    assert math.isfinite(out)
    assert out == pytest.approx(1e4 + math.log((1 + math.exp(-3) + math.exp(5 - 1e4)) / 3), rel=1e-12)


def test_warmup_shifts_accounting():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 7)
    policy = sim_oracle.stationary(pol, inst)
    plain = run_trial(inst, policy, 100, (31, 0), inst.thresholds)
    warmed = run_trial(inst, policy, 100, (31, 0), inst.thresholds, warmup=50)
    # same stream, different accounting windows
    assert plain.exceedance_total != warmed.exceedance_total or plain.deliveries != warmed.deliveries
    assert sum(warmed.deliveries) <= 100


@st.composite
def _engine_cases(draw):
    """A policy of each kind on 1 to 3 clients with thresholds up to 4.

    A finite chain starts from a random state, WDD from the all-threshold
    one.  WDD comes twice: at equal reliabilities and at random ones, whose
    fractions' large denominators mostly send it to the slot loop.
    """
    n = draw(st.integers(1, 3))
    taus = tuple(draw(st.integers(1, 4)) for _ in range(n))
    kind = draw(st.sampled_from(["stationary", "prr", "ps", "wdd", "equal wdd"]))
    if kind == "equal wdd":
        ps = (draw(st.floats(0.05, 0.95)),) * n
    else:
        ps = tuple(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
    inst = Instance(taus, ps, 0.05)
    if kind == "stationary":
        size = inst.total_states
        pol = StationaryPolicy(draw(st.lists(st.integers(1, n), min_size=size, max_size=size)))
        policy, chain = sim_oracle.stationary(pol, inst), stationary_chain(pol, inst)
    elif kind == "prr":
        policy, chain = sim_oracle.prr(n), prr_chain(inst)
    elif kind == "ps":
        sequence = draw(st.permutations(range(1, n + 1))) + draw(st.lists(st.integers(1, n), max_size=3))
        sched = PeriodicSchedule(tuple(sequence), n)
        policy, chain = sim_oracle.ps(sched.sequence), periodic_chain(inst, sched)
    else:
        policy, chain = sim_oracle.wdd(inst), None
    if chain is None:
        start = taus
    else:
        start = tuple(draw(st.integers(0, tau)) for tau in taus)
        chain = _started(chain, inst, start)
    return inst, start, policy, chain, draw(st.integers(0, 300)), draw(st.integers(1, 700))


@settings(max_examples=150, deadline=None)
@given(_engine_cases(), st.integers(0, 2**16))
def test_batch_engines_match_the_oracle_on_generated_cases(case, seed):
    inst, start, policy, chain, warmup, horizon = case
    if chain is None:
        tallies = [_wdd_tally([inst], horizon, 2, seed, warmup)]
    else:
        tallies = _chain_tallies([chain], horizon, 2, seed, warmup)
    _assert_points_match_reference([inst], [policy], tallies, horizon, seed, [start], warmup)
