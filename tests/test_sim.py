import math
import warnings

import numpy as np
import pytest

from idsched.asymptotic import mlg_stationary_policy
from idsched.errors import EstimationError
from idsched.exact import StationaryPolicy, average_cost
from idsched.heuristics import PeriodicSchedule
from idsched.model import Instance
from idsched.sim import (
    PrrHandle,
    PsHandle,
    SimConfig,
    StationaryHandle,
    WddHandle,
    block_edges,
    estimate_cost,
    estimate_costs,
    log_mean_exp,
    regeneration_state,
    run_trial,
    simulate_cycles,
)
from idsched.sim import _CHUNK, _batch_chain, _batch_wdd, _uniform_pieces
from idsched.model import successor_on_failure, successor_on_success


def _random_policy(inst, seed):
    rng = np.random.default_rng(seed)
    return StationaryPolicy(rng.integers(1, inst.n_clients + 1, inst.total_states))


def test_regeneration_state_convention():
    assert regeneration_state((3, 5)) == (1, 0)
    assert regeneration_state((4, 6, 8)) == (0, 1, 2)
    assert regeneration_state((2,)) == (0,)


def test_run_trial_is_deterministic():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 0)
    a = run_trial(inst, StationaryHandle("p", pol, inst), 500, (11, 3), inst.thresholds)
    b = run_trial(inst, StationaryHandle("p", pol, inst), 500, (11, 3), inst.thresholds)
    assert a.exceedance_total == b.exceedance_total
    assert a.deliveries == b.deliveries
    assert a.cycle_lengths == b.cycle_lengths
    assert a.cycle_exceedances == b.cycle_exceedances


def test_cycles_tile_the_trajectory():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 1)
    horizon = 2000
    res = run_trial(inst, StationaryHandle("p", pol, inst), horizon, (5, 0), inst.thresholds)
    assert res.exceedance_total <= inst.n_clients * horizon
    assert sum(res.cycle_lengths) <= horizon
    assert sum(res.cycle_exceedances) <= res.exceedance_total

    # replay the trial's uniform stream; the recorded cycles must partition
    # the span between the first and last renewal hits with no gaps
    rng = np.random.default_rng((5, 0))
    draws = np.concatenate([rng.random(min(_CHUNK, horizon - k)) for k in range(0, horizon, _CHUNK)])
    idxr = inst.indexer()
    state = inst.thresholds
    regen = regeneration_state(inst.thresholds)
    hits = []
    exceed = []
    for t in range(horizon):
        if state == regen:
            hits.append(t)
        exceed.append(sum(1 for x, tau in zip(state, inst.thresholds) if x == tau))
        u = int(pol.decisions[idxr.index(state)])
        if draws[t] < inst.reliabilities[u - 1]:
            state = successor_on_success(state, u, inst.thresholds)
        else:
            state = successor_on_failure(state, inst.thresholds)
    assert res.cycle_lengths == [b - a for a, b in zip(hits, hits[1:])]
    assert res.cycle_exceedances == [sum(exceed[a:b]) for a, b in zip(hits, hits[1:])]


def test_batch_engines_match_reference_exactly():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 2)
    handle = StationaryHandle("p", pol, inst)
    ref = [run_trial(inst, handle, 400, (123, r), inst.thresholds, warmup=13) for r in range(5)]
    bat = _batch_chain(inst, [handle.chain(inst)], 400, 5, 123, 13, True)[0]
    for r, b in zip(ref, bat):
        assert r.exceedance_total == b.exceedance_total
        assert len(r.block_exceedances) > 1
        assert r.block_exceedances.tolist() == b.block_exceedances.tolist()
        assert r.deliveries == b.deliveries
        assert r.cycle_lengths == b.cycle_lengths
        assert r.cycle_exceedances == b.cycle_exceedances

    wdd = WddHandle(inst)
    refw = [run_trial(inst, wdd, 400, (55, r), inst.thresholds, warmup=7) for r in range(5)]
    batw = _batch_wdd([inst], 400, 5, 55, inst.thresholds, 7, True)[0]
    for r, b in zip(refw, batw):
        assert r.exceedance_total == b.exceedance_total
        assert r.block_exceedances.tolist() == b.block_exceedances.tolist()
        assert r.deliveries == b.deliveries
        assert r.cycle_lengths == b.cycle_lengths
        assert r.cycle_exceedances == b.cycle_exceedances

    # round robin and periodic schedules on their augmented chains, with a
    # warmup that is not a multiple of the period; on three clients the token
    # wraps, and round robin never visits the regeneration state (0, 1, 2)
    inst3 = Instance((2, 3, 4), (0.6, 0.7, 0.8), 0.05)
    cases = [
        (inst, PrrHandle(2), True),
        (inst3, PrrHandle(3), False),
        (inst3, PsHandle(PeriodicSchedule((3, 2, 1, 2), 3)), True),
    ]
    for seed, (case, handle, regenerates) in enumerate(cases):
        ref = [run_trial(case, handle, 600, (seed, r), case.thresholds, warmup=13) for r in range(5)]
        bat = _batch_chain(case, [handle.chain(case)], 600, 5, seed, 13, True)[0]
        assert any(r.cycle_lengths for r in ref) == regenerates
        for r, b in zip(ref, bat):
            assert r.block_exceedances.tolist() == b.block_exceedances.tolist()
            assert r.deliveries == b.deliveries
            assert r.cycle_lengths == b.cycle_lengths
            assert r.cycle_exceedances == b.cycle_exceedances


def _assert_points_match_reference(insts, handles, runs, horizon, seed, starts, warmup):
    for inst, handle, start, run in zip(insts, handles, starts, runs):
        for r, b in enumerate(run):
            ref = run_trial(inst, handle, horizon, (seed, r), start, warmup=warmup)
            assert ref.block_exceedances.tolist() == b.block_exceedances.tolist()
            assert ref.deliveries == b.deliveries
            assert ref.cycle_lengths == b.cycle_lengths
            assert ref.cycle_exceedances == b.cycle_exceedances


@pytest.mark.parametrize(
    "taus, reliabilities, start, horizon, warmup",
    [
        # a repeated reliability vector (at another theta), warmup off the block grid
        ((2, 3), [(0.6, 0.7), (0.9, 0.5), (0.6, 0.7)], None, 600, 13),
        # the renewal state as the start, with no warmup to hide its encoding
        ((2, 3), [(0.6, 0.7), (0.8, 0.8)], (1, 0), 500, 0),
        ((2, 3, 4), [(0.6, 0.7, 0.8), (0.7, 0.7, 0.7)], (0, 2, 2), 500, 33),
        # the warmup crosses a chunk of the uniform stream
        ((2, 3), [(0.6, 0.7), (0.3, 0.9)], None, 50, 20_000),
    ],
)
def test_stacked_wdd_engine_matches_reference_per_point(taus, reliabilities, start, horizon, warmup):
    insts = [Instance(taus, ps, 0.05 * (k + 1)) for k, ps in enumerate(reliabilities)]
    trials = 2 if warmup > horizon else 4
    runs = _batch_wdd(insts, horizon, trials, 17, start or taus, warmup, True)
    assert len(runs) == len(insts) and all(len(run) == trials for run in runs)
    handles = [WddHandle(inst) for inst in insts]
    _assert_points_match_reference(insts, handles, runs, horizon, 17, [start or taus] * len(insts), warmup)
    if warmup < horizon:
        assert any(res.cycle_lengths for run in runs for res in run)


def test_stacked_chain_engine_matches_reference_per_point():
    # chains of different sizes and reliabilities over one set of thresholds,
    # each from its own start
    taus = (2, 3, 4)
    a = Instance(taus, (0.6, 0.7, 0.8), 0.05)
    b = Instance(taus, (0.9, 0.5, 0.7), 0.05)
    cases = [
        (a, StationaryHandle("p", _random_policy(a, 3), a), taus),
        (b, StationaryHandle("q", _random_policy(b, 4), b), (0, 1, 2)),
        (a, PrrHandle(3), taus),
        (b, PrrHandle(3), (1, 0, 4)),
        (b, PsHandle(PeriodicSchedule((3, 2, 1, 2), 3)), (0, 1, 2)),
    ]
    insts, handles, starts = zip(*cases)
    chains = [h.chain(inst, start) for inst, h, start in cases]
    assert len({len(c.p) for c in chains}) == 3
    runs = _batch_chain(a, chains, 600, 4, 29, 13, True)
    _assert_points_match_reference(insts, handles, runs, 600, 29, starts, 13)
    assert any(res.cycle_lengths for run in runs for res in run)


def test_estimate_costs_equals_estimate_cost_per_point():
    # equal engine inputs share their trials, which must not change any point
    taus = (2, 3)
    insts = [Instance(taus, (0.6, 0.7), 0.05), Instance(taus, (0.6, 0.7), 0.2), Instance(taus, (0.9, 0.5), 0.1)]
    cfg = SimConfig(horizon=800, trials=6, seed=13, warmup=21)
    pol = _random_policy(insts[0], 5)
    for make in (WddHandle, lambda inst: PrrHandle(2), lambda inst: StationaryHandle("p", pol, inst)):
        handles = [make(inst) for inst in insts]
        together = estimate_costs(insts, handles, cfg)
        assert together == [estimate_cost(inst, h, cfg) for inst, h in zip(insts, handles)]
    # at equal reliabilities two policies' chains differ only in their successors
    even = Instance(taus, (0.7, 0.7), 0.05)
    handles = [StationaryHandle("p", _random_policy(even, k), even) for k in (6, 7)]
    together = estimate_costs([even, even], handles, cfg)
    assert together[0] != together[1]
    assert together == [estimate_cost(even, h, cfg) for h in handles]
    with pytest.raises(ValueError):
        estimate_costs([insts[0], Instance((3, 3), (0.6, 0.7), 0.05)], [WddHandle(insts[0])] * 2, cfg)


def test_single_client_threshold_frequency():
    # symmetric two-state chain spends half its accounted slots at threshold
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    res = run_trial(inst, StationaryHandle("f", pol, inst), 200_000, (9, 0), (0,))
    assert res.exceedance_total / 200_000 == pytest.approx(0.5, abs=0.01)


def test_estimate_cost_degenerate_and_single_trial():
    # perfect channels, generous thresholds: zero exceedances, zero cost
    inst = Instance((3, 3), (1.0, 1.0), 0.1, allow_endpoint_reliabilities=True)
    pol = StationaryPolicy(np.tile([1, 2], inst.total_states)[: inst.total_states])
    est = estimate_cost(inst, StationaryHandle("p", pol, inst), SimConfig(horizon=100, trials=8, seed=1), start=(0, 1))
    assert est.j_hat == 0.0
    assert est.degenerate
    assert est.stderr_log == 0.0

    # one trial: the estimate is the raw exceedance rate
    inst2 = Instance((1,), (0.5,), 0.1)
    forced = StationaryPolicy(np.array([1, 1]))
    est2 = estimate_cost(inst2, StationaryHandle("f", forced, inst2), SimConfig(horizon=1000, trials=1, seed=2))
    single = run_trial(inst2, StationaryHandle("f", forced, inst2), 1000, (2, 0), (1,))
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


def test_uniform_pieces_cut_the_chunked_stream_at_block_edges():
    warmup, horizon = 5, 2 * _CHUNK + 100
    pieces = list(_uniform_pieces(np.random.default_rng(7).random, warmup, horizon))
    rng = np.random.default_rng(7)
    total = warmup + horizon
    chunked = np.concatenate([rng.random(min(_CHUNK, total - k)) for k in range(0, total, _CHUNK)])
    assert np.array_equal(np.concatenate([u for u, _ in pieces]), chunked)
    ends = np.cumsum([u.size for u, _ in pieces])
    assert [int(e) - warmup for e, (_, closes) in zip(ends, pieces) if closes] == block_edges(horizon)
    # no piece straddles a chunk boundary
    assert all(e // _CHUNK == (e - u.size) // _CHUNK or e % _CHUNK == 0 for e, (u, _) in zip(ends, pieces))


def test_estimate_cost_halves_blocks_only_when_the_tail_is_uncovered():
    pol = StationaryPolicy(np.array([1, 1]))
    cfg = SimConfig(horizon=1000, trials=16, seed=4)

    # mild risk weighting: the trial totals cover their tail, so the estimate
    # is the whole-horizon log-mean-exp exactly
    mild = Instance((1,), (0.5,), 0.01)
    handle = StationaryHandle("f", pol, mild)
    est = estimate_cost(mild, handle, cfg)
    trials = [run_trial(mild, handle, cfg.horizon, (cfg.seed, r), mild.thresholds) for r in range(cfg.trials)]
    totals = np.array([res.exceedance_total for res in trials], dtype=float)
    assert est.block_length == 1000
    assert est.tail_coverage >= 0.5
    assert est.j_hat == log_mean_exp(mild.theta * totals) / (mild.theta * 1000)

    # stronger weighting: shorter blocks restore the coverage
    strong = Instance((1,), (0.5,), 0.1)
    est = estimate_cost(strong, StationaryHandle("f", pol, strong), cfg)
    assert est.block_length < 1000
    assert est.tail_coverage >= 0.5
    assert 0.0 < est.stderr_j < 0.02 * est.j_hat
    assert abs(est.j_hat - average_cost(pol, strong).average_cost) <= 4 * est.stderr_j

    # extreme weighting: even the shortest blocks leave the tail uncovered,
    # and the coverage says so
    extreme = Instance((1,), (0.5,), 2.0)
    est = estimate_cost(extreme, StationaryHandle("f", pol, extreme), cfg)
    assert est.block_length == 125
    assert est.tail_coverage < 0.5


def test_estimate_cost_tracks_exact_value_single_client():
    inst = Instance((1,), (0.5,), 0.1)
    pol = StationaryPolicy(np.array([1, 1]))
    exact_j = average_cost(pol, inst).average_cost
    est = estimate_cost(inst, StationaryHandle("f", pol, inst), SimConfig(horizon=100_000, trials=64, seed=3))
    assert est.j_hat == pytest.approx(exact_j, rel=0.02)


def test_log_mean_exp_is_overflow_safe():
    vals = np.array([1e4, 1e4 - 3.0, 5.0])
    out = log_mean_exp(vals)
    assert math.isfinite(out)
    assert out == pytest.approx(1e4 + math.log((1 + math.exp(-3) + math.exp(5 - 1e4)) / 3), rel=1e-12)


def test_perfect_channel_cycles_are_deterministic():
    # no failures: the least-time-to-go rule loops through its renewal cycle
    inst = Instance((3, 5), (1.0, 1.0), 0.01, allow_endpoint_reliabilities=True)
    pol = mlg_stationary_policy(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cyc = simulate_cycles(
            inst, StationaryHandle("mlg", pol, inst), SimConfig(horizon=500, trials=4, seed=5), start=(1, 0)
        )
    assert cyc.mean_length == 2.0
    assert cyc.j_cycle == 0.0


def test_cycle_estimate_agrees_with_direct_estimate_in_regime():
    # small per-cycle fluctuations: both estimators target the same value
    inst = Instance((3, 5), (1 - 0.04, 1 - 0.02), 0.01)
    pol = mlg_stationary_policy(inst)
    handle = StationaryHandle("mlg", pol, inst)
    cfg = SimConfig(horizon=200_000, trials=32, seed=11)
    est = estimate_cost(inst, handle, cfg, start=(1, 0))
    cyc = simulate_cycles(inst, handle, cfg, start=(1, 0))
    combined = math.sqrt(est.stderr_j**2 + cyc.stderr_j**2)
    assert abs(est.j_hat - cyc.j_cycle) <= 3 * combined


def test_simulate_cycles_errors_without_regeneration():
    # an open-loop schedule that never visits (1, 0): serving client 1 forever
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = StationaryPolicy(np.ones(inst.total_states, dtype=np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EstimationError):
            simulate_cycles(
                inst, StationaryHandle("pin", pol, inst), SimConfig(horizon=300, trials=2, seed=6)
            )


def test_warmup_shifts_accounting():
    inst = Instance((2, 3), (0.6, 0.7), 0.05)
    pol = _random_policy(inst, 7)
    handle = StationaryHandle("p", pol, inst)
    plain = run_trial(inst, handle, 100, (31, 0), inst.thresholds)
    warmed = run_trial(inst, handle, 100, (31, 0), inst.thresholds, warmup=50)
    # same stream, different accounting windows
    assert plain.exceedance_total != warmed.exceedance_total or plain.deliveries != warmed.deliveries
    assert sum(warmed.deliveries) <= 100
