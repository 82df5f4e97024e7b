"""Monte Carlo simulation of the slotted system under any policy.

Costs are accumulated as integer exceedance counts and only exponentiated
inside log-domain reductions, so horizons of 10^7 slots cannot overflow.
Each trial owns a pseudorandom substream derived from (seed, trial index);
the same substream is consumed identically by the per-slot reference engine
and the vectorized batch engines, so results are independent of which engine
ran and of any batching, and repeated runs are bitwise identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .exact import Chain, StationaryPolicy, stationary_chain
from .heuristics import (
    DebtLedger,
    PeriodicSchedule,
    RoundRobinState,
    periodic_chain,
    prr_advance,
    prr_chain,
    prr_decide,
    ps_decide,
    wdd_decide,
)
from .model import Instance, State

_CHUNK = 16384  # slots of uniforms drawn per call; part of the stream contract
_MIN_BLOCK = 64  # shortest estimator block, in slots
_MIN_COVERAGE = 0.5  # least effective sample size of the block weights, per block
_SLICE = 256  # most slots a batch engine records before deriving their accounting
_NO_SLOT = 1 << 62  # -_NO_SLOT marks "no delivery here"; below every slot and start encoding


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    trials: int
    seed: int
    warmup: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.trials < 1:
            raise ValueError("horizon and trials must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be nonnegative")


@dataclass(eq=False)
class TrialResult:
    """Accounting summary of one simulated trial (post-warmup slots only).

    ``block_exceedances`` holds the exceedance totals of the trial's
    ``block_edges(horizon)`` blocks, in order.
    """

    block_exceedances: np.ndarray
    deliveries: tuple[int, ...]
    cycle_lengths: list[int]
    cycle_exceedances: list[int]
    delivery_slots: list[list[int]] | None = None

    @property
    def exceedance_total(self) -> int:
        return int(self.block_exceedances.sum())


@dataclass(frozen=True)
class CostEstimate:
    """Risk-sensitive average-cost estimate from pooled trial blocks.

    ``block_length`` is the mean length in slots of the blocks the estimate
    used and ``log_mean_cost`` is ``ln mean_b exp(theta * C_b)`` over them;
    ``tail_coverage`` is the effective sample size of their weights
    ``exp(theta * C_b)`` over the block count.  Coverage below
    ``_MIN_COVERAGE`` means even the shortest blocks left the tail
    under-sampled and the estimate is biased low.
    """

    j_hat: float
    log_mean_cost: float
    stderr_log: float
    stderr_j: float
    trials_used: int
    degenerate: bool
    block_length: float
    tail_coverage: float


@dataclass(frozen=True)
class CycleEstimate:
    """Renewal-cycle estimates: mean length, mean multiplicative cost, implied average cost."""

    mean_length: float
    mean_cost: float
    j_cycle: float
    stderr_j: float
    n_cycles: int
    aborted_trials: int


def regeneration_state(thresholds: tuple[int, ...]) -> State:
    """Renewal marker: (1, 0) for two clients, (0, 1, ..., N-1) otherwise."""
    n = len(thresholds)
    if n == 2:
        return (1, 0)
    return tuple(range(n))


def block_edges(horizon: int) -> list[int]:
    """Ends (exclusive, in accounted slots) of the finest estimator blocks.

    There are ``2**K`` blocks, ``K`` the largest depth at which
    ``horizon / 2**K >= _MIN_BLOCK`` (zero for short horizons); block ``i``
    ends at ``(i * horizon) >> K``.  Summing adjacent pairs ``k`` times gives
    the ``2**(K - k)`` blocks that end at ``floor(j * horizon / 2**(K - k))``,
    so every coarser level is nested in the finer ones and the coarsest block
    is the whole horizon.
    """
    depth = max((horizon // _MIN_BLOCK).bit_length() - 1, 0)
    return [(i * horizon) >> depth for i in range(1, (1 << depth) + 1)]


def log_mean_exp(values) -> float:
    """log(mean(exp(values))) with max shift; finite for arbitrarily large inputs."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty input")
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).mean()))


# ---------------------------------------------------------------------------
# policy handles


class PolicyHandle:
    """Uniform per-slot decision interface used by the simulator.

    Stateful wrappers are reset at the start of every trial; ``observe`` is
    called once per slot after the channel outcome is known.
    """

    name = "policy"

    def reset(self) -> None:
        pass

    def decide(self, state: State, t: int) -> int:
        raise NotImplementedError

    def observe(self, served: int, delivered: bool) -> None:
        pass

    def chain(self, inst: Instance, start: State | None = None) -> Chain:
        """The policy's finite chain, which the batch engine runs; WDD has none."""
        raise NotImplementedError


class StationaryHandle(PolicyHandle):
    def __init__(self, name: str, policy: StationaryPolicy, inst: Instance):
        policy.validate(inst)
        self.name = name
        self.policy = policy
        self._indexer = inst.indexer()

    def decide(self, state: State, t: int) -> int:
        return int(self.policy.decisions[self._indexer.index(state)])

    def chain(self, inst: Instance, start: State | None = None) -> Chain:
        return stationary_chain(self.policy, inst, start)


class PrrHandle(PolicyHandle):
    name = "prr"

    def __init__(self, n_clients: int):
        self._n = n_clients
        self._rr = RoundRobinState(1, n_clients)

    def reset(self) -> None:
        self._rr = RoundRobinState(1, self._n)

    def decide(self, state: State, t: int) -> int:
        return prr_decide(self._rr)

    def observe(self, served: int, delivered: bool) -> None:
        self._rr = prr_advance(self._rr, delivered)

    def chain(self, inst: Instance, start: State | None = None) -> Chain:
        return prr_chain(inst, start)


class WddHandle(PolicyHandle):
    name = "wdd"

    def __init__(self, inst: Instance):
        self._inst = inst
        self._ledger = DebtLedger.fresh(inst.n_clients)

    def reset(self) -> None:
        self._ledger = DebtLedger.fresh(self._inst.n_clients)

    def decide(self, state: State, t: int) -> int:
        return wdd_decide(self._ledger, self._inst)

    def observe(self, served: int, delivered: bool) -> None:
        self._ledger = self._ledger.after_slot(served if delivered else None)


class PsHandle(PolicyHandle):
    name = "ps"

    def __init__(self, sched: PeriodicSchedule):
        self._sched = sched

    def decide(self, state: State, t: int) -> int:
        return ps_decide(self._sched, t)

    def chain(self, inst: Instance, start: State | None = None) -> Chain:
        return periodic_chain(inst, self._sched, start)


# ---------------------------------------------------------------------------
# reference engine


def _uniform_pieces(draw, warmup: int, horizon: int):
    """The trial's uniforms in slot order, cut at the estimator block edges.

    ``draw(n)`` returns the next ``n`` uniforms along its last axis; it is
    called with ``_CHUNK`` (the last call with the remainder), which keeps
    the streams engine-independent.  Yields ``(uniforms, closes_block)``
    pieces; a piece closes a block when it ends at one of the
    ``block_edges(horizon)``, counted after the warmup.
    """
    total = warmup + horizon
    edges = {warmup + e for e in block_edges(horizon)}
    start = 0
    for stop in sorted(edges.union(range(_CHUNK, total, _CHUNK))):
        if start % _CHUNK == 0:
            chunk, offset = draw(min(_CHUNK, total - start)), start
        yield chunk[..., start - offset : stop - offset], stop in edges
        start = stop


def _check_start(taus: tuple[int, ...], start: State) -> None:
    if len(start) != len(taus) or any(not 0 <= x <= t for x, t in zip(start, taus)):
        raise ValueError("start state outside the clipped space")


def run_trial(
    inst: Instance,
    policy: PolicyHandle,
    horizon: int,
    trial_seed,
    start: State,
    warmup: int = 0,
    record_delivery_slots: bool = False,
) -> TrialResult:
    """Simulate ``warmup + horizon`` slots, accounting only the last ``horizon``.

    This per-slot engine is the reference the batch engines are tested
    against, bit for bit; the estimators run the batch engines.

    Each slot: ask the policy for a client, draw the channel outcome from the
    trial's substream, charge the pre-transition state's exceedance count, and
    apply the clipped transition.  Renewal hits (pre-transition) delimit the
    recorded cycles; the running exceedance total is recorded at each
    ``block_edges(horizon)`` edge.
    """
    taus = inst.thresholds
    ps = inst.reliabilities
    n = inst.n_clients
    _check_start(taus, start)
    regen = regeneration_state(taus)
    rng = np.random.default_rng(trial_seed)
    policy.reset()

    state = tuple(start)
    exceed_total = 0
    snapshots: list[int] = []
    deliveries = [0] * n
    slots: list[list[int]] | None = [[] for _ in range(n)] if record_delivery_slots else None
    cycle_lengths: list[int] = []
    cycle_exceedances: list[int] = []
    open_start: int | None = None
    exc_since = 0

    t = 0
    for block, closes_block in _uniform_pieces(rng.random, warmup, horizon):
        for draw in block.tolist():
            accounted = t >= warmup
            if accounted and state == regen:
                if open_start is not None:
                    cycle_lengths.append(t - open_start)
                    cycle_exceedances.append(exc_since)
                open_start = t
                exc_since = 0
            k = sum(1 for x, tau in zip(state, taus) if x == tau)
            if accounted:
                exceed_total += k
                exc_since += k
            u = policy.decide(state, t)
            delivered = draw < ps[u - 1]
            if delivered:
                state = tuple(
                    0 if i == u - 1 else min(x + 1, tau)
                    for i, (x, tau) in enumerate(zip(state, taus))
                )
                if accounted:
                    deliveries[u - 1] += 1
                    if slots is not None:
                        slots[u - 1].append(t)
            else:
                state = tuple(min(x + 1, tau) for x, tau in zip(state, taus))
            policy.observe(u, delivered)
            t += 1
        if closes_block:
            snapshots.append(exceed_total)
    return TrialResult(
        block_exceedances=np.diff(np.array(snapshots, dtype=np.int64), prepend=0),
        deliveries=tuple(deliveries),
        cycle_lengths=cycle_lengths,
        cycle_exceedances=cycle_exceedances,
        delivery_slots=slots,
    )


# ---------------------------------------------------------------------------
# batch engines (trial-vectorized; bitwise identical to the reference)


def _slices(trials: int, seed: int, warmup: int, horizon: int):
    """Every trial's uniforms, slot-major, in sub-slices of the ``_uniform_pieces``.

    Yields ``(t0, uniforms, block)`` where ``uniforms[j, r]`` is trial ``r``'s
    uniform for slot ``t0 + j`` and ``block`` indexes the estimator block of
    the slots (``block_edges``).  A sub-slice has at most ``_SLICE`` slots and
    lies wholly in the warmup or wholly after it.
    """
    rngs = [np.random.default_rng((seed, r)) for r in range(trials)]

    def draw(m: int) -> np.ndarray:
        out = np.empty((trials, m))
        for rng, row in zip(rngs, out):
            rng.random(out=row)
        return out

    t0 = block = 0
    for piece, closes_block in _uniform_pieces(draw, warmup, horizon):
        size = piece.shape[1]
        cuts = set(range(0, size, _SLICE))
        if 0 < warmup - t0 < size:
            cuts.add(warmup - t0)
        cuts = sorted(cuts) + [size]
        for a, b in zip(cuts, cuts[1:]):
            yield t0 + a, np.ascontiguousarray(piece[:, a:b].T), block
        t0 += size
        block += closes_block


class _Tally:
    """Accounting of a batch engine's rows, fed one accounted sub-slice at a time."""

    def __init__(self, rows: int, n_clients: int, horizon: int, warmup: int, record_cycles: bool):
        self.warmup = warmup
        # a block is under 128 slots (block_edges), so its total fits 32 bits
        self.blocks = np.zeros((rows, len(block_edges(horizon))), dtype=np.int32)
        self.deliveries = np.zeros((rows, n_clients), dtype=np.int64)
        self.exc = np.zeros((horizon, rows), dtype=np.int16) if record_cycles else None
        self.regen = np.zeros((horizon, rows), dtype=bool) if record_cycles else None

    def add(self, t0: int, block: int, exc: np.ndarray, deliveries: np.ndarray, at_regen) -> None:
        """Slots ``t0, t0 + 1, ...`` of one block: per-slot exceedances and
        renewal hits ``(slots, rows)`` and the deliveries ``(rows, clients)``."""
        self.blocks[:, block] += exc.sum(axis=0)
        self.deliveries += deliveries
        if self.exc is not None:
            span = slice(t0 - self.warmup, t0 - self.warmup + len(exc))
            self.exc[span] = exc
            self.regen[span] = at_regen

    def results(self, groups: int) -> list[list[TrialResult]]:
        """Per-trial results, split into ``groups`` runs of consecutive rows."""
        out = []
        for r in range(len(self.deliveries)):
            lengths, exceed = [], []
            pos = np.flatnonzero(self.regen[:, r]) if self.exc is not None else []
            if len(pos) >= 2:
                csum = np.concatenate(([0], np.cumsum(self.exc[:, r], dtype=np.int64)))
                lengths = np.diff(pos).tolist()
                exceed = (csum[pos[1:]] - csum[pos[:-1]]).tolist()
            out.append(
                TrialResult(
                    block_exceedances=self.blocks[r],
                    deliveries=tuple(int(d) for d in self.deliveries[r]),
                    cycle_lengths=lengths,
                    cycle_exceedances=exceed,
                )
            )
        size = len(out) // groups
        return [out[g * size : (g + 1) * size] for g in range(groups)]


def _batch_chain(
    inst: Instance,
    chains: list[Chain],
    horizon: int,
    trials: int,
    seed: int,
    warmup: int,
    record_cycles: bool,
) -> list[list[TrialResult]]:
    """Trials of each chain, from its ``start``, run as one stacked chain.

    The chains are concatenated with index offsets, and row ``(chain, trial)``
    draws trial ``trial``'s uniforms.  The slot loop records the chain state
    of every row; exceedances, deliveries and renewal hits (visits to the
    regeneration state in the ``base`` component, whatever the policy's
    memory) are derived from those records after each sub-slice.
    """
    regen_idx = inst.indexer().index(regeneration_state(inst.thresholds))
    offsets = np.cumsum([0] + [len(c.p) for c in chains[:-1]])
    succ = np.concatenate([c.succ + off for c, off in zip(chains, offsets)])
    fail = np.concatenate([c.fail + off for c, off in zip(chains, offsets)])
    p, hits, client, base = (
        np.concatenate([getattr(c, name) for c in chains]) for name in ("p", "hits", "client", "base")
    )
    shape = (len(chains), trials)
    n = inst.n_clients
    row_base = np.arange(shape[0] * trials).reshape(shape) * n
    sidx = np.repeat([c.start + off for c, off in zip(chains, offsets)], trials).reshape(shape)
    tally = _Tally(shape[0] * trials, n, horizon, warmup, record_cycles)

    for t0, u, block in _slices(trials, seed, warmup, horizon):
        states = np.empty((len(u),) + shape, dtype=np.int64)
        for j in range(len(u)):
            states[j] = sidx
            sidx = np.where(u[j] < p.take(sidx), succ.take(sidx), fail.take(sidx))
        if t0 >= warmup:
            delivered = u[:, None, :] < p.take(states)
            served = (row_base + client.take(states))[delivered]
            tally.add(
                t0,
                block,
                hits.take(states).reshape(len(u), -1),
                np.bincount(served, minlength=tally.deliveries.size).reshape(-1, n),
                (base.take(states) == regen_idx).reshape(len(u), -1) if record_cycles else None,
            )
    return tally.results(len(chains))


def _batch_wdd(
    insts: list[Instance],
    horizon: int,
    trials: int,
    seed: int,
    start: State,
    warmup: int,
    record_cycles: bool,
) -> list[list[TrialResult]]:
    """Trials of WDD on each instance (sharing thresholds), stacked as rows ``(instance, trial)``.

    Each slot makes only the decision, the first client with the largest
    ``t / (p tau) - M / p`` (so ties go to the lowest client), and the
    channel draw, and records the served client and the outcome.  After each
    sub-slice the states follow from the last delivery slot of every (row,
    client), ``x = min(t - last - 1, tau)`` with ``last = -start - 1`` before
    the first delivery, and the exceedances and renewal hits from the states.
    """
    taus = insts[0].thresholds
    regen = regeneration_state(taus)
    n = len(taus)
    rows = len(insts) * trials
    # per-slot arrays are client-major, (client, instance, trial), so that
    # each operation runs along the trials
    p = np.array([inst.reliabilities for inst in insts]).T[:, :, None]
    ptau = p * np.asarray(taus, dtype=np.int64)[:, None, None]
    p_rows = np.ascontiguousarray(np.broadcast_to(p, (n, len(insts), trials)))
    flat_of = np.arange(n * rows).reshape(p_rows.shape)
    m_counts = np.zeros(p_rows.shape)  # deliveries so far; integers, exact as floats
    m_flat = m_counts.reshape(-1)
    debts = np.empty(p_rows.shape)
    last = [np.full(rows, -x - 1, dtype=np.int64) for x in start]
    tally = _Tally(rows, n, horizon, warmup, record_cycles)

    for t0, u, block in _slices(trials, seed, warmup, horizon):
        size = len(u)
        ts = np.arange(t0, t0 + size)
        t_debts = ts[:, None, None, None] / ptau
        reach = u[:, None, None, :] < p_rows  # the outcome, had each client been served
        served = np.empty((size,) + p_rows.shape[1:], dtype=np.int64)
        delivered = np.empty(served.shape, dtype=bool)
        for j in range(size):
            np.divide(m_counts, p_rows, out=debts)
            np.subtract(t_debts[j], debts, out=debts)
            flat, best = flat_of[0].copy(), debts[0]
            for c in range(1, n):
                better = debts[c] > best
                np.copyto(flat, flat_of[c], where=better)
                if c + 1 < n:
                    best = np.maximum(best, debts[c])
            outcome = reach[j].take(flat)
            m_flat[flat] += outcome
            served[j] = flat
            delivered[j] = outcome
        served, delivered = served.reshape(size, rows), delivered.reshape(size, rows)

        marks = np.empty((size + 1, rows), dtype=np.int64)
        exc = np.zeros((size, rows), dtype=np.int16)
        at_regen = np.ones((size, rows), dtype=bool) if record_cycles else None
        counts = np.empty((rows, n), dtype=np.int64)
        for c in range(n):
            hit = delivered & (served >= c * rows) & (served < (c + 1) * rows)
            # marks[i + 1] = last delivery slot up to slot t0 + i
            np.multiply(hit, (ts + _NO_SLOT)[:, None], out=marks[1:])
            marks[1:] -= _NO_SLOT
            marks[0] = last[c]
            np.maximum.accumulate(marks, axis=0, out=marks)
            last[c] = marks[-1].copy()
            if t0 >= warmup:
                x = (ts - 1)[:, None] - marks[:-1]
                exc += x >= taus[c]
                counts[:, c] = np.count_nonzero(hit, axis=0)
                if record_cycles:
                    at_regen &= np.minimum(x, taus[c]) == regen[c]
        if t0 >= warmup:
            tally.add(t0, block, exc, counts, at_regen)
    return tally.results(len(insts))


def _run_trials(
    insts: list[Instance],
    handles: list[PolicyHandle],
    cfg: SimConfig,
    start: State | None,
    record_cycles: bool,
) -> list[list[TrialResult]]:
    """The trials of every point ``(insts[i], handles[i])``, one call per engine.

    The points must share thresholds.  Points whose engine inputs are equal
    share one set of rows: for WDD the inputs are the reliabilities (theta
    never enters the engine), for a chain every array and the start.
    """
    taus = insts[0].thresholds
    if any(inst.thresholds != taus for inst in insts):
        raise ValueError("the points of one simulation must share thresholds")
    wdd: dict = {}
    chains: dict = {}
    keys = []
    for inst, handle in zip(insts, handles):
        if isinstance(handle, WddHandle):
            key = ("wdd", inst.reliabilities)
            wdd.setdefault(key, inst)
        else:
            chain = handle.chain(inst, start)
            arrays = (chain.succ, chain.fail, chain.p, chain.hits, chain.client, chain.base)
            key = ("chain", chain.start, *(a.tobytes() for a in arrays))
            chains.setdefault(key, chain)
        keys.append(key)
    args = (cfg.horizon, cfg.trials, cfg.seed)
    runs = {}
    if wdd:
        wdd_start = tuple(taus if start is None else start)
        _check_start(taus, wdd_start)
        runs.update(zip(wdd, _batch_wdd(list(wdd.values()), *args, wdd_start, cfg.warmup, record_cycles)))
    if chains:
        runs.update(zip(chains, _batch_chain(insts[0], list(chains.values()), *args, cfg.warmup, record_cycles)))
    return [runs[key] for key in keys]


# ---------------------------------------------------------------------------
# estimators


def estimate_cost(
    inst: Instance, policy: PolicyHandle, cfg: SimConfig, start: State | None = None
) -> CostEstimate:
    """Risk-sensitive average cost from blocks pooled over independent trials.

    Each trial is cut into ``n`` nested blocks of mean length
    ``L = horizon / n`` (see ``block_edges``).  With ``C_b`` the exceedance
    total of block ``b``, pooled over all trials, the batch-means estimate of
    the scaled cumulant generating function is

        ``j_hat = logmeanexp(theta * C_b) / (theta * L)``.

    Over whole-horizon totals the log-mean-exp under-estimates once
    ``theta**2 * Var(C_T)`` is large against ``ln(trials)``: the rare trials
    that carry the tail are not sampled.  So ``L`` is chosen from the data.
    Start at ``L = horizon`` and halve it until the block weights
    ``w_b = exp(theta * C_b)`` have an effective sample size
    ``(sum w)**2 / sum(w**2)`` of at least ``_MIN_COVERAGE`` times the block
    count, or until one more halving would take the blocks below
    ``_MIN_BLOCK`` slots.  Where the trial totals already cover their tail,
    and always for a single trial, ``L = horizon`` and the estimate is the
    whole-horizon ``logmeanexp(theta * C_r) / (theta * horizon)`` exactly.

    The log-mean is max-shifted so arbitrarily large exponents stay finite.
    The log-scale standard error comes from the delta method on the block
    weights, treating the blocks as independent.
    """
    return estimate_costs([inst], [policy], cfg, start)[0]


def estimate_costs(
    insts: list[Instance], handles: list[PolicyHandle], cfg: SimConfig, start: State | None = None
) -> list[CostEstimate]:
    """``estimate_cost`` at every point ``(insts[i], handles[i])`` of one sweep.

    The points share thresholds, and each engine runs once for all of them;
    points with equal engine inputs share their trials (see ``_run_trials``).
    """
    runs = _run_trials(insts, handles, cfg, start, record_cycles=False)
    return [_block_estimate(inst.theta, results, cfg) for inst, results in zip(insts, runs)]


def _block_estimate(theta: float, results: list[TrialResult], cfg: SimConfig) -> CostEstimate:
    """The estimate of ``estimate_cost`` from one point's trials."""
    fine = np.stack([res.block_exceedances for res in results])
    per_trial = 1
    while True:
        w = theta * fine.reshape(cfg.trials, per_trial, -1).sum(axis=2).ravel()
        shifted = np.exp(w - w.max())
        coverage = float(shifted.sum() ** 2 / (shifted @ shifted)) / w.size
        if coverage >= _MIN_COVERAGE or per_trial == fine.shape[1]:
            break
        per_trial *= 2
    block_length = cfg.horizon / per_trial
    lme = log_mean_exp(w)
    j_hat = lme / (theta * block_length)
    degenerate = bool(np.all(w == w[0]))
    if w.size > 1 and not degenerate:
        stderr_log = float(shifted.std(ddof=1) / (math.sqrt(w.size) * shifted.mean()))
    else:
        stderr_log = 0.0
    return CostEstimate(
        j_hat=j_hat,
        log_mean_cost=lme,
        stderr_log=stderr_log,
        stderr_j=stderr_log / (theta * block_length),
        trials_used=cfg.trials,
        degenerate=degenerate,
        block_length=block_length,
        tail_coverage=coverage,
    )


def simulate_cycles(
    inst: Instance, policy: PolicyHandle, cfg: SimConfig, start: State | None = None
) -> CycleEstimate:
    """Renewal-cycle estimates pooled across trials.

    Estimates the mean cycle length and the mean multiplicative cycle cost
    (log domain), and combines them into the implied average cost
    ``ln(mean cost) / (theta * mean length)``.  Trials that never hit the
    renewal state complete no cycles; a warning is issued for them.
    """
    results = _run_trials([inst], [policy], cfg, start, record_cycles=True)[0]
    lengths: list[int] = []
    counts: list[int] = []
    aborted = 0
    for res in results:
        if not res.cycle_lengths:
            aborted += 1
            continue
        lengths.extend(res.cycle_lengths)
        counts.extend(res.cycle_exceedances)
    if aborted:
        warnings.warn(
            f"{aborted} of {cfg.trials} trials completed no regeneration cycle",
            stacklevel=2,
        )
    if not lengths:
        raise EstimationError("no completed regeneration cycles; longer horizon needed")

    larr = np.asarray(lengths, dtype=float)
    w = inst.theta * np.asarray(counts, dtype=float)
    n_cycles = len(lengths)
    lme = log_mean_exp(w)
    mean_len = float(larr.mean())
    j_cycle = lme / (inst.theta * mean_len)

    shifted = np.exp(w - w.max())
    mean_e = float(shifted.mean())
    if n_cycles > 1:
        var_log_v = float(shifted.var(ddof=1)) / (n_cycles * mean_e**2)
        var_len = float(larr.var(ddof=1)) / n_cycles
        cov = float(np.cov(shifted, larr, ddof=1)[0, 1]) / (n_cycles * mean_e)
        d_a = 1.0 / (inst.theta * mean_len)
        d_b = -lme / (inst.theta * mean_len**2)
        var_j = var_log_v * d_a**2 + var_len * d_b**2 + 2.0 * cov * d_a * d_b
        stderr_j = math.sqrt(max(var_j, 0.0))
    else:
        stderr_j = 0.0
    return CycleEstimate(
        mean_length=mean_len,
        mean_cost=float(math.exp(lme)),
        j_cycle=j_cycle,
        stderr_j=stderr_j,
        n_cycles=n_cycles,
        aborted_trials=aborted,
    )
