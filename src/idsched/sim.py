"""Monte Carlo simulation of the slotted system under any policy.

Each batch engine returns one thing, the exceedance total of every row over
each estimator block (``block_edges``), and the block estimator reads
nothing else.  Costs are accumulated as integer exceedance counts and only
exponentiated inside log-domain reductions, so horizons of 10^7 slots cannot
overflow.  Each trial owns a pseudorandom substream derived from (seed,
trial index); the batch engines consume it as a per-slot walk of the model
would, so results are independent of any batching, and repeated runs are
bitwise identical.  A finite-memory policy enters as its ``exact.Chain``,
which carries its start; WDD, which has no finite chain, enters as ``None``
and starts from the all-threshold state.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .exact import Chain
from .model import Instance, State

_DRAW = 2**14  # most uniforms one draw holds (128 KiB); bounds memory only, the streams do not depend on it
_MIN_BLOCK = 64  # shortest estimator block, in slots
_MIN_COVERAGE = 0.5  # least effective sample size of the block weights, per block
_SLICE = 2 * _MIN_BLOCK  # most slots a batch engine records before deriving their exceedances; no block is longer
_TABLE = 2**15  # most entries of the chain engine's K-slot table


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


@dataclass(frozen=True)
class CostEstimate:
    """Risk-sensitive average-cost estimate from pooled trial blocks.

    ``block_length`` is the mean length in slots of the blocks the estimate
    used; ``tail_coverage`` is the effective sample size of their weights
    ``exp(theta * C_b)`` over the block count.  Coverage below
    ``_MIN_COVERAGE`` means even the shortest blocks left the tail
    under-sampled and the estimate is biased low.
    """

    j_hat: float
    stderr_log: float
    stderr_j: float
    degenerate: bool
    block_length: float
    tail_coverage: float


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
# batch engines (trial-vectorized; bitwise identical to the per-slot reference
# that tests/sim_oracle.py writes against the model)


def _slices(rngs: list[np.random.Generator], warmup: int, horizon: int):
    """Every row's uniforms, slot-major, in sub-slices of at most ``_SLICE`` slots.

    Yields ``(t0, uniforms, block)`` where ``uniforms[j, r]`` is row ``r``'s
    uniform for slot ``t0 + j`` (a view into the draw) and ``block`` indexes
    the estimator block of the slots (``block_edges``, counted after the
    warmup; 0 in the warmup).  The warmup is cut every ``_SLICE`` slots and
    at its end; after it each sub-slice is one block, which is never longer
    than ``_SLICE``.  Row ``r`` reads ``rngs[r]``, and a draw holds the
    sub-slices from the current one up to the furthest whose end keeps it
    within ``_DRAW`` uniforms, at least one.  A float64 ``Generator.random``
    stream is the same whatever sizes it is drawn in, so ``_DRAW`` only
    bounds the memory a draw holds.
    """
    edges = block_edges(horizon)
    ends = list(range(_SLICE, warmup, _SLICE)) + [warmup] * (warmup > 0) + [warmup + e for e in edges]
    first = len(ends) - len(edges)  # the first sub-slice after the warmup
    t0 = drawn = 0
    for i, end in enumerate(ends):
        if end > drawn:
            base, drawn = t0, ends[max(bisect.bisect_right(ends, t0 + _DRAW // len(rngs)) - 1, i)]
            chunk = np.empty((len(rngs), drawn - base))
            for rng, row in zip(rngs, chunk):
                rng.random(out=row)
        yield t0, chunk[:, t0 - base : end - base].T, max(i - first, 0)
        t0 = end


def _steps(states: int, width: int) -> int:
    """Slots per table lookup: the largest ``K`` with ``states * width**K <= _TABLE``, at least 1."""
    steps = 1
    while states * width ** (steps + 1) <= _TABLE:
        steps += 1
    return steps


def _step_tables(succ, fail, p, hits, levels: np.ndarray, steps: int):
    """Moves of ``1 .. steps`` slots from every chain state, by the ranks of their uniforms.

    With ``width = len(levels) + 1`` ranks, the ``k``-slot entry for state
    ``s`` and ranks ``r_0 .. r_{k-1}`` (first slot most significant) sits at
    ``offsets[k] + s * width**k + sum_i r_i * width**(k - 1 - i)``.  Returns
    ``offsets`` and, per entry, the state reached (int32) and the
    exceedances paid (int16).  A slot at rank ``r`` from ``s`` delivers iff
    ``r <= searchsorted(levels, p[s])``.
    """
    states, width = len(p), len(levels) + 1
    offsets = np.cumsum([0, 0] + [states * width**k for k in range(1, steps + 1)])
    nxt = np.empty(offsets[-1], dtype=np.int32)
    exc = np.empty(offsets[-1], dtype=np.int16)
    ok = np.arange(width) <= np.searchsorted(levels, p)[:, None]
    first = np.where(ok, succ[:, None], fail[:, None]).ravel()
    one = slice(0, len(first))
    nxt[one] = first
    exc[one] = np.repeat(hits, width)
    for k in range(2, steps + 1):
        # k slots: one slot, then k - 1 slots from where it led, written in place
        prev, cur = slice(offsets[k - 1], offsets[k]), slice(offsets[k], offsets[k + 1])
        np.take(nxt[prev].reshape(states, -1), first, axis=0, out=nxt[cur].reshape(len(first), -1))
        paid = exc[cur].reshape(len(first), -1)
        np.take(exc[prev].reshape(states, -1), first, axis=0, out=paid)
        paid += exc[one, None]
    return offsets, nxt, exc


def _batch_chain(chains: list[Chain], horizon: int, trials: int, seed: int, warmup: int) -> np.ndarray:
    """Block exceedance totals ``(rows, blocks)`` of each chain's trials, from its ``start``.

    The chains are concatenated with index offsets and run as one stacked
    chain, and row ``(chain, trial)`` draws trial ``trial``'s uniforms.  A
    slot from state ``s`` succeeds iff its uniform is below ``p[s]``, so it
    depends on the uniform only through its rank, the number of distinct
    reliabilities ``levels`` at or below it: ``u < p[s]`` iff that rank is
    at most ``searchsorted(levels, p[s])``, the same float comparisons.  So
    ``K`` slots from ``s`` depend only on ``s`` and the ranks' base-``width``
    code, and one lookup in ``_step_tables`` advances every row by ``K``
    slots, ``K`` the largest with ``states * width**K <= _TABLE`` (at least
    1).  The slot loop records each row's table index; the exceedances are
    read from those records after each sub-slice, whose last ``len % K``
    slots take one shorter step, and added to the sub-slice's block.
    """
    offsets = np.cumsum([0] + [len(c.p) for c in chains[:-1]])
    succ = np.concatenate([c.succ + off for c, off in zip(chains, offsets)])
    fail = np.concatenate([c.fail + off for c, off in zip(chains, offsets)])
    p, hits = (np.concatenate([getattr(c, name) for c in chains]) for name in ("p", "hits"))
    levels = np.array(sorted(set(p.tolist())))
    width = len(levels) + 1
    steps = _steps(len(p), width)
    entry, nxt, exc = _step_tables(succ, fail, p, hits, levels, steps)
    place = width ** np.arange(steps)[::-1]  # a slot's weight in its step's code, first slot most significant
    shape = (len(chains), trials)
    sidx = np.repeat([c.start + off for c, off in zip(chains, offsets)], trials).reshape(shape)
    # a block is at most 128 slots (block_edges) and pays at most n <= 63 per
    # slot (Instance caps the state space at 2**64 - 1), so its total fits 16 bits
    blocks = np.zeros((shape[0] * trials, len(block_edges(horizon))), dtype=np.int16)

    for t0, u, block in _slices([np.random.default_rng((seed, r)) for r in range(trials)], warmup, horizon):
        u = np.ascontiguousarray(u)  # the comparisons below read it once per level, faster than the draw's strided view
        rank = np.zeros(u.shape, dtype=np.intp)
        for level in levels:  # one comparison per level is cheaper than a binary search over a few
            rank += u >= level
        full, rest = divmod(len(u), steps)
        codes = (rank[: full * steps].reshape(full, steps, trials) * place[:, None]).sum(axis=1) + entry[steps]
        sizes = [width**steps] * full
        if rest:
            codes = np.concatenate((codes, [(rank[full * steps :] * place[-rest:, None]).sum(axis=0) + entry[rest]]))
            sizes.append(width**rest)
        at = np.empty((len(sizes),) + shape, dtype=np.intp)
        for j, size in enumerate(sizes):
            np.multiply(sidx, size, out=at[j])
            np.add(at[j], codes[j], out=at[j])
            sidx = nxt.take(at[j])
        if t0 >= warmup:
            blocks[:, block] += exc.take(at).sum(axis=0).ravel()
    return blocks


def _batch_wdd(insts: list[Instance], horizon: int, trials: int, seed: int, start: State, warmup: int) -> np.ndarray:
    """Block exceedance totals ``(rows, blocks)`` of WDD's trials, rows ``(instance, trial)``.

    The instances share thresholds.  Each slot makes only the decision, the
    first client with the largest ``t / (p tau) - M / p`` (so ties go to the
    lowest client), written one-hot into ``served``, and the channel draw,
    and records the running delivery counts ``M``.  A virtual delivery at
    slot ``-x - 1`` stands for each client's start ``x``.  With ``D(t)`` a
    client's count before slot ``t``, it sits at its threshold ``tau`` when
    ``D(t) == D(t - tau)`` (no delivery in the last ``tau`` slots).  So the
    last ``max(tau) + 1`` records carry over between sub-slices.
    """
    taus = insts[0].thresholds
    n = len(taus)
    rows = len(insts) * trials
    # per-slot arrays are client-major, (client, instance, trial), so that
    # each operation runs along the trials
    p = np.array([inst.reliabilities for inst in insts]).T[:, :, None]
    ptau = p * np.asarray(taus, dtype=np.int64)[:, None, None]
    p_rows = np.ascontiguousarray(np.broadcast_to(p, (n, len(insts), trials)))
    m_counts = np.zeros(p_rows.shape)  # deliveries so far; integers, exact as floats
    m_rows = m_counts.reshape(n, rows)
    debts = np.empty(p_rows.shape)
    served = np.ones(p_rows.shape, dtype=bool)  # one-hot in the client; one client is always served
    got = np.empty(p_rows.shape, dtype=bool)
    clients = np.arange(n, dtype=np.int8)[:, None, None]
    index = np.empty(p_rows.shape[1:], dtype=np.int8)  # the served client, from three clients on
    best, better = np.empty(index.shape), np.empty(index.shape, dtype=bool)
    lag = max(taus) + 1
    # record[i]: the counts after slot t0 - lag + i, for the sub-slice from t0;
    # before the first slot they are -1, and 0 from the virtual delivery on
    record = np.empty((lag + _SLICE, n, rows), dtype=np.int32)
    record[:lag] = (np.arange(lag)[:, None] >= lag - 1 - np.asarray(start))[:, :, None] - 1
    # a block is at most 128 slots (block_edges) and pays at most n <= 63 per
    # slot (Instance caps the state space at 2**64 - 1), so its total fits 16 bits
    blocks = np.zeros((rows, len(block_edges(horizon))), dtype=np.int16)

    for t0, u, block in _slices([np.random.default_rng((seed, r)) for r in range(trials)], warmup, horizon):
        size = len(u)
        t_debts = np.arange(t0, t0 + size)[:, None, None, None] / ptau
        reach = u[:, None, None, :] < p_rows  # the outcome, had each client been served
        for j in range(size):
            np.divide(m_counts, p_rows, out=debts)
            np.subtract(t_debts[j], debts, out=debts)
            if n == 2:
                np.greater(debts[1], debts[0], out=served[1])
                np.logical_not(served[1], out=served[0])
            elif n > 2:
                np.greater(debts[1], debts[0], out=index.view(bool))  # 0 or 1, without a cast to int8
                np.maximum(debts[0], debts[1], out=best)
                for c in range(2, n):
                    np.greater(debts[c], best, out=better)
                    np.copyto(index, c, where=better)
                    if c + 1 < n:
                        np.maximum(best, debts[c], out=best)
                np.equal(clients, index, out=served)
            np.logical_and(served, reach[j], out=got)
            m_counts += got
            record[lag + j] = m_rows

        if t0 >= warmup:
            exc = np.zeros((size, rows), dtype=np.int16)
            for c, tau in enumerate(taus):
                # D(t0 + j) == D(t0 + j - tau): the client's counts before those slots
                exc += record[lag - 1 : lag - 1 + size, c] == record[lag - 1 - tau : lag - 1 - tau + size, c]
            blocks[:, block] += exc.sum(axis=0)
        record[:lag] = record[size : size + lag]
    return blocks


def _run_trials(insts: list[Instance], chains: list[Chain | None], cfg: SimConfig) -> list[tuple[np.ndarray, slice]]:
    """The trials of every point ``(insts[i], chains[i])``, one call per engine.

    Returns each point's engine block totals and its slice of their rows.  A
    chain of ``None`` stands for WDD, from the all-threshold state.  The
    points must share thresholds.  Points whose engine inputs are equal share
    one set of rows: for WDD the inputs are the reliabilities (theta never
    enters the engine), for a chain its start and the arrays the engine
    reads.
    """
    taus = insts[0].thresholds
    if any(inst.thresholds != taus for inst in insts):
        raise ValueError("the points of one simulation must share thresholds")
    wdd: dict = {}
    distinct: dict = {}
    keys = []
    for inst, chain in zip(insts, chains):
        if chain is None:
            key = ("wdd", inst.reliabilities)
            wdd.setdefault(key, inst)
        else:
            arrays = (chain.succ, chain.fail, chain.p, chain.hits)
            key = ("chain", chain.start, *(a.tobytes() for a in arrays))
            distinct.setdefault(key, chain)
        keys.append(key)
    args = (cfg.horizon, cfg.trials, cfg.seed)
    blocks = {}
    if wdd:
        blocks["wdd"] = _batch_wdd(list(wdd.values()), *args, taus, cfg.warmup)
    if distinct:
        blocks["chain"] = _batch_chain(list(distinct.values()), *args, cfg.warmup)
    group = {key: g for points in (wdd, distinct) for g, key in enumerate(points)}
    return [(blocks[key[0]], slice(group[key] * cfg.trials, (group[key] + 1) * cfg.trials)) for key in keys]


# ---------------------------------------------------------------------------
# estimators


def estimate_costs(insts: list[Instance], chains: list[Chain | None], cfg: SimConfig) -> list[CostEstimate]:
    """Risk-sensitive average costs at every point ``(insts[i], chains[i])`` of one sweep.

    The points share thresholds, and each engine runs once for all of them;
    points with equal engine inputs share their trials (see ``_run_trials``).
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
    runs = _run_trials(insts, chains, cfg)
    return [_block_estimate(inst.theta, blocks[rows], cfg) for inst, (blocks, rows) in zip(insts, runs)]


def _block_estimate(theta: float, fine: np.ndarray, cfg: SimConfig) -> CostEstimate:
    """The estimate of ``estimate_costs`` from one point's block totals ``(trial, block)``."""
    per_trial = 1
    while True:
        w = theta * fine.reshape(cfg.trials, per_trial, -1).sum(axis=2).ravel()
        shifted = np.exp(w - w.max())
        coverage = float(shifted.sum() ** 2 / (shifted @ shifted)) / w.size
        if coverage >= _MIN_COVERAGE or per_trial == fine.shape[1]:
            break
        per_trial *= 2
    block_length = cfg.horizon / per_trial
    j_hat = log_mean_exp(w) / (theta * block_length)
    degenerate = bool(np.all(w == w[0]))
    if w.size > 1 and not degenerate:
        stderr_log = float(shifted.std(ddof=1) / (math.sqrt(w.size) * shifted.mean()))
    else:
        stderr_log = 0.0
    return CostEstimate(
        j_hat=j_hat,
        stderr_log=stderr_log,
        stderr_j=stderr_log / (theta * block_length),
        degenerate=degenerate,
        block_length=block_length,
        tail_coverage=coverage,
    )
