"""Monte Carlo simulation of the slotted system under any policy.

Each batch engine returns one thing, the exceedance total of every row over
each estimator block (``block_edges``), and the block estimator reads
nothing else.  Costs are accumulated as integer exceedance counts and only
exponentiated inside log-domain reductions, so horizons of 10^7 slots cannot
overflow.  Each trial owns a pseudorandom substream derived from (seed,
trial index); the batch engines consume it as a per-slot walk of the model
would, so results are independent of any batching, and repeated runs are
bitwise identical.  A finite-memory policy enters as its ``exact.Chain``,
which carries its start; WDD enters as ``None`` and starts from the
all-threshold state.  At equal reliabilities WDD's decision lives on a finite
lattice and it runs as a chain too (``_wdd_chains``); otherwise it runs slot
by slot (``_batch_wdd``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exact import Chain
from .model import Instance, State

_DRAW = 2**14  # most uniforms one draw holds (128 KiB); bounds memory only, the streams do not depend on it
_MIN_BLOCK = 64  # shortest estimator block, in slots
_MIN_COVERAGE = 0.5  # least effective sample size of the block weights, per block
_SLICE = 2 * _MIN_BLOCK  # most slots a batch engine records before deriving their exceedances; no block is longer
_TABLE = 2**15  # most entries of the chain engine's K-slot table
_BOX = 2  # WDD's first box of key differences, in periods lcm(tau); doubled until no row reaches its edge
_WDD_STATES = 2**18  # most states of a WDD chain; past them WDD runs slot by slot


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


def _step_tables(succ, fail, ok, hits, steps: int):
    """Moves of ``1 .. steps`` slots from every chain state, by the ranks of their uniforms.

    A slot from state ``s`` whose uniform has rank ``r`` delivers iff
    ``ok[s, r]``.  With ``width = ok.shape[1]`` ranks, the ``k``-slot entry
    for state ``s`` and ranks ``r_0 .. r_{k-1}`` (first slot most
    significant) sits at ``offsets[k] + s * width**k + sum_i r_i *
    width**(k - 1 - i)``.  Returns ``offsets`` and, per entry, the state
    reached, scaled to the offset of its ``steps``-slot entries
    (``state * width**steps``), and the exceedances paid (int16).
    """
    states, width = ok.shape
    offsets = np.cumsum([0, 0] + [states * width**k for k in range(1, steps + 1)])
    nxt = np.empty(offsets[-1], dtype=np.intp)
    exc = np.empty(offsets[-1], dtype=np.int16)
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
    nxt *= width**steps
    return offsets, nxt, exc


def _table_rows(chains: list[Chain], levels: list[np.ndarray], width: int):
    """The chain engine's table rows: one set per distinct (succ, fail, hits, rank of p), stacked with index offsets.

    Returns the stacked ``succ``, ``fail`` and ``hits``, ``ok[s, r]``
    (whether a uniform of rank ``r`` delivers from stacked state ``s``) and
    each chain's offset.
    """
    parts, base = [], []
    for c, lev in zip(chains, levels):
        arrays = (c.succ, c.fail, c.hits, np.searchsorted(lev, c.p))
        offset = 0
        for part in parts:
            if all(np.array_equal(a, b) for a, b in zip(arrays, part)):
                break
            offset += len(part[0])
        else:
            parts.append(arrays)
        base.append(offset)
    offsets = np.cumsum([0] + [len(part[0]) for part in parts[:-1]])
    succ, fail = (np.concatenate([part[i] + off for part, off in zip(parts, offsets)]) for i in (0, 1))
    hits, q = (np.concatenate([part[i] for part in parts]) for i in (2, 3))
    return succ, fail, hits, np.arange(width) <= q[:, None], np.array(base)


def _batch_chain(
    chains: list[Chain], horizon: int, trials: int, seed: int, warmup: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block exceedance totals ``(rows, blocks)`` of each chain's trials, from its ``start``, and each row's last state.

    Row ``(chain, trial)`` draws trial ``trial``'s uniforms.  A slot from
    state ``s`` succeeds iff its uniform is below ``p[s]``, so it depends on
    the uniform only through its rank among the chain's own distinct
    reliabilities ``levels``, the number of them at or below it: ``u <
    p[s]`` iff that rank is at most ``searchsorted(levels, p[s])``, the same
    float comparisons.  So ``K`` slots from ``s`` depend only on ``s`` and
    the ranks' base-``width`` code, ``width`` one more than the most levels
    of any chain, and chains that differ only in their start or in the
    values of their levels share their table rows (equal-reliability WDD at
    every point of a sweep has one set).  The distinct rows are concatenated
    with index offsets, and one lookup in ``_step_tables`` advances every
    row by ``K`` slots, ``K`` the largest with ``states * width**K <=
    _TABLE`` (at least 1): an add of the code to the row's state, which the
    tables hold scaled to its entries, and a take.  The slot loop records
    each row's table index; the exceedances are read from those records
    after each sub-slice, whose last ``len % K`` slots take one shorter
    step, and added to the sub-slice's block.  A row's last state is its
    index in its own chain.
    """
    levels = [np.array(sorted(set(c.p.tolist()))) for c in chains]
    width = max(map(len, levels)) + 1
    succ, fail, hits, ok, base = _table_rows(chains, levels, width)
    steps = _steps(len(ok), width)
    entry, nxt, exc = _step_tables(succ, fail, ok, hits, steps)
    # chains with the same levels rank a uniform once; missing levels are
    # infinite, never at or below a uniform
    ranked = {lev.tobytes(): lev for lev in levels}
    group = [list(ranked).index(lev.tobytes()) for lev in levels]
    if len(ranked) in (1, len(chains)):  # one group broadcasts, and one per chain is in order
        group = slice(None)
    bounds = np.full((width - 1, len(ranked), 1), np.inf)
    for g, lev in enumerate(ranked.values()):
        bounds[: len(lev), g, 0] = lev
    shape = (len(chains), trials)
    sidx = np.repeat([(b + c.start) * width**steps for b, c in zip(base, chains)], trials).reshape(shape)
    # a block is at most 128 slots (block_edges) and pays at most n <= 63 per
    # slot (Instance caps the state space at 2**64 - 1), so its total fits 16 bits
    blocks = np.zeros((shape[0] * trials, len(block_edges(horizon))), dtype=np.int16)

    for t0, u, block in _slices([np.random.default_rng((seed, r)) for r in range(trials)], warmup, horizon):
        # the comparisons below read u once per level, faster contiguous than as the draw's strided view
        u = np.ascontiguousarray(u)[:, None]
        rank = (u >= bounds[0]).view(np.int8)  # a chain has at most 63 levels, one per client
        for bound in bounds[1:]:  # one comparison per level is cheaper than a binary search over a few
            rank += u >= bound
        full, rest = divmod(len(u), steps)
        # each step's code, by Horner's rule over its slots (the last, shorter
        # step has fewer), plus its entries' offset; each step adds the row's
        # state to it in place and looks the sum up
        at = np.empty((full + (rest > 0),) + shape, dtype=np.intp)
        at[:] = rank[::steps, group]
        for i in range(1, steps):
            digits = rank[i::steps, group]
            at[: len(digits)] *= width
            at[: len(digits)] += digits
        at[:full] += entry[steps]
        at[full:] += entry[rest]
        for j, step in enumerate(at):
            if j == full:  # the shorter step reads entries of rest slots
                sidx //= width ** (steps - rest)
            step += sidx
            nxt.take(step, out=sidx, mode="clip")  # in range; "raise" would buffer the output
        if t0 >= warmup:
            blocks[:, block] += exc.take(at).sum(axis=0, dtype=np.int16).ravel()
    return blocks, (sidx // width**steps - base[:, None]).ravel()


def _wdd_chains(taus: tuple[int, ...], ps: list[float], start: State, box: int) -> list[Chain] | None:
    """Equal-reliability WDD at each reliability of ``ps``, as chains that share one structure.

    With equal reliabilities WDD serves the first client with the largest
    integer key ``e_c (L / tau_c)``, ``e_c = t - tau_c M_c`` and ``L =
    lcm(tau)``, so its decision reads only the key differences ``K_c =
    key_c - key_0`` (``c >= 1``).  A slot adds ``L / tau_c - L / tau_0`` to
    every ``K_c``; a delivery to client 0 adds ``L`` to each of them, and one
    to client ``c`` takes ``L`` from ``K_c``.  So WDD is a chain on (clipped
    state, ``K``) from ``(start, 0)``, and neither its moves nor its
    exceedances depend on the reliability.  ``K`` is clipped to the
    box ``|K_c| <= box``: a move out of it goes to the last state, the edge,
    which absorbs.  The states reached are found breadth first on sorted
    int64 codes of ``(x, K + box)``, each level's moves computed once with
    array operations, and a state's number is its code's rank.  Returns None
    past ``_WDD_STATES`` states on two clients or more, or where the codes
    would not fit.
    """
    n = len(taus)
    tau = np.asarray(taus, dtype=np.int64)[:, None]
    period = math.lcm(*taus)
    dims = [t + 1 for t in taus] + [2 * box + 1] * (n - 1)
    if math.prod(dims) >= 2**63:
        return None
    limit = _WDD_STATES if n > 1 else dims[0]  # one client has no key differences: its chain is its clipped states
    radix = np.array(dims, dtype=np.int64)[:, None]
    stride = np.array([math.prod(dims[i + 1 :]) for i in range(len(dims))], dtype=np.int64)[:, None]
    drift = period // tau[1:] - period // tau[0]
    clients = np.arange(n)[:, None]

    def code(x, k):
        """The codes of states ``(x, K)``, and -1 outside the box."""
        inside = (abs(k) <= box).all(axis=0)
        return np.where(inside, (x * stride[:n]).sum(axis=0) + ((k + box) * stride[n:]).sum(axis=0), -1)

    def moves(codes):
        """The codes after a delivery and after a failure from each code, and its exceedances."""
        digits = codes // stride % radix
        x, k = digits[:n], digits[n:] - box
        served = np.vstack((np.zeros_like(codes), k)).argmax(axis=0)  # the first largest key
        fail_x, fail_k = np.minimum(x + 1, tau), k + drift
        succ_x = np.where(clients == served, 0, fail_x)
        succ_k = fail_k + period * (served == 0) - period * (clients[1:] == served)
        return (code(succ_x, succ_k), code(fail_x, fail_k)), (x == tau).sum(axis=0)

    first = code(np.array(start, dtype=np.int64)[:, None], np.zeros((n - 1, 1), dtype=np.int64))
    seen = frontier = first  # seen is sorted
    found = []  # per breadth-first level: its codes, their successors' codes and exceedances
    while frontier.size:
        (succ, fail), hits = moves(frontier)
        found.append((frontier, succ, fail, hits))
        new = np.sort(np.concatenate((succ, fail)))
        new = new[np.diff(new, prepend=-1) > 0]  # each code once, and no -1
        at = np.searchsorted(seen, new)
        frontier = new[seen.take(at, mode="clip") != new]
        seen = np.insert(seen, np.searchsorted(seen, frontier), frontier)
        if len(seen) > limit:
            return None
    edge = len(seen)
    codes, succ, fail, hits = (np.concatenate(part) for part in zip(*found))
    number = np.searchsorted(seen, codes)
    moved = np.full((2, edge + 1), edge)
    for row, ends in zip(moved, (succ, fail)):
        row[number] = np.where(ends >= 0, np.searchsorted(seen, ends), edge)
    paid = np.zeros(edge + 1, dtype=np.int64)  # the edge's rows are rerun, so what it pays never counts
    paid[number] = hits
    succ, fail = moved
    return [Chain(succ=succ, fail=fail, p=np.full(edge + 1, p), hits=paid, start=int(number[0])) for p in ps]


def _batch_wdd(insts: list[Instance], horizon: int, trials: int, seed: int, start: State, warmup: int) -> np.ndarray:
    """Block exceedance totals ``(rows, blocks)`` of WDD's trials, rows ``(instance, trial)``, slot by slot.

    The instances share thresholds and have two clients or more, and their
    reliabilities are all unequal or all equal.  Each slot makes only the
    decision, the first client with the largest debt (so ties go to the
    lowest client), written one-hot into ``served``, and the channel draw,
    and records the running delivery counts ``M``.  At unequal reliabilities
    the debt is the float ``t / (p tau) - M / p``; at equal ones it is the
    integer key ``t (L / tau) - M L``, ``L = lcm(tau)``, exact as a float
    below ``2**53``.  A virtual delivery at slot ``-x - 1`` stands for each
    client's start ``x``.  With ``D(t)`` a client's count before slot ``t``,
    it sits at its threshold ``tau`` when ``D(t) == D(t - tau)`` (no
    delivery in the last ``tau`` slots).  So the last ``max(tau) + 1``
    records carry over between sub-slices.
    """
    taus = insts[0].thresholds
    n = len(taus)
    rows = len(insts) * trials
    # per-slot arrays are client-major, (client, instance, trial), so that
    # each operation runs along the trials
    p = np.array([inst.reliabilities for inst in insts]).T[:, :, None]
    ptau = p * np.asarray(taus, dtype=np.int64)[:, None, None]
    p_rows = np.ascontiguousarray(np.broadcast_to(p, (n, len(insts), trials)))
    equal = {len(set(inst.reliabilities)) == 1 for inst in insts}
    if len(equal) > 1:
        raise ValueError("WDD's points of one call must all have equal reliabilities, or none")
    keyed = equal.pop()
    if keyed:
        period = math.lcm(*taus)
        if (warmup + horizon) * period >= 2**53:
            raise ConfigError("WDD's exact keys need (warmup + horizon) * lcm(thresholds) below 2**53")
        weight = np.array([period // tau for tau in taus], dtype=float)[:, None, None]
        owed, scale = np.multiply, float(period)
    else:
        owed, scale = np.divide, p_rows
    m_counts = np.zeros(p_rows.shape)  # deliveries so far; integers, exact as floats
    m_rows = m_counts.reshape(n, rows)
    debts = np.empty(p_rows.shape)
    served = np.empty(p_rows.shape, dtype=bool)  # one-hot in the client
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
        times = np.arange(t0, t0 + size)[:, None, None, None]
        t_debts = times * weight if keyed else times / ptau
        reach = u[:, None, None, :] < p_rows  # the outcome, had each client been served
        for j in range(size):
            owed(m_counts, scale, out=debts)
            np.subtract(t_debts[j], debts, out=debts)
            if n == 2:
                np.greater(debts[1], debts[0], out=served[1])
                np.logical_not(served[1], out=served[0])
            else:
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


def _run_trials(
    insts: list[Instance], chains: list[Chain | None], cfg: SimConfig, start: State | None = None
) -> list[tuple[np.ndarray, slice]]:
    """The trials of every point ``(insts[i], chains[i])``, one call per engine.

    Returns each point's engine block totals and its slice of their rows.  A
    chain of ``None`` stands for WDD, from ``start`` (the all-threshold state
    by default).  The points must share thresholds.  Points whose engine
    inputs are equal share one set of rows: for WDD the inputs are the
    reliabilities (theta never enters the engine), for a chain its start and
    the arrays the engine reads.  WDD at equal reliabilities runs as chains
    (``_wdd_chains``) in the chain engine's call, first in a box of
    ``_BOX * lcm(tau)``; if a row ends on the box's edge, the call reruns
    with the box doubled, so the box never changes a row.  Past the chain's
    state cap, and at unequal reliabilities, WDD runs slot by slot
    (``_batch_wdd``).
    """
    taus = insts[0].thresholds
    if any(inst.thresholds != taus for inst in insts):
        raise ValueError("the points of one simulation must share thresholds")
    start = taus if start is None else start
    points: dict = {"wdd": {}, "keyed": {}, "chain": {}}  # keyed: WDD at equal reliabilities
    keys = []
    for inst, chain in zip(insts, chains):
        if chain is None:
            key = ("keyed" if len(set(inst.reliabilities)) == 1 else "wdd", inst.reliabilities)
            points[key[0]].setdefault(key, inst)
        else:
            arrays = (chain.succ, chain.fail, chain.p, chain.hits)
            key = ("chain", chain.start, *(a.tobytes() for a in arrays))
            points[key[0]].setdefault(key, chain)
        keys.append(key)
    args = (cfg.horizon, cfg.trials, cfg.seed)
    blocks = {}
    if points["wdd"]:
        blocks["wdd"] = _batch_wdd(list(points["wdd"].values()), *args, start, cfg.warmup)
    keyed = list(points["keyed"].values())
    box = _BOX * math.lcm(*taus)
    while True:
        wdd = _wdd_chains(taus, [inst.reliabilities[0] for inst in keyed], start, box) if keyed else []
        if wdd is None:  # past the state cap: the same keys, slot by slot
            blocks["keyed"], wdd = _batch_wdd(keyed, *args, start, cfg.warmup), []
        stack = list(points["chain"].values()) + wdd
        if not stack:
            break
        totals, ends = _batch_chain(stack, *args, cfg.warmup)
        split = len(points["chain"]) * cfg.trials
        if not wdd or not (ends[split:] == len(wdd[0].p) - 1).any():  # no row ended on the box's edge
            blocks["chain"] = totals[:split]
            blocks.setdefault("keyed", totals[split:])
            break
        box *= 2
    group = {key: g for kind in points.values() for g, key in enumerate(kind)}
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
