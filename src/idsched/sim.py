"""Monte Carlo simulation of the slotted system under any policy.

Each batch engine returns one thing, the exceedance total of every row over
each estimator block (``block_edges``), and the block estimator reads
nothing else.  Costs are accumulated as integer exceedance counts and only
exponentiated inside log-domain reductions, so horizons of 10^7 slots cannot
overflow.  Each slot of each trial has one uniform, a counter-based
function of (seed, trial index, slot) (``_slices``); the batch engines
consume them as a per-slot walk of the model would, so results are
independent of any batching and of the other trials run, and repeated runs
are bitwise identical.  A finite-memory policy enters as its ``exact.Chain``,
which carries its start; WDD enters as ``None`` and starts from the
all-threshold state.  WDD decides on exact integer keys (``_wdd_weights``), so
its decision lives on a lattice of key differences, and it runs on that
lattice in the chain engine too (``_wdd_chains``), paying from its deliveries.
A row that ends on its lattice's edge, and every row of a lattice past its
state cap, runs slot by slot on the same keys (``_batch_wdd``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exact import Chain, reach
from .model import Instance

_MIN_BLOCK = 64  # shortest estimator block, in slots
_MIN_COVERAGE = 0.5  # least effective sample size of the block weights, per block
_SLICE = 2 * _MIN_BLOCK  # most slots a batch engine records before deriving their exceedances; no block is longer
_TABLE = 2**15  # most entries of the chain engine's K-slot table
_WDD_STATES = 2**18  # most states of a WDD key lattice; past them WDD runs slot by slot


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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64): the uniforms' keys are 64-bit")


@dataclass(frozen=True)
class CostEstimate:
    """Risk-sensitive average-cost estimate from pooled trial blocks.

    ``block_length`` is the mean length in slots of the blocks the estimate
    used; ``tail_coverage`` is the effective sample size of their weights
    ``exp(theta * C_b)`` over the block count.  Coverage below
    ``_MIN_COVERAGE`` means even the shortest blocks left the tail
    under-sampled and the estimate is biased low.  ``degenerate`` means one
    block, or equal block totals: the estimate has no error bar.
    """

    j_hat: float
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


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array: a bijection of 64-bit words."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _slices(seed: int, trials: Sequence[int], warmup: int, horizon: int):
    """Every row's uniforms, slot-major, in sub-slices of at most ``_SLICE`` slots.

    Row ``r`` runs trial ``trials[r]``.  Yields ``(t0, uniforms, block)``
    where ``uniforms[j, r]`` is row ``r``'s uniform for slot ``t0 + j``
    and ``block`` indexes the estimator block of the slots (``block_edges``,
    counted after the warmup; 0 in the warmup).  The warmup is cut every
    ``_SLICE`` slots and at its end; after it each sub-slice is one block,
    which is never longer than ``_SLICE``.  The uniforms are computed, not
    drawn: SplitMix64 (Steele, Lea and Flood, 2014) on a counter.  Trial
    ``k`` has the key ``mix(mix(seed) + k * gamma)``, and its uniform at
    slot ``t`` is the top 53 bits of ``mix(key + (t + 1) * gamma)`` times
    ``2**-53``, in [0, 1), all mod ``2**64``, ``gamma`` the golden-ratio
    increment.  So a uniform is a function of ``(seed, trial, slot)`` alone,
    the same whichever trials run beside it, and each sub-slice is one array
    operation over all rows.  ``mix`` is a bijection and ``gamma`` is odd, so
    distinct trials of a seed below ``2**64`` have distinct keys.
    """
    gamma = np.uint64(0x9E3779B97F4A7C15)
    keys = _mix(_mix(np.array([seed], dtype=np.uint64)) + np.array(trials, dtype=np.uint64) * gamma)
    edges = block_edges(horizon)
    ends = list(range(_SLICE, warmup, _SLICE)) + [warmup] * (warmup > 0) + [warmup + e for e in edges]
    first = len(ends) - len(edges)  # the first sub-slice after the warmup
    t0 = 0
    for i, end in enumerate(ends):
        bits = np.arange(t0 + 1, end + 1, dtype=np.uint64)[:, None] * gamma + keys
        uniforms = (_mix(bits) >> np.uint64(11)).astype(np.float64)
        uniforms *= 2.0**-53
        yield t0, uniforms, max(i - first, 0)
        t0 = end


def _steps(states: int, width: int) -> int:
    """Slots per table lookup: the largest ``K`` with ``states * width**K <= _TABLE``, at least 1."""
    steps = 1
    while states * width ** (steps + 1) <= _TABLE:
        steps += 1
    return steps


def _step_tables(succ, fail, ok, hits, steps: int, deliveries: bool = False):
    """Moves of ``1 .. steps`` slots from every chain state, by the ranks of their uniforms.

    A slot from state ``s`` whose uniform has rank ``r`` delivers iff
    ``ok[s, r]``.  With ``width = ok.shape[1]`` ranks, the ``k``-slot entry
    for state ``s`` and ranks ``r_0 .. r_{k-1}`` (first slot most
    significant) sits at ``offsets[k] + s * width**k + sum_i r_i *
    width**(k - 1 - i)``.  Returns ``offsets`` and, per entry, the state
    reached, scaled to the offset of its ``steps``-slot entries
    (``state * width**steps``), the exceedances paid (int16) and, with
    ``deliveries``, ``to[j]``, the client that the entry's slot ``j``
    delivers to: ``hits[s] + 1`` where the slot delivers from state ``s``,
    else 0 (int8; ``hits`` then holds the client each state serves).
    """
    states, width = ok.shape
    offsets = np.cumsum([0, 0] + [states * width**k for k in range(1, steps + 1)])
    nxt = np.empty(offsets[-1], dtype=np.intp)
    exc = np.empty(offsets[-1], dtype=np.int16)
    to = np.empty((steps if deliveries else 0, offsets[-1]), dtype=np.int8)
    first = np.where(ok, succ[:, None], fail[:, None]).ravel()
    one = slice(0, len(first))
    nxt[one] = first
    exc[one] = np.repeat(hits, width)
    if deliveries:
        to[0, one] = np.where(ok, hits[:, None] + 1, 0).ravel()
    for k in range(2, steps + 1):
        # k slots: one slot, then k - 1 slots from where it led, written in place
        prev, cur = slice(offsets[k - 1], offsets[k]), slice(offsets[k], offsets[k + 1])
        np.take(nxt[prev].reshape(states, -1), first, axis=0, out=nxt[cur].reshape(len(first), -1))
        paid = exc[cur].reshape(len(first), -1)
        np.take(exc[prev].reshape(states, -1), first, axis=0, out=paid)
        paid += exc[one, None]
        if deliveries:
            to[0, cur].reshape(len(first), -1)[:] = to[0, one, None]
            for j in range(1, k):
                np.take(to[j - 1, prev].reshape(states, -1), first, axis=0, out=to[j, cur].reshape(len(first), -1))
    nxt *= width**steps
    return offsets, nxt, exc, to


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


def _exceedances(got: np.ndarray, taus: tuple[int, ...]) -> np.ndarray:
    """Each row's exceedance total over a sub-slice, from its deliveries.

    ``got[c, i, r]`` says whether row ``r`` delivered to client ``c`` in
    slot ``i`` of the ``lag = max(taus)`` slots before the sub-slice and
    then its own.  Client ``c`` pays in a slot where it had no delivery in
    the ``tau_c`` slots before: the OR over that window, built from ORs of
    doubling widths, is false.  Before the first sub-slice no row has a
    delivery, which is the all-threshold start: it puts client ``c``'s last
    delivery at slot ``-tau_c - 1``, outside every window.
    """
    lag = max(taus)
    size = got.shape[1] - lag
    covered = np.zeros(got.shape[2], dtype=np.int16)  # client-slots with a delivery in their window
    for g, tau in zip(got, taus):
        window, width = g[lag - tau : lag + size - 1], 1  # window[i]: a delivery in slots i .. i + width - 1 of g[lag - tau:]
        while 2 * width <= tau:
            window, width = window[:-width] | window[width:], 2 * width
        if width < tau:
            window = window[:size] | window[tau - width :]
        covered += window.sum(axis=0, dtype=np.int16)
    return len(taus) * size - covered


def _batch_chain(
    chains: list[Chain],
    horizon: int,
    trials: int,
    seed: int,
    warmup: int,
    wdd: list[Chain] = (),
    taus: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Block exceedance totals ``(rows, blocks)`` of each chain's first ``trials`` trials, from its start, and each row's last state.

    Row ``(chain, trial)`` draws trial ``trial``'s uniforms.  ``wdd`` are
    WDD's chains on key differences (``_wdd_chains``), stacked after
    ``chains``; their rows start from the all-threshold state under
    thresholds ``taus``.
    A slot from state ``s`` succeeds iff its uniform is below ``p[s]``, so
    it depends on the uniform only through its rank among the chain's own
    distinct reliabilities ``levels``, the number of them at or below it:
    ``u < p[s]`` iff that rank is at most ``searchsorted(levels, p[s])``,
    the same float comparisons.  So ``K`` slots from ``s`` depend only on
    ``s`` and the ranks' base-``width`` code, ``width`` one more than the
    most levels of any chain, and chains that differ only in their start or
    in the values of their levels share their table rows (WDD's points of
    one lattice have one set).  The distinct rows are concatenated with
    index offsets, and one lookup in ``_step_tables`` advances every row by
    ``K`` slots, ``K`` the largest with ``states * width**K <= _TABLE`` (at
    least 1): an add of the code to the row's state, which the tables hold
    scaled to its entries, and a take.  The slot loop records each row's
    table index, and the records are read after each sub-slice, whose last
    ``len % K`` slots take one shorter step.  A finite chain's entry records
    what its slots pay, which is added to the sub-slice's block.  A WDD
    row's entry records which client each of its slots delivers to; the row
    pays from those deliveries and the last ``max(taus)`` slots' before them
    (``_exceedances``).  A row's last state is its index in its own chain.
    """
    stack = [*chains, *wdd]
    levels = [np.array(sorted(set(c.p.tolist()))) for c in stack]
    width = max(map(len, levels)) + 1
    succ, fail, hits, ok, base = _table_rows(stack, levels, width)
    steps = _steps(len(ok), width)
    entry, nxt, exc, to = _step_tables(succ, fail, ok, hits, steps, deliveries=bool(wdd))
    del succ, fail, hits, ok  # the slot loop reads only the tables
    # chains with the same levels rank a uniform once; missing levels are
    # infinite, never at or below a uniform
    ranked = {lev.tobytes(): lev for lev in levels}
    group = [list(ranked).index(lev.tobytes()) for lev in levels]
    if len(ranked) in (1, len(stack)):  # one group broadcasts, and one per chain is in order
        group = slice(None)
    bounds = np.full((width - 1, len(ranked), 1), np.inf)
    for g, lev in enumerate(ranked.values()):
        bounds[: len(lev), g, 0] = lev
    shape = (len(stack), trials)
    sidx = np.repeat([(b + c.start) * width**steps for b, c in zip(base, stack)], trials).reshape(shape)
    # a block is at most 128 slots (block_edges) and pays at most n <= 54 per
    # slot (Instance keeps n * states below 2**60, and states >= 2**n), so its
    # total fits 16 bits
    blocks = np.zeros((shape[0] * shape[1], len(block_edges(horizon))), dtype=np.int16)
    split = len(chains) * trials  # the first WDD row
    if wdd:
        # got[c, i]: the deliveries to client c in the lag slots before the
        # sub-slice, then in its slots
        lag = max(taus)
        got = np.zeros((len(taus), lag + _SLICE, len(blocks) - split), dtype=bool)
        dest = np.empty((_SLICE, got.shape[2]), dtype=np.int8)  # the client each slot delivers to, 1-based, or 0
        clients = np.arange(1, len(taus) + 1, dtype=np.int8)[:, None, None]

    for t0, u, block in _slices(seed, range(trials), warmup, horizon):
        u = u[:, None]
        rank = (u >= bounds[0]).view(np.int8)  # a chain has at most n <= 54 levels, one per client
        for bound in bounds[1:]:  # one comparison per level is cheaper than a binary search over a few
            rank += u >= bound
        size = len(u)
        full, rest = divmod(size, steps)
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
        if chains and t0 >= warmup:
            blocks[:split, block] += exc.take(at[:, : len(chains)]).sum(axis=0, dtype=np.int16).ravel()
        if wdd:
            mine = at[:, len(chains) :].reshape(len(at), -1)
            for j in range(steps):  # slot j of every step
                dest[j:size:steps] = to[j].take(mine[: full + (j < rest)])
            np.equal(dest[:size], clients, out=got[:, lag : lag + size])
            if t0 >= warmup:
                blocks[split:, block] += _exceedances(got[:, : lag + size], taus)
            got[:, :lag] = got[:, size : size + lag]
    return blocks, (sidx // width**steps - base[:, None]).ravel()


def _nearest_fraction(p: float) -> tuple[int, int]:
    """``(P, Q)``, the fraction nearest to ``p`` with a denominator of at most 10**6.

    The result of ``fractions.Fraction(p).limit_denominator(10**6)``, found
    the same way: the last convergent of ``p``'s continued fraction within
    the bound, or the semiconvergent after it if that is nearer.  (Importing
    ``fractions`` imports ``decimal``, which raised the ``figures``
    benchmark's peak resident memory by 0.3 MB.)
    """
    n, d = p.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while den and q0 + num // den * q1 <= 10**6:
        a = num // den
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        num, den = den, num - a * den
    if not den:  # p itself has a denominator within the bound
        return p1, q1
    k = (10**6 - q0) // q1
    return (p1, q1) if 2 * den * (q0 + k * q1) <= d else (p0 + k * p1, q0 + k * q1)


def _wdd_weights(taus: tuple[int, ...], ps: tuple[float, ...]) -> tuple[int, ...]:
    """WDD's integer key weights ``w_c = L' / (tau_c P_c)``.

    ``P_c / Q`` is reliability ``p_c`` as the nearest fraction with a
    denominator of at most 10**6 (``_nearest_fraction``; ``Q`` the least
    common denominator), and ``L' = lcm(tau_c P_c)``.  So the key ``(t -
    tau_c M_c) w_c`` is the debt ``t / (p_c tau_c) - M_c / p_c`` at those
    fractions times ``L' / Q``, and an integer: it orders the clients as
    the debt does, ties included.  At equal reliabilities ``w_c = lcm(tau)
    / tau_c``.
    """
    fracs = [_nearest_fraction(p) for p in ps]
    if not all(num for num, _ in fracs):
        raise ConfigError("WDD needs every reliability to be at least 5e-7, a positive fraction of denominator 10**6")
    q = math.lcm(*(den for _, den in fracs))
    scaled = [tau * num * (q // den) for tau, (num, den) in zip(taus, fracs)]
    period = math.lcm(*scaled)
    return tuple(period // x for x in scaled)


def _first_box(taus: tuple[int, ...], w: tuple[int, ...], worst: float, trial_slots: int) -> int:
    """WDD's box of key differences, sized from the input so that rows seldom reach its edge and rerun slot by slot.

    Deliveries keep the keys within about one largest step ``s = max_c
    tau_c w_c`` of each other, and WDD's rows stay inside ``2 s`` unless the
    channels fail for long.  A failure run of ``f`` slots moves the key
    differences by up to ``f (max w - min w)``.  The runs that count are the
    least reliable client's (reliability ``worst``): the call's
    ``trial_slots`` hold one of ``ln(trial_slots) / -ln(1 - worst)`` slots
    about once, and one twice as long with a chance of about
    ``1 / trial_slots``.  Runs broken by a delivery or two reach further
    than one run alone, so the box allows the longer run: it is the larger
    of ``2 s`` and ``s`` plus that run's move.
    """
    step = max(t * x for t, x in zip(taus, w))
    run = math.ceil(2 * math.log(max(trial_slots, 2)) / -math.log1p(-worst))
    return max(2 * step, step + run * (max(w) - min(w)))


def _key_lattice(taus: tuple[int, ...], w: tuple[int, ...], box: int):
    """WDD's decision as a chain on its key differences ``K_c = key_c - key_0`` (``c >= 1``), clipped to ``|K_c| <= box``.

    WDD serves the first client with the largest key ``(t - tau_c M_c)
    w_c`` (``_wdd_weights``): from ``K``, the first largest of ``(0, K)``.
    A slot adds ``w_c - w_0`` to every ``K_c``; a delivery to client 0 adds
    ``tau_0 w_0`` to each of them, and one to client ``c`` takes ``tau_c
    w_c`` from ``K_c``.  Every row starts at ``K = 0``, so ``K_c`` stays a
    multiple of ``g_c``, the gcd of its three moves.  A move out of the box
    goes to the last state, the edge, which absorbs.  The box's points are
    coded by their digits ``K_c / g_c``, and the states are the codes
    reached from 0, each numbered by its rank.
    Where the box has at most ``_WDD_STATES`` points, every point's moves
    are computed at once and ``exact.reach`` marks the points reached;
    otherwise the search runs on sorted codes, each level's moves computed
    with array operations.  Returns ``(succ, fail, served, start)``,
    ``served`` the client each state serves, or None past ``_WDD_STATES``
    states (on two clients, past as many points in the box, which bound the
    states closely there), or where the keys or codes would not fit int64.
    """
    n = len(taus)
    step = max(t * x for t, x in zip(taus, w))
    moved = [(w[c] - w[0], taus[0] * w[0], taus[c] * w[c]) for c in range(1, n)]
    unit = [math.gcd(*m) for m in moved]
    half = [box // g for g in unit]  # the box, in multiples of g_c
    volume = math.prod(2 * h + 1 for h in half)
    if 4 * max(box, step, volume) >= 2**63 or (n == 2 and volume > _WDD_STATES):
        return None
    radix = np.array([2 * h + 1 for h in half], dtype=np.int64)[:, None]
    stride = np.array([math.prod(2 * h + 1 for h in half[c + 1 :]) for c in range(n - 1)], dtype=np.int64)[:, None]
    unit, half = (np.array(a, dtype=np.int64)[:, None] for a in (unit, half))
    drift, gain, loss = np.array(moved, dtype=np.int64).reshape(n - 1, 3).T[:, :, None] // unit
    clients = np.arange(1, n)[:, None]

    def code(k):
        """The codes of digits ``k``, and -1 outside the box."""
        return np.where((abs(k) <= half).all(axis=0), ((k + half) * stride).sum(axis=0), -1)

    def moves(codes):
        """The codes after a delivery and after a failure from each code, and the client it serves."""
        k = codes // stride % radix - half
        served = np.vstack((np.zeros_like(codes), k * unit)).argmax(axis=0)  # the first largest key
        fail = k + drift
        return code(fail + gain * (served == 0) - loss * (clients == served)), code(fail), served

    first = code(np.zeros((n - 1, 1), dtype=np.int64))
    if volume <= _WDD_STATES:
        every = moves(np.arange(volume))
        # a move out of the box goes to the code past it, which absorbs
        ends = [np.append(np.where(to >= 0, to, volume), volume) for to in every[:2]]
        seen = np.flatnonzero(reach(*ends, first)[:volume])
        succ, fail, served = (a[seen] for a in every)
    else:
        seen = frontier = first  # seen is sorted
        found = []  # per breadth-first level: its codes, their successors' codes and served clients
        while frontier.size:
            found.append((frontier, *moves(frontier)))
            new = np.sort(np.concatenate(([-1], *found[-1][1:3])))
            new = new[1:][new[1:] != new[:-1]]
            frontier = new[seen.take(np.searchsorted(seen, new), mode="clip") != new]
            seen = np.insert(seen, np.searchsorted(seen, frontier), frontier)
            if len(seen) > _WDD_STATES:
                return None
        codes, succ, fail, served = (np.concatenate(part) for part in zip(*found))
        order = np.argsort(codes)
        succ, fail, served = succ[order], fail[order], served[order]
    edge = len(seen)
    ends = np.full((2, edge + 1), edge, dtype=np.int32)  # the edge absorbs
    for row, to in zip(ends, (succ, fail)):
        row[:edge] = np.where(to >= 0, np.searchsorted(seen, to), edge)
    client = np.zeros(edge + 1, dtype=np.int8)  # the edge's rows are rerun, so what it serves never counts
    client[:edge] = served
    return ends[0], ends[1], client, int(np.searchsorted(seen, first)[0])


def _wdd_chains(taus: tuple[int, ...], points: list[tuple[float, ...]], boxes: list[int]) -> list[Chain | None]:
    """WDD at each point (its reliabilities) as a chain on its key lattice in its box (``_key_lattice``).

    A state's ``p`` is the reliability of the client it serves, so every
    slot compares its uniform with the same float as the per-slot rule, and
    its ``hits`` is that client (0-based), which the chain engine's WDD rows
    read instead of what a state pays.  Points with equal weights and boxes
    share one lattice, and their chains its arrays.  None where the lattice
    is None.
    """
    lattices, chains = {}, []
    for ps, box in zip(points, boxes):
        key = (_wdd_weights(taus, ps), box)
        if key not in lattices:
            lattices[key] = _key_lattice(taus, *key)
        if lattices[key] is None:
            chains.append(None)
            continue
        succ, fail, served, start = lattices[key]
        chains.append(Chain(succ=succ, fail=fail, p=np.array(ps)[served], hits=served, start=start))
    return chains


def _batch_wdd(
    taus: tuple[int, ...],
    points: list[tuple[float, ...]],
    horizon: int,
    trials: int | Sequence[int],
    seed: int,
    warmup: int,
) -> np.ndarray:
    """Block exceedance totals ``(rows, blocks)`` of WDD's trials, rows ``(point, trial)``, slot by slot.

    The points (their reliabilities) have two clients or more, and
    ``trials`` is a count or the indices of the trials to run.  Each row
    starts from the all-threshold state with ``K = 0``.  Each slot serves
    the first largest of ``(0, K)``, ``K`` the key differences of
    ``_key_lattice`` with no box, writes whether each client got a delivery
    into ``got`` and moves ``K`` as the lattice does.  ``K`` is int64 where
    no run of ``warmup + horizon`` slots can overflow it, and Python ints
    otherwise.  Rows pay from their deliveries (``_exceedances``).
    """
    trials = range(trials) if isinstance(trials, int) else trials
    n, lag = len(taus), max(taus)
    weights = [_wdd_weights(taus, ps) for ps in points]
    # a slot moves each K_c by at most 2 max_c tau_c w_c
    largest = 2 * (warmup + horizon) * max(t * x for w in weights for t, x in zip(taus, w))
    dtype = np.int64 if largest < 2**63 else object
    # per-slot arrays are client-major, (client, point, trial), so that each
    # operation runs along the trials
    shape = (len(points), len(trials))
    w = np.array(weights, dtype=dtype).T[:, :, None]
    drift = w[1:] - w[0]
    gain, loss = taus[0] * w[0], np.array(taus[1:], dtype=dtype)[:, None, None] * w[1:]
    p_rows = np.ascontiguousarray(np.broadcast_to(np.array(points).T[:, :, None], (n, *shape)))
    keys = np.zeros((n - 1, *shape), dtype=dtype)
    served = np.empty((n, *shape), dtype=bool)  # one-hot in the client
    clients = np.arange(n, dtype=np.int8)[:, None, None]
    index = np.empty(shape, dtype=np.int8)  # the served client, from three clients on
    best, better = np.empty(shape, dtype=dtype), np.empty(shape, dtype=bool)
    got = np.zeros((n, lag + _SLICE, *shape), dtype=bool)  # as in _batch_chain
    blocks = np.zeros((math.prod(shape), len(block_edges(horizon))), dtype=np.int16)

    for t0, u, block in _slices(seed, trials, warmup, horizon):
        size = len(u)
        reach = u[:, None, None, :] < p_rows  # the outcome, had each client been served
        for j in range(size):
            if n == 2:
                np.greater(keys[0], 0, out=served[1])
                np.logical_not(served[1], out=served[0])
            else:
                np.greater(keys[0], 0, out=index.view(bool))  # 0 or 1, without a cast to int8
                np.maximum(keys[0], 0, out=best)
                for c in range(2, n):
                    np.greater(keys[c - 1], best, out=better)
                    np.copyto(index, c, where=better)
                    if c + 1 < n:
                        np.maximum(best, keys[c - 1], out=best)
                np.equal(clients, index, out=served)
            now = got[:, lag + j]
            np.logical_and(served, reach[j], out=now)
            keys += drift
            np.add(keys, gain, out=keys, where=now[0])
            np.subtract(keys, loss, out=keys, where=now[1:])
        if t0 >= warmup:
            blocks[:, block] += _exceedances(got[:, : lag + size].reshape(n, lag + size, -1), taus)
        got[:, :lag] = got[:, size : size + lag]
    return blocks


def _run_trials(insts: list[Instance], chains: list[Chain | None], cfg: SimConfig) -> list[tuple[np.ndarray, slice]]:
    """The trials of every point ``(insts[i], chains[i])``, in one call of the chain engine but for WDD's slot loop.

    Returns each point's engine block totals and its slice of their rows.  A
    chain of ``None`` stands for WDD, from the all-threshold state.  The
    points must share thresholds.  Points whose engine inputs are equal
    share one set of rows: for WDD the inputs are the reliabilities (theta
    never enters the engine), for a chain its start and the arrays the
    engine reads.  WDD runs as chains on its key lattices (``_wdd_chains``)
    in the chain engine's call, each in a box sized from the input
    (``_first_box``) and built once.  A row that ends on its box's edge
    reruns alone, on its own stream, in the slot loop (``_batch_wdd``),
    which has no box, so the box never changes a row; no other row reruns.
    Past the lattice's state cap every row of the point runs in the slot
    loop.
    """
    taus = insts[0].thresholds
    if any(inst.thresholds != taus for inst in insts):
        raise ValueError("the points of one simulation must share thresholds")
    points: dict = {"wdd": {}, "chain": {}}
    keys = []
    for inst, chain in zip(insts, chains):
        if chain is None:
            key = ("wdd", inst.reliabilities)
            points["wdd"].setdefault(key, inst.reliabilities)
        else:
            arrays = (chain.succ, chain.fail, chain.p, chain.hits)
            key = ("chain", chain.start, *(a.tobytes() for a in arrays))
            points["chain"].setdefault(key, chain)
        keys.append(key)
    finite, wdd = list(points["chain"].values()), list(points["wdd"].values())
    horizon, trials, seed, warmup = cfg.horizon, cfg.trials, cfg.seed, cfg.warmup
    weights = [_wdd_weights(taus, ps) for ps in wdd]
    worst = {w: min(min(ps) for ps, v in zip(wdd, weights) if v == w) for w in weights}  # per lattice
    boxes = [_first_box(taus, w, worst[w], len(wdd) * trials * (warmup + horizon)) for w in weights]
    built = _wdd_chains(taus, wdd, boxes)
    rows = {}  # per (kind, group): the engine's block totals and the group's first row in them
    lattice = [i for i, chain in enumerate(built) if chain is not None]
    if finite or lattice:
        totals, ends = _batch_chain(finite, horizon, trials, seed, warmup, [built[i] for i in lattice], taus)
        rows.update({("chain", g): (totals, g * trials) for g in range(len(finite))})
        for k, i in enumerate(lattice, len(finite)):
            rows["wdd", i] = (totals, k * trials)
            edge = np.flatnonzero(ends[k * trials : (k + 1) * trials] == len(built[i].p) - 1)
            if edge.size:
                totals[k * trials + edge] = _batch_wdd(taus, [wdd[i]], horizon, edge, seed, warmup)
    slow = [i for i, chain in enumerate(built) if chain is None]
    if slow:
        totals = _batch_wdd(taus, [wdd[i] for i in slow], horizon, trials, seed, warmup)
        rows.update({("wdd", i): (totals, k * trials) for k, i in enumerate(slow)})
    group = {key: g for kind in points.values() for g, key in enumerate(kind)}
    found = [rows[key[0], group[key]] for key in keys]
    return [(totals, slice(first, first + trials)) for totals, first in found]


# ---------------------------------------------------------------------------
# estimators


def estimate_costs(insts: list[Instance], chains: list[Chain | None], cfg: SimConfig) -> list[CostEstimate]:
    """Risk-sensitive average costs at every point ``(insts[i], chains[i])`` of one sweep.

    The points share thresholds, and a chain of None stands for WDD.  One
    call of the chain engine runs every point, WDD's on its key lattices;
    WDD's slot loop reruns only the rows that end on their box's edge, and
    runs only the lattices past their state cap.  Points with equal engine
    inputs share their trials (see ``_run_trials``).
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
        # not shifted @ shifted: a BLAS dot threads past 10,000 weights, and one call then takes milliseconds
        coverage = float(shifted.sum() ** 2 / np.square(shifted).sum()) / w.size
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
        stderr_j=stderr_log / (theta * block_length),
        degenerate=degenerate,
        block_length=block_length,
        tail_coverage=coverage,
    )
