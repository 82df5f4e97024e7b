"""Exact finite-state machinery: policy evaluation and the optimum.

A policy's cost and the optimal cost are one number: the growth rate of a
monotone, homogeneous risk-sensitive map, ``J = ln(growth rate) / theta``.
The optimum's map is the Bellman map, which takes the minimum over the
clients served; a finite-memory policy is a stationary ``Chain`` whose
states move to one of two successors, and its map is the one-client case,
restricted to the one closed class the start state reaches.  One kernel,
``_perron``, brackets both, and one ``SolveReport`` carries each result.
The paper's finite-horizon dynamic programs, its enumeration of the
no-exclusion stationary policies, NE test and hitting times, and the dense
renewal-cycle expectations, which check these results, live with the tests
(``tests/paper_oracle.py``, ``tests/dense_oracle.py``).  Nothing here
builds a dense matrix or solves a linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralError
from .model import Instance, transition_tables

TOL = 1e-6  # relative accuracy of a certified J: J_hi - J_lo <= TOL * J_lo
MAX_ITER = 100_000  # iterations after which a Perron row stops, read at each call
_DRIFT_BLOCK = 16384  # entries per pass of the drift, so its temporaries stay in cache
_STALL = 8  # iterations without a narrower bracket that mark the floating-point floor


# ---------------------------------------------------------------------------
# policies


@dataclass(eq=False)
class StationaryPolicy:
    """Total map from clipped-state index to the client served there (1-based)."""

    decisions: np.ndarray

    def __post_init__(self) -> None:
        self.decisions = np.asarray(self.decisions, dtype=np.int64)
        if self.decisions.ndim != 1:
            raise ValueError("decisions must be a flat array over state indices")

    def validate(self, inst: Instance) -> None:
        if len(self.decisions) != inst.total_states:
            raise ValueError("policy is not total: wrong number of decisions")
        if self.decisions.min() < 1 or self.decisions.max() > inst.n_clients:
            raise ValueError("policy contains an invalid client index")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StationaryPolicy):
            return NotImplemented
        return np.array_equal(self.decisions, other.decisions)

    def to_json(self) -> dict:
        return {"decisions": [int(u) for u in self.decisions]}


@dataclass(frozen=True)
class SolveReport:
    """A certified average cost: of one policy, or the optimum's.

    ``[j_lo, j_hi]`` brackets J; ``average_cost`` is its midpoint, or 0
    where rounding leaves that below 0, and ``converged`` is true iff
    ``j_hi - j_lo <= TOL * j_lo``.
    """

    average_cost: float
    j_lo: float
    j_hi: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Chain:
    """A finite-memory policy as a stationary chain on (clipped state, memory).

    From chain state ``i`` the slot pays ``exp(theta * hits[i])`` and moves
    to ``succ[i]`` with probability ``p[i]``, else to ``fail[i]``; ``start``
    is the chain state of the first slot.
    """

    succ: np.ndarray
    fail: np.ndarray
    p: np.ndarray
    hits: np.ndarray
    start: int

    @classmethod
    def augmented(
        cls,
        inst: Instance,
        memory: int,
        client: np.ndarray,
        on_success: np.ndarray | int,
        on_failure: np.ndarray | int,
    ) -> "Chain":
        """Chain on pairs ``(s, m)`` of clipped state and memory, index ``s * memory + m``.

        ``client`` (0-based) is given per chain index, ``on_success`` and
        ``on_failure`` (the next memory value) per chain index or as a scalar.
        The chain starts at the all-threshold state with memory 0.
        """
        tables = transition_tables(inst.thresholds)
        base = np.arange(tables.indexer.total_states * memory) // memory
        return cls(
            succ=tables.succ[base, client] * memory + on_success,
            fail=tables.fail[base] * memory + on_failure,
            p=np.asarray(inst.reliabilities)[client],
            hits=tables.hits[base],
            start=tables.indexer.index(inst.thresholds) * memory,
        )


def stationary_chain(policy: StationaryPolicy, inst: Instance) -> Chain:
    """The chain of a stationary policy: memoryless, indexed like the clipped states."""
    policy.validate(inst)
    return Chain.augmented(inst, 1, policy.decisions - 1, 0, 0)


# ---------------------------------------------------------------------------
# certified Perron brackets


def _drift(w: np.ndarray, succ: np.ndarray, fail: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``d = min_u (P_u v - v) = (w[fail] - w) + min_u p_u (w[succ_u] - w[fail])`` from ``w = v - 1``.

    ``succ`` and ``p`` are (N, entries), one row per client, and ``fail``
    holds each entry's one failure successor; a chain's entry has one
    client, N = 1.  The drift is formed from differences of ``w``, so small
    drifts keep their digits, and ``w[fail] - w`` comes out of the minimum,
    which changes no bit: rounding is monotone.  The entries go in blocks of
    ``_DRIFT_BLOCK``, so the temporaries stay in cache on large spaces.
    """
    d = np.empty_like(w)
    for lo in range(0, len(w), _DRIFT_BLOCK):
        block = slice(lo, lo + _DRIFT_BLOCK)
        after_fail = w[fail[block]]
        q = w[succ[:, block]]
        q -= after_fail
        q *= p[:, block]
        np.minimum.reduce(q, axis=0, out=d[block])
        after_fail -= w[block]
        d[block] += after_fail
    return d


def _perron(
    excess: np.ndarray,
    lengths: np.ndarray,
    succ: np.ndarray,
    fail: np.ndarray,
    p: np.ndarray,
    thetas: Sequence[float],
) -> tuple[list[SolveReport], np.ndarray]:
    """Certified J of maps ``W v = exp(theta hits) (v + d(v))``, one per row, from Collatz-Wielandt brackets on ``rho - 1``.

    The rows lie side by side in one flat stack, row ``r`` a segment of
    ``lengths[r]`` entries with risk exponent ``thetas[r]``.  ``excess`` is
    ``expm1(theta * hits)`` per entry, and ``d = min_u (P_u v - v)`` is the
    ``_drift`` of the (N, entries) successors ``succ`` and probabilities
    ``p`` and the failure successors ``fail``: stack positions, which no
    row's entries lead out of.  The Bellman map takes the minimum over N
    clients; a chain's map is the one-client case.  Each row is one closed
    class.  The map is monotone and homogeneous, so every ``v > 0`` gives
    ``min (W - I)v / v <= rho - 1 <= max (W - I)v / v`` (Gaubert and
    Gunawardena, Trans. AMS 356, 2004), and the bracket never widens along the
    shifted iteration ``v <- v + (W - I)v / 2``.  The iterate is kept as
    ``w = v - 1`` with max ``v = 1`` per row, and ``(W - I)v`` is formed as
    ``excess (v + d) + d`` from differences of ``w``, so no digit of
    ``rho - 1`` is lost to the 1 in ``rho``.  A row runs to its
    floating-point floor: the iterations go in windows of ``_STALL``, and a
    row stops after the first window that finds no bracket narrower than its
    narrowest so far, the one reported, or at ``MAX_ITER``.  A row reads
    only its own entries, so its bits do not depend on the rows stacked with
    it, and a stopped row leaves the stack.  Returns one report per row, J
    the midpoint of its bracket ``ln(1 + [lo, hi]) / theta``, raised to 0
    where rounding leaves it below (a nan midpoint stays nan), and each
    row's last iterate ``w``, at the row's own positions.
    """
    rows = len(lengths)
    lo, hi = np.full(rows, -np.inf), np.full(rows, np.inf)
    iterations = np.full(rows, MAX_ITER)
    last = np.empty_like(excess)
    index, position = np.arange(rows), np.arange(len(excess))  # the running rows and entries, as given
    starts = np.cumsum(lengths) - lengths
    w = np.zeros_like(excess)
    v, y = np.empty_like(w), np.empty_like(w)
    seen_lo, seen_hi = [], []
    for it in range(1, MAX_ITER + 1):
        d = _drift(w, succ, fail, p)
        np.add(1.0, w, out=v)
        np.add(v, d, out=y)
        y *= excess
        y += d
        ratio = np.divide(y, v, out=d)  # d is spent
        seen_lo.append(np.minimum.reduceat(ratio, starts))
        seen_hi.append(np.maximum.reduceat(ratio, starts))
        if len(seen_lo) == _STALL or it == MAX_ITER:
            window_lo, window_hi = np.array(seen_lo), np.array(seen_hi)
            seen_lo, seen_hi = [], []
            first = (window_hi - window_lo).argmin(axis=0), np.arange(len(index))
            best_lo, best_hi = window_lo[first], window_hi[first]
            narrower = best_hi - best_lo < hi[index] - lo[index]
            lo[index[narrower]], hi[index[narrower]] = best_lo[narrower], best_hi[narrower]
            if not narrower.all():
                keep = np.repeat(narrower, lengths)
                iterations[index[~narrower]] = it
                if not narrower.any():
                    break
                last[position[~keep]] = w[~keep]
                remap = np.cumsum(keep) - 1
                # compress keeps (N, entries) C-contiguous, so _drift's minimum over clients runs along rows
                succ, fail = remap[succ.compress(keep, axis=1)], remap[fail[keep]]
                p, excess, w, y, position = p.compress(keep, axis=1), excess[keep], w[keep], y[keep], position[keep]
                index, lengths = index[narrower], lengths[narrower]
                starts = np.cumsum(lengths) - lengths
                v = v[: w.size]
        y *= 0.5
        w += y
        top = np.repeat(np.maximum.reduceat(w, starts), lengths)
        w -= top
        top += 1.0
        w /= top
    last[position] = w
    j_lo, j_hi = np.log1p(lo) / thetas, np.log1p(hi) / thetas
    # every slot costs at least 1, so J >= 0: a midpoint below 0 is rounding
    # at the float floor; a nan one, from a nan bracket end, stays nan
    mids = (j_lo + j_hi) / 2
    reports = [
        SolveReport(0.0 if mid < 0 else float(mid), float(a), float(b), int(k), bool(b - a <= TOL * a))
        for mid, a, b, k in zip(mids, j_lo, j_hi, iterations)
    ]
    return reports, last


def reach(succ: np.ndarray, fail: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The states reached from ``frontier`` by the moves ``succ`` and ``fail``, as a mask, breadth first."""
    reached = np.zeros(len(fail), dtype=bool)
    claim = np.empty(len(fail), dtype=np.int64)  # the last entry naming a state walks it, once
    reached[frontier] = True
    while frontier.size:
        following = np.concatenate([succ[frontier], fail[frontier]])
        following = following[~reached[following]]
        entries = np.arange(len(following))
        claim[following] = entries
        frontier = following[claim[following] == entries]
        reached[frontier] = True
    return reached


def _closed_classes(
    succ: np.ndarray, fail: np.ndarray, start: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The closed class each start reaches, and the states it reaches, as masks over the states.

    ``succ`` and ``fail`` are the successor arrays of disjoint chains put
    side by side, with indices offset into one range, and ``start`` holds
    one state of each chain.  From any state, ``tau_max`` failures in a row
    reach the all-threshold state, so a chain has one closed class and every
    start reaches it.  One rule serves every chain: ``x = fail^(2^k)(start)``,
    with ``2^k`` above the state count, lies on the failure walk's cycle,
    and the class is what ``x`` reaches, once every state the start reaches
    is shown to lead back to ``x``; else ``StructuralError``.  From a
    recurrent start the class is the reached set.
    """
    jump = fail
    for _ in range(len(fail).bit_length()):
        jump = jump[jump]
    start = np.asarray(start)
    x = jump[start]
    member, reached = reach(succ, fail, x), reach(succ, fail, start)
    back = np.zeros(len(fail), dtype=bool)
    back[x] = True
    while not np.array_equal(grown := back | (reached & (back[succ] | back[fail])), back):
        back = grown
    if (reached & ~back).any():
        raise StructuralError("start reaches more than one closed class, or one off its failure cycle")
    return member, reached


def chain_average_costs(chains: Sequence[Chain], thetas: Sequence[float]) -> list[SolveReport]:
    """Average costs of finite chains from their start states, one ``_perron`` row each.

    A chain's average cost is ``ln(spectral radius) / theta`` of the closed
    class its start reaches (``_closed_classes``).  The chains are put side
    by side, and row ``r`` is chain ``r``'s closed class, members in index
    order.  A member's successors are members, so every row reads its own
    entries only, and a report does not depend on the chains stacked with
    it.
    """
    lengths = np.array([len(chain.fail) for chain in chains])
    offsets = np.cumsum(lengths) - lengths
    succ, fail = (
        np.concatenate([getattr(chain, name) for chain in chains]) + np.repeat(offsets, lengths)
        for name in ("succ", "fail")
    )
    member = _closed_classes(succ, fail, np.array([chain.start for chain in chains]) + offsets)[0]
    count = np.add.reduceat(member, offsets, dtype=np.int64)
    states = np.flatnonzero(member)
    rank = np.cumsum(member) - 1  # a member's position in the stack
    succ, fail = rank[succ[states]], rank[fail[states]]
    p = np.concatenate([chain.p for chain in chains])[states]
    excess = np.expm1(
        np.repeat(np.asarray(thetas, dtype=float), count) * np.concatenate([chain.hits for chain in chains])[states]
    )
    del states, rank, member  # the iteration sets the peak memory: keep only what it reads
    return _perron(excess, count, succ[None], fail, p[None], thetas)[0]


# ---------------------------------------------------------------------------
# stationary-optimum machinery


@dataclass(frozen=True)
class ThetaThreshold:
    """Sufficient risk-exponent bound for a stationary optimum to exist."""

    value: float
    k: float
    underflow: bool


def theta_threshold(inst: Instance) -> ThetaThreshold:
    """Threshold ``(ln(K+1) - ln K) / (2 N (K+1))`` with ``K = ceil(tau_max (1-p_max)^-tau_max)``.

    When K overflows the float range the threshold is reported as an explicit
    underflow (value 0) instead of a garbage number.
    """
    p_max = max(inst.reliabilities)
    tau_max = max(inst.thresholds)
    log_k = math.log(tau_max) - tau_max * math.log1p(-p_max)
    if log_k > 700:  # exp would overflow float64
        return ThetaThreshold(value=0.0, k=math.inf, underflow=True)
    k = math.ceil(tau_max * (1.0 - p_max) ** (-tau_max))
    value = math.log1p(1.0 / k) / (2 * inst.n_clients * (k + 1))
    return ThetaThreshold(value=value, k=k, underflow=value == 0.0)


@dataclass(frozen=True)
class GrowthRateResult(SolveReport):
    """The optimum's certified average cost, and the greedy policy of its final iterate."""

    policy: StationaryPolicy


def growth_rate_optima(insts: Sequence[Instance]) -> list[GrowthRateResult]:
    """Optimal average costs by the shifted iteration of the one-step minimization, one ``_perron`` row per instance.

    The Bellman map ``(Wv)(x) = cost(x) min_u [p_u v(succ(x, u)) + (1 - p_u) v(fail(x))]``
    is monotone and homogeneous, so ``_perron`` brackets its growth rate over
    all states.  The instances share their thresholds, so every row has the
    same states; each has its own reliabilities and theta.  The policy
    serves, in each state, the client that minimizes the drift's term
    ``p_u (w[succ_u] - w[fail])`` on the row's final iterate, the lowest on
    a tie.  Each result is bitwise the one its instance gets alone.
    """
    thresholds = {inst.thresholds for inst in insts}
    if len(thresholds) != 1:
        raise ValueError("the instances of one stacked optimum must share their thresholds")
    tables = transition_tables(insts[0].thresholds)
    n_states = tables.indexer.total_states
    offsets = n_states * np.arange(len(insts))
    ps = np.array([inst.reliabilities for inst in insts])
    thetas = [inst.theta for inst in insts]
    reports, w = _perron(
        np.expm1(np.array(thetas)[:, None] * tables.hits).ravel(),
        np.full(len(insts), n_states),
        np.hstack(tables.succ.T + offsets[:, None, None]),
        (tables.fail + offsets[:, None]).ravel(),
        np.repeat(ps.T, n_states, axis=1),  # (N, rows * S), like the successors
        thetas,
    )
    results = []
    for row, report in enumerate(reports):
        final = w[row * n_states : (row + 1) * n_states]
        greedy = (ps[row, :, None] * (final[tables.succ.T] - final[tables.fail])).argmin(axis=0) + 1
        results.append(GrowthRateResult(**vars(report), policy=StationaryPolicy(greedy)))
    return results


def growth_rate_optimal(inst: Instance) -> GrowthRateResult:
    """Optimal average cost by the shifted iteration of the one-step minimization: ``growth_rate_optima([inst])``."""
    return growth_rate_optima([inst])[0]
