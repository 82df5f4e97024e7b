"""Exact finite-state machinery: policy evaluation, optimum search, renewal expectations.

Policy evaluation follows the multiplicative route: every finite-memory
policy is a stationary ``Chain`` whose states move to one of two successors,
the per-slot cost scales its transitions, and the long-run risk-sensitive
average cost is ``ln(spectral radius) / theta`` of the cost-weighted chain
restricted to the one closed class the start state reaches.  The optimum is
found by the growth-rate iteration of the Bellman map.  The paper's
finite-horizon dynamic programs, its enumeration of the no-exclusion
stationary policies, NE test and hitting times, which check these results,
live with the tests (``tests/paper_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StructuralError
from .model import Instance, State, TransitionTables, transition_tables

TOL = 1e-6  # relative accuracy of a certified J: J_hi - J_lo <= TOL * J_lo
MAX_ITER = 100_000  # iterations after which a Perron row stops, read at each call
_LOOKAHEAD_BLOCK = 16384  # states per lookahead pass
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
    """Outcome of evaluating one stationary policy.

    ``[j_lo, j_hi]`` brackets J; ``average_cost`` is its midpoint, and
    ``converged`` is true iff ``j_hi - j_lo <= TOL * j_lo``.
    """

    spectral_radius: float
    average_cost: float
    j_lo: float
    j_hi: float
    recurrent_class: frozenset
    transient_states: frozenset
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
        start: State | None = None,
    ) -> "Chain":
        """Chain on pairs ``(s, m)`` of clipped state and memory, index ``s * memory + m``.

        ``client`` (0-based) is given per chain index, ``on_success`` and
        ``on_failure`` (the next memory value) per chain index or as a scalar.
        The chain starts at clipped state ``start`` (default all-threshold)
        with memory 0.
        """
        tables = transition_tables(inst)
        base = np.arange(tables.indexer.total_states * memory) // memory
        return cls(
            succ=tables.succ[base, client] * memory + on_success,
            fail=tables.fail[base] * memory + on_failure,
            p=np.asarray(inst.reliabilities)[client],
            hits=tables.hits[base],
            start=tables.indexer.index(tuple(inst.thresholds if start is None else start)) * memory,
        )


def stationary_chain(policy: StationaryPolicy, inst: Instance, start: State | None = None) -> Chain:
    """The chain of a stationary policy: memoryless, indexed like the clipped states."""
    policy.validate(inst)
    return Chain.augmented(inst, 1, policy.decisions - 1, 0, 0, start)


# ---------------------------------------------------------------------------
# the Bellman lookahead


def _lookahead(tables: TransitionTables, ps, v: np.ndarray) -> np.ndarray:
    """One Bellman lookahead ``q[u, x] = p_u v[succ(x, u)] + (1 - p_u) v[fail(x)]``, shape (N, S).

    ``ps`` holds the success probability of each client, or one shared by
    all.  The states go in blocks of ``_LOOKAHEAD_BLOCK``, so the temporaries
    stay in cache on large spaces.
    """
    p = np.reshape(ps, (-1, 1))
    succ = tables.succ.T
    q = np.empty(succ.shape)
    for lo in range(0, succ.shape[1], _LOOKAHEAD_BLOCK):
        block = slice(lo, lo + _LOOKAHEAD_BLOCK)
        q[:, block] = p * v[succ[:, block]] + (1.0 - p) * v[tables.fail[block]]
    return q


# ---------------------------------------------------------------------------
# certified Perron brackets


@dataclass(frozen=True)
class _Brackets:
    """Per row: ``lo <= rho - 1 <= hi`` and the iteration the row stopped at."""

    lo: np.ndarray
    hi: np.ndarray
    iterations: np.ndarray

    def costs(self, theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(J, J_lo, J_hi)`` per row; J is the midpoint of the bracket."""
        j_lo, j_hi = np.log1p(self.lo) / theta, np.log1p(self.hi) / theta
        return (j_lo + j_hi) / 2, j_lo, j_hi

    def certified(self, row: int, theta: float) -> tuple[float, float, float, bool]:
        """``(J, J_lo, J_hi, converged)`` of ``row``; converged iff ``J_hi - J_lo <= TOL * J_lo``."""
        j, j_lo, j_hi = (float(x[row]) for x in self.costs(theta))
        return j, j_lo, j_hi, j_hi - j_lo <= TOL * j_lo


def _perron(
    drift: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    excess: np.ndarray,
    lengths: np.ndarray,
    succ: np.ndarray,
    fail: np.ndarray,
    p: np.ndarray,
) -> tuple[_Brackets, np.ndarray]:
    """Collatz-Wielandt brackets on ``rho - 1`` of maps ``W v = exp(theta hits) (v + d(v))``, one per row.

    The rows lie side by side in one flat stack, row ``r`` a segment of
    ``lengths[r]`` entries.  ``excess`` is ``expm1(theta * hits)`` per entry,
    and ``drift(w, succ, fail, p)`` gives ``d = min_u (P_u v - v)`` from
    ``w = v - 1`` (a chain has one client per state): ``succ`` and ``fail``
    hold stack positions on their last axis, which no row's entries lead out
    of, and ``p`` the probabilities that weigh them.  Each row is one closed
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
    it, and a stopped row leaves the stack.  Returns the brackets and each
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
        d = drift(w, succ, fail, p)
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
                last[position[~keep]] = w[~keep]
                if not narrower.any():
                    return _Brackets(lo, hi, iterations), last
                remap = np.cumsum(keep) - 1
                succ, fail = remap[succ[..., keep]], remap[fail[keep]]
                p, excess, w, y, position = p[..., keep], excess[keep], w[keep], y[keep], position[keep]
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
    return _Brackets(lo, hi, iterations), last


def _chain_drift(w: np.ndarray, succ: np.ndarray, fail: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``d = P v - v`` of chain states, each with one success and one failure successor."""
    after_fail = w[fail]
    d = w[succ]
    d -= after_fail
    d *= p
    after_fail -= w
    d += after_fail
    return d


def _bellman_drift(w: np.ndarray, succ: np.ndarray, fail: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``d = min_u (P_u v - v)`` of states with one success successor per client.

    ``succ`` is client-major, (N, S), and ``p`` (2, N, S) holds each
    success probability and its complement ``1 - p``.  ``P_u v - v`` is
    formed from the differences ``v[succ] - v`` and ``v[fail] - v``, so small
    drifts keep their digits.  The states go in blocks of
    ``_LOOKAHEAD_BLOCK``, so the temporaries stay in cache on large spaces.
    """
    d = np.empty_like(w)
    for lo in range(0, len(w), _LOOKAHEAD_BLOCK):
        block = slice(lo, lo + _LOOKAHEAD_BLOCK)
        after_fail = w[fail[block]]
        after_fail -= w[block]
        q = w[succ[:, block]]
        q -= w[block]
        q *= p[0, :, block]
        q += p[1, :, block] * after_fail
        np.minimum.reduce(q, axis=0, out=d[block])
    return d


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

    def reach(frontier: np.ndarray) -> np.ndarray:
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

    member, reached = reach(x), reach(start)
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
    it.  Reported state sets are chain indices; ``converged`` is true iff
    ``J_hi - J_lo <= TOL * J_lo``.
    """
    lengths = np.array([len(chain.fail) for chain in chains])
    offsets = np.cumsum(lengths) - lengths
    succ, fail = (
        np.concatenate([getattr(chain, name) for chain in chains]) + np.repeat(offsets, lengths)
        for name in ("succ", "fail")
    )
    member, reached = _closed_classes(succ, fail, np.array([chain.start for chain in chains]) + offsets)
    count = np.add.reduceat(member, offsets, dtype=np.int64)
    states = np.flatnonzero(member)
    rank = np.cumsum(member) - 1  # a member's position in the stack
    succ, fail = rank[succ[states]], rank[fail[states]]
    p = np.concatenate([chain.p for chain in chains])[states]
    excess = np.expm1(
        np.repeat(np.asarray(thetas, dtype=float), count) * np.concatenate([chain.hits for chain in chains])[states]
    )
    del states, rank  # the iteration sets the peak memory: keep only what it reads
    brackets = _perron(_chain_drift, excess, count, succ, fail, p)[0]
    del succ, fail, p, excess  # free the stack before the reports' state sets are built
    reports = []
    for row, (theta, lo, hi) in enumerate(zip(thetas, offsets, offsets + lengths)):
        j, j_lo, j_hi, converged = brackets.certified(row, theta)
        reports.append(
            SolveReport(
                spectral_radius=math.exp(theta * j),
                average_cost=j,
                j_lo=j_lo,
                j_hi=j_hi,
                recurrent_class=frozenset(np.flatnonzero(member[lo:hi]).tolist()),
                transient_states=frozenset(np.flatnonzero(reached[lo:hi] & ~member[lo:hi]).tolist()),
                iterations=int(brackets.iterations[row]),
                converged=converged,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# stationary-optimum machinery


@dataclass(frozen=True)
class ThetaThreshold:
    """Sufficient risk-exponent bound for a stationary optimum to exist."""

    value: float
    k: float
    p_max: float
    tau_max: int
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
        return ThetaThreshold(value=0.0, k=math.inf, p_max=p_max, tau_max=tau_max, underflow=True)
    k = math.ceil(tau_max * (1.0 - p_max) ** (-tau_max))
    value = math.log1p(1.0 / k) / (2 * inst.n_clients * (k + 1))
    return ThetaThreshold(value=value, k=k, p_max=p_max, tau_max=tau_max, underflow=value == 0.0)


def _excursion(chain: Chain, weight: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """``(I - K, k)``: K is the chain's transition matrix, rows scaled by ``weight``, less its start's column ``k``.

    ``(I - K) h = 1`` gives the expected passage times to the start, and the
    expected return time at the start itself.  The renewal analytics serve
    desk-scale chains, and this is the one dense matrix they build.
    """
    n = len(chain.fail)
    rows = np.arange(n)
    mat = np.zeros((n, n))
    np.add.at(mat, (rows, chain.succ), weight * chain.p)
    np.add.at(mat, (rows, chain.fail), weight * (1.0 - chain.p))
    into = mat[:, chain.start].copy()
    mat[:, chain.start] = 0.0
    return np.eye(n) - mat, into


def cycle_expectations(
    policy: StationaryPolicy, inst: Instance, regen: State
) -> tuple[float, float]:
    """Exact renewal-cycle expectations (E[cycle cost], E[cycle length]).

    A cycle runs from one pre-transition visit of ``regen`` to the next; the
    multiplicative cycle cost is the product of the per-slot cost factors over
    the cycle's slots.  Raises if the renewal state is not recurrent
    under the policy, or if the cost expectation diverges: the excursion
    matrix K must have spectral radius below one, which holds iff
    ``(I - K) z = 1`` has a strictly positive solution (Collatz-Wielandt).
    """
    chain = stationary_chain(policy, inst, regen)
    s0, ones = chain.start, np.ones(len(chain.fail))
    if not _closed_classes(chain.succ, chain.fail, [s0])[0][s0]:
        raise StructuralError("renewal state is not recurrent under this policy")
    e_len = np.linalg.solve(_excursion(chain, 1.0)[0], ones)[s0]
    excursion, into = _excursion(chain, np.exp(inst.theta * chain.hits))
    try:
        m, z = np.linalg.solve(excursion, np.stack([into, ones], axis=1)).T
    except np.linalg.LinAlgError as exc:
        raise StructuralError("cycle cost expectation diverges (singular excursion matrix)") from exc
    if not (z > 0).all():
        raise StructuralError("cycle cost expectation diverges (excursion radius >= 1)")
    return float(m[s0]), float(e_len)


@dataclass(frozen=True)
class GrowthRateResult:
    average_cost: float
    j_lo: float
    j_hi: float
    policy: StationaryPolicy
    iterations: int
    converged: bool


def growth_rate_optima(insts: Sequence[Instance]) -> list[GrowthRateResult]:
    """Optimal average costs by the shifted iteration of the one-step minimization, one ``_perron`` row per instance.

    The Bellman map ``(Wv)(x) = cost(x) min_u [p_u v(succ(x, u)) + (1 - p_u) v(fail(x))]``
    is monotone and homogeneous, so ``_perron`` brackets its growth rate over
    all states.  The instances share their thresholds, so every row has the
    same states; each has its own reliabilities and theta.  J is the
    bracket's midpoint, ``converged`` is true iff ``J_hi - J_lo <= TOL * J_lo``,
    and the greedy policy of the row's final iterate is returned alongside.
    Each result is bitwise the one its instance gets alone.
    """
    thresholds = {inst.thresholds for inst in insts}
    if len(thresholds) != 1:
        raise ValueError("the instances of one stacked optimum must share their thresholds")
    tables = transition_tables(insts[0])
    n_states = tables.indexer.total_states
    offsets = n_states * np.arange(len(insts))
    ps = np.array([inst.reliabilities for inst in insts])
    p = np.repeat(ps.T, n_states, axis=1)  # (N, rows * S), like the successors
    thetas = np.array([inst.theta for inst in insts])
    brackets, w = _perron(
        _bellman_drift,
        np.expm1(thetas[:, None] * tables.hits).ravel(),
        np.full(len(insts), n_states),
        np.hstack(tables.succ.T + offsets[:, None, None]),
        (tables.fail + offsets[:, None]).ravel(),
        np.stack([p, 1.0 - p]),
    )
    results = []
    for row, inst in enumerate(insts):
        j, j_lo, j_hi, converged = brackets.certified(row, inst.theta)
        final = w[row * n_states : (row + 1) * n_states]
        greedy = _lookahead(tables, ps[row], final).argmin(axis=0) + 1
        results.append(
            GrowthRateResult(
                average_cost=j,
                j_lo=j_lo,
                j_hi=j_hi,
                policy=StationaryPolicy(greedy),
                iterations=int(brackets.iterations[row]),
                converged=converged,
            )
        )
    return results


def growth_rate_optimal(inst: Instance) -> GrowthRateResult:
    """Optimal average cost by the shifted iteration of the one-step minimization: ``growth_rate_optima([inst])``."""
    return growth_rate_optima([inst])[0]
