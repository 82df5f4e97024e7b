"""High-reliability regime machinery.

Covers the two-client modified least-time-to-go (MLG) policy, and the
level-set construction that grades states by the order (in the failure
rate epsilon) of their near-term cost, with the resulting multi-client
stationary policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StructuralError
from .model import Instance, StateIndexer, transition_tables
from .exact import StationaryPolicy


def mlg_admits(thresholds: tuple[int, ...]) -> bool:
    """Whether ``thresholds`` have an MLG policy: two clients with tau_1 <= tau_2."""
    return len(thresholds) == 2 and thresholds[0] <= thresholds[1]


def mlg_stationary_policy(inst: Instance) -> StationaryPolicy:
    """The two-client least-time-to-go rule as a dense policy, clients ordered so that tau_1 <= tau_2.

    Serve the client with the least time to go; ties go to the client with
    the larger threshold (client 2).  In the one override state
    (0, delta - 1) client 2 is served even though client 1 has strictly less
    time to go.
    """
    if not mlg_admits(inst.thresholds):
        raise ValueError("an MLG policy needs two clients with tau_1 <= tau_2")
    tau1, tau2 = inst.thresholds
    x1, x2 = np.indices((tau1 + 1, tau2 + 1))  # state index x1 * (tau2 + 1) + x2
    decisions = np.where(tau1 - x1 < tau2 - x2, 1, 2)
    if tau2 > tau1:
        decisions[0, tau2 - tau1 - 1] = 2  # the override state (0, delta - 1)
    return StationaryPolicy(decisions.ravel())


# ---------------------------------------------------------------------------
# level sets


@lru_cache(maxsize=64)
def _excess_tables(thresholds: tuple[int, ...], theta: float) -> np.ndarray:
    """All-success window cost excess A(x) over state indices.

    The window spans N slots starting at x, each slot charged on its
    pre-transition state and every transmission assumed successful; A(x) is
    the minimal window cost minus one, and x is in the zeroth level set
    exactly when A(x) > 0.  It reads no reliability, so an epsilon sweep
    shares one table.
    """
    tables = transition_tables(thresholds)
    cost = np.exp(theta * tables.hits)
    g = np.ones(tables.indexer.total_states)
    for _ in range(len(thresholds)):
        g = cost * g[tables.succ].min(axis=1)
    return g - 1.0


@dataclass(eq=False)
class LevelSets:
    """Graded state partition plus the per-state coefficients and decisions.

    ``level[s]`` grades state ``s``: its minimal near-term cost excess is of
    order epsilon^level, and -1 marks a state the grading never reached.
    Levels run from 0 to the smallest threshold.  ``a`` holds each state's
    coefficient, NaN where unset, and ``decision`` the client served
    (1-based), 0 where undecided.
    ``remain`` holds the states whose value needed the fallback relaxation.
    """

    indexer: StateIndexer
    level: np.ndarray
    a: np.ndarray
    decision: np.ndarray
    remain: frozenset

    @property
    def levels(self) -> tuple:
        """The members of each level, from 0 to the smallest threshold."""
        depth = min(self.indexer.thresholds)
        return tuple(frozenset(np.flatnonzero(self.level == k).tolist()) for k in range(depth + 1))

    @property
    def unplaced(self) -> frozenset:
        return frozenset(np.flatnonzero(self.level < 0).tolist())


def build_level_sets(inst: Instance) -> LevelSets:
    """Grade the state space by the epsilon-order of its minimal window excess.

    Level 0 holds every state whose all-success window already incurs cost;
    level k is seeded by the failure predecessors of level k-1 and closed
    under "all success successors already graded".  States never reached by
    the grading are recorded as unplaced rather than raising here; the policy
    construction fails loudly if they would need a decision.  Only level 0
    gets coefficients and decisions here: its excess, and the action whose
    success successor has the least excess.
    """
    tables = transition_tables(inst.thresholds)
    excess = _excess_tables(inst.thresholds, inst.theta)

    level = np.where(excess > 0.0, 0, -1)
    for k in range(1, min(inst.thresholds) + 1):
        level[(level < 0) & (level[tables.fail] == k - 1)] = k
        while True:
            grown = (level < 0) & (level[tables.succ] >= 0).all(axis=1)
            if not grown.any():
                break
            level[grown] = k

    y0 = np.flatnonzero(level == 0)
    a = np.full(level.shape, np.nan)
    a[y0] = excess[y0]
    decision = np.zeros(level.shape, dtype=np.int64)
    decision[y0] = excess[tables.succ[y0]].argmin(axis=1) + 1
    return LevelSets(tables.indexer, level, a, decision, frozenset())


def _settle(ls: LevelSets, states: np.ndarray, values: np.ndarray) -> None:
    """Settle each state on the least entry of its row of ``values`` (inf bars a client), the first on ties."""
    best = values.argmin(axis=1)
    ls.a[states] = values.min(axis=1)
    ls.decision[states] = best + 1


def sn_policy(inst: Instance) -> tuple[StationaryPolicy, LevelSets]:
    """Stationary policy from the graded level sets.

    Sweeps levels in increasing order.  Each state may serve only the
    clients whose success successor sits at the deepest level, and takes the
    one of least combined coefficient, the first on ties, with
    ``coef[u] = 1 - p_u`` client u's failure rate:
    ``coef[u] * a[fail]`` when that level lies below its own, otherwise the
    successor's coefficient (0 where unset) plus ``coef[u]`` times the
    failure successor's coefficient (when that sits one level up, else 0).
    The second kind is settled in rounds, each taking every state whose
    same-level successors are settled.  States left on within-level cycles
    go to a fallback: ``n - 1`` in-order (ascending state index) relaxation
    sweeps of auxiliary coefficients ``x`` over the level, each run as the
    fixed point of ``x(s) = min_u [(t < s ? x(t) : old(t)) + c(s, u)]``, so
    it reproduces the sequential sweep from the same operands.

    Raises :class:`StructuralError` if any state ends up without a decision.
    """
    ls = build_level_sets(inst)
    tables = transition_tables(inst.thresholds)
    coef = 1.0 - np.asarray(inst.reliabilities)
    level, a = ls.level, ls.a
    remain = np.zeros(level.shape, dtype=bool)
    for k in range(1, int(level.max()) + 1):
        members = np.flatnonzero(level == k)
        succ, fail_a = tables.succ[members], a[tables.fail[members]]
        succ_level = level[succ]
        deepest = succ_level.max(axis=1, keepdims=True)
        allowed, inside = succ_level == deepest, succ_level == k
        # deep states: the deepest success successor lies below level k
        deep = deepest[:, 0] > k
        missing = deep & np.isnan(fail_a)
        if missing.any():
            state = ls.indexer.deindex(int(members[missing][0]))
            raise StructuralError(f"missing predecessor coefficient for state {state}")
        _settle(ls, members[deep], np.where(allowed[deep], coef * fail_a[deep, None], np.inf))

        # ready states, in rounds: each takes the states whose same-level successors are settled
        cost = coef * np.where(level[tables.fail[members]] == k - 1, fail_a, 0.0)[:, None]
        todo = ~deep
        while True:
            ready = todo & ~(allowed & inside & np.isnan(a[succ])).any(axis=1)
            if not ready.any():
                break
            values = np.nan_to_num(a[succ[ready]]) + cost[ready]
            _settle(ls, members[ready], np.where(allowed[ready], values, np.inf))
            todo &= ~ready
        if not todo.any():
            continue

        # fallback: settled states keep their client, and a successor outside the level counts 0
        remain[members[todo]] = True
        clients = np.arange(1, inst.n_clients + 1)
        choice = np.where(todo[:, None], allowed, clients == ls.decision[members, None])
        local = np.where(inside, np.searchsorted(members, succ), 0)
        earlier = local < np.arange(len(members))[:, None]
        x = np.zeros(len(members))
        for _ in range(inst.n_clients - 1):
            old = x
            while True:
                values = np.where(inside, np.where(earlier, x[local], old[local]), 0.0) + cost
                swept = np.where(choice, values, np.inf).min(axis=1)
                if np.array_equal(swept, x):
                    break
                x = swept
        values = np.where(inside, x[local], 0.0) + cost
        _settle(ls, members[todo], np.where(choice, values, np.inf)[todo])

    missing = np.flatnonzero(ls.decision == 0)
    if len(missing):
        states = [ls.indexer.deindex(int(s)) for s in missing]
        raise StructuralError(
            f"the level-set construction left {len(missing)} state(s) undecided: {states}"
        )
    ls.remain = frozenset(np.flatnonzero(remain).tolist())
    return StationaryPolicy(ls.decision.copy()), ls
