"""High-reliability regime machinery.

Covers the two-client modified least-time-to-go (MLG) policy with its
leading-order cost expansions and optimality conditions, the level-set
construction that grades states by the order (in the failure rate epsilon) of
their near-term cost, the resulting multi-client stationary policy, and
cycle-level analytics used to cross-check the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StructuralError
from .model import (
    AsymptoticInstance,
    Instance,
    State,
    StateIndexer,
    transition_tables,
)
from .exact import StationaryPolicy, _lookahead


@dataclass(frozen=True)
class TwoClientConfig:
    """Two clients with thresholds (tau, tau + delta) and failure rates (b1, b2) * epsilon."""

    tau: int
    delta: int
    b1: float
    b2: float
    theta: float

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative (clients sorted by threshold)")
        if self.b1 <= 0 or self.b2 <= 0:
            raise ValueError("failure coefficients must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    @property
    def thresholds(self) -> tuple[int, int]:
        return (self.tau, self.tau + self.delta)

    def asymptotic(self, epsilon: float) -> AsymptoticInstance:
        return AsymptoticInstance(self.thresholds, (self.b1, self.b2), epsilon, self.theta)

    def instance(self, epsilon: float) -> Instance:
        return self.asymptotic(epsilon).materialize()


def mlg_decide(x: State, cfg: TwoClientConfig) -> int:
    """Serve the client with the least time to go, with one override state.

    Ties go to the client with the larger threshold (client 2).  In the single
    override state (0, delta - 1) client 2 is served even though client 1 has
    strictly less time to go.
    """
    if len(x) != 2:
        raise ValueError("the least-time-to-go rule is defined for two clients")
    tau1, tau2 = cfg.thresholds
    if x == (0, cfg.delta - 1):
        return 2
    return 1 if tau1 - x[0] < tau2 - x[1] else 2


def mlg_stationary_policy(inst: Instance) -> StationaryPolicy:
    """Materialize the least-time-to-go rule as a dense two-client policy."""
    if inst.n_clients != 2:
        raise ValueError("only two-client instances have an MLG policy")
    tau1, tau2 = inst.thresholds
    if tau1 > tau2:
        raise ValueError("clients must be ordered so that tau_1 <= tau_2")
    cfg = TwoClientConfig(tau1, tau2 - tau1, 1.0, 1.0, inst.theta)
    return StationaryPolicy.from_callable(inst, lambda s: mlg_decide(s, cfg))


@dataclass(frozen=True)
class AsymptoticCost:
    """Leading term ``coefficient * epsilon**order`` of a cost expansion."""

    coefficient: float
    order: int
    case_tag: str

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ValueError("leading coefficient must be positive")

    def evaluate(self, epsilon: float) -> float:
        return self.coefficient * epsilon**self.order


def _case_tag(delta: int) -> str:
    if delta == 0:
        return "delta=0"
    if delta == 1:
        return "delta=1"
    return "delta>=2"


def _a0_coefficient(cfg: TwoClientConfig) -> float:
    tau, b1, b2, theta = cfg.tau, cfg.b1, cfg.b2, cfg.theta
    mid = sum(b1**j * b2 ** (tau - 1 - j) for j in range(1, tau - 1))
    return (math.expm1(theta) / theta) * mid + (b1 ** (tau - 1) + b2 ** (tau - 1)) / (
        2.0 * theta
    ) * (math.e**2 - 1.0)


def mlg_cost_leading(cfg: TwoClientConfig) -> AsymptoticCost:
    """Leading-order average cost of the least-time-to-go policy."""
    if cfg.tau < 2:
        raise ValueError("the leading-order expansions require tau >= 2")
    tau, delta, b1, b2, theta = cfg.tau, cfg.delta, cfg.b1, cfg.b2, cfg.theta
    if delta == 0:
        coeff = _a0_coefficient(cfg)
    elif delta == 1:
        coeff = math.expm1(theta) / (2.0 * theta) * sum(
            b1**j * b2 ** (tau - 1 - j) for j in range(tau)
        )
    else:
        coeff = math.expm1(theta) / (theta * delta) * b1 ** (tau - 1)
    return AsymptoticCost(coefficient=coeff, order=tau - 1, case_tag=_case_tag(delta))


def optimal_cost_lower_bound(cfg: TwoClientConfig) -> AsymptoticCost:
    """Leading-order lower bound on the cost of any stationary policy."""
    if cfg.tau < 2:
        raise ValueError("the leading-order expansions require tau >= 2")
    tau, delta, b1, b2, theta = cfg.tau, cfg.delta, cfg.b1, cfg.b2, cfg.theta
    b_min = min(b1, b2)
    if delta == 0:
        coeff = _a0_coefficient(cfg)
    elif delta == 1:
        a1 = b1 ** (tau - 1) + (tau - 1) * b_min ** (tau - 1)
        coeff = math.expm1(theta) / (2.0 * theta) * a1
    else:
        head = b1 ** (tau - 1)
        mid = head + (tau - 1) * b_min ** (tau - 1)
        cross = sum(b2**j * b1 ** (tau - 1 - j) for j in range(1, tau))
        a2 = min(head / delta, mid / (delta + 1), (mid + cross) / (delta + 2))
        coeff = math.expm1(theta) / theta * a2
    return AsymptoticCost(coefficient=coeff, order=tau - 1, case_tag=_case_tag(delta))


def mlg_optimality_check(cfg: TwoClientConfig) -> tuple[bool, str | None]:
    """Sufficient conditions for the least-time-to-go policy to be asymptotically optimal.

    Returns (True, tag) when one of the three case conditions holds, where the
    tag names the matched case ("i": delta = 0; "ii": delta = 1 with b1 <= b2;
    "iii": delta >= 2 with b1^(tau-1) <= delta (tau-1) b2^(tau-1)).
    """
    if cfg.delta == 0:
        return True, "i"
    if cfg.delta == 1:
        return (True, "ii") if cfg.b1 <= cfg.b2 else (False, None)
    lhs = cfg.b1 ** (cfg.tau - 1)
    rhs = cfg.delta * (cfg.tau - 1) * cfg.b2 ** (cfg.tau - 1)
    return (True, "iii") if lhs <= rhs else (False, None)


# ---------------------------------------------------------------------------
# level sets


@lru_cache(maxsize=64)
def _excess_tables(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """All-success window costs: excess A(x) and the first action attaining it.

    The window spans N slots starting at x, each slot charged on its
    pre-transition state and every transmission assumed successful; A(x) is
    the minimal window cost minus one.
    """
    tables = transition_tables(inst)
    g = np.ones(tables.indexer.total_states)
    first = None
    for _ in range(inst.n_clients):
        candidates = _lookahead(tables, 1.0, g)
        first = candidates.argmin(axis=0) + 1
        g = tables.cost * candidates.min(axis=0)
    assert first is not None
    return g - 1.0, first.astype(np.int64)


def all_success_excess(x: State, inst: Instance) -> tuple[float, int]:
    """Minimal excess cost of an all-success window of N slots starting at ``x``.

    Returns (A, best_first_action); the state belongs to the zeroth level set
    exactly when A > 0.  The first action of a minimizing schedule breaks ties
    toward the lowest client index.
    """
    excess, first = _excess_tables(inst)
    idx = inst.indexer().index(tuple(x))
    return float(excess[idx]), int(first[idx])


@dataclass(eq=False)
class LevelSets:
    """Graded state partition plus the per-state coefficients and decisions.

    ``level[s]`` grades state ``s``: its minimal near-term cost excess is of
    order epsilon^level, and -1 marks a state the grading never reached.
    Levels run from 0 to the smallest threshold.  ``a`` and ``b`` hold each
    state's coefficient and auxiliary (fallback) coefficient, NaN where
    unset, and ``decision`` the client served (1-based), 0 where undecided.
    ``remain`` holds the states whose value needed the fallback relaxation.
    """

    indexer: StateIndexer
    level: np.ndarray
    a: np.ndarray
    b: np.ndarray
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

    def to_json(self) -> dict:
        def value_arrays(values: np.ndarray, present: np.ndarray) -> dict:
            idxs = np.flatnonzero(present)
            return {"indices": idxs.tolist(), "values": values[idxs].tolist()}

        return {
            "levels": [sorted(members) for members in self.levels],
            "a": value_arrays(self.a, ~np.isnan(self.a)),
            "b": value_arrays(self.b, ~np.isnan(self.b)),
            "decisions": value_arrays(self.decision, self.decision > 0),
            "remain": sorted(self.remain),
            "unplaced": sorted(self.unplaced),
        }


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
    tables = transition_tables(inst)
    excess, _ = _excess_tables(inst)

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
    return LevelSets(tables.indexer, level, a, np.full(level.shape, np.nan), decision, frozenset())


def _settle(ls: LevelSets, states: np.ndarray, values: np.ndarray) -> None:
    """Settle each state on the least entry of its row of ``values`` (inf bars a client), the first on ties."""
    best = values.argmin(axis=1)
    ls.a[states] = values.min(axis=1)
    ls.decision[states] = best + 1


def sn_policy(
    inst: Instance, coefficients: tuple[float, ...] | None = None
) -> tuple[StationaryPolicy, LevelSets]:
    """Stationary policy from the graded level sets.

    Sweeps levels in increasing order.  Each state may serve only the
    clients whose success successor sits at the deepest level, and takes the
    one of least combined coefficient, the first on ties:
    ``coef[u] * a[fail]`` when that level lies below its own, otherwise the
    successor's coefficient (0 where unset) plus ``coef[u]`` times the
    failure successor's coefficient (when that sits one level up, else 0).
    The second kind is settled in rounds, each taking every state whose
    same-level successors are settled.  States left on within-level cycles
    go to a fallback: ``n - 1`` in-order (ascending state index) relaxation
    sweeps of auxiliary coefficients ``b`` over the level, each run as the
    fixed point of ``x(s) = min_u [(t < s ? x(t) : old(t)) + c(s, u)]``, so
    it reproduces the sequential sweep from the same operands.
    ``coefficients`` defaults to the per-client failure rates 1 - p_n; only
    their ratios matter.

    Raises :class:`StructuralError` if any state ends up without a decision.
    """
    if coefficients is None:
        coefficients = tuple(1.0 - p for p in inst.reliabilities)
    if len(coefficients) != inst.n_clients:
        raise ValueError("one failure coefficient per client is required")
    if any(b <= 0 for b in coefficients):
        raise ValueError("failure coefficients must be positive")

    ls = build_level_sets(inst)
    tables = transition_tables(inst)
    coef = np.asarray(coefficients, dtype=float)
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
        ls.b[members] = x

    missing = np.flatnonzero(ls.decision == 0)
    if len(missing):
        states = [ls.indexer.deindex(int(s)) for s in missing]
        raise StructuralError(
            f"the level-set construction left {len(missing)} state(s) undecided: {states}"
        )
    ls.remain = frozenset(np.flatnonzero(remain).tolist())
    return StationaryPolicy(ls.decision.copy()), ls


# ---------------------------------------------------------------------------
# cycle analytics


@dataclass(frozen=True)
class CycleAnalytics:
    """Leading-order description of the renewal cycle under the two-client rule."""

    xss_states: tuple
    expected_cycle_length: float
    excess_coefficient: float
    excess_order: int

    def leading_cost_coefficient(self, theta: float) -> float:
        """Average-cost coefficient implied by the cycle view (excess over theta * length)."""
        return self.excess_coefficient / (theta * self.expected_cycle_length)


def mlg_cycle_analytics(cfg: TwoClientConfig) -> CycleAnalytics:
    """Renewal-cycle leading terms for the least-time-to-go policy, delta >= 2 only.

    The all-success cycle state set, the leading expected cycle length (delta)
    and the leading cycle cost excess b1^(tau-1) (e^theta - 1) epsilon^(tau-1).
    Smaller gaps use the direct cost expansion instead.
    """
    if cfg.delta < 2:
        raise ValueError("cycle analytics are stated for delta >= 2; use mlg_cost_leading")
    xss = ((1, 0),) + tuple((0, x2) for x2 in range(cfg.delta))
    return CycleAnalytics(
        xss_states=xss,
        expected_cycle_length=float(cfg.delta),
        excess_coefficient=cfg.b1 ** (cfg.tau - 1) * math.expm1(cfg.theta),
        excess_order=cfg.tau - 1,
    )
