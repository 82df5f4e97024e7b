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
    Levels run from 0 to the smallest threshold.  ``remain`` holds the
    states whose value needed the fallback relaxation.
    """

    indexer: StateIndexer
    level: np.ndarray
    a_values: dict
    b_values: dict
    decisions: dict
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
        def value_arrays(mapping: dict) -> dict:
            idxs = sorted(mapping)
            return {"indices": idxs, "values": [mapping[i] for i in idxs]}

        return {
            "levels": [sorted(members) for members in self.levels],
            "a": value_arrays(self.a_values),
            "b": value_arrays(self.b_values),
            "decisions": value_arrays({i: int(u) for i, u in self.decisions.items()}),
            "remain": sorted(self.remain),
            "unplaced": sorted(self.unplaced),
        }


def build_level_sets(inst: Instance) -> LevelSets:
    """Grade the state space by the epsilon-order of its minimal window excess.

    Level 0 holds every state whose all-success window already incurs cost;
    level k is seeded by the failure predecessors of level k-1 and closed
    under "all success successors already graded".  States never reached by
    the grading are recorded as unplaced rather than raising here; the policy
    construction fails loudly if they would need a decision.
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
    first = excess[tables.succ[y0]].argmin(axis=1) + 1
    return LevelSets(
        indexer=tables.indexer,
        level=level,
        a_values=dict(zip(y0.tolist(), excess[y0].tolist())),
        b_values={},
        decisions=dict(zip(y0.tolist(), first.tolist())),
        remain=frozenset(),
    )


def sn_policy(
    inst: Instance, coefficients: tuple[float, ...] | None = None
) -> tuple[StationaryPolicy, LevelSets]:
    """Stationary policy from the graded level sets.

    Sweeps levels in increasing order, assigning each state the action whose
    success successor sits at the deepest level and whose combined coefficient
    (successor coefficient plus failure-coefficient-weighted predecessor term)
    is minimal.  Cyclic within-level dependencies fall back to a bounded
    relaxation of auxiliary coefficients.  ``coefficients`` defaults to the
    per-client failure rates 1 - p_n; only their ratios matter.

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
    indexer = ls.indexer
    n = inst.n_clients
    n_states = indexer.total_states
    level_of = ls.level

    a_values = dict(ls.a_values)
    decisions = dict(ls.decisions)
    b_values: dict[int, float] = {}
    remain: set[int] = set()

    def action_levels(s: int) -> tuple[int, list[int]]:
        """Deepest successor level and the actions (1-based) attaining it."""
        succ_levels = [int(level_of[tables.succ[s, u]]) for u in range(n)]
        m = max(succ_levels)
        return m, [u + 1 for u in range(n) if succ_levels[u] == m]

    for k in range(1, int(level_of.max()) + 1):
        members = np.flatnonzero(level_of == k).tolist()
        if not members:
            continue
        meta = {s: action_levels(s) for s in members}
        pending = list(members)
        while pending:
            next_pending = []
            for s in pending:
                m, u_set = meta[s]
                fail_idx = int(tables.fail[s])
                if m > k:
                    if fail_idx not in a_values:
                        raise StructuralError(
                            f"missing predecessor coefficient for state {indexer.deindex(s)}"
                        )
                    best_u, best_val = None, math.inf
                    for u in u_set:
                        val = coefficients[u - 1] * a_values[fail_idx]
                        if val < best_val:
                            best_u, best_val = u, val
                    a_values[s] = best_val
                    decisions[s] = best_u
                    continue
                succs = [int(tables.succ[s, u - 1]) for u in u_set]
                if any(level_of[t] == k and t not in a_values for t in succs):
                    next_pending.append(s)
                    continue
                fail_term = (
                    a_values[fail_idx] if int(level_of[fail_idx]) == k - 1 else 0.0
                )
                best_u, best_val = None, math.inf
                for u, t in zip(u_set, succs):
                    val = a_values.get(t, 0.0) + coefficients[u - 1] * fail_term
                    if val < best_val:
                        best_u, best_val = u, val
                a_values[s] = best_val
                decisions[s] = best_u
            if len(next_pending) == len(pending):
                break  # no progress; cyclic dependencies go to the fallback
            pending = next_pending

        if pending:
            remain |= set(pending)
            b_local = {s: 0.0 for s in members}

            def relax_value(s: int) -> tuple[float, int]:
                m, u_set = meta[s]
                restricted = [decisions[s]] if s in decisions else u_set
                fail_idx = int(tables.fail[s])
                fail_term = (
                    a_values[fail_idx] if int(level_of[fail_idx]) == k - 1 else 0.0
                )
                best_u, best_val = None, math.inf
                for u in restricted:
                    t = int(tables.succ[s, u - 1])
                    val = b_local.get(t, 0.0) + coefficients[u - 1] * fail_term
                    if val < best_val:
                        best_u, best_val = u, val
                return best_val, best_u

            for _ in range(n - 1):
                for s in members:
                    b_local[s] = relax_value(s)[0]
            for s in sorted(pending):
                val, u = relax_value(s)
                a_values[s] = val
                decisions[s] = u
            b_values.update(b_local)

    missing = [s for s in range(n_states) if s not in decisions]
    if missing:
        states = [indexer.deindex(s) for s in missing]
        raise StructuralError(
            f"the level-set construction left {len(missing)} state(s) undecided: {states}"
        )

    policy = StationaryPolicy(np.array([decisions[s] for s in range(n_states)], dtype=np.int64))
    out = LevelSets(
        indexer=indexer,
        level=level_of,
        a_values=a_values,
        b_values=b_values,
        decisions=decisions,
        remain=frozenset(remain),
    )
    return policy, out


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
