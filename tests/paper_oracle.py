"""The paper's finite-state instruments, written against the model alone.

The program computes one number, a policy's long-run average cost.  These
are the finite-state results behind it, as checks: the finite-horizon
dynamic programs of the clipped (MDP2) and unbounded (MDP1) formulations,
whose equality on shared states and threshold-shift law the tests assert;
the enumeration of the stationary decision maps, whose best no-exclusion
(NE) map attains the optimum; the NE property of a policy; the Doeblin
hitting times; the two-client least-time-to-go rule, state by state, and
its high-reliability closed forms on an ``AsymptoticInstance``
(``p_n = 1 - b_n epsilon``, thresholds ``(tau, tau + delta)``): the
leading cost term, the stationary lower bound and the optimality
conditions; and the periodic-schedule search, slot by slot over every
sequence.  Nothing here reads ``exact``, ``asymptotic`` or
``heuristics``, so a test that compares the program with these is not
circular.  Tables are dense over the state space: desk scale only.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from dense_oracle import eigvals_cost
from idsched.errors import ConfigError
from idsched.model import StateIndexer, exclusion_state, step_distribution, successor_on_success, transition_tables

TIE_RTOL = 1e-9  # relative gap within which lookahead values tie in minimizing_actions
CELL_CAP = 10**7  # most cells the unbounded DP's table may hold


class CellCapError(Exception):
    """The unbounded DP's table would hold more than ``CELL_CAP`` cells."""


def _lookahead(tables, ps, v):
    """``q[u, x] = p_u v[succ(x, u)] + (1 - p_u) v[fail(x)]``, shape (N, S)."""
    p = np.reshape(ps, (-1, 1))
    return p * v[tables.succ.T] + (1.0 - p) * v[tables.fail]


@dataclass(eq=False)
class DpTable:
    """Clipped-space finite-horizon table.

    ``values[t]`` holds the optimal t-step costs over state indices
    (``values[0]`` is identically 1) and ``greedy[t - 1]`` the lowest-index
    minimizing client used to produce ``values[t]`` from ``values[t - 1]``.
    """

    horizon: int
    values: np.ndarray
    greedy: np.ndarray
    indexer: StateIndexer

    def value(self, t, state):
        return float(self.values[t, self.indexer.index(state)])

    def minimizing_actions(self, inst, t, state):
        """All clients whose one-step lookahead at horizon ``t`` attains the minimum."""
        if not 1 <= t <= self.horizon:
            raise ValueError("t must be in 1..horizon")
        qs = _lookahead(transition_tables(inst.thresholds), inst.reliabilities, self.values[t - 1])[:, self.indexer.index(state)]
        qmin = qs.min()
        return frozenset(u + 1 for u, q in enumerate(qs) if q <= qmin * (1.0 + TIE_RTOL))


def dp_mdp2(inst, horizon):
    """Optimal finite-horizon costs on the clipped space.

    Recursion: ``V_t(x) = cost(x) * min_u [p_u V_{t-1}(succ_u x) + (1-p_u) V_{t-1}(fail x)]``
    with ``V_0`` identically one.  Ties go to the lowest client index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tables = transition_tables(inst.thresholds)
    cost = np.exp(inst.theta * tables.hits)
    values = np.empty((horizon + 1, tables.indexer.total_states))
    values[0] = 1.0
    greedy = np.zeros((horizon, tables.indexer.total_states), dtype=np.int64)
    for t in range(1, horizon + 1):
        q = _lookahead(tables, inst.reliabilities, values[t - 1])
        greedy[t - 1] = q.argmin(axis=0) + 1
        values[t] = cost * q.min(axis=0)
    return DpTable(horizon=horizon, values=values, greedy=greedy, indexer=tables.indexer)


class Mdp1Table:
    """Finite-horizon costs for the unbounded-space formulation.

    Charges are delivery-triggered: a successful transmission for client u in
    state x multiplies the cost by ``exp(theta * (x_u + 1 - tau_u)^+)``.  At
    the final slot every client is treated as delivered, which charges
    ``exp(theta * sum_n (x_n + 1 - tau_n)^+)`` regardless of the action; this
    terminal layer is what makes the never-transmit policy costly.

    The table is computed over the box ``[0, upper_n + horizon]`` and is valid
    for every start state componentwise below ``upper``.
    """

    def __init__(self, inst, horizon, upper):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if any(x < 0 for x in upper):
            raise ValueError("state components must be nonnegative")
        if len(upper) != inst.n_clients:
            raise ValueError("state arity mismatch")
        self.inst = inst
        self.horizon = horizon
        self.upper = tuple(int(x) for x in upper)
        cells = math.prod(x + horizon + 1 for x in self.upper)
        if cells > CELL_CAP:
            raise CellCapError(f"unbounded DP needs {cells} cells, above the cap of {CELL_CAP}")
        self.layers = [np.ones(tuple(x + horizon + 1 for x in self.upper))]
        theta, taus, ps, n = inst.theta, inst.thresholds, inst.reliabilities, inst.n_clients

        def success_factor(axis, length):
            f = np.exp(theta * np.maximum(np.arange(length) + 1 - taus[axis], 0))
            shape = [1] * n
            shape[axis] = length
            return f.reshape(shape)

        for t in range(1, horizon + 1):
            dims_t = tuple(x + (horizon - t) + 1 for x in self.upper)
            if t == 1:
                # terminal slot: every client charged as if delivered
                layer = np.ones(dims_t)
                for axis in range(n):
                    layer = layer * success_factor(axis, dims_t[axis])
            else:
                prev = self.layers[t - 1]
                fail_view = prev[tuple(slice(1, d + 1) for d in dims_t)]
                layer = None
                for u in range(n):
                    sl = [slice(1, d + 1) for d in dims_t]
                    sl[u] = 0  # served component resets
                    succ_view = np.expand_dims(prev[tuple(sl)], axis=u)
                    q = ps[u] * success_factor(u, dims_t[u]) * succ_view + (1.0 - ps[u]) * fail_view
                    layer = q if layer is None else np.minimum(layer, q)
            self.layers.append(layer)

    def value(self, t, state):
        if not 0 <= t <= self.horizon:
            raise ValueError("t outside 0..horizon")
        return float(self.layers[t][tuple(state)])

    def minimizing_actions(self, t, state):
        if not 1 <= t <= self.horizon:
            raise ValueError("t must be in 1..horizon")
        n = self.inst.n_clients
        if t == 1:
            # terminal charge is action-independent
            return frozenset(range(1, n + 1))
        prev = self.layers[t - 1]
        theta, taus, ps = self.inst.theta, self.inst.thresholds, self.inst.reliabilities
        fail = prev[tuple(x + 1 for x in state)]
        qs = []
        for u in range(n):
            succ = tuple(0 if i == u else x + 1 for i, x in enumerate(state))
            factor = math.exp(theta * max(state[u] + 1 - taus[u], 0))
            qs.append(ps[u] * factor * prev[succ] + (1.0 - ps[u]) * fail)
        qmin = min(qs)
        return frozenset(u + 1 for u, q in enumerate(qs) if q <= qmin * (1.0 + TIE_RTOL))


def dp_mdp1(inst, horizon, start):
    """Optimal finite-horizon cost from an unbounded-space start state."""
    return Mdp1Table(inst, horizon, start).value(horizon, start)


def enumerated_optimum(inst, ne_only=True):
    """The stationary decision map of least J and that J, each map evaluated by ``eigvals_cost``.

    The paper shows that a stationary optimal policy exists and that, with
    two or more clients, one serves no client in its own exclusion state
    (NE).  With ``ne_only`` only those maps are enumerated, else every map.
    Maps go in lexicographic order of their decision tuples, and the first
    minimum wins ties.
    """
    indexer = inst.indexer()
    allowed = [range(1, inst.n_clients + 1)] * inst.total_states
    if ne_only and inst.n_clients >= 2:
        for client in range(1, inst.n_clients + 1):
            idx = indexer.index(exclusion_state(inst.thresholds, client))
            allowed[idx] = [u for u in allowed[idx] if u != client]
    best = None
    for decisions in product(*allowed):
        j = eigvals_cost(inst, 1, lambda x, m: decisions[indexer.index(x)], lambda m, delivered: 0)
        if best is None or j < best[1]:
            best = decisions, j
    return best


def is_ne(policy, inst):
    """True iff no client is served in its own exclusion state.

    The exclusion state for client n has n freshly served and everyone else at
    threshold.  For a single client the definition is vacuous in the negative:
    the only action is always excluded, so every one-client policy reports
    False here.
    """
    indexer = inst.indexer()
    return all(
        int(policy.decisions[indexer.index(exclusion_state(inst.thresholds, n))]) != n
        for n in range(1, inst.n_clients + 1)
    )


def doeblin_hitting_times(policy, inst):
    """Expected first passage times to the all-threshold state, per start index.

    The entry at the all-threshold state itself is the expected return time
    (minimum over t > 0), not zero: ``(I - K) h = 1``, with ``K`` the
    policy's transition matrix less the all-threshold column.
    """
    indexer = inst.indexer()
    target = indexer.index(inst.thresholds)
    kernel = np.zeros((inst.total_states, inst.total_states))
    for x in indexer.states():
        step = step_distribution(x, int(policy.decisions[indexer.index(x)]), inst)
        kernel[indexer.index(x), indexer.index(step.success_state)] += step.success_prob
        kernel[indexer.index(x), indexer.index(step.failure_state)] += step.failure_prob
    kernel[:, target] = 0.0
    return np.linalg.solve(np.eye(inst.total_states) - kernel, np.ones(inst.total_states))


def mlg_decide(x, thresholds):
    """Serve the client with the least time to go, with one override state.

    ``thresholds`` are ``(tau, tau + delta)``.  Ties go to the client with
    the larger threshold (client 2).  In the single override state
    (0, delta - 1) client 2 is served even though client 1 has strictly less
    time to go.
    """
    if len(x) != 2:
        raise ValueError("the least-time-to-go rule is defined for two clients")
    tau1, tau2 = thresholds
    if x == (0, tau2 - tau1 - 1):
        return 2
    return 1 if tau1 - x[0] < tau2 - x[1] else 2


@dataclass(frozen=True)
class AsymptoticCost:
    """Leading term ``coefficient * epsilon**order`` of a cost expansion."""

    coefficient: float
    order: int
    case_tag: str

    def __post_init__(self):
        if self.coefficient <= 0:
            raise ValueError("leading coefficient must be positive")

    def evaluate(self, epsilon):
        return self.coefficient * epsilon**self.order


def _case_tag(delta):
    if delta == 0:
        return "delta=0"
    if delta == 1:
        return "delta=1"
    return "delta>=2"


def _two_clients(inst):
    """``(tau, delta, b1, b2, theta)`` of an instance with thresholds ``(tau, tau + delta)`` and an MLG policy."""
    if len(inst.thresholds) != 2 or inst.thresholds[0] > inst.thresholds[1]:
        raise ValueError("the closed forms need two clients with tau_1 <= tau_2")
    tau, tau2 = inst.thresholds
    if tau < 2:
        raise ValueError("the leading-order expansions require tau >= 2")
    b1, b2 = inst.coefficients
    return tau, tau2 - tau, b1, b2, inst.theta


def _a0_coefficient(tau, b1, b2, theta):
    mid = sum(b1**j * b2 ** (tau - 1 - j) for j in range(1, tau - 1))
    return (math.expm1(theta) / theta) * mid + (b1 ** (tau - 1) + b2 ** (tau - 1)) / (
        2.0 * theta
    ) * (math.e**2 - 1.0)


def mlg_cost_leading(inst):
    """Leading-order average cost of the least-time-to-go policy."""
    tau, delta, b1, b2, theta = _two_clients(inst)
    if delta == 0:
        coeff = _a0_coefficient(tau, b1, b2, theta)
    elif delta == 1:
        coeff = math.expm1(theta) / (2.0 * theta) * sum(
            b1**j * b2 ** (tau - 1 - j) for j in range(tau)
        )
    else:
        coeff = math.expm1(theta) / (theta * delta) * b1 ** (tau - 1)
    return AsymptoticCost(coefficient=coeff, order=tau - 1, case_tag=_case_tag(delta))


def optimal_cost_lower_bound(inst):
    """Leading-order lower bound on the cost of any stationary policy."""
    tau, delta, b1, b2, theta = _two_clients(inst)
    b_min = min(b1, b2)
    if delta == 0:
        coeff = _a0_coefficient(tau, b1, b2, theta)
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


def mlg_optimality_check(inst):
    """Sufficient conditions for the least-time-to-go policy to be asymptotically optimal.

    Returns (True, tag) when one of the three case conditions holds, where the
    tag names the matched case ("i": delta = 0; "ii": delta = 1 with b1 <= b2;
    "iii": delta >= 2 with b1^(tau-1) <= delta (tau-1) b2^(tau-1)).
    """
    tau, delta, b1, b2, _ = _two_clients(inst)
    if delta == 0:
        return True, "i"
    if delta == 1:
        return (True, "ii") if b1 <= b2 else (False, None)
    lhs = b1 ** (tau - 1)
    rhs = delta * (tau - 1) * b2 ** (tau - 1)
    return (True, "iii") if lhs <= rhs else (False, None)


def is_least_rotation(seq):
    """True iff no rotation of ``seq`` is lexicographically smaller."""
    return all(seq[shift:] + seq[:shift] >= seq for shift in range(1, len(seq)))


def replayed_cycle_cost(sequence, thresholds):
    """Failure-free threshold exceedances per slot of a cyclic sequence that serves every client.

    Two periods from the all-zero state reach the periodic orbit, since by
    then every client has been served; the third is counted slot by slot.
    """
    state = (0,) * len(thresholds)
    period = len(sequence)
    for t in range(2 * period):
        state = successor_on_success(state, sequence[t % period], thresholds)
    hits = 0
    for t in range(period):
        hits += sum(1 for x, tau in zip(state, thresholds) if x == tau)
        state = successor_on_success(state, sequence[t], thresholds)
    return hits / period


def periodic_schedule_search(inst, max_period):
    """The sequence of least failure-free cost among those of period up to ``max_period`` that serve every client.

    Every sequence is tried, shortest periods first and each period in
    lexicographic order, keeping only least rotations; a strictly lower cost
    replaces the best, and a zero cost ends the search.
    """
    n = inst.n_clients
    if max_period < n:
        raise ConfigError(f"max_period {max_period} cannot cover {n} clients")
    best = None
    for period in range(n, max_period + 1):
        for seq in product(range(1, n + 1), repeat=period):
            if len(set(seq)) != n or not is_least_rotation(seq):
                continue
            cost = replayed_cycle_cost(seq, inst.thresholds)
            if best is None or cost < best[0]:
                best = cost, seq
                if cost == 0.0:
                    return seq
    return best[1]
