"""Exact finite-state machinery: dynamic programs, policy evaluation, search.

Policy evaluation follows the multiplicative route: every finite-memory
policy is a stationary ``Chain`` whose states move to one of two successors,
the per-slot cost scales its transitions, and the long-run risk-sensitive
average cost is ``ln(spectral radius) / theta`` of the cost-weighted chain
restricted to the recurrent structure reachable from the start state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError, StructuralError
from .model import (
    Instance,
    State,
    StateIndexer,
    TransitionTables,
    exclusion_state,
    transition_tables,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
_LOOKAHEAD_BLOCK = 16384  # states per lookahead pass


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

    def decide(self, indexer: StateIndexer, state: State) -> int:
        return int(self.decisions[indexer.index(state)])

    @classmethod
    def from_callable(cls, inst: Instance, fn: Callable[[State], int]) -> "StationaryPolicy":
        indexer = inst.indexer()
        return cls(np.array([fn(s) for s in indexer.states()], dtype=np.int64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StationaryPolicy):
            return NotImplemented
        return np.array_equal(self.decisions, other.decisions)

    def to_json(self) -> dict:
        return {"decisions": [int(u) for u in self.decisions]}

    @classmethod
    def from_json(cls, obj: dict) -> "StationaryPolicy":
        return cls(np.asarray(obj["decisions"], dtype=np.int64))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of evaluating one stationary policy."""

    spectral_radius: float
    average_cost: float
    recurrent_class: frozenset
    transient_states: frozenset
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "spectral_radius": self.spectral_radius,
            "average_cost": self.average_cost,
            "recurrent_class": sorted(self.recurrent_class),
            "transient_states": sorted(self.transient_states),
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True, eq=False)
class Chain:
    """A finite-memory policy as a stationary chain on (clipped state, memory).

    From chain state ``i`` the slot pays ``exp(theta * hits[i])``, serves
    client ``client[i] + 1`` and moves to ``succ[i]`` with probability
    ``p[i]``, else to ``fail[i]``.  ``base[i]`` is the clipped-state index
    underneath ``i`` and ``start`` the chain state of the first slot.
    """

    succ: np.ndarray
    fail: np.ndarray
    p: np.ndarray
    hits: np.ndarray
    client: np.ndarray
    base: np.ndarray
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
            client=client,
            base=base,
            start=tables.indexer.index(tuple(inst.thresholds if start is None else start)) * memory,
        )


def stationary_chain(policy: StationaryPolicy, inst: Instance, start: State | None = None) -> Chain:
    """The chain of a stationary policy: memoryless, indexed like the clipped states."""
    policy.validate(inst)
    return Chain.augmented(inst, 1, policy.decisions - 1, 0, 0, start)


# ---------------------------------------------------------------------------
# finite-horizon dynamic programs


def _lookahead(tables: TransitionTables, ps, v: np.ndarray) -> np.ndarray:
    """One Bellman lookahead ``q[u, x] = p_u v[succ(x, u)] + (1 - p_u) v[fail(x)]``, shape (N, S).

    ``ps`` holds the success probability of each client, or one shared by all.
    The states go in blocks of ``_LOOKAHEAD_BLOCK``, so the temporaries stay
    in cache on large spaces.
    """
    p = np.reshape(ps, (-1, 1))
    succ = tables.succ.T
    q = np.empty(succ.shape)
    for lo in range(0, succ.shape[1], _LOOKAHEAD_BLOCK):
        block = slice(lo, lo + _LOOKAHEAD_BLOCK)
        q[:, block] = p * v[succ[:, block]] + (1.0 - p) * v[tables.fail[block]]
    return q


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

    def value(self, t: int, state: State) -> float:
        return float(self.values[t, self.indexer.index(state)])

    def minimizing_actions(self, inst: Instance, t: int, state: State, rtol: float = 1e-9) -> frozenset:
        """All clients whose one-step lookahead at horizon ``t`` attains the minimum."""
        if not 1 <= t <= self.horizon:
            raise ValueError("t must be in 1..horizon")
        tables = transition_tables(inst)
        qs = _lookahead(tables, inst.reliabilities, self.values[t - 1])[:, self.indexer.index(state)]
        qmin = qs.min()
        return frozenset(u + 1 for u, q in enumerate(qs) if q <= qmin * (1.0 + rtol))


def dp_mdp2(inst: Instance, horizon: int) -> DpTable:
    """Optimal finite-horizon costs on the clipped space.

    Recursion: ``V_t(x) = cost(x) * min_u [p_u V_{t-1}(succ_u x) + (1-p_u) V_{t-1}(fail x)]``
    with ``V_0`` identically one.  Ties go to the lowest client index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tables = transition_tables(inst)
    n_states = tables.indexer.total_states
    ps = np.asarray(inst.reliabilities)

    values = np.empty((horizon + 1, n_states))
    values[0] = 1.0
    greedy = np.zeros((horizon, n_states), dtype=np.int64)
    for t in range(1, horizon + 1):
        q = _lookahead(tables, ps, values[t - 1])
        greedy[t - 1] = q.argmin(axis=0) + 1
        values[t] = tables.cost * q.min(axis=0)
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

    def __init__(self, inst: Instance, horizon: int, upper: State, cell_cap: int = 10**7):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if any(x < 0 for x in upper):
            raise ValueError("state components must be nonnegative")
        if len(upper) != inst.n_clients:
            raise ValueError("state arity mismatch")
        self.inst = inst
        self.horizon = horizon
        self.upper = tuple(int(x) for x in upper)
        dims0 = tuple(x + horizon + 1 for x in self.upper)
        cells = 1
        for d in dims0:
            cells *= d
        if cells > cell_cap:
            raise ResourceLimitError(
                f"unbounded DP needs {cells} cells, above the cap of {cell_cap}"
            )
        self.layers: list[np.ndarray] = [np.ones(dims0)]
        theta = inst.theta
        taus = inst.thresholds
        n = inst.n_clients
        ps = inst.reliabilities

        def success_factor(axis: int, length: int) -> np.ndarray:
            xs = np.arange(length)
            f = np.exp(theta * np.maximum(xs + 1 - taus[axis], 0))
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

    def value(self, t: int, state: State) -> float:
        if not 0 <= t <= self.horizon:
            raise ValueError("t outside 0..horizon")
        return float(self.layers[t][tuple(state)])

    def minimizing_actions(self, t: int, state: State, rtol: float = 1e-9) -> frozenset:
        if not 1 <= t <= self.horizon:
            raise ValueError("t must be in 1..horizon")
        n = self.inst.n_clients
        if t == 1:
            # terminal charge is action-independent
            return frozenset(range(1, n + 1))
        prev = self.layers[t - 1]
        theta = self.inst.theta
        taus = self.inst.thresholds
        ps = self.inst.reliabilities
        fail = prev[tuple(x + 1 for x in state)]
        qs = []
        for u in range(n):
            succ = tuple(0 if i == u else x + 1 for i, x in enumerate(state))
            factor = math.exp(theta * max(state[u] + 1 - taus[u], 0))
            qs.append(ps[u] * factor * prev[succ] + (1.0 - ps[u]) * fail)
        qmin = min(qs)
        return frozenset(u + 1 for u, q in enumerate(qs) if q <= qmin * (1.0 + rtol))


def dp_mdp1(inst: Instance, horizon: int, start: State, cell_cap: int = 10**7) -> float:
    """Optimal finite-horizon cost from an unbounded-space start state."""
    return Mdp1Table(inst, horizon, start, cell_cap=cell_cap).value(horizon, start)


# ---------------------------------------------------------------------------
# policy matrices and spectral evaluation


def is_ne(policy: StationaryPolicy, inst: Instance) -> bool:
    """True iff no client is served in its own exclusion state.

    The exclusion state for client n has n freshly served and everyone else at
    threshold.  For a single client the definition is vacuous in the negative:
    the only action is always excluded, so every one-client policy reports
    False here (enumeration helpers skip the constraint when N = 1).
    """
    indexer = inst.indexer()
    for n in range(1, inst.n_clients + 1):
        if int(policy.decisions[indexer.index(exclusion_state(inst.thresholds, n))]) == n:
            return False
    return True


def transition_matrix(policy: StationaryPolicy, inst: Instance) -> np.ndarray:
    """Dense one-step transition matrix of a stationary policy (the dense view of its chain)."""
    chain = stationary_chain(policy, inst)
    rows = np.arange(len(chain.fail))
    mat = np.zeros((len(rows), len(rows)))
    np.add.at(mat, (rows, chain.succ), chain.p)
    np.add.at(mat, (rows, chain.fail), 1.0 - chain.p)
    return mat


def disutility_matrix(policy: StationaryPolicy, inst: Instance) -> np.ndarray:
    """Transition matrix with rows scaled by the per-slot cost factor."""
    tables = transition_tables(inst)
    return tables.cost[:, None] * transition_matrix(policy, inst)


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    iterations: int
    converged: bool


def _power_iteration(
    apply: Callable[[np.ndarray], np.ndarray], n: int, tol: float, max_iter: int
) -> PowerIterationResult:
    """Largest eigenvalue of the nonnegative operator ``apply`` on ``n`` coordinates.

    Iterates ``v <- (M + I) v / ||.||_1`` from the all-ones direction; the +I
    shift guarantees convergence on periodic structures.  The estimate is the
    one-norm growth factor minus one; convergence is declared when successive
    estimates differ by less than ``tol``.
    """
    v = np.full(n, 1.0 / n)
    prev = math.inf
    for it in range(1, max_iter + 1):
        w = apply(v) + v
        norm = w.sum()  # one-norm of a nonnegative vector
        est = norm - 1.0
        v = w / norm
        if abs(est - prev) < tol:
            return PowerIterationResult(value=est, iterations=it, converged=True)
        prev = est
    return PowerIterationResult(value=prev, iterations=max_iter, converged=False)


def spectral_radius(
    mat: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> PowerIterationResult:
    """Largest-magnitude eigenvalue of a nonnegative matrix by shifted power iteration."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.size == 0:
        raise ValueError("matrix must be nonempty")
    if mat.min() < 0:
        raise ValueError("matrix must be nonnegative")
    return _power_iteration(mat.__matmul__, mat.shape[0], tol, max_iter)


# ---------------------------------------------------------------------------
# communicating structure


@dataclass(frozen=True)
class CommunicatingStructure:
    classes: tuple  # tuple[frozenset, ...] sorted by smallest member
    closed: tuple  # tuple[bool, ...] aligned with classes
    transient: frozenset

    @property
    def closed_classes(self) -> list:
        return [c for c, flag in zip(self.classes, self.closed) if flag]


def _strongly_connected_components(adjacency: Sequence[Sequence[int]], roots: Iterable[int]) -> list[list[int]]:
    """Iterative Tarjan over what ``roots`` reach in an adjacency list; avoids recursion limits."""
    n = len(adjacency)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    next_index = 0
    sccs: list[list[int]] = []

    for root in roots:
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            neighbors = adjacency[v]
            for i in range(pos, len(neighbors)):
                w = neighbors[i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def _structure(adjacency: Sequence[Sequence[int]], roots: Iterable[int]) -> CommunicatingStructure:
    """Communicating classes of the states ``roots`` reach along ``adjacency``.

    A class is closed iff no edge leaves it; states outside every closed class
    are transient.
    """
    sccs = _strongly_connected_components(adjacency, roots)
    class_of = {}
    for k, scc in enumerate(sccs):
        for v in scc:
            class_of[v] = k
    closed = []
    for k, scc in enumerate(sccs):
        closed.append(all(class_of[w] == k for v in scc for w in adjacency[v]))
    order = sorted(range(len(sccs)), key=lambda k: min(sccs[k]))
    classes = tuple(frozenset(sccs[k]) for k in order)
    closed_flags = tuple(closed[k] for k in order)
    transient = frozenset(
        v for k, flag in zip(order, closed_flags) if not flag for v in sccs[k]
    )
    return CommunicatingStructure(classes=classes, closed=closed_flags, transient=transient)


def communicating_structure(mat: np.ndarray) -> CommunicatingStructure:
    """Communicating classes of the directed graph of a matrix's positive entries."""
    adjacency = [np.flatnonzero(row > 0).tolist() for row in np.asarray(mat)]
    return _structure(adjacency, range(len(adjacency)))


def chain_average_cost(
    chain: Chain, theta: float, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SolveReport:
    """Average cost of a finite chain from its start state.

    Finds the closed communicating classes reachable from ``chain.start``
    along the two successor arrays and power-iterates the gather
    ``(Wv)_i = cost_i (p_i v[succ_i] + (1 - p_i) v[fail_i])`` on each; the
    average cost is the worst recurrent growth rate,
    ``ln(max spectral radius) / theta``.  Reported state sets are chain indices.
    """
    structure = _structure(np.stack([chain.succ, chain.fail], axis=1).tolist(), [chain.start])
    closed = structure.closed_classes
    radii = []
    for cls in closed:
        members = np.array(sorted(cls))
        succ = np.searchsorted(members, chain.succ[members])
        fail = np.searchsorted(members, chain.fail[members])
        cost = np.exp(theta * chain.hits[members])
        w_succ, w_fail = cost * chain.p[members], cost * (1.0 - chain.p[members])
        radii.append(
            _power_iteration(lambda v: w_succ * v[succ] + w_fail * v[fail], len(members), tol, max_iter)
        )
    rho = max(res.value for res in radii)
    return SolveReport(
        spectral_radius=rho,
        average_cost=math.log(rho) / theta,
        recurrent_class=frozenset().union(*closed),
        transient_states=structure.transient,
        iterations=sum(res.iterations for res in radii),
        converged=all(res.converged for res in radii),
    )


def average_cost(
    policy: StationaryPolicy,
    inst: Instance,
    start: State | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Long-run risk-sensitive average cost of a stationary policy.

    Defaults to starting at the all-threshold state, which every closed class
    contains, so the report then covers the policy's recurrent behavior.
    """
    inst.require_interior_reliabilities()
    return chain_average_cost(stationary_chain(policy, inst, start), inst.theta, tol=tol, max_iter=max_iter)


def non_ne_trivial_cost(
    policy: StationaryPolicy,
    inst: Instance,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Average cost of a policy that pins itself to client ``n``.

    Requires the policy to serve ``n`` in every state where all other clients
    sit at threshold.  From the all-threshold state the chain then never
    leaves the pinned cycle over client n's elapsed values, so its cost is the
    spectral radius of that small closed class.
    """
    policy.validate(inst)
    indexer = inst.indexer()
    taus = inst.thresholds
    for a in range(taus[n - 1] + 1):
        state = tuple(a if i == n - 1 else t for i, t in enumerate(taus))
        if int(policy.decisions[indexer.index(state)]) != n:
            raise ValueError(
                f"policy does not serve client {n} throughout the pinned states"
            )
    return average_cost(policy, inst, tol=tol, max_iter=max_iter)


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

    def __float__(self) -> float:
        return self.value


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


def doeblin_hitting_times(policy: StationaryPolicy, inst: Instance) -> np.ndarray:
    """Expected first passage times to the all-threshold state, per start index.

    The entry at the all-threshold state itself is the expected return time
    (minimum over t > 0), not zero.
    """
    inst.require_interior_reliabilities()
    policy.validate(inst)
    indexer = inst.indexer()
    target = indexer.index(inst.thresholds)
    prob = transition_matrix(policy, inst)
    n_states = indexer.total_states
    others = [i for i in range(n_states) if i != target]
    sub = prob[np.ix_(others, others)]
    try:
        h = np.linalg.solve(np.eye(len(others)) - sub, np.ones(len(others)))
    except np.linalg.LinAlgError as exc:  # unreachable for interior reliabilities
        raise StructuralError("all-threshold state is not reachable under this policy") from exc
    out = np.empty(n_states)
    for pos, i in enumerate(others):
        out[i] = h[pos]
    out[target] = 1.0 + prob[target, others] @ h
    return out


def cycle_expectations(
    policy: StationaryPolicy, inst: Instance, regen: State
) -> tuple[float, float]:
    """Exact renewal-cycle expectations (E[cycle cost], E[cycle length]).

    A cycle runs from one pre-transition visit of ``regen`` to the next; the
    multiplicative cycle cost is the product of the per-slot cost factors over
    the cycle's slots.  Serves as the population counterpart of the Monte
    Carlo cycle estimator.  Raises if the cost expectation diverges (the
    excursion matrix must be a strict contraction) or if the renewal state is
    not recurrent under the policy.
    """
    inst.require_interior_reliabilities()
    policy.validate(inst)
    indexer = inst.indexer()
    s0 = indexer.index(tuple(regen))
    prob = transition_matrix(policy, inst)
    structure = communicating_structure(prob)
    if not any(s0 in cls for cls in structure.closed_classes):
        raise StructuralError("renewal state is not recurrent under this policy")
    n_states = indexer.total_states
    others = [i for i in range(n_states) if i != s0]
    h = np.linalg.solve(np.eye(n_states - 1) - prob[np.ix_(others, others)], np.ones(n_states - 1))
    e_len = 1.0 + prob[s0, others] @ h
    weighted = transition_tables(inst).cost[:, None] * prob
    excursion = weighted.copy()
    excursion[:, s0] = 0.0
    rho_exc = spectral_radius(excursion).value
    if rho_exc >= 1.0:
        raise StructuralError(
            f"cycle cost expectation diverges (excursion radius {rho_exc:.6f} >= 1)"
        )
    m = np.linalg.solve(np.eye(n_states) - excursion, weighted[:, s0])
    return float(m[s0]), float(e_len)


def policy_count(inst: Instance, ne_only: bool, cap: int) -> int:
    """How many decision maps ``exhaustive_optimal`` enumerates, counted until the count passes ``cap``.

    With ``ne_only`` and two or more clients, no client may be served in its
    own exclusion state.  The count is exact up to ``cap``; above it, the
    first partial product past ``cap`` is returned.
    """
    n = inst.n_clients
    excluded = n if ne_only and n >= 2 else 0
    count = (n - 1) ** excluded
    for _ in range(inst.total_states - excluded):
        if count > cap:
            break
        count *= n
    return count


def exhaustive_optimal(
    inst: Instance,
    ne_only: bool = True,
    policy_cap: int = 2_000_000,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[StationaryPolicy, SolveReport]:
    """Best stationary policy by direct enumeration.

    By default only policies avoiding every exclusion state are enumerated
    (the rest are dominated or pinned); pass ``ne_only=False`` to enumerate
    all decision maps.  Ties favor the lexicographically smallest decision array.
    """
    inst.require_interior_reliabilities()
    count = policy_count(inst, ne_only, policy_cap)
    if count > policy_cap:
        raise ResourceLimitError(
            f"{count}+ policies exceed the enumeration cap of {policy_cap}; "
            "use growth_rate_optimal instead"
        )
    indexer = inst.indexer()
    n = inst.n_clients
    allowed: list[tuple[int, ...]] = [tuple(range(1, n + 1))] * indexer.total_states
    if ne_only and n >= 2:
        for client in range(1, n + 1):
            idx = indexer.index(exclusion_state(inst.thresholds, client))
            allowed[idx] = tuple(u for u in allowed[idx] if u != client)
    best_policy: np.ndarray | None = None
    best_report: SolveReport | None = None
    for decisions in product(*allowed):
        policy = StationaryPolicy(np.asarray(decisions, dtype=np.int64))
        report = average_cost(policy, inst, tol=tol, max_iter=max_iter)
        if best_report is None or report.average_cost < best_report.average_cost:
            best_policy = policy.decisions
            best_report = report
    assert best_policy is not None and best_report is not None
    return StationaryPolicy(best_policy), best_report


@dataclass(frozen=True)
class GrowthRateResult:
    average_cost: float
    growth_rate: float
    policy: StationaryPolicy
    iterations: int
    converged: bool


def growth_rate_optimal(
    inst: Instance,
    tol: float = 1e-10,
    max_iter: int = 200_000,
    window: int = 32,
) -> GrowthRateResult:
    """Optimal average cost by normalized iteration of the one-step minimization.

    Each sweep applies the optimal one-step operator and renormalizes in sup
    norm; the normalization factors converge to the optimal growth rate.  The
    returned rate is the geometric mean over a trailing window, declared
    converged once the window's log spread falls below ``tol``.  The greedy
    policy of the final iterate is returned alongside.
    """
    inst.require_interior_reliabilities()
    tables = transition_tables(inst)
    ps = np.asarray(inst.reliabilities)

    v = np.ones(tables.indexer.total_states)
    log_factors: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        bell = tables.cost * _lookahead(tables, ps, v).min(axis=0)
        lam = bell.max()
        v = bell / lam
        log_factors.append(math.log(lam))
        if len(log_factors) >= window:
            tail = log_factors[-window:]
            if max(tail) - min(tail) < tol:
                converged = True
                break
    tail = log_factors[-window:] if len(log_factors) >= window else log_factors
    growth = math.exp(sum(tail) / len(tail))

    greedy = StationaryPolicy(_lookahead(tables, ps, v).argmin(axis=0) + 1)
    return GrowthRateResult(
        average_cost=math.log(growth) / inst.theta,
        growth_rate=growth,
        policy=greedy,
        iterations=iterations,
        converged=converged,
    )
