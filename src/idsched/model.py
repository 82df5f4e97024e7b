"""Problem instances, state spaces, one-step transitions, and the slot cost.

The scheduler serves one client per slot over unreliable channels.  The
state tracks, per client, the number of slots elapsed since that client's
last successful delivery.  Two state-space flavors exist:

* unbounded: elapsed times grow without bound (used for equivalence and
  scaling tests of the dynamic programs);
* clipped: elapsed times saturate componentwise at the per-client
  thresholds, which yields the finite space all solvers operate on.

States are plain tuples of ints; all types here are immutable and all
operations are pure functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

State = tuple  # tuple[int, ...]; clipped states satisfy 0 <= x_n <= tau_n

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class Instance:
    """Problem data: per-client thresholds and reliabilities plus the risk exponent.

    ``allow_endpoint_reliabilities`` admits p in {0, 1} for deterministic
    simulation sanity checks only; solver entry points reject such instances
    via :meth:`require_interior_reliabilities`.
    """

    thresholds: tuple[int, ...]
    reliabilities: tuple[float, ...]
    theta: float
    allow_endpoint_reliabilities: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        object.__setattr__(self, "reliabilities", tuple(float(p) for p in self.reliabilities))
        object.__setattr__(self, "theta", float(self.theta))
        if not self.thresholds:
            raise ValueError("at least one client is required")
        if len(self.reliabilities) != len(self.thresholds):
            raise ValueError("thresholds and reliabilities must have equal length")
        if any(t < 1 for t in self.thresholds):
            raise ValueError("every threshold must be a positive integer")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        for p in self.reliabilities:
            if self.allow_endpoint_reliabilities:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"reliability {p} outside [0, 1]")
            elif not 0.0 < p < 1.0:
                raise ValueError(f"reliability {p} must lie strictly inside (0, 1)")
        total = 1
        for t in self.thresholds:
            total *= t + 1
        # dense indexing relies on a native-width state index
        if total > _UINT64_MAX:
            raise ValueError("state space does not fit a 64-bit index")

    @property
    def n_clients(self) -> int:
        return len(self.thresholds)

    @property
    def total_states(self) -> int:
        total = 1
        for t in self.thresholds:
            total *= t + 1
        return total

    def require_interior_reliabilities(self) -> None:
        """Reject endpoint reliabilities; exact solvers need 0 < p < 1."""
        if any(not 0.0 < p < 1.0 for p in self.reliabilities):
            raise ValueError("exact solvers require reliabilities strictly inside (0, 1)")

    def indexer(self) -> "StateIndexer":
        return StateIndexer(self.thresholds)

    def to_json(self) -> dict:
        return {"taus": list(self.thresholds), "ps": list(self.reliabilities), "theta": self.theta}

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        return cls(tuple(obj["taus"]), tuple(obj["ps"]), obj["theta"])


@dataclass(frozen=True)
class AsymptoticInstance:
    """High-reliability parameterization: p_n = 1 - b_n * epsilon.

    Materialize eagerly via :meth:`materialize`; downstream code only ever
    sees :class:`Instance`.
    """

    thresholds: tuple[int, ...]
    coefficients: tuple[float, ...]
    epsilon: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        object.__setattr__(self, "coefficients", tuple(float(b) for b in self.coefficients))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "theta", float(self.theta))
        if len(self.coefficients) != len(self.thresholds):
            raise ValueError("thresholds and coefficients must have equal length")
        if any(b <= 0 for b in self.coefficients):
            raise ValueError("failure coefficients must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if any(b * self.epsilon >= 1 for b in self.coefficients):
            raise ValueError("b_n * epsilon must stay below 1 so every reliability is positive")

    @property
    def n_clients(self) -> int:
        return len(self.thresholds)

    def materialize(self) -> Instance:
        ps = tuple(1.0 - b * self.epsilon for b in self.coefficients)
        return Instance(self.thresholds, ps, self.theta)

    def with_epsilon(self, epsilon: float) -> "AsymptoticInstance":
        return AsymptoticInstance(self.thresholds, self.coefficients, epsilon, self.theta)

    def with_theta(self, theta: float) -> "AsymptoticInstance":
        return AsymptoticInstance(self.thresholds, self.coefficients, self.epsilon, theta)

    def to_json(self) -> dict:
        return {
            "taus": list(self.thresholds),
            "bs": list(self.coefficients),
            "epsilon": self.epsilon,
            "theta": self.theta,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AsymptoticInstance":
        return cls(tuple(obj["taus"]), tuple(obj["bs"]), obj["epsilon"], obj["theta"])


def instance_from_json(obj: dict | str) -> Instance | AsymptoticInstance:
    """Load either instance form; the asymptotic form is recognized by its "bs" key."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "bs" in obj:
        return AsymptoticInstance.from_json(obj)
    return Instance.from_json(obj)


@dataclass(frozen=True)
class StateIndexer:
    """Mixed-radix bijection between clipped states and dense indices.

    The index is strictly monotone in lexicographic state order, so index 0
    is the all-zeros state and index ``total_states - 1`` is the all-threshold
    state.
    """

    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t + 1 for t in self.thresholds)

    @property
    def total_states(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total

    def _strides(self) -> tuple[int, ...]:
        strides = [1] * len(self.thresholds)
        for i in range(len(self.thresholds) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.dims[i + 1]
        return tuple(strides)

    def index(self, state: State) -> int:
        if len(state) != len(self.thresholds):
            raise ValueError("state arity mismatch")
        idx = 0
        for x, t, s in zip(state, self.thresholds, self._strides()):
            if not 0 <= x <= t:
                raise ValueError(f"state component {x} outside [0, {t}]")
            idx += x * s
        return idx

    def deindex(self, idx: int) -> State:
        if not 0 <= idx < self.total_states:
            raise ValueError("index out of range")
        out = []
        for s, d in zip(self._strides(), self.dims):
            q, idx = divmod(idx, s)
            out.append(q)
        return tuple(out)

    def states(self) -> Iterator[State]:
        """All states in index (lexicographic) order."""
        return product(*(range(d) for d in self.dims))


@dataclass(frozen=True)
class StepDistribution:
    """Two-branch one-step law: a success branch and a failure branch."""

    success_state: State
    success_prob: float
    failure_state: State
    failure_prob: float


def successor_on_success(x: State, u: int, thresholds: tuple[int, ...] | None = None) -> State:
    """State after a successful transmission for client ``u`` (1-based).

    Component ``u`` resets to 0; every other component advances by one slot.
    Pass ``thresholds`` to clip componentwise (the finite-space dynamics);
    omit it for the unbounded dynamics.
    """
    if not 1 <= u <= len(x):
        raise ValueError(f"client index {u} outside 1..{len(x)}")
    if thresholds is None:
        return tuple(0 if i == u - 1 else xi + 1 for i, xi in enumerate(x))
    return tuple(
        0 if i == u - 1 else min(xi + 1, t) for i, (xi, t) in enumerate(zip(x, thresholds))
    )


def successor_on_failure(x: State, thresholds: tuple[int, ...] | None = None) -> State:
    """State after a failed slot: every component advances by one."""
    if thresholds is None:
        return tuple(xi + 1 for xi in x)
    return tuple(min(xi + 1, t) for xi, t in zip(x, thresholds))


def step_distribution(x: State, u: int, inst: Instance) -> StepDistribution:
    """One-step transition law from clipped state ``x`` when serving client ``u``."""
    taus = inst.thresholds
    if len(x) != inst.n_clients:
        raise ValueError("state arity mismatch")
    for xi, t in zip(x, taus):
        if not 0 <= xi <= t:
            raise ValueError(f"state component {xi} outside [0, {t}]")
    p = inst.reliabilities[u - 1]
    return StepDistribution(
        success_state=successor_on_success(x, u, taus),
        success_prob=p,
        failure_state=successor_on_failure(x, taus),
        failure_prob=1.0 - p,
    )


def exceedance_count(x: State, thresholds: tuple[int, ...]) -> int:
    """Number of clients sitting exactly at their threshold."""
    return sum(1 for xi, t in zip(x, thresholds) if xi == t)


def slot_cost(x: State, inst: Instance) -> float:
    """Per-slot multiplicative cost exp(theta * #{clients at threshold})."""
    return math.exp(inst.theta * exceedance_count(x, inst.thresholds))


def exclusion_state(thresholds: tuple[int, ...], n: int) -> State:
    """State with client ``n`` freshly served (0) and everyone else at threshold."""
    if not 1 <= n <= len(thresholds):
        raise ValueError(f"client index {n} outside 1..{len(thresholds)}")
    return tuple(0 if i == n - 1 else t for i, t in enumerate(thresholds))


@dataclass(frozen=True, eq=False)
class TransitionTables:
    """Dense per-state transition helpers shared by the solvers.

    ``succ[s, u-1]`` is the index of the success successor when serving u,
    ``fail[s]`` the failure successor, ``hits[s]`` the threshold-exceedance
    count, and ``cost[s]`` the per-slot cost factor.  ``succ`` is stored
    client-major (``succ.T`` is contiguous), so the Bellman lookahead gathers
    each client's successors in one pass.
    """

    indexer: StateIndexer
    succ: np.ndarray
    fail: np.ndarray
    hits: np.ndarray
    cost: np.ndarray


@lru_cache(maxsize=64)
def transition_tables(inst: Instance) -> TransitionTables:
    indexer = inst.indexer()
    dims = indexer.dims
    n = inst.n_clients
    grids = np.indices(dims).reshape(n, -1)  # (N, S) component values in index order
    taus = np.asarray(inst.thresholds)

    advanced = np.minimum(grids + 1, taus[:, None])
    fail = np.ravel_multi_index(advanced, dims)
    succ = np.empty((n, indexer.total_states), dtype=np.int64)
    for u in range(n):
        comp = advanced.copy()
        comp[u] = 0
        succ[u] = np.ravel_multi_index(comp, dims)
    hits = (grids == taus[:, None]).sum(axis=0).astype(np.int64)
    cost = np.exp(inst.theta * hits)
    return TransitionTables(indexer=indexer, succ=succ.T, fail=fail.astype(np.int64), hits=hits, cost=cost)
