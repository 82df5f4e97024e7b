"""Baseline scheduling policies: round-robin, delivery debt, periodic.

The round-robin baseline is packet-level: the token holder keeps the slot
until a delivery succeeds, then the token rotates.  The debt baseline serves
the client with the largest weighted delivery debt.  The periodic baseline is
open loop: a fixed cyclic sequence indexed by the wall clock, never by state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .exact import DEFAULT_MAX_ITER, DEFAULT_TOL, Chain, SolveReport, chain_average_cost
from .model import Instance, State, successor_on_success


@dataclass(frozen=True)
class RoundRobinState:
    """Token position for packet-level round robin."""

    current: int
    n_clients: int

    def __post_init__(self) -> None:
        if not 1 <= self.current <= self.n_clients:
            raise ValueError("token outside 1..N")


def prr_decide(rr: RoundRobinState) -> int:
    return rr.current


def prr_advance(rr: RoundRobinState, delivered: bool) -> RoundRobinState:
    """Rotate the token only on delivery; failures retry the same client."""
    if not delivered:
        return rr
    return RoundRobinState(current=rr.current % rr.n_clients + 1, n_clients=rr.n_clients)


@dataclass(frozen=True)
class DebtLedger:
    """Elapsed slots and per-client delivered-packet counts."""

    t: int
    deliveries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t < 0 or any(m < 0 for m in self.deliveries):
            raise ValueError("ledger entries must be nonnegative")
        if any(m > self.t for m in self.deliveries):
            raise ValueError("cannot have delivered more packets than elapsed slots")

    @classmethod
    def fresh(cls, n_clients: int) -> "DebtLedger":
        return cls(t=0, deliveries=(0,) * n_clients)

    def after_slot(self, delivered_client: int | None) -> "DebtLedger":
        """Advance one slot, crediting a delivery to ``delivered_client`` if any."""
        if delivered_client is None:
            return DebtLedger(self.t + 1, self.deliveries)
        ms = list(self.deliveries)
        ms[delivered_client - 1] += 1
        return DebtLedger(self.t + 1, tuple(ms))


def wdd_decide(ledger: DebtLedger, inst: Instance) -> int:
    """Largest weighted delivery debt ``t / (p_n tau_n) - M_n / p_n``; ties to the lowest client."""
    best_u, best_debt = 1, -math.inf
    for n in range(inst.n_clients):
        debt = ledger.t / (inst.reliabilities[n] * inst.thresholds[n]) - ledger.deliveries[
            n
        ] / inst.reliabilities[n]
        if debt > best_debt:
            best_u, best_debt = n + 1, debt
    return best_u


@dataclass(frozen=True)
class PeriodicSchedule:
    """Fixed cyclic service order; must mention every client at least once."""

    sequence: tuple[int, ...]
    n_clients: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", tuple(int(u) for u in self.sequence))
        if not self.sequence:
            raise ValueError("schedule must be nonempty")
        if any(not 1 <= u <= self.n_clients for u in self.sequence):
            raise ValueError("schedule contains an invalid client index")
        if set(self.sequence) != set(range(1, self.n_clients + 1)):
            raise ValueError("every client must appear in the schedule")

    @property
    def period(self) -> int:
        return len(self.sequence)

    def to_json(self) -> dict:
        return {"sequence": list(self.sequence)}

    @classmethod
    def from_json(cls, obj: dict, n_clients: int) -> "PeriodicSchedule":
        return cls(tuple(obj["sequence"]), n_clients)


def ps_decide(sched: PeriodicSchedule, t: int) -> int:
    """Clock-driven decision; deliberately blind to the system state."""
    if t < 0:
        raise ValueError("slot index must be nonnegative")
    return sched.sequence[t % sched.period]


def deterministic_cycle_cost(sequence: tuple[int, ...], thresholds: tuple[int, ...]) -> float:
    """Steady-state threshold exceedances per slot when every transmission succeeds."""
    n = len(thresholds)
    state: State = (0,) * n
    period = len(sequence)
    # two warm cycles reach the schedule-induced periodic orbit
    for t in range(2 * period):
        state = successor_on_success(state, sequence[t % period], thresholds)
    hits = 0
    for t in range(period):
        hits += sum(1 for x, tau in zip(state, thresholds) if x == tau)
        state = successor_on_success(state, sequence[t % period], thresholds)
    return hits / period


def _is_minimal_rotation(seq: tuple[int, ...]) -> bool:
    for shift in range(1, len(seq)):
        if seq[shift:] + seq[:shift] < seq:
            return False
    return True


def build_periodic_schedule(inst: Instance, max_period: int) -> PeriodicSchedule:
    """Search cyclic sequences (up to rotation) for the best failure-free cost.

    Minimizes the deterministic steady-state exceedance rate; ties prefer the
    shortest period, then the lexicographically smallest sequence.  Exhaustive
    over periods up to ``max_period``, which is adequate at desk scale; a
    zero-cost schedule ends the search early since nothing can beat it.
    """
    n = inst.n_clients
    if max_period < n:
        raise ConfigError(f"max_period {max_period} cannot cover {n} clients")
    best: tuple[float, int, tuple[int, ...]] | None = None
    for period in range(n, max_period + 1):
        for seq in product(range(1, n + 1), repeat=period):
            if len(set(seq)) != n:
                continue
            if not _is_minimal_rotation(seq):
                continue
            cost = deterministic_cycle_cost(seq, inst.thresholds)
            if best is None or cost < best[0]:
                best = (cost, period, seq)
                if cost == 0.0:
                    return PeriodicSchedule(seq, n)
    assert best is not None
    return PeriodicSchedule(best[2], n)


# ---------------------------------------------------------------------------
# exact evaluation of the finite-memory baselines


def prr_chain(inst: Instance, start: State | None = None) -> Chain:
    """Packet-level round robin as a chain on (state, token), index ``state_index * N + token - 1``.

    The token holder is served; a delivery passes the token on, a failure
    keeps it.  The token starts at client 1.
    """
    n = inst.n_clients
    token = np.tile(np.arange(n), inst.total_states)
    return Chain.augmented(inst, n, token, (token + 1) % n, token, start)


def periodic_chain(inst: Instance, sched: PeriodicSchedule, start: State | None = None) -> Chain:
    """A periodic schedule as a chain on (state, phase), index ``state_index * period + phase``.

    Phase ``t mod period`` serves ``sequence[phase]``; every slot advances
    the phase, whatever the channel outcome.  The phase starts at 0.
    """
    phase = np.tile(np.arange(sched.period), inst.total_states)
    following = (phase + 1) % sched.period
    client = np.asarray(sched.sequence)[phase] - 1
    return Chain.augmented(inst, sched.period, client, following, following, start)


def prr_average_cost(inst: Instance, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Exact average cost of packet-level round robin via the token-augmented chain.

    Reported state sets use augmented indices ``state_index * N + token - 1``.
    """
    inst.require_interior_reliabilities()
    return chain_average_cost(prr_chain(inst), inst.theta, tol=tol, max_iter=max_iter)


def periodic_schedule_average_cost(
    inst: Instance,
    sched: PeriodicSchedule,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Exact average cost of an open-loop periodic schedule via the phase-augmented chain.

    Reported state sets use augmented indices ``state_index * period + phase``,
    and the spectral radius is the growth per slot.
    """
    inst.require_interior_reliabilities()
    return chain_average_cost(periodic_chain(inst, sched), inst.theta, tol=tol, max_iter=max_iter)
