"""Baseline scheduling policies as finite chains: round-robin and periodic.

The round-robin baseline is packet-level: the token holder keeps the slot
until a delivery succeeds, then the token rotates.  The periodic baseline is
open loop: a fixed cyclic sequence indexed by the wall clock, never by state.
The delivery-debt baseline (WDD), which serves the client with the largest
weighted delivery debt, has no finite chain in general; ``sim`` simulates
it as a chain on its exact integer key differences, clipped to a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .exact import Chain
from .model import Instance, State, successor_on_success


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
# the finite-memory baselines as chains


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
