"""Baseline scheduling policies as finite chains: round-robin and periodic.

The round-robin baseline is packet-level: the token holder keeps the slot
until a delivery succeeds, then the token rotates.  The periodic baseline is
open loop: a fixed cyclic sequence indexed by the wall clock, never by state.
Its sequence is the one of least failure-free exceedance rate, a closed form
of each client's service gaps, found by visiting every rotation class of
every period up to a bound once, as its least rotation (necklace
generation); the search is exponential in that bound.  The delivery-debt
baseline (WDD), which serves the client with the largest weighted delivery
debt, has no finite chain in general; ``sim`` simulates it as a chain on
its exact integer key differences, clipped to a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exact import Chain
from .model import Instance


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
    """Steady-state threshold exceedances per slot when every transmission succeeds.

    Over a gap of g slots between two services of client c (cyclically), c
    sits at its threshold in ``max(0, g - tau_c)`` of them; a client the
    sequence never serves sits there in every slot.
    """
    period = len(sequence)
    last = {c: t - period for t, c in enumerate(sequence)}  # each client's last service, one period back
    hits = (len(thresholds) - len(last)) * period
    for t, c in enumerate(sequence):
        hits += max(0, t - last[c] - thresholds[c - 1])
        last[c] = t
    return hits / period


def _necklaces(n: int, length: int):
    """Sequences over 1..n of ``length``, one per rotation class as its least rotation, in lexicographic order.

    The FKM walk (Ruskey, Savage & Wang, J. Algorithms 13, 1992): ``word``
    runs through the Lyndon words of length up to ``length`` in order, and
    each one whose length divides ``length``, repeated, is a necklace.  The
    words, extended periodically to ``length``, are the prenecklaces in
    lexicographic order, so the necklaces come in that order too.
    """
    word = [0]
    while word:
        word[-1] += 1
        if length % len(word) == 0:
            yield tuple(word * (length // len(word)))
        word = (word * length)[:length]
        while word and word[-1] == n:
            word.pop()


def build_periodic_schedule(inst: Instance, max_period: int) -> PeriodicSchedule:
    """Search cyclic sequences (up to rotation) for the best failure-free cost.

    Minimizes the deterministic steady-state exceedance rate; ties prefer the
    shortest period, then the lexicographically smallest sequence.  Exhaustive
    over the rotation classes of periods up to ``max_period``, so exponential
    in it; a zero-cost schedule ends the search early since nothing can beat it.
    """
    n = inst.n_clients
    if max_period < n:
        raise ConfigError(f"max_period {max_period} cannot cover {n} clients")
    best: tuple[float, tuple[int, ...]] | None = None
    for period in range(n, max_period + 1):
        for seq in _necklaces(n, period):
            if len(set(seq)) != n:
                continue
            cost = deterministic_cycle_cost(seq, inst.thresholds)
            if best is None or cost < best[0]:
                best = (cost, seq)
                if cost == 0.0:
                    return PeriodicSchedule(seq, n)
    assert best is not None
    return PeriodicSchedule(best[1], n)


# ---------------------------------------------------------------------------
# the finite-memory baselines as chains


def prr_chain(inst: Instance) -> Chain:
    """Packet-level round robin as a chain on (state, token), index ``state_index * N + token - 1``.

    The token holder is served; a delivery passes the token on, a failure
    keeps it.  The token starts at client 1.
    """
    n = inst.n_clients
    token = np.tile(np.arange(n), inst.total_states)
    return Chain.augmented(inst, n, token, (token + 1) % n, token)


def periodic_chain(inst: Instance, sched: PeriodicSchedule) -> Chain:
    """A periodic schedule as a chain on (state, phase), index ``state_index * period + phase``.

    Phase ``t mod period`` serves ``sequence[phase]``; every slot advances
    the phase, whatever the channel outcome.  The phase starts at 0.
    """
    phase = np.tile(np.arange(sched.period), inst.total_states)
    following = (phase + 1) % sched.period
    client = np.asarray(sched.sequence)[phase] - 1
    return Chain.augmented(inst, sched.period, client, following, following)
