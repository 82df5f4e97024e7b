"""Per-slot reference simulator, written state by state against the model.

A policy is a triple ``(memory, serve, advance)``: the memory it starts with,
``serve(x, m)``, the client (1-based) it serves at clipped state ``x`` with
memory ``m``, and ``advance(m, u, delivered)``, its next memory.  Each slot
steps through ``model.step_distribution`` and reads the trial's uniforms
through ``sim._slices``, as the batch engines do.  Nothing here reads
``exact.Chain``, so testing the batch engines against it is not circular.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from idsched import sim
from idsched.model import exceedance_count, step_distribution


def stationary(policy, inst):
    """A stationary policy: no memory, the decision of the state's index."""
    indexer = inst.indexer()
    return None, lambda x, m: int(policy.decisions[indexer.index(x)]), lambda m, u, delivered: m


def prr(n_clients):
    """Packet-level round robin on its token (0-based), which moves on only on a delivery."""
    return 0, lambda x, m: m + 1, lambda m, u, delivered: (m + 1) % n_clients if delivered else m


def ps(sequence):
    """A periodic schedule on its phase, which advances every slot, blind to state and outcome."""
    return 0, lambda x, m: sequence[m], lambda m, u, delivered: (m + 1) % len(sequence)


def wdd(inst):
    """Weighted delivery debt on the ledger ``(t, M)`` of elapsed slots and delivery counts.

    It serves the first client with the largest debt ``(t - tau M) / (tau p)``
    (``t / (p tau) - M / p``), with each reliability ``p`` taken as the
    nearest fraction with a denominator of at most 10**6.  Over those
    fractions ``P / Q`` the debts are the integer keys ``(t - tau M) w`` up to
    a common factor, ``w = L' / (tau P)`` and ``L' = lcm(tau P)``, so ties
    go to the lowest client exactly.
    """
    fracs = [Fraction(p).limit_denominator(10**6) for p in inst.reliabilities]
    q = math.lcm(*(f.denominator for f in fracs))
    scaled = [tau * int(f * q) for tau, f in zip(inst.thresholds, fracs)]
    weights = [math.lcm(*scaled) // x for x in scaled]

    def serve(x, ledger):
        t, counts = ledger
        keys = [(t - tau * m) * w for tau, m, w in zip(inst.thresholds, counts, weights)]
        return keys.index(max(keys)) + 1

    def advance(ledger, u, delivered):
        t, counts = ledger
        return t + 1, tuple(m + (delivered and i == u - 1) for i, m in enumerate(counts))

    return (0, (0,) * inst.n_clients), serve, advance


@dataclass
class Trial:
    """A trial's block exceedance totals (post-warmup slots only) and, from ``run_trial``, each client's delivery slots."""

    block_exceedances: np.ndarray
    delivery_slots: list = None

    @property
    def exceedance_total(self):
        return int(self.block_exceedances.sum())

    @property
    def deliveries(self):
        return tuple(len(slots) for slots in self.delivery_slots)


def tally_trials(blocks, points):
    """A batch engine's block totals ``(rows, blocks)`` as ``Trial`` records, one list per point."""
    trials = [Trial(row) for row in blocks]
    size = len(trials) // points
    return [trials[g * size : (g + 1) * size] for g in range(points)]


def run_trial(inst, policy, horizon, trial_seed, start, warmup=0):
    """Simulate ``warmup + horizon`` slots from ``start``, accounting only the last ``horizon``.

    Each slot charges the pre-transition state's exceedance count to its
    ``sim.block_edges(horizon)`` block, serves the policy's client, draws
    the channel outcome and steps.
    """
    memory, serve, advance = policy
    state = tuple(start)
    blocks = np.zeros(len(sim.block_edges(horizon)), dtype=np.int64)
    slots = [[] for _ in range(inst.n_clients)]
    seed, trial = trial_seed
    for t0, uniforms, block in sim._slices(seed, [trial], warmup, horizon):
        for t, draw in enumerate(uniforms[:, 0].tolist(), t0):
            if t >= warmup:
                blocks[block] += exceedance_count(state, inst.thresholds)
            u = serve(state, memory)
            step = step_distribution(state, u, inst)
            delivered = draw < step.success_prob
            if delivered and t >= warmup:
                slots[u - 1].append(t)
            state = step.success_state if delivered else step.failure_state
            memory = advance(memory, u, delivered)
    return Trial(block_exceedances=blocks, delivery_slots=slots)
