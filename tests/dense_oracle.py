"""Dense oracle for the exact layer, built state by state from the model.

The matrices come from ``model.step_distribution`` and ``model.slot_cost``
alone, so they are independent of ``exact.Chain`` and of the array tables
the program evaluates.  They are cubic in the state count: desk scale only.
Besides J, the matrices give the renewal-cycle expectations at a recurrent
state, which check the closed forms' renewal reading.
"""

import math

import numpy as np

from idsched.model import slot_cost, step_distribution


def dense_chain(inst, memory, serve, advance):
    """The cost-weighted matrix ``W`` of a chain on (clipped state, memory) and its reachability closure.

    State ``(x, m)`` has index ``indexer.index(x) * memory + m``, as in
    ``exact.Chain.augmented``.  ``serve(x, m)`` is the client (1-based)
    served there and ``advance(m, delivered)`` the next memory.  ``W[i, j]``
    is the slot cost at ``i`` times the probability of moving to ``j``, and
    ``reach[i, j]`` is true iff ``j`` is reachable from ``i`` in zero or
    more steps.
    """
    indexer = inst.indexer()
    n = inst.total_states * memory
    weighted = np.zeros((n, n))
    for x in indexer.states():
        cost = slot_cost(x, inst)
        for m in range(memory):
            i = indexer.index(x) * memory + m
            step = step_distribution(x, serve(x, m), inst)
            weighted[i, indexer.index(step.success_state) * memory + advance(m, True)] += cost * step.success_prob
            weighted[i, indexer.index(step.failure_state) * memory + advance(m, False)] += cost * step.failure_prob
    reach = np.eye(n, dtype=bool) | (weighted > 0)
    while True:
        grown = (reach.astype(float) @ reach.astype(float)) > 0
        if np.array_equal(grown, reach):
            return weighted, reach
        reach = grown


def stationary_dense(policy, inst):
    """``dense_chain`` of a stationary policy, indexed like the clipped states."""
    indexer = inst.indexer()
    return dense_chain(inst, 1, lambda x, m: int(policy.decisions[indexer.index(x)]), lambda m, delivered: 0)


def recurrent(reach):
    """The states in a closed class: every state they reach leads back to them."""
    return (reach <= reach.T).all(axis=1)


def eigvals_cost(inst, memory, serve, advance):
    """J from ``numpy.linalg.eigvals`` on what the all-threshold state with memory 0 reaches.

    The Perron root is taken of ``W - I``, and J is its ``log1p`` over theta.
    """
    weighted, reach = dense_chain(inst, memory, serve, advance)
    keep = reach[inst.indexer().index(inst.thresholds) * memory]
    excess = weighted[np.ix_(keep, keep)] - np.eye(keep.sum())
    return math.log1p(np.linalg.eigvals(excess).real.max()) / inst.theta


def cycle_expectations(policy, inst, regen):
    """Renewal-cycle expectations ``(E[cycle cost], E[cycle length])`` of a stationary policy at state ``regen``.

    A cycle runs from one pre-transition visit of ``regen`` to the next, and
    its cost is the product of the slot costs over its slots.  With ``K`` a
    matrix less ``regen``'s column, ``(I - K) x = b`` gives each state's
    expectation up to the first visit of ``regen``, and ``regen``'s own
    entry is the return quantity: ``K`` the transition matrix and ``b = 1``
    give the lengths, ``K`` the cost-weighted ``W`` and ``b`` its column
    into ``regen`` the costs.  A second right-hand side of ones certifies
    that the cost is finite: the weighted ``K`` has spectral radius below one
    iff that solution is strictly positive (Collatz-Wielandt).
    """
    weighted, reach = stationary_dense(policy, inst)
    s0, n = inst.indexer().index(regen), len(weighted)
    if not recurrent(reach)[s0]:
        raise ValueError("the renewal state is not recurrent under this policy")

    def excursion(mat):
        less = mat.copy()
        less[:, s0] = 0.0
        return np.eye(n) - less, mat[:, s0]

    ones = np.ones(n)
    e_len = np.linalg.solve(excursion(weighted / weighted.sum(axis=1, keepdims=True))[0], ones)[s0]
    kernel, into = excursion(weighted)
    m, z = np.linalg.solve(kernel, np.stack([into, ones], axis=1)).T
    if not (z > 0).all():
        raise ValueError("the cycle cost expectation diverges (excursion radius >= 1)")
    return float(m[s0]), float(e_len)
