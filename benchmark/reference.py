"""Independent exact evaluation of the risk-sensitive average cost.

Builds each policy's chain from the model's definition, without the
program's transition tables or solvers:

* a clipped state holds, per client, the slots since its last delivery,
  saturated at the client's threshold; states are indexed in lexicographic
  (C) order, the order a stationary policy's decision array uses;
* serving client ``u`` succeeds with probability ``p_u`` (``u`` resets to 0,
  every other client advances by one) or fails (every client advances);
* the slot pays ``exp(theta * k)``, ``k`` the clients at their threshold in
  the state the slot starts from.

The cost-weighted matrix is ``W = diag(exp(theta * k)) P`` and the average
cost is ``J = ln(rho(W)) / theta``.  Near epsilon -> 0, ``rho - 1`` is so
small that ``rho`` holds only its first few digits (at ``rho - 1 = 2e-12``,
about four), so the Perron root is taken in excess form: the
largest real eigenvalue ``r`` of ``W - I = diag(expm1(theta * k)) P + (P - I)``
over the states reachable from the start, from ``numpy.linalg.eigvals``, and
``J = log1p(r) / theta``.  The Perron root of the nonnegative ``W`` bounds the
modulus of every eigenvalue, so it is the eigenvalue of ``W - I`` with the
largest real part.

Every value is solved live; nothing is stored.  The dense matrix covers only
the reachable states, so the largest chain the benchmark checks (round robin
on thresholds (7, 10, 13): 3,696 token-augmented states) solves in well under
a second.

Run ``python3 benchmark/reference.py`` to check the evaluator against closed
forms (``self_test``); the benchmark runs the same self-test on every run.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SELF_TEST_FLOOR = 5e-4  # relative accuracy the closed-form self-test asks of the evaluator


def _clipped_moves(taus: tuple[int, ...]):
    """``(succ, fail, hits)``: success successor per client, failure successor, clients at threshold."""
    dims = tuple(t + 1 for t in taus)
    grid = np.indices(dims).reshape(len(taus), -1)
    cap = np.asarray(taus)[:, None]
    advanced = np.minimum(grid + 1, cap)
    fail = np.ravel_multi_index(advanced, dims)
    succ = np.empty((grid.shape[1], len(taus)), dtype=np.int64)
    for u in range(len(taus)):
        served = advanced.copy()
        served[u] = 0
        succ[:, u] = np.ravel_multi_index(served, dims)
    hits = (grid == cap).sum(axis=0)
    return succ, fail, hits


def _all_threshold_index(taus: tuple[int, ...]) -> int:
    return int(np.ravel_multi_index(tuple(taus), tuple(t + 1 for t in taus)))


def _reachable(succ: np.ndarray, fail: np.ndarray, start: int) -> np.ndarray:
    """Sorted indices reachable from ``start`` along the two successor arrays."""
    seen = np.zeros(len(fail), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        nxt = np.unique(np.concatenate([succ[frontier], fail[frontier]]))
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return np.flatnonzero(seen)


def _excess(prob: np.ndarray, hits: np.ndarray, theta: float) -> np.ndarray:
    """``W - I`` for ``W = diag(exp(theta * hits)) prob``, formed as
    ``diag(expm1(theta * hits)) prob + (prob - I)`` so that no digit of ``rho - 1`` is lost."""
    excess = np.expm1(theta * hits)[:, None] * prob + prob
    excess[np.diag_indices_from(excess)] -= 1.0
    return excess


def _perron(excess: np.ndarray) -> float:
    """Perron root of ``W - I``: its eigenvalue with the largest real part."""
    return float(np.linalg.eigvals(excess).real.max())


def _two_branch_cost(succ, fail, p, hits, start: int, theta: float) -> float:
    """J of a chain whose state ``s`` moves to ``succ[s]`` w.p. ``p[s]``, else to ``fail[s]``."""
    keep = _reachable(succ, fail, start)
    local = np.full(len(fail), -1)
    local[keep] = np.arange(len(keep))
    rows = np.arange(len(keep))
    prob = np.zeros((len(keep), len(keep)))
    np.add.at(prob, (rows, local[succ[keep]]), p[keep])
    np.add.at(prob, (rows, local[fail[keep]]), 1.0 - p[keep])
    return math.log1p(_perron(_excess(prob, hits[keep], theta))) / theta


def stationary_cost(taus, ps, theta, decisions) -> float:
    """J of a stationary policy (decision array over clipped-state indices), from the all-threshold state."""
    succ, fail, hits = _clipped_moves(taus)
    served = np.asarray(decisions, dtype=np.int64) - 1
    rows = np.arange(len(fail))
    p = np.asarray(ps, dtype=float)[served]
    return _two_branch_cost(succ[rows, served], fail, p, hits, _all_threshold_index(taus), theta)


def prr_cost(taus, ps, theta) -> float:
    """J of packet-level round robin on the (state, token) chain.

    The token holder is served; on a delivery the token passes to the next
    client, on a failure it stays.  Index ``s * N + token - 1``; the start
    is the all-threshold state with the token at client 1.
    """
    n = len(taus)
    succ, fail, hits = _clipped_moves(taus)
    rows = np.arange(len(fail) * n)
    state, token = rows // n, rows % n
    return _two_branch_cost(
        succ[state, token] * n + (token + 1) % n,
        fail[state] * n + token,
        np.asarray(ps, dtype=float)[token],
        hits[state],
        _all_threshold_index(taus) * n,
        theta,
    )


def periodic_cost(taus, ps, theta, sequence) -> float:
    """J of an open-loop periodic schedule from the product over one period.

    Slot ``t`` of the period serves ``sequence[t]`` in every state.  With
    ``A_t = W_t - I`` the excess of the period product is accumulated as
    ``D <- D + A_t + D A_t``, so ``prod (I + A_t) - I`` keeps its digits
    when the product is close to the identity.  The Perron root is taken
    over the states the product reaches from the all-threshold state.
    """
    succ, fail, hits = _clipped_moves(taus)
    size = len(fail)
    rows = np.arange(size)
    excess = np.zeros((size, size))
    support = np.eye(size)
    for u in sequence:
        prob = np.zeros((size, size))
        prob[rows, succ[:, u - 1]] = ps[u - 1]
        prob[rows, fail] = 1.0 - ps[u - 1]
        step = _excess(prob, hits, theta)
        excess = excess + step + excess @ step
        support = (support @ (prob > 0)) > 0
    reach = np.zeros(size, dtype=bool)
    reach[_all_threshold_index(taus)] = True
    while True:
        grown = reach | support[reach].any(axis=0)
        if (grown == reach).all():
            break
        reach = grown
    keep = np.flatnonzero(reach)
    return math.log1p(_perron(excess[np.ix_(keep, keep)])) / (theta * len(sequence))


def solve(kind: str, taus, ps, theta, policy=None) -> float:
    """J of a ``stationary`` (decisions), ``prr`` or ``periodic`` (schedule) chain."""
    if kind == "stationary":
        return stationary_cost(taus, ps, theta, policy)
    if kind == "prr":
        return prr_cost(taus, ps, theta)
    if kind == "periodic":
        return periodic_cost(taus, ps, theta, policy)
    raise ValueError(f"unknown chain kind {kind!r}")


def self_test() -> list[str]:
    """Check the evaluator against closed forms; returns the failures, if any.

    * One client with threshold 1: ``J = ln(p + (1 - p) e^theta) / theta``,
      for every p and theta.
    * One client, threshold 1, as a periodic schedule and as round robin:
      the same value, since each policy serves the only client every slot.
    * MLG on two clients with ``delta >= 2``: the ratio of J to the paper's
      leading term tends to 1 as epsilon falls, with a first-order gap.
      On thresholds (3, 5), b = (2, 1) and theta 0.01 a 40-digit evaluation
      gives 1.0050 at 1e-3 and 1.00005 at 1e-5, so the ratio must lie within
      ``10 * epsilon`` of 1, plus ``SELF_TEST_FLOOR`` for the eigen solver's
      rounding: at 1e-5, ``rho - 1`` is about 2e-12, and ``eigvals`` resolves
      it to about 1.3e-4 relative.
    """
    failures = []
    for p, theta in ((0.9, 0.01), (0.3, 0.5), (1 - 1e-6, 0.02)):
        want = math.log(p + (1 - p) * math.exp(theta)) / theta
        for name, got in (
            ("stationary", stationary_cost((1,), (p,), theta, [1, 1])),
            ("prr", prr_cost((1,), (p,), theta)),
            ("periodic", periodic_cost((1,), (p,), theta, [1, 1, 1])),
        ):
            if not math.isclose(got, want, rel_tol=SELF_TEST_FLOOR):
                failures.append(f"one client, tau 1, p {p}, theta {theta}, {name}: J {got!r} != {want!r}")
    taus, bs, theta = (3, 5), (2.0, 1.0), 0.01
    for epsilon in (1e-3, 1e-4, 1e-5):
        ps = tuple(1.0 - b * epsilon for b in bs)
        ratio = stationary_cost(taus, ps, theta, mlg_decisions(taus)) / mlg_leading_term(taus, bs, epsilon, theta)
        if abs(ratio - 1.0) > 10 * epsilon + SELF_TEST_FLOOR:
            failures.append(f"MLG on taus {taus}, epsilon {epsilon}: J / leading term {ratio!r}")
    return failures


def mlg_decisions(taus) -> list[int]:
    """The two-client modified least-time-to-go rule over clipped states.

    Serve the client with less time to go, ``tau_n - x_n``; ties go to
    client 2, and so does the single override state ``(0, delta - 1)``.
    """
    tau1, tau2 = taus
    override = (0, tau2 - tau1 - 1)
    return [
        2 if (x1, x2) == override or tau1 - x1 >= tau2 - x2 else 1
        for x1 in range(tau1 + 1)
        for x2 in range(tau2 + 1)
    ]


def mlg_leading_term(taus, bs, epsilon, theta) -> float:
    """The paper's leading term of MLG's cost for ``delta = tau2 - tau1 >= 2``:
    ``(e^theta - 1) / (theta delta) * (b1 epsilon)^(tau1 - 1)``."""
    tau1, tau2 = taus
    delta = tau2 - tau1
    if delta < 2:
        raise ValueError("the leading term is stated for delta >= 2")
    return math.expm1(theta) / (theta * delta) * (bs[0] * epsilon) ** (tau1 - 1)


def main() -> int:
    failures = self_test()
    for line in failures:
        print(f"FAIL {line}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
