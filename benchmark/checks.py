"""Checks of every output row against the independent evaluation in ``reference``.

A row passes when all of these hold:

* it is present, J is finite and above 0, and ``converged`` is true;
* where the optimum row is present, ``J_normalized`` is J over its J;
* an exact row (``exact``, ``exact-augmented``, ``exact-periodic``) is within
  ``TOLERANCE`` of the independent J of the same chain;
* the optimum row (``growth_rate``, ``exhaustive``) exceeds the independent
  J of no policy at its point by more than ``TOLERANCE``;
* a simulated row of a finite-memory policy is within ``SIM_STDERRS``
  standard errors or ``SIM_RELATIVE`` of the independent J;
* a WDD row, which has no exact value, has a positive standard error, is
  not more than ``SIM_STDERRS`` standard errors below the optimum, and on an
  epsilon sweep (the high-reliability regime) lies above the J of MLG and SN.

The chain of a policy is built by the program (its decisions, or its
schedule) and evaluated by the benchmark; no value of the program's output is
stored here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import reference

TOLERANCE = 0.01
SIM_STDERRS = 4.0
SIM_RELATIVE = 0.02
OPTIMUM_METHODS = ("growth_rate", "exhaustive")
EXACT_METHOD = {
    "op-iterative": "growth_rate",
    "mlg": "exact",
    "sn": "exact",
    "prr": "exact-augmented",
    "ps": "exact-periodic",
    "wdd": "simulate",
}
DOMINATED_BY_WDD = ("mlg", "sn")

# Rows that fail today because exact.spectral_radius and
# exact.growth_rate_optimal stop on absolute tolerances (1e-12 and 1e-10)
# while rho - 1 = theta * J is far smaller, and still report converged.
KNOWN_FAULTS = frozenset(
    ("b_fig4_small_epsilon", eps, policy) for eps in (1e-05, 3e-05) for policy in ("op-iterative", "mlg", "prr")
)


@dataclass
class RowCheck:
    config: str
    sweep_value: float
    policy: str
    method: str
    problems: list[str] = field(default_factory=list)

    @property
    def known_fault(self) -> bool:
        return (self.config, self.sweep_value, self.policy) in KNOWN_FAULTS


def instance_at(config: dict, value: float) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """``(taus, ps, theta)`` at one sweep value, read from the config as the model defines it."""
    inst = config["instance"]
    axis = config["sweep"]["axis"]
    theta = value if axis == "theta" else float(inst["theta"])
    if "bs" in inst:
        eps = value if axis == "epsilon" else float(inst["epsilon"])
        ps = tuple(1.0 - float(b) * eps for b in inst["bs"])
    else:
        ps = tuple(float(p) for p in inst["ps"])
    return tuple(int(t) for t in inst["taus"]), ps, theta


class Checker:
    """Checks rows; memoizes each chain's independent J across rounds."""

    def __init__(self, program):
        self.program = program
        self._chains: dict = {}
        self._costs: dict = {}

    def _chain(self, inst, spec: dict):
        """``(kind, decisions or schedule)`` of the policy the program builds, or None for WDD."""
        name = spec["name"]
        asymptotic, exact, heuristics = self.program.asymptotic, self.program.exact, self.program.heuristics
        if name == "wdd":
            return None
        if name == "prr":
            return "prr", None
        if name == "ps":
            return "periodic", heuristics.build_periodic_schedule(inst, int(spec["max_period"])).sequence
        if name == "mlg":
            policy = asymptotic.mlg_stationary_policy(inst)
        elif name == "sn":
            policy = asymptotic.sn_policy(inst)[0]
        elif name == "op-iterative":
            policy = exact.growth_rate_optimal(inst).policy
        else:
            raise ValueError(f"no check is defined for policy {name!r}")
        return "stationary", tuple(int(u) for u in policy.decisions)

    def reference_costs(self, config_name: str, config: dict, value: float) -> dict[str, float]:
        """Independent J of each finite-memory policy at one sweep point."""
        key = (config_name, value)
        if key not in self._chains:
            taus, ps, theta = instance_at(config, value)
            inst = self.program.Instance(taus, ps, theta)
            chains = {}
            for spec in map(_spec, config["policies"]):
                chain = self._chain(inst, spec)
                if chain is not None:
                    chains[spec["name"]] = chain
            self._chains[key] = (taus, ps, theta, chains)
        taus, ps, theta, chains = self._chains[key]
        costs = {}
        for name, (kind, policy) in chains.items():
            memo = (kind, taus, ps, theta, policy)
            if memo not in self._costs:
                self._costs[memo] = reference.solve(kind, taus, ps, theta, policy)
            costs[name] = self._costs[memo]
        return costs

    def check(self, config_name: str, config: dict, rows: list[dict]) -> list[RowCheck]:
        by_key = {(r["sweep_value"], r["policy"], r["method"]): r for r in rows}
        expected = [
            (value, spec["name"], "simulate" if config["evaluation"] == "simulate" else EXACT_METHOD[spec["name"]])
            for value in config["sweep"]["values"]
            for spec in map(_spec, config["policies"])
        ]
        results = [RowCheck(config_name, *key, problems=["unexpected row"]) for key in by_key.keys() - set(expected)]
        for value in config["sweep"]["values"]:
            refs = self.reference_costs(config_name, config, value)
            point = {key[1]: by_key.get(key) for key in expected if key[0] == value}
            optimum = next((r for r in point.values() if r and r["method"] in OPTIMUM_METHODS), None)
            epsilon_sweep = config["sweep"]["axis"] == "epsilon"
            for key in (k for k in expected if k[0] == value):
                result = RowCheck(config_name, *key)
                results.append(result)
                row = point[key[1]]
                if row is None:
                    result.problems.append("missing")
                    continue
                result.problems.extend(_row_problems(row, refs, optimum, epsilon_sweep))
        return results


def parse_csv(text: str) -> list[dict]:
    """Rows of the program's CSV output (``cli.CSV_HEADER`` first), with typed fields."""
    return [
        {
            "sweep_value": float(rec["sweep_value"]),
            "policy": rec["policy"],
            "j": float(rec["J"]),
            "j_normalized": float(rec["J_normalized"]),
            "stderr": float(rec["stderr"]) if rec["stderr"] else None,
            "method": rec["method"],
            "converged": rec["converged"] == "true",
        }
        for rec in csv.DictReader(text.splitlines())
    ]


def _spec(policy) -> dict:
    return {"name": policy} if isinstance(policy, str) else policy


def _row_problems(row: dict, refs: dict[str, float], optimum: dict | None, epsilon_sweep: bool) -> list[str]:
    j, name, method, stderr = row["j"], row["policy"], row["method"], row["stderr"]
    if not (math.isfinite(j) and j > 0):
        return [f"J {j!r} is not finite and positive"]
    problems = []
    if not row["converged"]:
        problems.append("not converged")
    if optimum is not None and not math.isclose(row["j_normalized"], j / optimum["j"], rel_tol=1e-12):
        problems.append(f"J_normalized {row['j_normalized']!r} != J / optimum J {j / optimum['j']!r}")
    if method in OPTIMUM_METHODS:
        lowest = min(refs.values())
        if j > lowest * (1 + TOLERANCE):
            problems.append(f"optimum J {j!r} exceeds a policy's independent J {lowest!r} by {j / lowest - 1:.3%}")
    elif method != "simulate":
        ref = refs[name]
        if abs(j / ref - 1) > TOLERANCE:
            problems.append(f"J {j!r} is {j / ref - 1:+.3%} off the independent J {ref!r}")
    elif name != "wdd":
        ref = refs[name]
        if abs(j - ref) > max(SIM_STDERRS * stderr, SIM_RELATIVE * ref):
            problems.append(
                f"simulated J {j!r} is {(j - ref) / stderr:+.2f} stderr and {j / ref - 1:+.3%} off the independent J {ref!r}"
            )
    else:
        if not stderr > 0:
            problems.append(f"WDD stderr {stderr!r} is not positive")
        elif optimum is not None and j < optimum["j"] - SIM_STDERRS * stderr:
            problems.append(f"WDD J {j!r} is {(optimum['j'] - j) / stderr:.2f} stderr below the optimum")
        for other in DOMINATED_BY_WDD:
            if epsilon_sweep and other in refs and not j > refs[other]:
                problems.append(f"WDD J {j!r} is not above {other}'s J {refs[other]!r}")
    return problems
