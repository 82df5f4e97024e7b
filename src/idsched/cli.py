"""Batch experiment driver and command-line interface.

Subcommands: ``sweep`` (grid of instances x policies to CSV), ``solve`` and
``simulate`` (single-point variants), ``describe`` (instance diagnostics),
``emit-policy`` (serialize a constructed policy).  Exit codes: 0 success,
2 configuration error, 3 resource or convergence error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import asymptotic, exact, heuristics, sim
from .errors import ConfigError, SchedulingError, StructuralError
from .model import AsymptoticInstance, Instance, instance_from_json

CSV_HEADER = "sweep_value,policy,J,J_normalized,stderr,method,converged"

_POLICY_NAMES = ("op-exhaustive", "op-iterative", "mlg", "sn", "prr", "wdd", "ps", "explicit")


@dataclass
class ExperimentConfig:
    instance: Instance | AsymptoticInstance
    policies: list[dict]
    sweep_axis: str
    sweep_values: list[float]
    evaluation: str
    sim_config: dict | None
    seed: int
    output: str | None
    exact_state_cap: int = 2000
    enumeration_cap: int = 4096


def _integer(section: dict, key: str, default: int | None, minimum: int) -> int:
    """``section[key]`` (``default`` when absent) as an integer of at least ``minimum``."""
    value = section.get(key, default)
    try:
        number = int(value)
    except (TypeError, ValueError):
        number = minimum - 1
    if number < minimum:
        raise ConfigError(f"'{key}' must be an integer of at least {minimum}, not {value!r}")
    return number


def load_config(obj: dict | str | Path) -> ExperimentConfig:
    """Parse and validate an experiment configuration."""
    if isinstance(obj, (str, Path)):
        try:
            obj = json.loads(Path(obj).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    try:
        instance = instance_from_json(obj["instance"])
    except KeyError as exc:
        raise ConfigError("config needs an 'instance' section") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad instance: {exc}") from exc

    raw_policies = obj.get("policies", [])
    if not raw_policies:
        raise ConfigError("config needs a nonempty 'policies' list")
    policies = []
    n_states = math.prod(t + 1 for t in instance.thresholds)
    for spec in raw_policies:
        if isinstance(spec, str):
            spec = {"name": spec}
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError(f"bad policy spec: {spec!r}")
        if spec["name"] not in _POLICY_NAMES:
            raise ConfigError(f"unknown policy {spec['name']!r}; known: {', '.join(_POLICY_NAMES)}")
        if spec["name"] == "ps":
            spec = {**spec, "max_period": _integer(spec, "max_period", None, 1)}
        decisions = spec.get("decisions")
        if spec["name"] == "explicit" and not (
            isinstance(decisions, list)
            and len(decisions) == n_states
            and all(isinstance(u, int) and 1 <= u <= instance.n_clients for u in decisions)
        ):
            raise ConfigError(
                f"explicit policy spec needs a 'decisions' array of {n_states} clients in 1..{instance.n_clients}"
            )
        policies.append(spec)

    sweep = obj.get("sweep")
    if sweep is None:
        axis = "epsilon" if isinstance(instance, AsymptoticInstance) else "theta"
        base = instance.epsilon if isinstance(instance, AsymptoticInstance) else instance.theta
        values = [base]
    elif not isinstance(sweep, dict):
        raise ConfigError("the 'sweep' section must be a JSON object")
    else:
        axis = sweep.get("axis")
        values = list(sweep.get("values", []))
        if axis not in ("theta", "epsilon"):
            raise ConfigError("sweep axis must be 'theta' or 'epsilon'")
        if not values or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep values must be nonempty and strictly increasing")
    if axis == "epsilon" and not isinstance(instance, AsymptoticInstance):
        raise ConfigError("an epsilon sweep requires the asymptotic instance form (taus/bs/epsilon/theta)")
    if any(spec["name"] == "mlg" for spec in policies) and instance.n_clients != 2:
        raise ConfigError("the mlg policy is defined for exactly two clients")

    evaluation = obj.get("evaluation", "exact")
    if evaluation not in ("exact", "simulate", "both"):
        raise ConfigError("evaluation must be 'exact', 'simulate', or 'both'")
    sim_config = obj.get("sim")
    if evaluation in ("simulate", "both") and sim_config is None:
        raise ConfigError(f"evaluation '{evaluation}' needs a 'sim' section")
    if sim_config is not None:
        if not isinstance(sim_config, dict):
            raise ConfigError("the 'sim' section must be a JSON object")
        sim_config = {
            "horizon": _integer(sim_config, "horizon", None, 1),
            "trials": _integer(sim_config, "trials", None, 1),
            "warmup": _integer(sim_config, "warmup", 0, 0),
        }

    return ExperimentConfig(
        instance=instance,
        policies=policies,
        sweep_axis=axis,
        sweep_values=values,
        evaluation=evaluation,
        sim_config=sim_config,
        seed=_integer(obj, "seed", 0, 0),
        output=obj.get("output"),
        exact_state_cap=_integer(obj, "exact_state_cap", 2000, 1),
        enumeration_cap=_integer(obj, "enumeration_cap", 4096, 1),
    )


def bundled_config_path(name: str) -> Path:
    """Path of a packaged example configuration such as ``fig4``."""
    candidate = resources.files("idsched").joinpath("configs", f"{name}.json")
    return Path(str(candidate))


@dataclass
class ResultRow:
    sweep_value: float
    policy: str
    j: float
    j_normalized: float
    stderr: float | None
    method: str
    converged: bool

    def csv(self) -> str:
        stderr = "" if self.stderr is None else repr(self.stderr)
        converged = "true" if self.converged else "false"
        return (
            f"{self.sweep_value!r},{self.policy},{self.j!r},"
            f"{self.j_normalized!r},{stderr},{self.method},{converged}"
        )


def _instance_at(cfg: ExperimentConfig, value: float) -> Instance:
    base = cfg.instance
    try:
        if cfg.sweep_axis == "epsilon":
            assert isinstance(base, AsymptoticInstance)
            return base.with_epsilon(value).materialize()
        if isinstance(base, AsymptoticInstance):
            return base.with_theta(value).materialize()
        return dataclasses.replace(base, theta=value)
    except ValueError as exc:
        raise ConfigError(f"sweep value {value} produces an invalid instance: {exc}") from exc


class _Evaluator:
    """Per-sweep-point policy construction and evaluation."""

    def __init__(self, cfg: ExperimentConfig, inst: Instance):
        self.cfg = cfg
        self.inst = inst
        self._schedules: dict[int, heuristics.PeriodicSchedule] = {}
        self._optima: dict[str, tuple[exact.StationaryPolicy, tuple[float, str, bool]]] = {}

    def reference(self) -> float:
        """Optimal-cost reference J: exhaustive when the enumeration fits, else iterative."""
        names = [spec["name"] for spec in self.cfg.policies]
        use_exhaustive = "op-exhaustive" in names or (
            "op-iterative" not in names
            and exact.policy_count(self.inst, True, self.cfg.enumeration_cap) <= self.cfg.enumeration_cap
        )
        return self._optimum("exhaustive" if use_exhaustive else "growth_rate")[1][0]

    def _optimum(self, method: str) -> tuple[exact.StationaryPolicy, tuple[float, str, bool]]:
        """The optimal policy and its ``(J, method, converged)``, computed once per method."""
        if method not in self._optima:
            if method == "exhaustive":
                policy, report = exact.exhaustive_optimal(self.inst, policy_cap=self.cfg.enumeration_cap)
                self._optima[method] = policy, (report.average_cost, method, report.converged)
            else:
                result = exact.growth_rate_optimal(self.inst)
                self._optima[method] = result.policy, (result.average_cost, method, result.converged)
        return self._optima[method]

    def _schedule(self, max_period: int) -> heuristics.PeriodicSchedule:
        if max_period not in self._schedules:
            self._schedules[max_period] = heuristics.build_periodic_schedule(self.inst, max_period)
        return self._schedules[max_period]

    def stationary_policy(self, spec: dict) -> exact.StationaryPolicy | None:
        name = spec["name"]
        if name == "op-exhaustive":
            return self._optimum("exhaustive")[0]
        if name == "op-iterative":
            return self._optimum("growth_rate")[0]
        if name == "mlg":
            return asymptotic.mlg_stationary_policy(self.inst)
        if name == "sn":
            return asymptotic.sn_policy(self.inst)[0]
        if name == "explicit":
            return exact.StationaryPolicy(np.asarray(spec["decisions"], dtype=np.int64))
        return None

    def optimum_result(self, spec: dict) -> tuple[float, str, bool] | None:
        """``(J, method, converged)`` of an optimum policy, or None for any other policy."""
        optimum = {"op-exhaustive": "exhaustive", "op-iterative": "growth_rate"}.get(spec["name"])
        return None if optimum is None else self._optimum(optimum)[1]

    def exact_chain(self, spec: dict) -> tuple[exact.Chain, str]:
        """The finite chain of a stationary, PRR or PS policy, to evaluate exactly, and its method.

        The state cap applies to these chains, not to the optimum searches.
        """
        if self.inst.total_states > self.cfg.exact_state_cap:
            raise ConfigError(
                f"exact evaluation infeasible: {self.inst.total_states} states exceed the cap "
                f"of {self.cfg.exact_state_cap}"
            )
        self.inst.require_interior_reliabilities()
        method = {"prr": "exact-augmented", "ps": "exact-periodic"}.get(spec["name"], "exact")
        return self.handle(spec).chain(self.inst), method

    def handle(self, spec: dict) -> sim.PolicyHandle:
        name = spec["name"]
        if name == "prr":
            return sim.PrrHandle(self.inst.n_clients)
        if name == "wdd":
            return sim.WddHandle(self.inst)
        if name == "ps":
            return sim.PsHandle(self._schedule(spec["max_period"]))
        policy = self.stationary_policy(spec)
        assert policy is not None
        return sim.StationaryHandle(name, policy, self.inst)


def run_experiment(cfg: ExperimentConfig, out_path: str | Path | None = None) -> list[ResultRow]:
    """Evaluate every sweep point x policy; write CSV when a path is given.

    The finite chains of every (policy, point) pair are evaluated exactly in
    one stacked call, and the simulated pairs go to the simulator in one
    call, so each engine runs once per sweep.  Rows are emitted in sorted
    order, so reruns of the same config are byte-identical.
    """
    points = [(value, _Evaluator(cfg, _instance_at(cfg, value))) for value in cfg.sweep_values]
    ref_js = [ev.reference() for _, ev in points]
    rows = []
    chains = []
    simulated = []
    for spec in cfg.policies:
        for (value, ev), ref_j in zip(points, ref_js):
            if cfg.evaluation != "simulate" and spec["name"] != "wdd":  # WDD has no exact method
                optimum = ev.optimum_result(spec)
                if optimum is None:
                    chain, method = ev.exact_chain(spec)
                    chains.append((spec["name"], value, ref_j, method, chain, ev.inst.theta))
                else:
                    j, method, converged = optimum
                    rows.append(ResultRow(value, spec["name"], j, j / ref_j, None, method, converged))
            if cfg.evaluation != "exact" or spec["name"] == "wdd":
                simulated.append((spec, value, ev, ref_j))
    if chains:
        reports = exact.chain_average_costs([c[4] for c in chains], [c[5] for c in chains])
        for (name, value, ref_j, method, _, _), report in zip(chains, reports):
            j = report.average_cost
            rows.append(ResultRow(value, name, j, j / ref_j, None, method, report.converged))
    if simulated:
        if cfg.sim_config is None:
            name = simulated[0][0]["name"]
            raise ConfigError(f"policy {name!r} needs simulation but the config has no 'sim' section")
        sim_cfg = sim.SimConfig(seed=cfg.seed, **cfg.sim_config)
        insts = [ev.inst for _, _, ev, _ in simulated]
        handles = [ev.handle(spec) for spec, _, ev, _ in simulated]
        for (spec, value, _, ref_j), est in zip(simulated, sim.estimate_costs(insts, handles, sim_cfg)):
            rows.append(ResultRow(value, spec["name"], est.j_hat, est.j_hat / ref_j, est.stderr_j, "simulate", True))
    rows.sort(key=lambda r: (r.sweep_value, r.policy, r.method))
    target = out_path or cfg.output
    if target is not None:
        text = "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n"
        Path(target).write_text(text)
    return rows


def describe(cfg: ExperimentConfig) -> str:
    """Human-readable instance diagnostics."""
    base = cfg.instance
    inst = base.materialize() if isinstance(base, AsymptoticInstance) else base
    lines = []
    lines.append(f"clients: {inst.n_clients}")
    lines.append(f"thresholds: {inst.thresholds}")
    lines.append(f"reliabilities: {tuple(round(p, 12) for p in inst.reliabilities)}")
    lines.append(f"theta: {inst.theta}")
    lines.append(f"states: {inst.total_states}")
    th = exact.theta_threshold(inst)
    if th.underflow:
        lines.append("theta threshold: underflows to ~0 (stationary-optimum guarantee vacuous)")
    else:
        lines.append(f"theta threshold: {th.value:.6g} (K={th.k})")
    swept_thetas = cfg.sweep_values if cfg.sweep_axis == "theta" else [inst.theta]
    flagged = [t for t in swept_thetas if th.underflow or t >= th.value]
    if flagged:
        lines.append(
            f"warning: theta values {flagged} are at or above the threshold; "
            "the stationary-optimum guarantee does not cover them (costs are still computed)"
        )
    if inst.n_clients == 1:
        lines.append("note: with one client the exclusion-state constraint is vacuous; the single policy is forced")
    try:
        _, levels = asymptotic.sn_policy(inst)
        sizes = [len(members) for members in levels.levels]
        lines.append(f"level-set sizes: {sizes}")
        lines.append(f"level-set remain: {len(levels.remain)}, unplaced: {len(levels.unplaced)}")
    except (StructuralError, ValueError) as exc:
        lines.append(f"level sets unavailable: {exc}")
    return "\n".join(lines)


def emit_policy(cfg: ExperimentConfig, name: str) -> dict:
    """Serialize the named policy constructed on the config's base instance."""
    spec = next((s for s in cfg.policies if s["name"] == name), None)
    if spec is None:
        spec = {"name": name}
        if name not in _POLICY_NAMES:
            raise ConfigError(f"unknown policy {name!r}")
    base = cfg.instance
    inst = base.materialize() if isinstance(base, AsymptoticInstance) else base
    ev = _Evaluator(cfg, inst)
    if name == "ps":
        if "max_period" not in spec:
            raise ConfigError("ps policy needs a spec with a 'max_period' in the config")
        return ev._schedule(spec["max_period"]).to_json()
    if name in ("prr", "wdd"):
        raise ConfigError(f"policy {name!r} is stateful; it has no decision-array form")
    policy = ev.stationary_policy(spec)
    assert policy is not None
    return policy.to_json()


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("solve", "simulate", "sweep", "describe", "emit-policy"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if cmd == "emit-policy":
            p.add_argument("--policy", required=True, help="policy name to serialize")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "describe":
            print(describe(cfg))
            return 0
        if args.command == "emit-policy":
            payload = json.dumps(emit_policy(cfg, args.policy), indent=2)
            if args.out:
                Path(args.out).write_text(payload + "\n")
            else:
                print(payload)
            return 0
        if args.command == "solve":
            cfg.evaluation = "exact"
            cfg.sweep_values = [cfg.sweep_values[0]]
        elif args.command == "simulate":
            cfg.evaluation = "simulate"
            cfg.sweep_values = [cfg.sweep_values[0]]
            if cfg.sim_config is None:
                raise ConfigError("simulate needs a 'sim' section in the config")
        rows = run_experiment(cfg, out_path=args.out)
        print(CSV_HEADER)
        for row in rows:
            print(row.csv())
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
