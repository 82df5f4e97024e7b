"""Batch experiment driver and command-line interface.

Subcommands: ``sweep`` (grid of instances x policies to CSV), ``solve`` and
``simulate`` (single-point variants), ``describe`` (instance diagnostics),
``emit-policy`` (serialize a constructed policy).  Exit codes: 0 success,
2 configuration error, 3 structural error.  Every policy is evaluated
exactly at any size; an instance past memory is a configuration error.
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

from . import asymptotic, exact, heuristics, sim
from .errors import ConfigError, SchedulingError, StructuralError
from .model import AsymptoticInstance, Instance, instance_from_json

CSV_HEADER = "sweep_value,policy,J,J_normalized,stderr,method,converged"

_POLICY_NAMES = ("op-iterative", "mlg", "sn", "prr", "wdd", "ps", "explicit")
_CONFIG_KEYS = ("instance", "policies", "sweep", "evaluation", "sim", "seed", "output")
_SIM_KEYS = ("horizon", "trials", "warmup")
_SPEC_KEYS = {"ps": ("max_period",), "explicit": ("decisions",)}  # a policy spec's keys besides 'name'


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


def _integer(section: dict, key: str, default: int | None, minimum: int) -> int:
    """``section[key]`` (``default`` when absent) as an integer of at least ``minimum``.

    JSON integers and integral numbers such as ``1e5`` pass; booleans,
    strings and fractions do not.
    """
    value = section.get(key, default)
    integral = isinstance(value, float) and value.is_integer() or type(value) is int
    if not integral or value < minimum:
        raise ConfigError(f"'{key}' must be an integer of at least {minimum}, not {value!r}")
    return int(value)


def _seed(section: dict, default: int | None) -> int:
    """``section["seed"]`` as a simulation key: an integer in ``[0, 2**64)``, never folded."""
    seed = _integer(section, "seed", default, 0)
    if seed >= 2**64:
        raise ConfigError(f"'seed' must be below 2**64 (the simulator's keys are 64-bit), not {seed}")
    return seed


def _check_keys(section: dict, known: tuple[str, ...], where: str) -> None:
    """Raise ``ConfigError`` naming every key of ``section`` outside ``known``."""
    unknown = [key for key in section if key not in known]
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; known: {', '.join(known)}")


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
    _check_keys(obj, _CONFIG_KEYS, "config")
    if "instance" not in obj:
        raise ConfigError("config needs an 'instance' section")
    try:
        instance = instance_from_json(obj["instance"])
    except KeyError as exc:
        raise ConfigError(f"the instance needs a {exc.args[0]!r} key") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad instance: {exc}") from exc

    raw_policies = obj.get("policies", [])
    if not raw_policies:
        raise ConfigError("config needs a nonempty 'policies' list")
    policies = []
    for spec in raw_policies:
        if isinstance(spec, str):
            spec = {"name": spec}
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError(f"bad policy spec: {spec!r}")
        if spec["name"] not in _POLICY_NAMES:
            raise ConfigError(f"unknown policy {spec['name']!r}; known: {', '.join(_POLICY_NAMES)}")
        _check_keys(spec, ("name", *_SPEC_KEYS.get(spec["name"], ())), f"{spec['name']!r} policy spec")
        if any(spec["name"] == seen["name"] for seen in policies):
            raise ConfigError(f"policy {spec['name']!r} is named more than once; its rows could not be told apart")
        if spec["name"] == "ps":
            spec = {**spec, "max_period": _integer(spec, "max_period", None, 1)}
        _check_spec(spec, instance)
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
        values = sweep.get("values")
        if axis not in ("theta", "epsilon"):
            raise ConfigError("sweep axis must be 'theta' or 'epsilon'")
        if (
            not isinstance(values, list)
            or not values
            or any(type(v) not in (int, float) or not math.isfinite(v) for v in values)
            or any(b <= a for a, b in zip(values, values[1:]))
        ):
            raise ConfigError("sweep values must be a nonempty, strictly increasing list of finite numbers")
    if axis == "epsilon" and not isinstance(instance, AsymptoticInstance):
        raise ConfigError("an epsilon sweep requires the asymptotic instance form (taus/bs/epsilon/theta)")

    evaluation = obj.get("evaluation", "exact")
    if evaluation not in ("exact", "simulate", "both"):
        raise ConfigError("evaluation must be 'exact', 'simulate', or 'both'")
    sim_config = obj.get("sim")
    if evaluation in ("simulate", "both") and sim_config is None:
        raise ConfigError(f"evaluation '{evaluation}' needs a 'sim' section")
    if sim_config is not None:
        if not isinstance(sim_config, dict):
            raise ConfigError("the 'sim' section must be a JSON object")
        _check_keys(sim_config, _SIM_KEYS, "'sim'")
        sim_config = {
            "horizon": _integer(sim_config, "horizon", None, 1),
            "trials": _integer(sim_config, "trials", None, 1),
            "warmup": _integer(sim_config, "warmup", 0, 0),
        }
    output = obj.get("output")
    if output is not None and not (isinstance(output, str) and output):
        raise ConfigError("'output' must be a nonempty path string")

    return ExperimentConfig(
        instance=instance,
        policies=policies,
        sweep_axis=axis,
        sweep_values=values,
        evaluation=evaluation,
        sim_config=sim_config,
        seed=_seed(obj, 0),
        output=output,
    )


def _check_spec(spec: dict, instance: Instance | AsymptoticInstance) -> None:
    """Raise ``ConfigError`` unless ``instance`` admits the policy ``spec`` names.

    MLG needs thresholds that ``asymptotic.mlg_admits``, and an explicit
    policy needs one client in 1..N per clipped state.
    """
    taus = instance.thresholds
    if spec["name"] == "mlg" and not asymptotic.mlg_admits(taus):
        raise ConfigError(f"the mlg policy needs two clients with tau_1 <= tau_2, not thresholds {taus}")
    n_states = math.prod(t + 1 for t in taus)
    decisions = spec.get("decisions")
    if spec["name"] == "explicit" and not (
        isinstance(decisions, list)
        and len(decisions) == n_states
        and all(type(u) is int and 1 <= u <= len(taus) for u in decisions)
    ):
        raise ConfigError(f"explicit policy spec needs a 'decisions' array of {n_states} clients in 1..{len(taus)}")


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


def _instance_at(cfg: ExperimentConfig, value: float | None = None) -> Instance:
    """The materialized instance at sweep ``value``, or the config's own with none; an invalid one is a config error."""
    try:
        inst = cfg.instance if value is None else dataclasses.replace(cfg.instance, **{cfg.sweep_axis: value})
        return inst.materialize() if isinstance(inst, AsymptoticInstance) else inst
    except ValueError as exc:
        if value is None:
            raise ConfigError(f"the config's instance is invalid: {exc}") from exc
        raise ConfigError(f"sweep value {value} produces an invalid instance: {exc}") from exc


def _policy(spec: dict, inst: Instance, optimum: exact.GrowthRateResult | None = None) -> exact.StationaryPolicy:
    """The stationary policy ``spec`` names on ``inst``: op-iterative, mlg, sn or explicit.

    Op-iterative reads the greedy policy of ``optimum``, solving ``inst`` when none is given.
    """
    name = spec["name"]
    if name == "op-iterative":
        return (optimum or exact.growth_rate_optimal(inst)).policy
    if name == "mlg":
        return asymptotic.mlg_stationary_policy(inst)
    if name == "sn":
        return asymptotic.sn_policy(inst)[0]
    return exact.StationaryPolicy(spec["decisions"])


def _chains(spec: dict, insts: list[Instance], optima: list[exact.GrowthRateResult]) -> list[exact.Chain | None]:
    """The policy's finite chain at every sweep point, from the all-threshold state; None per point for WDD.

    The points share their thresholds, and the PS search reads nothing else,
    so PS searches its schedule once, on the first point.
    """
    name = spec["name"]
    if name == "wdd":
        return [None] * len(insts)
    if name == "prr":
        return [heuristics.prr_chain(inst) for inst in insts]
    if name == "ps":
        schedule = heuristics.build_periodic_schedule(insts[0], spec["max_period"])
        return [heuristics.periodic_chain(inst, schedule) for inst in insts]
    return [exact.stationary_chain(_policy(spec, inst, optimum), inst) for inst, optimum in zip(insts, optima)]


def run_experiment(cfg: ExperimentConfig, out_path: str | Path | None = None) -> list[ResultRow]:
    """Evaluate every sweep point x policy; write CSV when a path is given.

    The growth-rate optima of every point, which give each row's reference
    J and the op-iterative rows, are computed in one stacked call.  Each
    policy's chains are built once per sweep, and the same chains go to
    exact evaluation and to the simulator: the finite chains of every
    (policy, point) pair are evaluated exactly in one stacked call, and the
    simulated pairs go to the simulator in one call, so each engine runs
    once per sweep.  Rows are emitted in sorted order, so reruns of the same
    config are byte-identical.  An output path that cannot be written is
    reported before any evaluation.
    """
    target = out_path or cfg.output
    if target is not None:
        _check_output(target)
    insts = [_instance_at(cfg, value) for value in cfg.sweep_values]
    optima = exact.growth_rate_optima(insts)
    # an optimum whose bracket has no positive lower end (the float floor) is no reference: J_normalized is nan
    refs = [optimum.average_cost if optimum.j_lo > 0 else math.nan for optimum in optima]
    points = list(zip(cfg.sweep_values, refs, insts))
    rows = []

    def add(value, name, j, ref_j, stderr, method, converged):
        rows.append(ResultRow(value, name, j, j / ref_j, stderr, method, converged))

    evaluated = []  # (policy, sweep value, reference J, instance, method, chain) per exact row
    simulated = []  # the same per simulated row
    for spec in cfg.policies:
        name = spec["name"]
        by_chain = cfg.evaluation != "simulate" and name not in ("op-iterative", "wdd")  # WDD has no exact method
        simulate = cfg.evaluation != "exact" or name == "wdd"
        if cfg.evaluation != "simulate" and name == "op-iterative":
            for (value, ref_j, _), optimum in zip(points, optima):
                add(value, name, optimum.average_cost, ref_j, None, "growth_rate", optimum.converged)
        if not (by_chain or simulate):
            continue
        chains = _chains(spec, insts, optima)
        if by_chain:
            method = {"prr": "exact-augmented", "ps": "exact-periodic"}.get(name, "exact")
            evaluated += [(name, *point, method, chain) for point, chain in zip(points, chains)]
        if simulate:
            simulated += [(name, *point, "simulate", chain) for point, chain in zip(points, chains)]
    if evaluated:
        thetas = [inst.theta for _, _, _, inst, _, _ in evaluated]
        reports = exact.chain_average_costs([chain for *_, chain in evaluated], thetas)
        for (name, value, ref_j, _, method, _), report in zip(evaluated, reports):
            add(value, name, report.average_cost, ref_j, None, method, report.converged)
    if simulated:
        if cfg.sim_config is None:
            raise ConfigError(f"policy {simulated[0][0]!r} needs simulation but the config has no 'sim' section")
        sim_cfg = sim.SimConfig(seed=cfg.seed, **cfg.sim_config)
        simulated_insts = [inst for _, _, _, inst, _, _ in simulated]
        estimates = sim.estimate_costs(simulated_insts, [chain for *_, chain in simulated], sim_cfg)
        for (name, value, ref_j, _, method, _), est in zip(simulated, estimates):
            add(value, name, est.j_hat, ref_j, est.stderr_j, method, not est.degenerate)
    rows.sort(key=lambda r: (r.sweep_value, r.policy, r.method))
    if target is not None:
        _write(target, "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n")
    return rows


def _check_output(path: str | Path) -> None:
    """Raise the error of ``_write`` early where ``path`` is a directory or its directory is missing."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write the output: no directory {str(path.parent)!r}")
    if path.is_dir():
        raise ConfigError(f"cannot write the output: {str(path)!r} is a directory")


def _write(path: str | Path, text: str) -> None:
    """Write an output file; a path that cannot be written is a configuration error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the output: {exc}") from exc


def describe(cfg: ExperimentConfig) -> str:
    """Human-readable instance diagnostics."""
    inst = _instance_at(cfg)
    lines = []
    lines.append(f"clients: {inst.n_clients}")
    lines.append(f"thresholds: {inst.thresholds}")
    lines.append(f"reliabilities: {inst.reliabilities}")
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
    except (StructuralError, ValueError, MemoryError) as exc:
        lines.append(f"level sets unavailable: {exc}")
    return "\n".join(lines)


def emit_policy(cfg: ExperimentConfig, name: str) -> dict:
    """Serialize the named policy constructed on the config's base instance."""
    if name not in _POLICY_NAMES:
        raise ConfigError(f"unknown policy {name!r}; known: {', '.join(_POLICY_NAMES)}")
    spec = next((s for s in cfg.policies if s["name"] == name), {"name": name})
    _check_spec(spec, cfg.instance)
    inst = _instance_at(cfg)
    if name == "ps":
        if "max_period" not in spec:
            raise ConfigError("ps policy needs a spec with a 'max_period' in the config")
        return heuristics.build_periodic_schedule(inst, spec["max_period"]).to_json()
    if name in ("prr", "wdd"):
        raise ConfigError(f"policy {name!r} is stateful; it has no decision-array form")
    return _policy(spec, inst).to_json()


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
            cfg.seed = _seed(vars(args), None)
        if args.command == "describe":
            print(describe(cfg))
            return 0
        if args.command == "emit-policy":
            payload = json.dumps(emit_policy(cfg, args.policy), indent=2)
            if args.out:
                _write(args.out, payload + "\n")
            else:
                print(payload)
            return 0
        if args.command in ("solve", "simulate"):
            cfg.evaluation = "exact" if args.command == "solve" else "simulate"
            cfg.sweep_values = [getattr(cfg.instance, cfg.sweep_axis)]  # the base point
            if cfg.evaluation == "simulate" and cfg.sim_config is None:
                raise ConfigError("simulate needs a 'sim' section in the config")
        rows = run_experiment(cfg, out_path=args.out)
        print(CSV_HEADER)
        for row in rows:
            print(row.csv())
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # memory is the one size rule: an instance too large to solve is a config error
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
