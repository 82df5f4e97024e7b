import json
import math
from pathlib import Path

import pytest

from idsched import asymptotic, cli, exact, heuristics, model, sim
from idsched.cli import (
    CSV_HEADER,
    bundled_config_path,
    describe,
    emit_policy,
    load_config,
    main,
    run_experiment,
)
from idsched.errors import ConfigError, StructuralError


def _tiny_config(tmp_path, **overrides):
    cfg = {
        "instance": {"taus": [2, 3], "bs": [1.0, 1.0], "epsilon": 0.05, "theta": 0.05},
        "policies": ["op-iterative", "mlg", "prr"],
        "sweep": {"axis": "epsilon", "values": [0.05, 0.1]},
        "evaluation": "exact",
        "sim": {"horizon": 2000, "trials": 8, "warmup": 100},
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_validates(tmp_path):
    with pytest.raises(ConfigError, match="'instance' section"):
        load_config({"policies": ["mlg"]})
    with pytest.raises(ConfigError, match="needs a 'ps' key"):
        load_config({"instance": {"taus": [2], "theta": 0.1}, "policies": ["prr"]})
    with pytest.raises(ConfigError):
        load_config({"instance": {"taus": [2], "ps": [0.5], "theta": 0.1}, "policies": []})
    with pytest.raises(ConfigError, match="policy 'prr' is named more than once"):
        load_config({"instance": {"taus": [2], "ps": [0.5], "theta": 0.1}, "policies": ["prr", "wdd", "prr"]})
    with pytest.raises(ConfigError):
        load_config(
            {
                "instance": {"taus": [2], "ps": [0.5], "theta": 0.1},
                "policies": ["mlg"],  # needs two clients
            }
        )
    with pytest.raises(ConfigError):
        load_config(
            {
                "instance": {"taus": [2, 3], "ps": [0.5, 0.5], "theta": 0.1},
                "policies": ["prr"],
                "sweep": {"axis": "epsilon", "values": [0.1, 0.2]},  # needs asymptotic form
            }
        )
    with pytest.raises(ConfigError):
        load_config(
            {
                "instance": {"taus": [2, 3], "bs": [1, 1], "epsilon": 0.1, "theta": 0.1},
                "policies": ["prr"],
                "sweep": {"axis": "epsilon", "values": [0.2, 0.1]},  # not increasing
            }
        )
    with pytest.raises(ConfigError):
        load_config(
            {
                "instance": {"taus": [2, 3], "ps": [0.5, 0.5], "theta": 0.1},
                "policies": ["wdd"],
                "evaluation": "simulate",  # no sim section
            }
        )
    with pytest.raises(ConfigError, match="unknown config key.*'evaluaton'"):
        load_config({"instance": {"taus": [2], "ps": [0.5], "theta": 0.1}, "policies": ["prr"], "evaluaton": "both"})
    with pytest.raises(ConfigError, match="unknown 'sim' key.*'warmpu'"):
        load_config(
            {
                "instance": {"taus": [2], "ps": [0.5], "theta": 0.1},
                "policies": ["prr"],
                "sim": {"horizon": 100, "trials": 2, "warmpu": 10},
            }
        )
    # a policy-spec key the policy does not read: sn takes no coefficients, prr no period
    with pytest.raises(ConfigError, match="unknown 'sn' policy spec key.*'coefficients'; known: name$"):
        load_config(
            {
                "instance": {"taus": [2, 3], "bs": [2, 1], "epsilon": 0.1, "theta": 0.05},
                "policies": [{"name": "sn", "coefficients": [2, 1]}],
            }
        )
    with pytest.raises(ConfigError, match="unknown 'prr' policy spec key.*'max_period'; known: name$"):
        load_config({"instance": {"taus": [2], "ps": [0.5], "theta": 0.1}, "policies": [{"name": "prr", "max_period": 5}]})


def test_bundled_configs_parse():
    for name in ("fig3_small", "fig4", "fig5"):
        cfg = load_config(bundled_config_path(name))
        assert cfg.sweep_values
    benchmark = sorted((Path(__file__).parents[1] / "benchmark" / "configs").glob("*/*.json"))
    assert len(benchmark) == 6
    for path in benchmark:
        assert load_config(path).sweep_values


def test_the_optimum_policy_costs_the_optimum_at_every_certified_point():
    # the greedy policy read off the optimum's final iterate, evaluated as a chain, has a bracket that meets the optimum's
    paths = [bundled_config_path(name) for name in ("fig3_small", "fig4", "fig5")]
    paths += sorted((Path(__file__).parents[1] / "benchmark" / "configs").glob("*/*.json"))
    checked = 0
    for path in paths:
        cfg = load_config(path)
        insts = [cli._instance_at(cfg, value) for value in cfg.sweep_values]
        certified = [(inst, optimum) for inst, optimum in zip(insts, exact.growth_rate_optima(insts)) if optimum.converged]
        chains = [exact.stationary_chain(optimum.policy, inst) for inst, optimum in certified]
        reports = exact.chain_average_costs(chains, [inst.theta for inst, _ in certified])
        for (inst, optimum), report in zip(certified, reports):
            assert report.j_lo <= optimum.j_hi and optimum.j_lo <= report.j_hi, (path.name, inst)
        checked += len(certified)
    assert checked == 32  # every point but b_fig4_small_epsilon's epsilon 1e-5, whose floor leaves it uncertified


def test_run_experiment_writes_stable_sorted_csv(tmp_path):
    cfg_path = _tiny_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rows = run_experiment(load_config(cfg_path), out_path=out1)
    run_experiment(load_config(cfg_path), out_path=out2)
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    keys = [(float(l.split(",")[0]), l.split(",")[1]) for l in lines[1:]]
    assert keys == sorted(keys)
    # the optimal reference is never beaten by an exactly evaluated policy
    for row in rows:
        if row.method != "simulate":
            assert row.j_normalized >= 1.0 - 1e-9


def test_run_experiment_exact_falls_back_to_simulation_for_wdd(tmp_path):
    cfg_path = _tiny_config(tmp_path, policies=["op-iterative", "wdd"])
    rows = run_experiment(load_config(cfg_path))
    methods = {row.policy: row.method for row in rows}
    assert methods["wdd"] == "simulate"
    assert methods["op-iterative"] == "growth_rate"


@pytest.mark.parametrize("trials, horizon, converged", [(1, 64, False), (8, 2000, True)])
def test_a_simulated_row_without_an_error_bar_is_not_converged(tmp_path, trials, horizon, converged):
    # one trial of 64 slots is one estimator block, so the row has no error bar
    cfg = {
        "instance": {"taus": [2, 3], "ps": [0.9, 0.8], "theta": 0.05},
        "policies": ["wdd"],
        "evaluation": "simulate",
        "sim": {"horizon": horizon, "trials": trials, "warmup": 0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    (row,) = run_experiment(load_config(path), out_path=tmp_path / "out.csv")
    assert (row.stderr == 0.0) is not converged
    assert (tmp_path / "out.csv").read_text().splitlines()[1].endswith(",simulate," + str(converged).lower())


def test_run_experiment_state_cap(tmp_path):
    # the optimum reference and WDD's simulation build no finite chain
    cfg_path = _tiny_config(tmp_path, policies=["op-iterative", "wdd"])
    rows = run_experiment(load_config(cfg_path))
    assert {(row.policy, row.method) for row in rows} == {("op-iterative", "growth_rate"), ("wdd", "simulate")}


def test_sn_and_prr_are_solved_exactly_at_135135_states():
    # thresholds (6, 8, 10, 12, 14): every policy is evaluated exactly at any size, as the optimum is
    cfg = load_config(
        {
            "instance": {"taus": [6, 8, 10, 12, 14], "ps": [0.99] * 5, "theta": 0.05},
            "policies": ["op-iterative", "sn", "prr"],
        }
    )
    assert math.prod(t + 1 for t in cfg.instance.thresholds) == 135_135
    rows = run_experiment(cfg)
    assert [(row.policy, row.converged) for row in rows] == [("op-iterative", True), ("prr", True), ("sn", True)]
    assert all(row.j_normalized >= 1 - 1e-6 for row in rows if row.policy != "op-iterative")


# numpy's message on 8 clients of threshold 30; no test allocates past memory, so each raises it in place
_PAST_MEMORY = "Unable to allocate 49.6 TiB for an array with shape (8, 31, 31, 31, 31, 31, 31, 31, 31) and data type int64"


def _past_memory(*args):
    raise MemoryError(_PAST_MEMORY)


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_an_optimum_past_memory_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(exact, "growth_rate_optima", _past_memory)
    assert main([command, "--config", str(_tiny_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and _PAST_MEMORY in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "solve", "describe", "emit-policy"])
@pytest.mark.parametrize("form", ["plain", "asymptotic"])
def test_a_state_space_past_numpys_range_is_a_config_error(tmp_path, capsys, command, form):
    # 63 binary clients: 2**63 states fit a 64-bit index, but their (client, state) tables pass 2**63 bytes
    if form == "plain":
        instance = {"taus": [1] * 63, "ps": [0.9] * 63, "theta": 0.05}
    else:
        instance = {"taus": [1] * 63, "bs": [1.0] * 63, "epsilon": 0.05, "theta": 0.05}
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=["sn"], sweep={"axis": "theta", "values": [0.05]})
    extra = ["--policy", "sn"] if command == "emit-policy" else []
    assert main([command, "--config", str(cfg_path), *extra]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "past the range of numpy's (client, state) tables" in err
    assert "Traceback" not in err


def test_describe_on_an_instance_past_memory_says_the_level_sets_are_unavailable(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(asymptotic, "sn_policy", _past_memory)
    instance = {"taus": [30] * 8, "ps": [0.99] * 8, "theta": 0.05}
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=["op-iterative"], sweep=None)
    assert main(["describe", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["clients: 8", "thresholds: (30, 30, 30, 30, 30, 30, 30, 30)"]
    assert "states: 852891037441" in lines and any(line.startswith("theta threshold") for line in lines)
    assert lines[-1] == "level sets unavailable: " + _PAST_MEMORY


def test_sweep_values_that_break_the_instance_are_config_errors(tmp_path):
    # b * eps reaching 1 would drive a reliability to zero
    cfg_path = _tiny_config(
        tmp_path,
        instance={"taus": [2, 3], "bs": [2.0, 1.0], "epsilon": 0.05, "theta": 0.05},
        sweep={"axis": "epsilon", "values": [0.05, 0.6]},
    )
    with pytest.raises(ConfigError):
        run_experiment(load_config(cfg_path))


@pytest.mark.parametrize("command", ["describe", "emit-policy"])
def test_a_base_instance_that_breaks_is_a_config_error(tmp_path, capsys, command):
    # 1 - b * 1e-17 rounds to a reliability of exactly 1
    instance = {"taus": [3, 5], "bs": [2, 1], "epsilon": 1e-17, "theta": 0.01}
    cfg_path = _tiny_config(tmp_path, instance=instance, sweep={"axis": "epsilon", "values": [1e-17]})
    extra = ["--policy", "mlg"] if command == "emit-policy" else []
    assert main([command, "--config", str(cfg_path), *extra]) == 2
    err = capsys.readouterr().err
    assert "config error: the config's instance is invalid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "solve", "emit-policy"])
@pytest.mark.parametrize(
    "instance",
    [
        {"taus": [5, 3], "bs": [1.0, 1.0], "epsilon": 0.05, "theta": 0.05},
        {"taus": [2, 3, 4], "bs": [1.0, 1.0, 1.0], "epsilon": 0.05, "theta": 0.05},
    ],
    ids=["reversed-thresholds", "three-clients"],
)
def test_mlg_on_an_instance_without_its_rule_is_a_config_error(tmp_path, capsys, command, instance):
    # sweep and solve read mlg from the config's policies; emit-policy builds
    # its spec from the name alone, so there the config lists another policy
    policies = ["op-iterative"] if command == "emit-policy" else ["mlg"]
    extra = ["--policy", "mlg"] if command == "emit-policy" else []
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=policies)
    assert main([command, "--config", str(cfg_path), *extra]) == 2
    assert "config error: the mlg policy needs two clients with tau_1 <= tau_2" in capsys.readouterr().err


def test_describe_mentions_threshold_and_levels(tmp_path):
    cfg = load_config(bundled_config_path("fig3_small"))
    text = describe(cfg)
    assert "theta threshold" in text
    assert "level-set sizes" in text
    assert "warning" in text  # swept thetas exceed the threshold on this instance

    single = load_config(
        {
            "instance": {"taus": [3], "ps": [0.5], "theta": 0.05},
            "policies": ["op-iterative"],
        }
    )
    assert "one client" in describe(single)


def test_describe_prints_reliabilities_unrounded(tmp_path):
    # 1 - 1e-16 rounded to 12 digits would print as 1.0, the reliability of a config error
    cfg = load_config({"instance": {"taus": [2, 3], "bs": [1, 1], "epsilon": 1e-16, "theta": 0.01}, "policies": ["mlg"]})
    p = 1.0 - 1e-16
    assert p < 1.0
    assert f"reliabilities: {(p, p)}" in describe(cfg).splitlines()


def test_emit_policy_shapes(tmp_path):
    cfg = load_config(bundled_config_path("fig5"))
    payload = emit_policy(cfg, "sn")
    assert len(payload["decisions"]) == 5 * 7 * 9
    assert all(1 <= u <= 3 for u in payload["decisions"])
    sched = emit_policy(cfg, "ps")
    assert set(sched) == {"sequence"}
    with pytest.raises(ConfigError):
        emit_policy(cfg, "wdd")


def test_explicit_policy_round_trips_through_a_sweep(tmp_path):
    base = load_config(bundled_config_path("fig4"))
    decisions = emit_policy(base, "mlg")["decisions"]
    cfg_path = _tiny_config(
        tmp_path,
        instance={"taus": [3, 5], "bs": [2.0, 1.0], "epsilon": 0.01, "theta": 0.01},
        policies=["op-iterative", "mlg", {"name": "explicit", "decisions": decisions}],
        sweep={"axis": "epsilon", "values": [0.01]},
    )
    rows = run_experiment(load_config(cfg_path))
    by_name = {row.policy: row for row in rows}
    assert by_name["explicit"].j == pytest.approx(by_name["mlg"].j, rel=1e-12)


@pytest.mark.parametrize(
    "command, policies, message",
    [
        ("sweep", ["op-iterative", "wdd"], "policy 'wdd' needs simulation but the config has no 'sim' section"),
        ("simulate", ["op-iterative", "prr"], "simulate needs a 'sim' section in the config"),
    ],
    ids=["exact-sweep-with-wdd", "simulate"],
)
def test_a_simulation_without_a_sim_section_is_a_config_error(tmp_path, capsys, command, policies, message):
    # an exact sweep needs no 'sim' section, but WDD has no exact method, and simulate simulates every policy
    cfg_path = _tiny_config(tmp_path, policies=policies)
    cfg = json.loads(cfg_path.read_text())
    del cfg["sim"]
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_an_optimum_of_zero_at_the_float_floor_normalizes_to_nan(tmp_path, capsys, command):
    # at epsilon 1e-16 the optimum's certified bracket is symmetric about 0,
    # so its J is exactly 0; every J_normalized is nan, and the optimum's
    # bracket, which straddles 0, is not certified.  MLG's bracket lies
    # mostly below 0, and its midpoint is raised to 0: every slot costs at
    # least 1, so no J is negative
    instance = {"taus": [2, 3], "bs": [1, 1], "epsilon": 1e-16, "theta": 0.01}
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=["op-iterative", "mlg", "sn", "prr"], sweep=None)
    assert main([command, "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    header, *rows = captured.out.splitlines()
    assert header == CSV_HEADER and len(rows) == 4
    rows = {row.split(",")[1]: row.split(",") for row in rows}
    assert rows["op-iterative"][2:4] == ["0.0", "nan"] and rows["op-iterative"][-1] == "false"
    assert rows["mlg"][2] == "0.0"
    assert all(float(row[2]) >= 0.0 and row[3] == "nan" and row[-1] == "false" for row in rows.values())


def test_an_optimum_with_no_positive_lower_end_normalizes_to_nan(tmp_path, capsys):
    # with b = (3, 1) the optimum's bracket straddles 0 with a positive
    # midpoint of rounding noise (1.8e-18); a ratio to it would be noise too
    instance = {"taus": [2, 3], "bs": [3, 1], "epsilon": 1e-16, "theta": 0.01}
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=["op-iterative", "mlg", "sn", "prr"], sweep=None)
    optimum = exact.growth_rate_optimal(load_config(cfg_path).instance.materialize())
    assert optimum.j_lo < 0 < optimum.average_cost
    assert main(["solve", "--config", str(cfg_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == CSV_HEADER and len(rows) == 4
    assert all(float(row.split(",")[2]) >= 0.0 and row.split(",")[3] == "nan" for row in rows)


def test_a_nan_bracket_prints_a_nan_j(tmp_path, capsys):
    # at theta 20 the iterate's small components fall below float resolution
    # and every bracket is [nan, inf]: its midpoint is nan, not a J of 0.0,
    # and the row is not certified
    instance = {"taus": [2, 3], "ps": [0.6, 0.7], "theta": 20}
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=["op-iterative", "mlg", "prr", "sn"], sweep=None)
    with pytest.warns(RuntimeWarning):
        assert main(["solve", "--config", str(cfg_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == CSV_HEADER and len(rows) == 4
    assert all(row.split(",")[2:4] == ["nan", "nan"] and row.split(",")[-1] == "false" for row in rows)


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instance": {"taus": [2], "ps": [0.5], "theta": 0.1}}))
    assert main(["describe", "--config", str(bad)]) == 2
    assert main(["describe", "--config", str(tmp_path / "missing.json")]) == 2

    cfg_path = _tiny_config(tmp_path)
    assert main(["describe", "--config", str(cfg_path)]) == 0
    out = tmp_path / "run.csv"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text().startswith(CSV_HEADER)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert CSV_HEADER in captured.out


@pytest.mark.parametrize("command, evaluation", [("solve", "exact"), ("simulate", "simulate")])
@pytest.mark.parametrize("axis", ["epsilon", "theta"])
def test_single_point_commands_evaluate_the_base_point(tmp_path, capsys, command, evaluation, axis):
    # the base point (epsilon = theta = 0.05), which describe reports, is not the first sweep value
    cfg_path = _tiny_config(tmp_path, sweep={"axis": axis, "values": [0.02, 0.05]}, evaluation=evaluation)
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    swept = capsys.readouterr().out.splitlines()
    assert main([command, "--config", str(cfg_path)]) == 0
    single = capsys.readouterr().out.splitlines()
    assert single[0] == CSV_HEADER and len(single) > 1
    assert single[1:] == [row for row in swept[1:] if row.startswith("0.05,")]


def _plain_instance(**fields):
    """Overrides for a plain instance with ``fields`` set (``None`` drops one), swept over theta."""
    instance = {"taus": [2, 3], "ps": [0.6, 0.7], "theta": 0.05, **fields}
    instance = {key: value for key, value in instance.items() if value is not None}
    return {"instance": instance, "sweep": {"axis": "theta", "values": [0.05, 0.1]}}


@pytest.mark.parametrize(
    "overrides",
    [
        {"sim": {"horizon": 0, "trials": 8}},
        {"sim": {"trials": 8}},
        {"sim": {"horizon": 2000, "trials": 8, "warmup": -1}},
        {"sim": [2000, 8]},
        {"seed": -1},
        {"seed": 3.9},
        {"sim": {"horizon": 2000, "trials": 2.7}},
        {"sim": {"horizon": 2000, "trials": True}},
        {"sim": {"horizon": 2000, "trials": "100"}},
        {"policies": ["mlg", {"name": "explicit", "decisions": [1, 2, 1]}]},
        {"policies": [{"name": "explicit"}]},
        {"policies": [{"name": "explicit", "decisions": [3] * 12}]},
        {"policies": [{"name": "ps", "max_period": "x"}]},
        {"sweep": [0.05, 0.1]},
        {"sweep": {"axis": "epsilon", "values": 5}},
        {"output": 5},
        {"output": ""},
        {"policies": [{"name": "explicit", "decisions": [True] * 12}]},
        _plain_instance(theta=math.inf),
        {"sweep": {"axis": "theta", "values": [0.05, math.inf]}},
        _plain_instance(taus=[2.5, 3]),
        _plain_instance(taus=[True, 3]),
        _plain_instance(taus=["2", 3]),
        _plain_instance(ps=["0.6", 0.7]),
        _plain_instance(theta="0.05"),
        _plain_instance(theta=True),
        {"instance": {"taus": [2, 3], "bs": [1.0, True], "epsilon": 0.05, "theta": 0.05}},
        _plain_instance(ps=None),
        {"enumeration_cap": 5},
        {"exact_state_cap": 5},
        {"evaluaton": "exact"},
        {"sim": {"horizon": 2000, "trials": 8, "warmpu": 100}},
        {"policies": ["mlg", {"name": "ps", "max_period": 3}, {"name": "ps", "max_period": 6}, "mlg"]},
        {"policies": [{"name": "sn", "coefficients": [2, 1]}]},
        {"policies": [{"name": "prr", "max_period": 5}]},
    ],
    ids=[
        "zero-horizon",
        "no-horizon",
        "negative-warmup",
        "sim-not-an-object",
        "negative-seed",
        "fractional-seed",
        "fractional-trials",
        "boolean-trials",
        "string-trials",
        "explicit-wrong-length",
        "explicit-no-decisions",
        "explicit-client-out-of-range",
        "ps-period-not-a-number",
        "sweep-not-an-object",
        "sweep-values-not-a-list",
        "output-not-a-string",
        "output-empty",
        "explicit-boolean-decisions",
        "theta-infinite",
        "sweep-value-infinite",
        "fractional-threshold",
        "boolean-threshold",
        "string-threshold",
        "string-reliability",
        "string-theta",
        "boolean-theta",
        "boolean-coefficient",
        "no-reliabilities",
        "retired-enumeration-cap",
        "retired-exact-state-cap",
        "misspelt-key",
        "misspelt-sim-key",
        "repeated-policy",
        "sn-coefficients",
        "prr-max-period",
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, overrides):
    # each is rejected when the config loads, not by a traceback mid-sweep
    cfg_path = _tiny_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        load_config(cfg_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "sweep-output-key", "emit-policy"])
@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch, command, target):
    # a missing directory or a directory, named by --out or by the config's output;
    # a sweep reports it before its optimum search
    def no_search(insts):
        raise AssertionError("the sweep ran before its output was checked")

    monkeypatch.setattr(exact, "growth_rate_optima", no_search)
    out = str(tmp_path / target)
    if command == "sweep-output-key":
        assert main(["sweep", "--config", str(_tiny_config(tmp_path, output=out))]) == 2
    else:
        extra = ["--policy", "mlg"] if command == "emit-policy" else []
        assert main([command, "--config", str(_tiny_config(tmp_path)), "--out", out, *extra]) == 2
    assert "config error: cannot write the output" in capsys.readouterr().err


def test_simulated_sweep_with_the_renewal_state_outside_the_clipped_space(tmp_path, capsys):
    # thresholds (1, 1, 1) clip away the renewal state (0, 1, 2), which the estimates never need
    instance = {"taus": [1, 1, 1], "bs": [1.0, 1.0, 1.0], "epsilon": 0.05, "theta": 0.05}
    policies = ["op-iterative", "prr", "wdd"]
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=policies, evaluation="simulate")
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * len(policies)


def test_structural_errors_exit_with_code_3(tmp_path, capsys, monkeypatch):
    def broken(insts):
        raise StructuralError("no closed class")

    monkeypatch.setattr(exact, "growth_rate_optima", broken)
    assert main(["sweep", "--config", str(_tiny_config(tmp_path))]) == 3
    assert capsys.readouterr().err == "error: no closed class\n"


@pytest.mark.parametrize("command", ["sweep", "emit-policy"])
def test_a_retired_policy_name_lists_the_known_ones(tmp_path, capsys, command):
    if command == "sweep":
        argv = ["sweep", "--config", str(_tiny_config(tmp_path, policies=["op-exhaustive", "mlg"]))]
    else:
        argv = ["emit-policy", "--config", str(_tiny_config(tmp_path)), "--policy", "op-exhaustive"]
    assert main(argv) == 2
    assert "unknown policy 'op-exhaustive'; known: op-iterative" in capsys.readouterr().err


def test_integral_numbers_are_integers(tmp_path):
    cfg = load_config(_tiny_config(tmp_path, sim={"horizon": 1e5, "trials": 8.0}, seed=3))
    assert cfg.sim_config["horizon"] == 100_000 and type(cfg.sim_config["horizon"]) is int
    assert cfg.sim_config["trials"] == 8 and type(cfg.sim_config["trials"]) is int


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, command):
    cfg_path = _tiny_config(tmp_path)
    assert main([command, "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["config", "override"])
def test_a_seed_past_64_bits_is_a_config_error(tmp_path, capsys, route):
    # the simulator's keys are 64-bit: 2**64 would fold onto seed 0, so it is
    # refused by name, and the largest key runs
    for seed, status in ((2**64, 2), (2**65 + 7, 2), (2**64 - 1, 0)):
        sim_rows = {"policies": ["prr"], "evaluation": "simulate", "sim": {"horizon": 200, "trials": 2}}
        if route == "config":
            argv = ["sweep", "--config", str(_tiny_config(tmp_path, **sim_rows, seed=seed))]
        else:
            argv = ["sweep", "--config", str(_tiny_config(tmp_path, **sim_rows)), "--seed", str(seed)]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == status
        err = capsys.readouterr().err
        assert ("config error" in err and "'seed' must be below 2**64" in err) == (status == 2)


@pytest.mark.parametrize("name", ["ps", "explicit"])
def test_emit_policy_ps_needs_a_max_period(name):
    # fig4 has neither a ps spec with a max_period nor an explicit spec with decisions
    cfg = load_config(bundled_config_path("fig4"))
    with pytest.raises(ConfigError):
        emit_policy(cfg, name)


def test_seed_override_changes_only_simulated_rows(tmp_path):
    cfg_path = _tiny_config(
        tmp_path,
        policies=["op-iterative", "wdd"],
        sweep={"axis": "epsilon", "values": [0.05]},
    )
    cfg_a = load_config(cfg_path)
    cfg_b = load_config(cfg_path)
    cfg_b.seed = cfg_a.seed + 1
    rows_a = {r.policy: r for r in run_experiment(cfg_a)}
    rows_b = {r.policy: r for r in run_experiment(cfg_b)}
    assert rows_a["op-iterative"].j == rows_b["op-iterative"].j
    assert rows_a["wdd"].j != rows_b["wdd"].j


def _count_optimum_calls(monkeypatch) -> list[list]:
    """The results of each ``exact.growth_rate_optima`` call, in call order."""
    calls = []
    original = exact.growth_rate_optima

    def counted(insts):
        calls.append(original(insts))
        return calls[-1]

    monkeypatch.setattr(exact, "growth_rate_optima", counted)
    return calls


@pytest.mark.parametrize("evaluation", ["simulate", "both"])
def test_each_optimum_is_computed_once_per_point(tmp_path, monkeypatch, evaluation):
    calls = _count_optimum_calls(monkeypatch)
    cfg_path = _tiny_config(tmp_path, policies=["op-iterative", "mlg"], evaluation=evaluation)
    rows = run_experiment(load_config(cfg_path))
    assert len(rows) == 2 * 2 * (2 if evaluation == "both" else 1)
    # the optima of both points come from one stacked call
    assert [len(results) for results in calls] == [2]


@pytest.mark.parametrize(
    "overrides",
    [
        {"policies": ["mlg"]},  # thresholds (2, 3)
        {  # one client: a single decision map
            "instance": {"taus": [3], "ps": [0.7], "theta": 0.05},
            "policies": ["prr"],
            "sweep": {"axis": "theta", "values": [0.05, 0.1]},
        },
    ],
    ids=["thresholds-2-3", "one-client"],
)
def test_reference_is_the_stacked_growth_rate_optimum(tmp_path, monkeypatch, overrides):
    # a sweep without op-iterative still reads each point's growth-rate optimum as its reference
    calls = _count_optimum_calls(monkeypatch)
    rows = run_experiment(load_config(_tiny_config(tmp_path, **overrides)))
    (optima,) = calls
    assert len(rows) == len(optima) == 2
    for row, optimum in zip(rows, optima):
        assert row.j_normalized == row.j / optimum.average_cost
        assert row.j_normalized >= 1.0 - 1e-9  # no policy beats the optimum


def _count_simulation_calls(monkeypatch) -> list[int]:
    """The number of points of each ``sim.estimate_costs`` call, in call order."""
    calls = []
    original = sim.estimate_costs

    def counted(insts, *args, **kwargs):
        calls.append(len(insts))
        return original(insts, *args, **kwargs)

    monkeypatch.setattr(sim, "estimate_costs", counted)
    return calls


@pytest.mark.parametrize(
    "evaluation, policies, calls",
    [
        ("simulate", ["op-iterative", "mlg", "prr", {"name": "ps", "max_period": 4}], [8]),
        ("both", ["op-iterative", "mlg", "prr", "wdd"], [8]),
        ("exact", ["op-iterative", "mlg", "wdd"], [2]),
        ("exact", ["op-iterative", "mlg", "prr"], []),
    ],
)
def test_one_simulation_call_per_sweep(tmp_path, monkeypatch, evaluation, policies, calls):
    # every simulated (policy, point) pair of the two-point sweep goes to one call
    counted = _count_simulation_calls(monkeypatch)
    run_experiment(load_config(_tiny_config(tmp_path, policies=policies, evaluation=evaluation)))
    assert counted == calls


def test_a_sweep_builds_each_policy_once(tmp_path, monkeypatch):
    # three points of one sweep, evaluated exactly and simulated: the PS search
    # reads only the thresholds, so it runs once; every other policy is built
    # once per point, and one transition table serves every point
    calls = {"build_periodic_schedule": 0, "prr_chain": 0, "sn_policy": 0}
    for module, name in ((heuristics, "build_periodic_schedule"), (heuristics, "prr_chain"), (asymptotic, "sn_policy")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    instance = {"taus": [2, 3, 4], "bs": [1.0, 2.0, 3.0], "epsilon": 0.05, "theta": 0.05}
    cfg_path = _tiny_config(
        tmp_path,
        instance=instance,
        policies=["sn", "prr", {"name": "ps", "max_period": 6}],
        sweep={"axis": "epsilon", "values": [0.02, 0.05, 0.1]},
        evaluation="both",
        sim={"horizon": 300, "trials": 2},
    )
    model.transition_tables.cache_clear()
    rows = run_experiment(load_config(cfg_path))
    assert len(rows) == 3 * 3 * 2
    assert calls == {"build_periodic_schedule": 1, "prr_chain": 3, "sn_policy": 3}
    assert model.transition_tables.cache_info().misses == 1


def test_an_epsilon_sweep_builds_one_excess_table(tmp_path):
    # SN's level sets read the all-success window excess, which depends on the
    # thresholds and theta alone: the three points of an epsilon sweep share it
    instance = {"taus": [2, 3, 4], "bs": [1.0, 1.0, 1.0], "epsilon": 0.1, "theta": 0.05}
    cfg_path = _tiny_config(tmp_path, instance=instance, policies=["sn"], sweep={"axis": "epsilon", "values": [0.1, 0.2, 0.3]})
    asymptotic._excess_tables.cache_clear()
    assert len(run_experiment(load_config(cfg_path))) == 3
    assert asymptotic._excess_tables.cache_info().misses == 1


@pytest.mark.parametrize(
    "instance, sweep",
    [
        ({"taus": [2, 3], "ps": [0.6, 0.7], "theta": 0.05}, {"axis": "theta", "values": [0.02, 0.05, 0.1]}),
        ({"taus": [2, 3], "bs": [1.0, 2.0], "epsilon": 0.1, "theta": 0.05}, {"axis": "epsilon", "values": [0.05, 0.1, 0.2]}),
    ],
)
def test_sweep_rows_equal_single_point_rows(instance, sweep):
    # stacking the points and policies of a sweep, and sharing trials between
    # pairs with equal engine inputs, leaves every row as a run of that one
    # point and policy writes it
    policies = ["mlg", "prr", "wdd", {"name": "ps", "max_period": 4}]
    sim_section = {"horizon": 900, "trials": 6, "warmup": 40}
    common = {"instance": instance, "evaluation": "both", "sim": sim_section, "seed": 3}
    swept = run_experiment(load_config({**common, "policies": policies, "sweep": sweep}))
    single = [
        row
        for value in sweep["values"]
        for policy in policies
        for row in run_experiment(
            load_config({**common, "policies": [policy], "sweep": {"axis": sweep["axis"], "values": [value]}})
        )
    ]
    single.sort(key=lambda r: (r.sweep_value, r.policy, r.method))
    assert len(swept) == 3 * (2 * len(policies) - 1)  # WDD has no exact row
    assert [row.csv() for row in swept] == [row.csv() for row in single]
