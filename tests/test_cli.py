import json

import pytest

from idsched import exact, sim
from idsched.cli import (
    CSV_HEADER,
    bundled_config_path,
    describe,
    emit_policy,
    load_config,
    main,
    run_experiment,
)
from idsched.errors import ConfigError


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
    with pytest.raises(ConfigError):
        load_config({"policies": ["mlg"]})
    with pytest.raises(ConfigError):
        load_config({"instance": {"taus": [2], "ps": [0.5], "theta": 0.1}, "policies": []})
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


def test_bundled_configs_parse():
    for name in ("fig3_small", "fig4", "fig5"):
        cfg = load_config(bundled_config_path(name))
        assert cfg.sweep_values


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


def test_run_experiment_state_cap(tmp_path):
    cfg_path = _tiny_config(tmp_path, exact_state_cap=5)
    with pytest.raises(ConfigError):
        run_experiment(load_config(cfg_path))

    # the optimum reference and WDD's simulation build no finite chain
    cfg_path = _tiny_config(tmp_path, policies=["op-iterative", "wdd"], exact_state_cap=5)
    rows = run_experiment(load_config(cfg_path))
    assert {(row.policy, row.method) for row in rows} == {("op-iterative", "growth_rate"), ("wdd", "simulate")}


def test_sweep_values_that_break_the_instance_are_config_errors(tmp_path):
    # b * eps reaching 1 would drive a reliability to zero
    cfg_path = _tiny_config(
        tmp_path,
        instance={"taus": [2, 3], "bs": [2.0, 1.0], "epsilon": 0.05, "theta": 0.05},
        sweep={"axis": "epsilon", "values": [0.05, 0.6]},
    )
    with pytest.raises(ConfigError):
        run_experiment(load_config(cfg_path))


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


@pytest.mark.parametrize(
    "overrides",
    [
        {"sim": {"horizon": 0, "trials": 8}},
        {"sim": {"trials": 8}},
        {"sim": {"horizon": 2000, "trials": 8, "warmup": -1}},
        {"sim": [2000, 8]},
        {"exact_state_cap": "lots"},
        {"enumeration_cap": None},
        {"seed": -1},
        {"policies": ["mlg", {"name": "explicit", "decisions": [1, 2, 1]}]},
        {"policies": [{"name": "explicit"}]},
        {"policies": [{"name": "explicit", "decisions": [3] * 12}]},
        {"policies": [{"name": "ps", "max_period": "x"}]},
        {"sweep": [0.05, 0.1]},
    ],
    ids=[
        "zero-horizon",
        "no-horizon",
        "negative-warmup",
        "sim-not-an-object",
        "state-cap-not-a-number",
        "enumeration-cap-null",
        "negative-seed",
        "explicit-wrong-length",
        "explicit-no-decisions",
        "explicit-client-out-of-range",
        "ps-period-not-a-number",
        "sweep-not-an-object",
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, overrides):
    # each is rejected when the config loads, not by a traceback mid-sweep
    cfg_path = _tiny_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        load_config(cfg_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_resource_limits_exit_with_code_3(tmp_path, capsys):
    # thresholds (2, 3) have 2**10 NE policies, above an enumeration cap of 5
    cfg_path = _tiny_config(tmp_path, policies=["op-exhaustive"], enumeration_cap=5)
    assert main(["sweep", "--config", str(cfg_path)]) == 3
    assert "enumeration cap" in capsys.readouterr().err


def test_emit_policy_ps_needs_a_max_period():
    cfg = load_config(bundled_config_path("fig4"))  # no ps spec
    with pytest.raises(ConfigError):
        emit_policy(cfg, "ps")


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


def _count_optimum_calls(monkeypatch) -> dict:
    calls = {"growth_rate_optimal": 0, "exhaustive_optimal": 0}
    for name in calls:
        original = getattr(exact, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exact, name, counted)
    return calls


@pytest.mark.parametrize("evaluation", ["simulate", "both"])
def test_each_optimum_is_computed_once_per_point(tmp_path, monkeypatch, evaluation):
    calls = _count_optimum_calls(monkeypatch)
    cfg_path = _tiny_config(tmp_path, policies=["op-iterative", "op-exhaustive", "mlg"], evaluation=evaluation)
    rows = run_experiment(load_config(cfg_path))
    assert len(rows) == 2 * 3 * (2 if evaluation == "both" else 1)
    assert calls == {"growth_rate_optimal": 2, "exhaustive_optimal": 2}


@pytest.mark.parametrize(
    "cap, expected",
    [
        (1024, {"growth_rate_optimal": 0, "exhaustive_optimal": 1}),
        (1023, {"growth_rate_optimal": 1, "exhaustive_optimal": 0}),
    ],
)
def test_reference_is_exhaustive_exactly_when_the_ne_policies_fit_the_cap(tmp_path, monkeypatch, cap, expected):
    # thresholds (2, 3): 12 states, two of them exclusion states, so 2**10 NE policies
    calls = _count_optimum_calls(monkeypatch)
    sweep = {"axis": "epsilon", "values": [0.05]}
    cfg_path = _tiny_config(tmp_path, policies=["mlg"], sweep=sweep, enumeration_cap=cap)
    (row,) = run_experiment(load_config(cfg_path))
    assert calls == expected
    assert row.j_normalized >= 1.0 - 1e-9  # MLG cannot beat either optimum


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


@pytest.mark.parametrize(
    "instance, sweep",
    [
        ({"taus": [2, 3], "ps": [0.6, 0.7], "theta": 0.05}, {"axis": "theta", "values": [0.02, 0.05, 0.1]}),
        ({"taus": [2, 3], "bs": [1.0, 2.0], "epsilon": 0.1, "theta": 0.05}, {"axis": "epsilon", "values": [0.05, 0.1, 0.2]}),
    ],
)
def test_sweep_rows_equal_single_point_rows(tmp_path, instance, sweep):
    # stacking the points and policies of a sweep, and sharing trials between
    # pairs with equal engine inputs, leaves every row as a run of that one
    # point and policy writes it; an enumeration cap below the 2**10 NE
    # policies keeps each run's optimum reference on the growth-rate method
    policies = ["mlg", "prr", "wdd", {"name": "ps", "max_period": 4}]
    sim_section = {"horizon": 900, "trials": 6, "warmup": 40}
    common = {"instance": instance, "evaluation": "both", "sim": sim_section, "seed": 3, "enumeration_cap": 1000}
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
