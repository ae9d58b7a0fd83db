import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coopsense import cli, sim
from coopsense.model import ScenarioParams

SCENARIO = {
    "n_total": 6, "n_attackers": 2, "p_idle": 0.6,
    "p_false_alarm": 0.08, "p_missed_detection": 0.08,
    "collision_penalty": 10000.0, "discount": 0.9,
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _doc(command, options=None, out_dir=".", scenario=None):
    return {
        "scenario": dict(scenario or SCENARIO),
        "command": {"name": command, "options": options or {}},
        "output": {"directory": out_dir},
    }


def test_parse_config_happy_path():
    run = cli.parse_config(_doc("analyze"))
    assert run.command == "analyze"
    assert run.params.n_total == 6
    assert run.hetero is None
    assert run.formats == ("json", "csv")


def test_parse_config_hetero():
    scenario = dict(SCENARIO, n_attackers=1, p_false_alarm_attacker=0.05,
                    p_missed_detection_attacker=0.06, rate_attacker=2.0)
    run = cli.parse_config(_doc("analyze", scenario=scenario))
    assert run.hetero is not None
    assert run.hetero.rate_attacker == 2.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d["scenario"].update(bogus=1),
    lambda d: d["command"].update(flags=[]),
    lambda d: d["command"]["options"].update(wrong=True),
    lambda d: d["output"].update(zip=True),
    lambda d: d["command"].update(name="explode"),
    lambda d: d["output"].update(formats=["yaml"]),
    lambda d: d.pop("scenario"),
    lambda d: d["scenario"].update(p_idle=1.5),
    lambda d: d["scenario"].update(n_attackers=9),
])
def test_parse_config_rejections(mutate):
    doc = _doc("analyze")
    mutate(doc)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)


def test_analyze_outputs(tmp_path):
    doc = _doc("analyze", options={"n_sweep": [2, 4, 6]},
               out_dir=str(tmp_path))
    code = cli.main(["analyze", "--config", _write_config(tmp_path, doc)])
    assert code == 0
    report = json.loads((tmp_path / "analysis.json").read_text())
    assert report["schema_version"] == 7
    assert report["collision_penalty_window"]["region"] == "II"
    assert report["transmission_case"] == "AT"
    assert len(report["posterior_table"]) == 7
    rows = list(csv.DictReader(open(tmp_path / "collision_penalty_window.csv")))
    assert [r["n_total"] for r in rows] == ["2", "4", "6"]
    assert float(rows[2]["lower_bound"]) == pytest.approx(4372.515625, rel=1e-12)


def test_thresholds_outputs(tmp_path):
    doc = _doc("thresholds", options={"n_values": [6]}, out_dir=str(tmp_path))
    code = cli.main(["thresholds", "--config", _write_config(tmp_path, doc)])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "direct_thresholds.csv")))
    assert len(rows) == 5
    values = [float(r["threshold"]) for r in rows]
    assert values == sorted(values, reverse=True)
    indirect_rows = list(csv.DictReader(open(tmp_path
                                             / "indirect_thresholds.csv")))
    assert {r["transmission_case"] for r in indirect_rows} <= {"NT", "AT"}


@pytest.mark.parametrize("options, message", [
    # used to print a math domain error traceback and exit 1
    ({"p_idle_values": [1.0]}, "p_idle must lie in (0, 1)"),
    # used to write empty CSVs and exit 0
    ({"n_values": [1]}, "n_total must be an integer >= 2"),
    # used to write the homogeneous CSVs, then raise a math domain error
    ({"attacker_error_values": [0.1, 1.0]},
     "p_false_alarm_attacker must lie in (0, 1)"),
], ids=["p_idle_one", "one_su", "attacker_error_one"])
def test_thresholds_invalid_grid_is_config_error(tmp_path, capsys, options,
                                                 message):
    scenario = dict(SCENARIO, n_attackers=1, p_false_alarm_attacker=0.05,
                    p_missed_detection_attacker=0.3)
    doc = _doc("thresholds", options=options, out_dir=str(tmp_path / "out"),
               scenario=scenario)
    assert cli.main(["thresholds", "--config",
                     _write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_thresholds_attacker_errors_need_hetero_fields(tmp_path, capsys):
    # used to exit 0 without writing hetero_thresholds.csv
    doc = _doc("thresholds", options={"attacker_error_values": [0.1]},
               out_dir=str(tmp_path / "out"))
    assert cli.main(["thresholds", "--config",
                     _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "attacker_error_values" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("rate_attacker", math.inf),
    ("rates_honest", [1.0, 1.0, 1.0, 1.0, math.inf]),
], ids=["attacker", "honest"])
def test_simulate_infinite_hetero_rate_is_config_error(tmp_path, capsys,
                                                       field, value):
    # JSON Infinity parses; simulate used to write a NaN reference, exit 0
    scenario = dict(SCENARIO, n_attackers=1, collision_penalty=100.0,
                    p_false_alarm_attacker=0.05,
                    p_missed_detection_attacker=0.3, **{field: value})
    doc = _doc("simulate",
               options={"punishment_mode": "direct", "horizon": 50,
                        "replications": 2},
               out_dir=str(tmp_path / "out"), scenario=scenario)
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "must be finite and > 0" in err
    assert not (tmp_path / "out").exists()


def test_simulate_outputs_and_reference(tmp_path):
    scenario = dict(SCENARIO, collision_penalty=100.0)
    doc = _doc("simulate",
               options={"punishment_mode": "none", "horizon": 500,
                        "replications": 3, "trace_slots": 4},
               out_dir=str(tmp_path), scenario=scenario)
    code = cli.main(["simulate", "--config", _write_config(tmp_path, doc),
                     "--seed", "42"])
    assert code == 0
    payload = json.loads((tmp_path / "simulation.json").read_text())
    assert payload["simulation"]["base_seed"] == 42
    assert "per_slot_attacker" in payload["analytic"]
    assert "mean" in payload["stats"]["per_slot_attacker"]
    trace = list(csv.DictReader(open(tmp_path / "trace.csv")))
    assert len(trace) == 4


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main() builds its parser once per process; a usage error on it and
    # another subcommand leave the next simulate call's output unchanged
    assert cli._parser() is cli._parser()
    scenario = dict(SCENARIO, collision_penalty=100.0)
    doc = _doc("simulate",
               options={"punishment_mode": "indirect", "horizon": 192,
                        "replications": 30}, scenario=scenario)
    config = _write_config(tmp_path, doc)
    analyze = _write_config(tmp_path, _doc("analyze"), "analyze.json")
    calls = (["simulate", "--config", config, "--out", str(tmp_path / "a"),
              "--seed", "3"],
             ["simulate", "--seed", "3"],  # no --config: argparse exits 2
             ["analyze", "--config", analyze, "--out", str(tmp_path / "b")],
             ["simulate", "--config", config, "--out", str(tmp_path / "c"),
              "--seed", "3"])
    codes = []
    for argv in calls:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    assert codes == [0, 2, 0, 0]
    assert "--config" in capsys.readouterr().err
    first = (tmp_path / "a" / "simulation.json").read_bytes()
    assert (tmp_path / "c" / "simulation.json").read_bytes() == first
    # the stats block is dataclasses.asdict's, without its deep copies
    stats = sim.run_experiment(sim.SimConfig(
        params=ScenarioParams(**scenario), punishment_mode="indirect",
        horizon=192, replications=30, base_seed=3))
    assert json.loads(first)["stats"] == json.loads(
        json.dumps(dataclasses.asdict(stats)))


@pytest.mark.parametrize("slots", [-1, 501], ids=["negative", "past_horizon"])
def test_simulate_trace_slots_out_of_bounds(tmp_path, capsys, slots):
    # a negative length used to write a trace.csv of its header alone
    doc = _doc("simulate",
               options={"horizon": 500, "replications": 3,
                        "trace_slots": slots},
               out_dir=str(tmp_path / "out"))
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, doc)]) == 2
    assert "trace_slots must lie in [0, horizon] = [0, 500]" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["none", "direct", "indirect"])
def test_simulate_large_group(tmp_path, mode):
    # binomial coefficients past the float range from N = 1030 once made
    # every mode exit 3 with an OverflowError
    scenario = {"n_total": 1100, "n_attackers": 2, "p_idle": 0.6,
                "p_false_alarm": 0.001, "p_missed_detection": 0.3,
                "collision_penalty": 1e300, "direct_punishment": 1.0,
                "discount": 0.9}
    doc = _doc("simulate",
               options={"punishment_mode": mode, "horizon": 100,
                        "replications": 2},
               out_dir=str(tmp_path), scenario=scenario)
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, doc)]) == 0
    payload = json.loads((tmp_path / "simulation.json").read_text())
    assert payload["analytic"]
    assert all(math.isfinite(v) for v in payload["analytic"].values())


def test_simulate_hetero_reports_attacker_reference(tmp_path):
    scenario = dict(SCENARIO, n_attackers=1, collision_penalty=100.0,
                    p_false_alarm_attacker=0.05,
                    p_missed_detection_attacker=0.3, rate_attacker=1.5)
    doc = _doc("simulate",
               options={"punishment_mode": "direct", "horizon": 500,
                        "replications": 3},
               out_dir=str(tmp_path), scenario=scenario)
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, doc)]) == 0
    payload = json.loads((tmp_path / "simulation.json").read_text())
    assert set(payload["analytic"]) == {"per_slot_attacker"}


def test_simulate_hetero_indirect_optimal_is_config_error(tmp_path, capsys):
    scenario = dict(SCENARIO, n_attackers=1, p_false_alarm_attacker=0.05,
                    p_missed_detection_attacker=0.3)
    doc = _doc("simulate",
               options={"punishment_mode": "indirect", "horizon": 10,
                        "replications": 1},
               out_dir=str(tmp_path / "out"), scenario=scenario)
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, doc)]) == 2
    assert "homogeneous attackers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_workers_creates_no_directory(tmp_path):
    out_dir = tmp_path / "never"
    doc = _doc("analyze", out_dir=str(out_dir))
    config = _write_config(tmp_path, doc)
    assert cli.main(["analyze", "--config", config, "--workers", "0"]) == 2
    assert not out_dir.exists()
    assert cli.main(["analyze", "--config", config, "--workers", "0",
                     "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_simulate_worker_invariance(tmp_path):
    scenario = dict(SCENARIO, collision_penalty=100.0)
    doc = _doc("simulate",
               options={"punishment_mode": "indirect", "horizon": 400,
                        "replications": 8},
               out_dir=str(tmp_path), scenario=scenario)
    config = _write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", config, "--workers", "1"]) == 0
    first = (tmp_path / "simulation.json").read_bytes()
    assert cli.main(["simulate", "--config", config, "--workers", "8"]) == 0
    assert (tmp_path / "simulation.json").read_bytes() == first


def test_simulate_builds_the_policy_tables_once(tmp_path, monkeypatch,
                                                fresh_caches):
    # the optimal indirect tables solve the termination MDP; the estimate
    # and the trace share one build, and read the same as separate builds
    scenario = dict(SCENARIO, collision_penalty=100.0)
    doc = _doc("simulate",
               options={"punishment_mode": "indirect", "horizon": 300,
                        "replications": 4, "trace_slots": 300},
               out_dir=str(tmp_path), scenario=scenario)
    doc["output"]["formats"] = ["json", "csv"]
    config = sim.SimConfig(params=ScenarioParams(**scenario),
                           punishment_mode="indirect", horizon=300,
                           replications=4, base_seed=7)
    stats, trace = sim.run_experiment(config), sim.run_trace(config, 300)
    build, calls = sim.build_policy_tables, []

    def counted(config):
        calls.append(config.attacker_policy)
        return build(config)

    monkeypatch.setattr(sim, "build_policy_tables", counted)
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc),
                     "--seed", "7"]) == 0
    assert calls[0] == "optimal"
    assert all(isinstance(policy, sim.PolicyTables) for policy in calls[1:])
    payload = json.loads((tmp_path / "simulation.json").read_text())
    assert payload["simulation"]["attacker_policy"] == "optimal"
    assert payload["stats"]["per_slot_attacker"]["mean"] \
        == stats.per_slot_attacker.mean
    assert payload["stats"]["punishment_trigger_slots"] == {
        str(slot): count
        for slot, count in stats.punishment_trigger_slots.items()}
    rows = list(csv.DictReader(open(tmp_path / "trace.csv")))
    assert [row["punishment_on"] == "True" for row in rows] \
        == [slot.punishment_on for slot in trace]
    assert [float(row["attacker_reward"]) for row in rows] \
        == [slot.attacker_reward for slot in trace]


def test_verify_passes_and_perturbation_fails(tmp_path):
    doc = _doc("verify", options={"instances": 3, "seed": 1,
                                  "sim_instances": 1},
               out_dir=str(tmp_path))
    assert cli.main(["verify", "--config", _write_config(tmp_path, doc)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"]
    assert len(report["checks"]) == 4

    doc["command"]["options"]["perturb_direct_threshold"] = True
    code = cli.main(["verify", "--config",
                     _write_config(tmp_path, doc, "perturbed.json")])
    assert code == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["direct_threshold_oracle_agreement"]


@pytest.mark.parametrize("module, name, nan, check", [
    ("direct", "direct_threshold_oracle", math.nan,
     "direct_threshold_oracle_agreement"),
    ("indirect", "delta_threshold_oracle", math.nan,
     "delta_threshold_oracle_agreement"),
    ("mdp", "start_value", math.nan, "mdp_closed_form_equivalence"),
    ("oneshot", "expected_slot_rewards", (math.nan, math.nan),
     "simulation_analytic_agreement"),
], ids=["direct", "delta", "mdp", "sim"])
def test_verify_fails_a_nan_disagreement(tmp_path, monkeypatch, module,
                                         name, nan, check):
    monkeypatch.setattr(getattr(cli, module), name,
                        lambda *args, **kwargs: nan)
    doc = _doc("verify", options={"instances": 3, "seed": 1,
                                  "sim_instances": 1},
               out_dir=str(tmp_path))
    assert cli.main(["verify", "--config", _write_config(tmp_path, doc)]) == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [check]
    assert "nan" in failed[0]["detail"]


def test_verify_empty_grid_is_usage_error(tmp_path):
    doc = _doc("verify", options={"instances": 0}, out_dir=str(tmp_path))
    assert cli.main(["verify", "--config", _write_config(tmp_path, doc)]) == 2


def test_exit_codes_for_config_problems(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["analyze", "--config", missing]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["analyze", "--config", str(garbled)]) == 2

    bad_scenario = _doc("analyze", scenario=dict(SCENARIO, discount=2.0))
    assert cli.main(["analyze", "--config",
                     _write_config(tmp_path, bad_scenario)]) == 2

    mismatch = _doc("thresholds", out_dir=str(tmp_path))
    assert cli.main(["analyze", "--config",
                     _write_config(tmp_path, mismatch)]) == 2


@pytest.mark.parametrize("command,options,message", [
    # used to escape as a ValueError traceback with exit 1
    ("simulate", {"horizon": "long"}, 'horizon must be an integer, not "long"'),
    # used to be truncated to 2 slots without a word
    ("simulate", {"horizon": 2.7}, "horizon must be an integer, not 2.7"),
    ("simulate", {"replications": True}, "replications must be an integer"),
    ("simulate", {"trace_slots": "4"}, "trace_slots must be an integer"),
    ("thresholds", {"n_values": ["six"]}, "n_values must be a list of integers"),
    ("thresholds", {"n_values": [2.7]}, "n_values must be a list of integers"),
    ("thresholds", {"p_idle_values": 0.5}, "p_idle_values must be a list"),
    ("thresholds", {"c_p_values": [None]}, "c_p_values must be a list"),
    ("verify", {"instances": "12"}, "instances must be an integer"),
    ("verify", {"sim_instances": 1.5}, "sim_instances must be an integer"),
], ids=["horizon_text", "horizon_fraction", "replications_bool",
        "trace_slots_text", "n_values_text", "n_values_fraction",
        "p_idle_values_scalar", "c_p_values_null", "instances_text",
        "sim_instances_fraction"])
def test_option_types_are_config_errors(tmp_path, capsys, command, options,
                                        message):
    doc = _doc(command, options=options, out_dir=str(tmp_path / "out"))
    assert cli.main([command, "--config", _write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,options,argv,message", [
    # used to exit 3 with "expected non-negative integer" from numpy,
    # leaving an empty output directory behind
    ("simulate", {"horizon": 5, "replications": 2}, ["--seed", "-1"],
     "--seed must be non-negative"),
    ("verify", {"instances": 1, "seed": -5}, [],
     "seed must be a non-negative integer, not -5"),
    ("verify", {"instances": 1}, ["--seed", "-2"],
     "--seed must be non-negative"),
], ids=["simulate_flag", "verify_option", "verify_flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, command, options,
                                       argv, message):
    doc = _doc(command, options=options, out_dir=str(tmp_path / "out"))
    assert cli.main([command, "--config", _write_config(tmp_path, doc)]
                    + argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,mutate,message", [
    # used to run the optimal policy and label it "custom"
    ("simulate", lambda d: d["command"]["options"].update(attacker_policy=5),
     "attacker_policy must be a string, not 5"),
    # used to be read as bool("false"), fail the check and exit 1
    ("verify", lambda d: d["command"]["options"].update(
        perturb_direct_threshold="false"),
     'perturb_direct_threshold must be a boolean, not "false"'),
    # these three used to end in a TypeError traceback
    ("analyze", lambda d: d["output"].update(directory=5),
     "output directory must be a string, not 5"),
    ("analyze", lambda d: d["output"].update(formats=5),
     "output formats must be a list of strings, not 5"),
    ("analyze", lambda d: d["scenario"].update(rates_honest=5),
     "scenario rates_honest must be a list of numbers, not 5"),
    # used to pass the simulation check over -1 instances
    ("verify", lambda d: d["command"]["options"].update(sim_instances=-1),
     "sim_instances must be >= 1, not -1"),
    # used to print "ok" for a simulation check that ran no instance
    ("verify", lambda d: d["command"]["options"].update(sim_instances=0),
     "sim_instances must be >= 1, not 0"),
], ids=["attacker_policy_number", "perturb_text", "directory_number",
        "formats_number", "rates_honest_number", "sim_instances_negative",
        "sim_instances_zero"])
def test_untyped_values_are_config_errors(tmp_path, capsys, command, mutate,
                                          message):
    doc = _doc(command)
    mutate(doc)
    out_dir = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, doc),
                     "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_invalid_sweep_is_config_error(tmp_path, capsys):
    # used to write analysis.json, then exit 3 on a math domain error
    out_dir = tmp_path / "out"
    doc = _doc("analyze", options={"n_sweep": [1, 0, 4]},
               out_dir=str(out_dir))
    config = _write_config(tmp_path, doc)
    assert cli.main(["analyze", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "n_total=1: n_total must be an integer >= 2" in err
    assert "n_total=0: n_total must be an integer >= 2" in err
    assert "n_total=4" not in err
    # used to leave the empty directory behind
    assert not out_dir.exists()
    # a directory that was there before is left as it was
    out_dir.mkdir()
    (out_dir / "kept.txt").write_text("kept")
    assert cli.main(["analyze", "--config", config]) == 2
    assert [p.name for p in out_dir.iterdir()] == ["kept.txt"]
    assert (out_dir / "kept.txt").read_text() == "kept"


def test_internal_failure_exits_3(tmp_path, capsys, monkeypatch):
    def broken(run, args):
        raise ZeroDivisionError("float division\nby zero")

    monkeypatch.setitem(cli._COMMANDS, "analyze", broken)
    doc = _doc("analyze", out_dir=str(tmp_path))
    assert cli.main(["analyze", "--config", _write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: float division by zero\n"


def test_python_m_runs_the_cli(tmp_path):
    doc = _doc("analyze", out_dir=str(tmp_path))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "coopsense", "analyze", "--config",
         _write_config(tmp_path, doc)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("analyze: region")
    assert (tmp_path / "analysis.json").exists()


def test_out_flag_overrides_directory(tmp_path):
    doc = _doc("analyze", out_dir=str(tmp_path / "ignored"))
    override = tmp_path / "actual"
    code = cli.main(["analyze", "--config", _write_config(tmp_path, doc),
                     "--out", str(override)])
    assert code == 0
    assert (override / "analysis.json").exists()
    assert not (tmp_path / "ignored" / "analysis.json").exists()


def test_csv_format_function():
    assert cli._fmt(None) == ""
    assert cli._fmt(True) == "true"
    assert cli._fmt(0.1) == "0.10000000000000001"
    assert cli._fmt(7) == "7"
