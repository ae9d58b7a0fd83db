"""Command line front end.

Four subcommands, all driven by a JSON run configuration:

  analyze     scenario classification, posterior table, collision-penalty window
  thresholds  punishment-threshold surfaces as CSV
  simulate    Monte Carlo experiment with analytic reference values
  verify      closed forms against their independent oracles

Exit codes: 0 on success, 1 when a verification check fails, 2 on a
usage or configuration error, 3 when a command fails internally.  Output
files are deterministic: no timestamps, no worker counts, keys sorted.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import direct, fusion, indirect, mdp, oneshot, posterior, sim
from .model import (HeteroParams, ScenarioParams, check_a4,
                    classify_cooperation_case, classify_transmission_case,
                    validate, validate_hetero)

SCHEMA_VERSION = 2
WORKERS_ENV_VAR = "COOPSENSE_WORKERS"

_SCENARIO_KEYS = {
    "n_total", "n_attackers", "p_idle", "p_false_alarm",
    "p_missed_detection", "collision_penalty", "direct_punishment",
    "discount", "total_rate",
}
_HETERO_KEYS = {
    "p_false_alarm_attacker", "p_missed_detection_attacker",
    "rate_attacker", "rates_honest",
}
_OPTION_KEYS = {
    "analyze": {"n_sweep"},
    "thresholds": {"n_values", "p_idle_values", "c_p_values",
                   "attacker_error_values"},
    "simulate": {"punishment_mode", "attacker_policy", "horizon",
                 "replications", "trace_slots"},
    "verify": {"instances", "seed", "perturb_direct_threshold",
               "sim_instances"},
}


class ConfigError(Exception):
    pass


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: Any) -> bool:
    return _integer(value) or isinstance(value, float)


def _list_of(item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: (isinstance(value, list)
                          and all(item(v) for v in value))


def _or_null(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    # the commands treat a null option as an absent one
    return lambda value: value is None or check(value)


# JSON types of the typed command options; the commands rely on them
_OPTION_TYPES = {
    "n_sweep": (_or_null(_list_of(_integer)), "a list of integers"),
    "n_values": (_list_of(_integer), "a list of integers"),
    "p_idle_values": (_list_of(_number), "a list of numbers"),
    "c_p_values": (_list_of(_number), "a list of numbers"),
    "attacker_error_values": (_or_null(_list_of(_number)), "a list of numbers"),
    "horizon": (_integer, "an integer"),
    "replications": (_integer, "an integer"),
    "trace_slots": (_or_null(_integer), "an integer"),
    "instances": (_integer, "an integer"),
    "sim_instances": (_integer, "an integer"),
    "seed": (_integer, "an integer"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    params: ScenarioParams
    hetero: HeteroParams | None
    command: str
    options: dict[str, Any]
    out_dir: Path
    formats: tuple[str, ...]


def _reject_unknown(block: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def parse_config(doc: Any) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top-level JSON value must be an object")
    _reject_unknown(doc, {"scenario", "command", "output"}, "top-level")
    for key in ("scenario", "command"):
        if key not in doc:
            raise ConfigError(f"missing required key: {key}")

    scenario = doc["scenario"]
    if not isinstance(scenario, dict):
        raise ConfigError("scenario must be an object")
    _reject_unknown(scenario, _SCENARIO_KEYS | _HETERO_KEYS, "scenario")
    base_fields = {k: v for k, v in scenario.items() if k in _SCENARIO_KEYS}
    try:
        params = ScenarioParams(**base_fields)
    except TypeError as exc:
        raise ConfigError(f"bad scenario block: {exc}") from exc

    hetero = None
    hetero_fields = {k: v for k, v in scenario.items() if k in _HETERO_KEYS}
    if hetero_fields:
        if "rates_honest" in hetero_fields:
            hetero_fields["rates_honest"] = tuple(hetero_fields["rates_honest"])
        try:
            hetero = HeteroParams(base=params, **hetero_fields)
        except TypeError as exc:
            raise ConfigError(f"bad scenario block: {exc}") from exc
        violations = validate_hetero(hetero)
    else:
        violations = validate(params)
    if violations:
        raise ConfigError("invalid scenario:\n  " + "\n  ".join(violations))

    command = doc["command"]
    if not isinstance(command, dict):
        raise ConfigError("command must be an object")
    _reject_unknown(command, {"name", "options"}, "command")
    name = command.get("name")
    if name not in _OPTION_KEYS:
        raise ConfigError(f"unknown command name: {name!r}")
    options = command.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("command options must be an object")
    _reject_unknown(options, _OPTION_KEYS[name], f"{name} option")
    for key, (check, expected) in _OPTION_TYPES.items():
        if key in options and not check(options[key]):
            raise ConfigError(f"{name} option {key} must be {expected}, "
                              f"not {json.dumps(options[key])}")

    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    _reject_unknown(output, {"directory", "formats"}, "output")
    out_dir = Path(output.get("directory", "."))
    formats = tuple(output.get("formats", ("json", "csv")))
    bad = sorted(set(formats) - {"json", "csv"})
    if bad:
        raise ConfigError(f"unknown output formats: {', '.join(bad)}")

    return RunConfig(params=params, hetero=hetero, command=name,
                     options=dict(options), out_dir=out_dir, formats=formats)


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _scenario_echo(run: RunConfig) -> dict:
    echo = dataclasses.asdict(run.params)
    if run.hetero is not None:
        extra = dataclasses.asdict(run.hetero)
        extra.pop("base")
        extra["rates_honest"] = list(run.hetero.rates_honest)
        echo.update(extra)
    return echo


# -- analyze ---------------------------------------------------------------

def cmd_analyze(run: RunConfig, args: argparse.Namespace) -> int:
    params = run.params
    window = fusion.condition_i_bounds(params)
    table = []
    for k in range(params.n_total + 1):
        post = posterior.posterior_idle(params.n_total, k, params)
        table.append({
            "busy_reports": k,
            "p_idle": post.p_idle_given_reports,
            "p_busy": post.p_busy_given_reports,
            "log_likelihood_ratio": post.log_likelihood_ratio,
        })
    report = {
        "scenario": _scenario_echo(run),
        "collision_penalty_window": {
            "lower_bound": window.lower_bound,
            "upper_bound": window.upper_bound,
            "region": window.region.name,
            "on_boundary": window.on_boundary,
        },
        "a4_holds": check_a4(params),
        "transmission_case": classify_transmission_case(params).name,
        "cooperation_case": classify_cooperation_case(params).name,
        "posterior_table": table,
    }
    if "json" in run.formats:
        _write_json(run.out_dir / "analysis.json", report)
    sweep = run.options.get("n_sweep")
    if sweep is not None and "csv" in run.formats:
        rows = []
        for n in sweep:
            swept = dataclasses.replace(
                params, n_total=n, n_attackers=min(params.n_attackers, n - 1))
            w = fusion.condition_i_bounds(swept)
            rows.append((n, w.lower_bound, w.upper_bound))
        _write_csv(run.out_dir / "collision_penalty_window.csv",
                   ("n_total", "lower_bound", "upper_bound"), rows)
    print(f"analyze: region {window.region.name}, "
          f"{report['transmission_case']}/{report['cooperation_case']}")
    return 0


# -- thresholds ------------------------------------------------------------

def cmd_thresholds(run: RunConfig, args: argparse.Namespace) -> int:
    params = run.params
    n_values = run.options.get("n_values", [params.n_total])
    p_idle_values = [float(p) for p in
                     run.options.get("p_idle_values", [params.p_idle])]
    c_p_values = [float(c) for c in
                  run.options.get("c_p_values", [params.collision_penalty])]
    # every point must admit one attacker (and, with attacker_error_values,
    # be a valid heterogeneous record); validate before writing any CSV
    problems = [
        f"n_total={n}, p_idle={p_idle}, collision_penalty={c_p}: {problem}"
        for n, p_idle, c_p in itertools.product(n_values, p_idle_values,
                                                c_p_values)
        for problem in validate(dataclasses.replace(
            params, n_total=n, n_attackers=1, p_idle=p_idle,
            collision_penalty=c_p))]
    error_values = run.options.get("attacker_error_values")
    hetero = error_values is not None and run.hetero is not None
    hetero_points = [
        dataclasses.replace(run.hetero, p_false_alarm_attacker=float(p_fa),
                            p_missed_detection_attacker=float(p_ma))
        for p_fa, p_ma in itertools.product(error_values, repeat=2)
    ] if hetero else []
    problems += [
        f"attacker errors ({h.p_false_alarm_attacker}, "
        f"{h.p_missed_detection_attacker}): {problem}"
        for h in hetero_points for problem in validate_hetero(h)]
    if problems:
        print("invalid thresholds grid:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2

    direct_rows = []
    indirect_rows = []
    for n in n_values:
        for p_idle in p_idle_values:
            for c_p in c_p_values:
                grid = dataclasses.replace(params, n_total=n, p_idle=p_idle,
                                           collision_penalty=c_p)
                for m in range(1, n):
                    point = dataclasses.replace(grid, n_attackers=m)
                    th = direct.direct_threshold(m, point)
                    direct_rows.append((
                        n, m, p_idle, point.p_false_alarm,
                        point.p_missed_detection, c_p,
                        th.value, th.binding_constraint))
                    coop = classify_cooperation_case(point)
                    trans = classify_transmission_case(point)
                    if coop.name == "WC":
                        dth = indirect.delta_threshold_wc(point)
                    else:
                        dth = indirect.delta_threshold_sc(point)
                    z_star = indirect.lr_dishonest(point).z_star
                    indirect_rows.append((
                        n, m, p_idle, point.p_false_alarm,
                        point.p_missed_detection, c_p,
                        trans.name, coop.name, dth.value, dth.deterrable,
                        z_star))
    if "csv" in run.formats:
        _write_csv(run.out_dir / "direct_thresholds.csv",
                   ("n_total", "n_attackers", "p_idle", "p_false_alarm",
                    "p_missed_detection", "collision_penalty", "threshold",
                    "binding_constraint"), direct_rows)
        _write_csv(run.out_dir / "indirect_thresholds.csv",
                   ("n_total", "n_attackers", "p_idle", "p_false_alarm",
                    "p_missed_detection", "collision_penalty",
                    "transmission_case", "cooperation_case",
                    "discount_threshold", "deterrable", "z_star"),
                   indirect_rows)

    if hetero:
        hetero_rows = []
        for point in hetero_points:
            th = direct.direct_threshold_hetero(point)
            hetero_rows.append((point.p_false_alarm_attacker,
                                point.p_missed_detection_attacker, th.value,
                                th.binding_constraint))
        if "csv" in run.formats:
            _write_csv(run.out_dir / "hetero_thresholds.csv",
                       ("p_false_alarm_attacker", "p_missed_detection_attacker",
                        "threshold", "binding_constraint"), hetero_rows)
        print(f"thresholds: {len(direct_rows)} homogeneous rows, "
              f"{len(hetero_rows)} heterogeneous rows")
    else:
        print(f"thresholds: {len(direct_rows)} homogeneous rows")
    return 0


# -- simulate --------------------------------------------------------------

def _analytic_reference(config: sim.SimConfig) -> dict:
    params = config.params
    reference: dict[str, Any] = {}
    if isinstance(config.attacker_policy, str):
        honest = config.attacker_policy == "honest"
        if config.punishment_mode in ("none", "direct"):
            att, hon = oneshot.expected_slot_rewards(
                params, config.punishment_mode == "direct", honest=honest)
            reference["per_slot_attacker"] = att
            if not isinstance(params, HeteroParams):
                # heterogeneous honest SUs have no common per-SU rate
                reference["per_slot_honest"] = hon
        elif config.punishment_mode == "indirect" and not honest:
            lr_h = indirect.lr_honest(params)
            lr_d = indirect.lr_dishonest(params)
            reference["discounted_attacker"] = max(lr_h, lr_d.lr_dishonest)
            reference["attack_prevented"] = lr_d.attack_prevented
    return reference


def cmd_simulate(run: RunConfig, args: argparse.Namespace) -> int:
    if run.hetero is not None:
        params: ScenarioParams | HeteroParams = run.hetero
    else:
        params = run.params
    config = sim.SimConfig(
        params=params,
        punishment_mode=run.options.get("punishment_mode", "none"),
        attacker_policy=run.options.get("attacker_policy", "optimal"),
        horizon=run.options.get("horizon", 10_000),
        replications=run.options.get("replications", 20),
        base_seed=args.seed,
    )
    problems = sim.validate_config(config)
    if problems:
        print("invalid simulation options:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    stats = sim.run_experiment(config, workers=args.workers)
    payload = {
        "scenario": _scenario_echo(run),
        "simulation": {
            "punishment_mode": config.punishment_mode,
            "attacker_policy": (config.attacker_policy
                                if isinstance(config.attacker_policy, str)
                                else "custom"),
            "horizon": config.horizon,
            "replications": config.replications,
            "base_seed": config.base_seed,
        },
        "stats": dataclasses.asdict(stats),
        "analytic": _analytic_reference(config),
    }
    if "json" in run.formats:
        _write_json(run.out_dir / "simulation.json", payload)
    trace_slots = run.options.get("trace_slots")
    if trace_slots is not None and "csv" in run.formats:
        traces = sim.run_trace(config, trace_slots)
        rows = [(i, t.channel_busy, t.honest_busy, t.attacker_busy,
                 "" if t.announcement is None else t.announcement.name,
                 t.transmitters, t.collision, t.attacker_reward,
                 t.honest_reward_per_su, t.penalty_per_su, t.punishment_on)
                for i, t in enumerate(traces)]
        _write_csv(run.out_dir / "trace.csv",
                   ("slot", "channel_busy", "honest_busy", "attacker_busy",
                    "announcement", "transmitters", "collision",
                    "attacker_reward", "honest_reward_per_su",
                    "penalty_per_su", "punishment_on"), rows)
    print(f"simulate: mode {config.punishment_mode}, "
          f"per-slot attacker {stats.per_slot_attacker.mean:.6g}")
    return 0


# -- verify ----------------------------------------------------------------

def _random_region_ii(rng: np.random.Generator) -> ScenarioParams:
    """Scenario with the collision penalty log-uniform inside the window."""
    while True:
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        draft = ScenarioParams(
            n_total=n, n_attackers=m,
            p_idle=float(rng.uniform(0.3, 0.7)),
            p_false_alarm=float(rng.uniform(0.02, 0.1)),
            p_missed_detection=float(rng.uniform(0.1, 0.4)),
            collision_penalty=1.0,
            discount=float(rng.uniform(0.5, 0.95)))
        window = fusion.condition_i_bounds(draft)
        log_cp = rng.uniform(window.log_lower_bound + 1e-6,
                             window.log_upper_bound - 1e-6)
        if not math.isfinite(log_cp):
            continue
        return dataclasses.replace(draft, collision_penalty=math.exp(log_cp))


def _check_direct(rng: np.random.Generator, instances: int,
                  perturb: bool) -> dict:
    worst = 0.0
    for _ in range(instances):
        params = _random_region_ii(rng)
        closed = direct.direct_threshold(params.n_attackers, params).value
        if perturb:
            closed *= 1.1
        oracle = direct.direct_threshold_oracle(params.n_attackers, params)
        scale = max(abs(oracle), 1e-300)
        worst = max(worst, abs(closed - oracle) / scale)
    return {"name": "direct_threshold_oracle_agreement",
            "passed": worst <= 1e-9,
            "detail": f"max relative error {worst:.3e} over "
                      f"{instances} instances"}


def _check_delta(rng: np.random.Generator, instances: int) -> dict:
    worst = 0.0
    used = 0
    attempts = 0
    while used < instances and attempts < 50 * instances:
        attempts += 1
        params = _random_region_ii(rng)
        if classify_transmission_case(params).name != "NT":
            continue
        closed = indirect.delta_threshold(params)
        if not closed.deterrable or closed.value >= 1.0 - 1e-6:
            continue
        oracle = indirect.delta_threshold_oracle(params)
        if oracle is None:
            continue
        used += 1
        worst = max(worst, abs(closed.value - oracle))
    return {"name": "delta_threshold_oracle_agreement",
            "passed": used > 0 and worst <= 1e-9,
            "detail": f"max absolute error {worst:.3e} over {used} instances"}


def _check_mdp(rng: np.random.Generator, instances: int) -> dict:
    worst = 0.0
    used = 0
    attempts = 0
    while used < instances and attempts < 50 * instances:
        attempts += 1
        params = _random_region_ii(rng)
        if params.n_total > 8:
            continue
        used += 1
        model = mdp.build_mdp(params)
        lr_h = indirect.lr_honest(params)
        mdp_h = mdp.start_value(model, mdp.policy_value(model,
                                                        mdp.honest_policy(model)))
        values, _ = mdp.value_iteration(model, tolerance=1e-12)
        lr_d = indirect.lr_dishonest(params).lr_dishonest
        mdp_d = mdp.start_value(model, values)
        scale = max(abs(lr_h), abs(lr_d), 1.0)
        worst = max(worst, abs(lr_h - mdp_h) / scale,
                    abs(max(lr_h, lr_d) - mdp_d) / scale)
    return {"name": "mdp_closed_form_equivalence",
            "passed": used > 0 and worst <= 1e-8,
            "detail": f"max relative error {worst:.3e} over {used} instances"}


def _random_observable(rng: np.random.Generator) -> ScenarioParams:
    """Scenario whose collision penalties are visible to Monte Carlo.

    High miss rates and small groups keep the all-miss probability large
    enough that penalty events actually land within a short run; the
    penalty sits in the lower part of the window so a handful of events
    carries the analytic mean, not one astronomically costly outlier.
    """
    n = int(rng.integers(3, 7))
    m = int(rng.integers(1, n))
    draft = ScenarioParams(
        n_total=n, n_attackers=m,
        p_idle=float(rng.uniform(0.35, 0.65)),
        p_false_alarm=float(rng.uniform(0.02, 0.08)),
        p_missed_detection=float(rng.uniform(0.3, 0.45)),
        collision_penalty=1.0,
        discount=float(rng.uniform(0.5, 0.95)))
    window = fusion.condition_i_bounds(draft)
    span = window.log_upper_bound - window.log_lower_bound
    log_cp = window.log_lower_bound + span * rng.uniform(0.05, 0.4)
    return dataclasses.replace(draft, collision_penalty=math.exp(log_cp))


def _check_sim(rng: np.random.Generator, instances: int,
               workers: int) -> dict:
    worst = 0.0
    for i in range(instances):
        params = _random_observable(rng)
        config = sim.SimConfig(params=params, punishment_mode="none",
                               horizon=20_000, replications=16,
                               base_seed=int(rng.integers(0, 2**32)))
        stats = sim.run_experiment(config, workers=workers)
        att, _ = oneshot.expected_slot_rewards(params, False)
        se = stats.per_slot_attacker.ci_half_width / 1.96
        if se == 0.0:
            se = max(abs(att), 1.0) * 1e-12
        worst = max(worst, abs(stats.per_slot_attacker.mean - att) / se)
    return {"name": "simulation_analytic_agreement",
            "passed": worst <= 5.0,
            "detail": f"max deviation {worst:.2f} standard errors over "
                      f"{instances} instances"}


def cmd_verify(run: RunConfig, args: argparse.Namespace) -> int:
    instances = run.options.get("instances", 12)
    sim_instances = run.options.get("sim_instances", 3)
    if instances <= 0:
        print("verify: empty instance grid", file=sys.stderr)
        return 2
    seed = run.options.get("seed", args.seed)
    perturb = bool(run.options.get("perturb_direct_threshold", False))
    rng = np.random.default_rng(seed)
    checks = [
        _check_direct(rng, instances, perturb),
        _check_delta(rng, instances),
        _check_mdp(rng, max(1, instances // 3)),
        _check_sim(rng, sim_instances, args.workers),
    ]
    all_passed = all(c["passed"] for c in checks)
    if "json" in run.formats:
        _write_json(run.out_dir / "verify.json",
                    {"checks": checks, "passed": all_passed})
    for check in checks:
        status = "ok" if check["passed"] else "FAIL"
        print(f"verify: {status:4s} {check['name']}: {check['detail']}")
    return 0 if all_passed else 1


# -- entry point -----------------------------------------------------------

_COMMANDS = {
    "analyze": cmd_analyze,
    "thresholds": cmd_thresholds,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsense",
        description="collaborative sensing punishment analysis")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    common.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    common.add_argument("--seed", type=int, default=0,
                        help="base seed for stochastic commands")
    common.add_argument("--workers", type=int, default=_default_workers(),
                        help=f"worker threads (default ${WORKERS_ENV_VAR} or 1)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        run = parse_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if run.command != args.subcommand:
        print(f"config names command {run.command!r} but "
              f"{args.subcommand!r} was requested", file=sys.stderr)
        return 2
    if args.out is not None:
        run = dataclasses.replace(run, out_dir=Path(args.out))
    run.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[run.command](run, args)
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: "
              f"{' '.join(str(exc).split())}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
