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
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import direct, fusion, indirect, mdp, oneshot, posterior, sim
from .model import (HeteroParams, ScenarioParams, _is_count, _is_real,
                    check_a4, classify_cooperation_case,
                    classify_transmission_case, validate, validate_hetero)

SCHEMA_VERSION = 7

_SCENARIO_KEYS = {f.name for f in dataclasses.fields(ScenarioParams)}
_HETERO_KEYS = {f.name for f in dataclasses.fields(HeteroParams)} - {"base"}
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


def _natural(value: Any) -> bool:
    return _is_count(value) and value >= 0


def _string(value: Any) -> bool:
    return isinstance(value, str)


def _boolean(value: Any) -> bool:
    return isinstance(value, bool)


def _list_of(item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: (isinstance(value, list)
                          and all(item(v) for v in value))


def _or_null(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    # the commands treat a null option as an absent one
    return lambda value: value is None or check(value)


# JSON type of every config value that is not a scenario number (those are
# model.validate's); key names are unique across the config's blocks, and
# the commands rely on these types
_TYPES = {
    "rates_honest": (_list_of(_is_real), "a list of numbers"),
    "name": (_string, "a string"),
    "n_sweep": (_or_null(_list_of(_is_count)), "a list of integers"),
    "n_values": (_list_of(_is_count), "a list of integers"),
    "p_idle_values": (_list_of(_is_real), "a list of numbers"),
    "c_p_values": (_list_of(_is_real), "a list of numbers"),
    "attacker_error_values": (_or_null(_list_of(_is_real)), "a list of numbers"),
    "punishment_mode": (_string, "a string"),
    "attacker_policy": (_string, "a string"),
    "horizon": (_is_count, "an integer"),
    "replications": (_is_count, "an integer"),
    "trace_slots": (_or_null(_is_count), "an integer"),
    "instances": (_is_count, "an integer"),
    "sim_instances": (_is_count, "an integer"),
    "seed": (_natural, "a non-negative integer"),
    "perturb_direct_threshold": (_boolean, "a boolean"),
    "directory": (_string, "a string"),
    "formats": (_list_of(_string), "a list of strings"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    params: ScenarioParams
    hetero: HeteroParams | None
    command: str
    options: dict[str, Any]
    out_dir: Path
    formats: tuple[str, ...]


def _block(value: Any, what: str, allowed: set[str]) -> dict:
    """value as a config block: an object with no key outside allowed and
    every value of the type _TYPES gives it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} block must be an object")
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    for key in value:
        if key in _TYPES and not _TYPES[key][0](value[key]):
            raise ConfigError(f"{what} {key} must be {_TYPES[key][1]}, "
                              f"not {json.dumps(value[key])}")
    return value


def _reject(what: str, problems: list[str]) -> None:
    if problems:
        raise ConfigError(f"invalid {what}:\n  " + "\n  ".join(problems))


def parse_config(doc: Any) -> RunConfig:
    _block(doc, "top-level", {"scenario", "command", "output"})
    for key in ("scenario", "command"):
        if key not in doc:
            raise ConfigError(f"missing required key: {key}")

    scenario = _block(doc["scenario"], "scenario",
                      _SCENARIO_KEYS | _HETERO_KEYS)
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
        _reject("scenario", validate_hetero(hetero))
    else:
        _reject("scenario", validate(params))

    command = _block(doc["command"], "command", {"name", "options"})
    name = command.get("name")
    if name not in _OPTION_KEYS:
        raise ConfigError(f"unknown command name: {name!r}")
    options = _block(command.get("options", {}), f"{name} option",
                     _OPTION_KEYS[name])

    output = _block(doc.get("output", {}), "output", {"directory", "formats"})
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


# the writers create the output directory, so a run that stops before its
# first output (a config error) leaves no directory behind
def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    path.parent.mkdir(parents=True, exist_ok=True)
    # one write: json.dump writes every token of its encoding separately
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _scenario_echo(run: RunConfig) -> dict:
    echo = dataclasses.asdict(run.params)
    if run.hetero is not None:
        extra = dataclasses.asdict(run.hetero)
        extra.pop("base")
        extra["rates_honest"] = list(run.hetero.rates_honest)
        echo.update(extra)
    return echo


# -- analyze ---------------------------------------------------------------

def _swept(params: ScenarioParams, n: int) -> ScenarioParams:
    # an n_sweep point keeps the attackers, at most n - 1 of them
    return dataclasses.replace(params, n_total=n,
                               n_attackers=min(params.n_attackers, n - 1))


def cmd_analyze(run: RunConfig, args: argparse.Namespace) -> int:
    params = run.params
    sweep = run.options.get("n_sweep")
    # validate every sweep point before writing anything
    _reject("n_sweep", [f"n_total={n}: {problem}" for n in sweep or []
                        for problem in validate(_swept(params, n))])
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
    if sweep is not None and "csv" in run.formats:
        rows = []
        for n in sweep:
            w = fusion.condition_i_bounds(_swept(params, n))
            rows.append((n, w.lower_bound, w.upper_bound))
        _write_csv(run.out_dir / "collision_penalty_window.csv",
                   ("n_total", "lower_bound", "upper_bound"), rows)
    print(f"analyze: region {window.region.name}, "
          f"{report['transmission_case']}/{report['cooperation_case']}")
    return 0


# -- thresholds ------------------------------------------------------------

def cmd_thresholds(run: RunConfig, args: argparse.Namespace) -> int:
    params = run.params
    error_values = run.options.get("attacker_error_values")
    hetero = error_values is not None
    if hetero and run.hetero is None:
        raise ConfigError("attacker_error_values needs the heterogeneous "
                          "scenario fields")
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
    hetero_points = [
        dataclasses.replace(run.hetero, p_false_alarm_attacker=float(p_fa),
                            p_missed_detection_attacker=float(p_ma))
        for p_fa, p_ma in itertools.product(error_values, repeat=2)
    ] if hetero else []
    problems += [
        f"attacker errors ({h.p_false_alarm_attacker}, "
        f"{h.p_missed_detection_attacker}): {problem}"
        for h in hetero_points for problem in validate_hetero(h)]
    _reject("thresholds grid", problems)

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
                    dth = indirect._case_threshold(point)
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
    trace_slots = run.options.get("trace_slots")
    if trace_slots is not None:
        problems += sim.validate_trace(config, trace_slots)
    _reject("simulation options", problems)
    # one set of tables for the estimate and the trace: an optimal indirect
    # policy solves the termination MDP to build them
    resolved = dataclasses.replace(
        config, attacker_policy=sim.build_policy_tables(config))
    stats = sim.run_experiment(resolved, workers=args.workers)
    payload = {
        "scenario": _scenario_echo(run),
        "simulation": {
            "punishment_mode": config.punishment_mode,
            "attacker_policy": config.attacker_policy,
            "horizon": config.horizon,
            "replications": config.replications,
            "base_seed": config.base_seed,
        },
        # dataclasses.asdict would deep-copy every trigger count
        "stats": {name: vars(value) if isinstance(value, sim.StatBlock)
                  else value for name, value in vars(stats).items()},
        "analytic": _analytic_reference(config),
    }
    if "json" in run.formats:
        _write_json(run.out_dir / "simulation.json", payload)
    if trace_slots is not None and "csv" in run.formats:
        traces = sim.run_trace(resolved, trace_slots)
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


def _worst(errors: list[float]) -> float:
    # max() drops a NaN that is not its first argument, so a NaN error
    # would pass; a NaN worst fails every "worst <= tolerance" test
    if any(math.isnan(e) for e in errors):
        return math.nan
    return max(errors, default=0.0)


def _check_direct(rng: np.random.Generator, instances: int,
                  perturb: bool) -> dict:
    errors = []
    for _ in range(instances):
        params = _random_region_ii(rng)
        closed = direct.direct_threshold(params.n_attackers, params).value
        if perturb:
            closed *= 1.1
        oracle = direct.direct_threshold_oracle(params.n_attackers, params)
        scale = max(abs(oracle), 1e-300)
        errors.append(abs(closed - oracle) / scale)
    worst = _worst(errors)
    return {"name": "direct_threshold_oracle_agreement",
            "passed": worst <= 1e-9,
            "detail": f"max relative error {worst:.3e} over "
                      f"{instances} instances"}


def _check_delta(rng: np.random.Generator, instances: int) -> dict:
    errors = []
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
        errors.append(abs(closed.value - oracle))
    worst = _worst(errors)
    return {"name": "delta_threshold_oracle_agreement",
            "passed": used > 0 and worst <= 1e-9,
            "detail": f"max absolute error {worst:.3e} over {used} instances"}


def _check_mdp(rng: np.random.Generator, instances: int) -> dict:
    errors = []
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
        errors += [abs(lr_h - mdp_h) / scale,
                   abs(max(lr_h, lr_d) - mdp_d) / scale]
    worst = _worst(errors)
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
    errors = []
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
        errors.append(abs(stats.per_slot_attacker.mean - att) / se)
    worst = _worst(errors)
    return {"name": "simulation_analytic_agreement",
            "passed": worst <= 5.0,
            "detail": f"max deviation {worst:.2f} standard errors over "
                      f"{instances} instances"}


def cmd_verify(run: RunConfig, args: argparse.Namespace) -> int:
    instances = run.options.get("instances", 12)
    sim_instances = run.options.get("sim_instances", 3)
    _reject("verify options", [
        f"{key} must be >= 1, not {value}" for key, value in
        (("instances", instances), ("sim_instances", sim_instances))
        if value < 1])
    seed = run.options.get("seed", args.seed)
    perturb = run.options.get("perturb_direct_threshold", False)
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
                        help="non-negative base seed for stochastic commands")
    common.add_argument("--workers", type=int, default=1,
                        help="worker threads (default 1)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


# main()'s parser: built on its first call, not at import, then reused
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON or UTF-8
            raise ConfigError(f"cannot read config: {exc}") from exc
        run = parse_config(doc)
        if run.command != args.subcommand:
            raise ConfigError(f"config names command {run.command!r} but "
                              f"{args.subcommand!r} was requested")
        if args.out is not None:
            run = dataclasses.replace(run, out_dir=Path(args.out))
        return _COMMANDS[run.command](run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: "
              f"{' '.join(str(exc).split())}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
