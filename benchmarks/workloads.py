"""The four benchmark workloads: inputs drawn from the workload seed, one
runner per instance, and the correctness gates that decide whether an
instance failed.

Every call into the package goes through a module attribute
(``direct.direct_threshold_oracle``, never a name imported from the
module), so the tracer's wrappers on those attributes see each call.

A run executes whole rounds.  A round is a fixed mix of instance shapes
(mode, group sizes); the seed draws only the continuous parameters and
the simulation seeds, so every seed asks for the same kind of work and
runs with different seeds stay comparable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from coopsense import cli, direct, fusion, indirect, mdp, model, oneshot
from coopsense.model import HeteroParams, ScenarioParams

# acceptance tolerances (README, tests/test_acceptance.py, `coopsense verify`)
SIM_MAX_SE = 5.0
DIRECT_REL_TOL = 1e-9
DELTA_ABS_TOL = 1e-9
MDP_REL_TOL = 1e-8
VALUE_ITERATION_TOL = 1e-11

# (n_total, n_attackers) per oracle-verify round: every N in 3..10 and every
# M in 1..5 at least once; odd length so the median sits inside one shape
ORACLE_SHAPES = ((3, 2), (4, 1), (5, 3), (6, 4), (7, 5), (8, 2), (9, 1),
                 (10, 3), (10, 5))
# small, middle and large termination-game models (10, 24 and 48 states)
LONGRUN_SHAPES = ((4, 1), (7, 3), (11, 5))
LONGRUN_DISCOUNTS = (0.99, 0.999)

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "sim-long": {"full": {"horizon": 100_000, "replications": 20},
                 "tiny": {"horizon": 2_000, "replications": 4}},
    "sim-episodes": {"full": {"horizon": 192, "replications": 1_000},
                     "tiny": {"horizon": 192, "replications": 40}},
    "oracle-verify": {"full": {"shapes": ORACLE_SHAPES},
                      "tiny": {"shapes": ((3, 1), (4, 2), (5, 2))}},
    "longrun-mdp": {"full": {"shapes": LONGRUN_SHAPES},
                    "tiny": {"shapes": ((3, 1),)}},
}


class WrongOutput(Exception):
    """An output outside its tolerance, non-finite, or not reproducible."""


@dataclasses.dataclass
class Outcome:
    ms: float = 0.0
    error: str | None = None      # set when the instance failed
    wrong: bool = False           # the failure is a wrong output, not a crash
    fingerprint: str = ""         # digest of every output, for the traced replay
    slots: tuple[int, int] = (0, 0)          # simulated slots at workers 1, 2
    sim_s: tuple[float, float] = (0.0, 0.0)  # simulate wall at workers 1, 2
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclasses.dataclass(frozen=True)
class SimInstance:
    doc: dict
    config_path: Path
    seed: int
    slots: int
    required: tuple[str, ...]  # analytic values the payload must carry


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[np.random.Generator, dict, Path, str], list]
    run: Callable[[Any, Path], Outcome]
    traced_rounds: int  # rounds replayed under the tracer


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _digest(values: Any) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


# -- scenario families -----------------------------------------------------

def _in_window(rng: np.random.Generator, draft: ScenarioParams,
               lo: float, hi: float) -> ScenarioParams:
    """Collision penalty log-uniform over the [lo, hi] part of the
    region-II window."""
    window = fusion.condition_i_bounds(draft)
    span = window.log_upper_bound - window.log_lower_bound
    log_cp = window.log_lower_bound + span * float(rng.uniform(lo, hi))
    return dataclasses.replace(draft, collision_penalty=math.exp(log_cp))


def region_ii_scenario(rng: np.random.Generator, n: int, m: int
                       ) -> ScenarioParams:
    draft = ScenarioParams(
        n_total=n, n_attackers=m,
        p_idle=float(rng.uniform(0.3, 0.7)),
        p_false_alarm=float(rng.uniform(0.01, 0.1)),
        p_missed_detection=float(rng.uniform(0.1, 0.45)),
        collision_penalty=1.0,
        discount=float(rng.uniform(0.3, 0.95)))
    return _in_window(rng, draft, 1e-9, 1.0 - 1e-9)


def observable_scenario(rng: np.random.Generator,
                        n_attackers: int | None = None) -> ScenarioParams:
    """Region-II scenario whose collision events show up in short runs
    (small groups, high miss rates, penalty low in the window)."""
    n = int(rng.integers(3, 7))
    m = int(rng.integers(1, n)) if n_attackers is None else n_attackers
    draft = ScenarioParams(
        n_total=n, n_attackers=m,
        p_idle=float(rng.uniform(0.35, 0.65)),
        p_false_alarm=float(rng.uniform(0.02, 0.08)),
        p_missed_detection=float(rng.uniform(0.3, 0.45)),
        collision_penalty=1.0,
        discount=float(rng.uniform(0.5, 0.9)))
    return _in_window(rng, draft, 0.05, 0.4)


# -- simulate through the CLI ----------------------------------------------

def _sim_instance(rng: np.random.Generator, scenario: dict, mode: str,
                  size: dict, path: Path, required: tuple[str, ...]
                  ) -> SimInstance:
    doc = {"scenario": scenario,
           "command": {"name": "simulate",
                       "options": {"punishment_mode": mode,
                                   "horizon": size["horizon"],
                                   "replications": size["replications"]}},
           "output": {"formats": ["json"]}}
    path.write_text(json.dumps(doc, sort_keys=True))
    return SimInstance(doc, path, int(rng.integers(2**32)),
                       size["horizon"] * size["replications"], required)


def _sim_long_round(rng: np.random.Generator, size: dict, workdir: Path,
                    tag: str) -> list[SimInstance]:
    """Modes none and direct (fine at 0.3-2x the closed-form threshold, as
    in criterion 9) plus one heterogeneous single attacker in direct mode."""
    per_slot = ("per_slot_attacker", "per_slot_honest")
    plain = observable_scenario(rng)
    fined = observable_scenario(rng)
    fine = direct.direct_threshold(fined.n_attackers, fined).value
    fined = dataclasses.replace(
        fined, direct_punishment=fine * float(rng.uniform(0.3, 2.0)))
    hetero = HeteroParams(
        base=observable_scenario(rng, n_attackers=1),
        p_false_alarm_attacker=float(rng.uniform(0.02, 0.08)),
        p_missed_detection_attacker=float(rng.uniform(0.3, 0.45)),
        rate_attacker=float(rng.uniform(0.5, 2.0)))
    hetero_fine = direct.direct_threshold_hetero(hetero).value
    hetero_doc = dict(dataclasses.asdict(hetero.base),
                      direct_punishment=hetero_fine * float(rng.uniform(0.3, 2.0)),
                      p_false_alarm_attacker=hetero.p_false_alarm_attacker,
                      p_missed_detection_attacker=hetero.p_missed_detection_attacker,
                      rate_attacker=hetero.rate_attacker)
    return [
        _sim_instance(rng, dataclasses.asdict(plain), "none", size,
                      workdir / f"{tag}-none.json", per_slot),
        _sim_instance(rng, dataclasses.asdict(fined), "direct", size,
                      workdir / f"{tag}-direct.json", per_slot),
        _sim_instance(rng, hetero_doc, "direct", size,
                      workdir / f"{tag}-hetero.json", ()),
    ]


def _sim_episodes_round(rng: np.random.Generator, size: dict, workdir: Path,
                        tag: str) -> list[SimInstance]:
    """The criterion-9 indirect shape: discount 0.8, short horizon, many
    replications.  Two scenarios a round: their cost differs by up to 2x
    with how often the punishment triggers."""
    out = []
    for i in range(2):
        params = dataclasses.replace(observable_scenario(rng), discount=0.8)
        out.append(_sim_instance(rng, dataclasses.asdict(params), "indirect",
                                 size, workdir / f"{tag}-indirect{i}.json",
                                 ("discounted_attacker",)))
    return out


def _check_simulation(payload: dict, required: tuple[str, ...]) -> None:
    stats, analytic = payload["stats"], payload["analytic"]
    for key in required:
        _require(key in analytic, f"analytic {key} missing")
    for key, block in stats.items():
        if isinstance(block, dict) and "mean" in block:
            _require(all(math.isfinite(v) for v in block.values()),
                     f"non-finite {key}")
    for key, target in analytic.items():
        block = stats.get(key)
        if isinstance(target, bool) or not isinstance(block, dict):
            continue
        _require(math.isfinite(target), f"non-finite analytic {key}")
        se = block["ci_half_width"] / 1.96
        gap = abs(block["mean"] - target)
        if se == 0.0:
            _require(gap <= 1e-12 * max(1.0, abs(target)),
                     f"{key} off by {gap:.3e} with zero variance")
        else:
            _require(gap <= SIM_MAX_SE * se,
                     f"{key} off by {gap / se:.2f} standard errors")


def _run_simulate(inst: SimInstance, workdir: Path) -> Outcome:
    """`coopsense simulate` in-process at workers 1 and then 2; both always
    run so that every instance does the same work whatever fails."""
    outcome = Outcome()
    payloads: list[bytes | None] = []
    slots, walls = [0, 0], [0.0, 0.0]
    for i, workers in enumerate((1, 2)):
        out_dir = workdir / f"{inst.config_path.stem}-w{workers}"
        argv = ["simulate", "--config", str(inst.config_path),
                "--out", str(out_dir), "--seed", str(inst.seed),
                "--workers", str(workers)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            error = None if code == 0 else f"simulate exited {code}"
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        walls[i] = time.perf_counter() - start
        result = out_dir / "simulation.json"
        payloads.append(result.read_bytes() if error is None else None)
        outcome.bytes_written += sum(f.stat().st_size for f in out_dir.glob("*"))
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is None:
            slots[i] = inst.slots
        elif outcome.error is None:
            outcome.error = f"workers {workers}: {error}"
    outcome.slots, outcome.sim_s = (slots[0], slots[1]), (walls[0], walls[1])
    outcome.fingerprint = _digest([p and hashlib.sha256(p).hexdigest()
                                   for p in payloads])
    if outcome.error is None:
        try:
            _require(payloads[0] == payloads[1],
                     "simulation.json differs between 1 and 2 workers")
            _check_simulation(json.loads(payloads[0]), inst.required)
        except WrongOutput as exc:  # keep the timings of a wrong run
            outcome.error, outcome.wrong, outcome.slots = str(exc), True, (0, 0)
    return outcome


# -- closed forms against oracles ------------------------------------------

def _scenario_round(rng: np.random.Generator, size: dict, workdir: Path,
                    tag: str) -> list[ScenarioParams]:
    return [region_ii_scenario(rng, n, m) for n, m in size["shapes"]]


def _check_mdp(params: ScenarioParams, lr_h: float,
               lr: indirect.LongTermRewards, pinned: bool) -> list[float]:
    """Optimal and honest MDP values against the closed forms (rel 1e-8);
    with pinned, also the value of threshold_policy(z*)."""
    model_ = mdp.build_mdp(params)
    values, _ = mdp.value_iteration(model_, VALUE_ITERATION_TOL)
    mdp_star = mdp.start_value(model_, values)
    mdp_h = mdp.start_value(
        model_, mdp.policy_value(model_, mdp.honest_policy(model_)))
    best = max(lr_h, lr.lr_dishonest)
    out = [mdp_star, mdp_h, *values.tolist()]
    _require(all(math.isfinite(v) for v in out), "non-finite MDP value")
    _require(_rel(lr_h, mdp_h) <= MDP_REL_TOL,
             f"honest value {mdp_h!r} vs closed form {lr_h!r}")
    _require(_rel(best, mdp_star) <= MDP_REL_TOL,
             f"optimal value {mdp_star!r} vs closed form {best!r}")
    if pinned and lr.z_star is not None:
        policy = mdp.threshold_policy(model_, lr.z_star)
        mdp_z = mdp.start_value(model_, mdp.policy_value(model_, policy))
        _require(_rel(lr.lr_dishonest, mdp_z) <= MDP_REL_TOL,
                 f"z* policy value {mdp_z!r} vs closed form {lr.lr_dishonest!r}")
        out.append(mdp_z)
    return out


def _run_oracle_verify(params: ScenarioParams, workdir: Path) -> Outcome:
    m = params.n_attackers
    closed = direct.direct_threshold(m, params).value
    oracle = direct.direct_threshold_oracle(m, params)
    _require(math.isfinite(closed) and math.isfinite(oracle),
             "non-finite direct threshold")
    _require(_rel(closed, oracle) <= DIRECT_REL_TOL,
             f"direct threshold {closed!r} vs oracle {oracle!r}")
    lr_h = indirect.lr_honest(params)
    lr = indirect.lr_dishonest(params)
    delta = None
    if model.classify_transmission_case(params) is model.TransmissionCase.NT:
        closed_delta = indirect.delta_threshold(params)
        if closed_delta.deterrable and closed_delta.value < 1.0 - 1e-6:
            delta = indirect.delta_threshold_oracle(params)
            _require(delta is not None
                     and abs(closed_delta.value - delta) <= DELTA_ABS_TOL,
                     f"discount threshold {closed_delta.value!r} vs oracle {delta!r}")
    table = [r.attacker_aggregate for _, _, r in oneshot.behavior_table(params)]
    rewards = oneshot.expected_slot_rewards(params, True)
    _require(all(math.isfinite(v) for v in (*table, *rewards)),
             "non-finite one-shot reward")
    values = _check_mdp(params, lr_h, lr, pinned=False)
    return Outcome(fingerprint=_digest(
        (closed, oracle, lr_h, lr.lr_dishonest, delta, table, rewards, values)))


def _run_longrun_mdp(params: ScenarioParams, workdir: Path) -> Outcome:
    """Criterion 6 at discounts where value iteration needs thousands of
    sweeps."""
    results = []
    for discount in LONGRUN_DISCOUNTS:
        at = dataclasses.replace(params, discount=discount)
        lr_h = indirect.lr_honest(at)
        lr = indirect.lr_dishonest(at)
        results.append((lr_h, lr.lr_dishonest, _check_mdp(at, lr_h, lr, pinned=True)))
    return Outcome(fingerprint=_digest(results))


WORKLOADS = {
    "sim-long": Workload("sim-long", _sim_long_round, _run_simulate, 1),
    "sim-episodes": Workload("sim-episodes", _sim_episodes_round,
                             _run_simulate, 2),
    "oracle-verify": Workload("oracle-verify", _scenario_round,
                              _run_oracle_verify, 2),
    "longrun-mdp": Workload("longrun-mdp", _scenario_round,
                            _run_longrun_mdp, 1),
}


def make_round(workload: Workload, seed: int, index: int, size: str,
               workdir: Path) -> list:
    """Inputs of round `index`; the same (seed, index) gives the same inputs."""
    rng = np.random.default_rng([seed, index])
    return workload.make_round(rng, SIZES[workload.name][size], workdir,
                               f"r{index}")


def run_instance(workload: Workload, instance: Any, workdir: Path) -> Outcome:
    start = time.perf_counter()
    try:
        outcome = workload.run(instance, workdir)
    except WrongOutput as exc:
        outcome = Outcome(error=str(exc), wrong=True, fingerprint=str(exc))
    except Exception as exc:  # a crash is a failed operation, never an abort
        message = f"{type(exc).__name__}: {exc}"
        outcome = Outcome(error=message, fingerprint=message)
    outcome.ms = (time.perf_counter() - start) * 1e3
    return outcome


def describe(instance: Any) -> Any:
    """JSON-ready form of one input, for the run record's input digest."""
    if isinstance(instance, SimInstance):
        return {"config": instance.doc, "seed": instance.seed}
    return dataclasses.asdict(instance)
