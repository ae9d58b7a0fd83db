"""Slot-by-slot Monte Carlo simulation of the two-phase sensing game.

run_experiment cuts the replications into contiguous blocks of about
BLOCK_SLOTS slots and runs the outcome kernel once per (rows x horizon)
block; run_slot is the scalar reference for traces and tests.  Both feed
the same outcome rules, and a test pins the block kernel to the scalar
one on shared draws.

Determinism contract: replication r draws from a stream derived from
(base_seed, r), the block size depends on the horizon only, and block
outputs are merged in replication order, so results are bit-identical
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import mdp as mdp_mod
from . import oneshot
from .fusion import Announcement
from .model import HeteroParams, ScenarioParams, validate, validate_hetero

MODES = ("none", "direct", "indirect")

# Replications run in contiguous blocks of max(1, BLOCK_SLOTS // horizon)
# rows.  The size depends on the horizon only, never on the worker count,
# and small blocks keep the kernel's temporaries in a few hundred kB.
BLOCK_SLOTS = 8192


@dataclass(frozen=True, eq=False)
class PolicyTables:
    """Attacker decisions by observed counts.

    b and transmit are indexed [honest_busy, attacker_busy] (attacker own
    decision for the heterogeneous single attacker); post_transmit by the
    attackers' own count once collaboration has been terminated.
    """

    b: np.ndarray
    transmit: np.ndarray
    post_transmit: np.ndarray


@dataclass(frozen=True)
class SimConfig:
    params: ScenarioParams | HeteroParams
    punishment_mode: str = "none"
    attacker_policy: str | PolicyTables = "optimal"
    horizon: int = 10_000
    replications: int = 20
    base_seed: int = 0


@dataclass(frozen=True)
class StatBlock:
    mean: float
    variance: float
    ci_half_width: float


@dataclass(frozen=True)
class SimStats:
    per_slot_attacker: StatBlock
    per_slot_honest: StatBlock
    discounted_attacker: StatBlock
    discounted_honest: StatBlock
    discounted_tail_bound_attacker: float
    discounted_tail_bound_honest: float
    collision_count: int
    busy_slot_count: int
    empirical_gamma: float
    pu_utility: float
    punishment_trigger_slots: dict[int, int]
    punishment_never_count: int


@dataclass
class SlotRuntime:
    """Mutable per-episode state threaded through run_slot."""

    config: SimConfig
    tables: PolicyTables
    punishment_on: bool = False


@dataclass(frozen=True)
class SlotTrace:
    channel_busy: bool
    honest_busy: int
    attacker_busy: int
    announcement: Announcement | None  # None once reporting has stopped
    transmitters: int
    collision: bool
    attacker_reward: float
    honest_reward_per_su: float
    penalty_per_su: float
    punishment_on: bool


def _table_problems(tables: PolicyTables, params: ScenarioParams) -> list[str]:
    """Shape, dtype and range violations: every table entry is a count of
    attackers, so it must be an integer in [0, n_attackers]."""
    m, rows = params.n_attackers, params.n_honest + 1
    problems = []
    for name, shape in (("b", (rows, m + 1)), ("transmit", (rows, m + 1)),
                        ("post_transmit", (m + 1,))):
        table = np.asarray(getattr(tables, name))
        if table.shape != shape:
            problems.append(f"PolicyTables.{name} must have shape {shape}, "
                            f"not {table.shape}")
        elif not np.issubdtype(table.dtype, np.integer):
            problems.append(f"PolicyTables.{name} must hold integers, "
                            f"not {table.dtype}")
        elif table.min() < 0 or table.max() > m:
            problems.append(f"PolicyTables.{name} entries must lie in [0, {m}]")
    return problems


def validate_config(config: SimConfig) -> list[str]:
    problems = []
    hetero = isinstance(config.params, HeteroParams)
    if hetero:
        problems += validate_hetero(config.params)
    else:
        problems += validate(config.params)
    if config.punishment_mode not in MODES:
        problems.append(f"punishment_mode must be one of {MODES}")
    if hetero and config.punishment_mode == "indirect" \
            and config.attacker_policy == "optimal":
        problems.append("the optimal indirect policy is only built for "
                        "homogeneous attackers (no heterogeneous MDP)")
    if isinstance(config.attacker_policy, str) \
            and config.attacker_policy not in ("optimal", "honest"):
        problems.append("attacker_policy must be 'optimal', 'honest', or tables")
    if isinstance(config.attacker_policy, PolicyTables) and not problems:
        # the expected shapes are only defined for valid counts
        problems += _table_problems(config.attacker_policy, config.params.base)
    if config.horizon < 1:
        problems.append("horizon must be >= 1")
    if config.replications < 1:
        problems.append("replications must be >= 1")
    return problems


def _post_transmit_table(params: ScenarioParams) -> np.ndarray:
    m = params.n_attackers
    return np.array([m if oneshot.lone_sensing_pays(ka, params) else 0
                     for ka in range(m + 1)], dtype=np.int64)


def _mdp_tables(params: ScenarioParams) -> PolicyTables:
    # long-run optimum: greedy policy of the termination-game MDP
    model = mdp_mod.build_mdp(params)
    _, policy = mdp_mod.value_iteration(model, 1e-10)
    acts = [policy[s] for s in model.states]
    pre, shape = acts[:model.n_pre], (params.n_honest + 1, params.n_attackers + 1)
    return PolicyTables(
        np.reshape([a.busy_reports for a in pre], shape).astype(np.int64),
        np.reshape([a.transmitters for a in pre], shape).astype(np.int64),
        np.array(acts[model.n_pre:], dtype=np.int64))


def build_policy_tables(config: SimConfig) -> PolicyTables:
    params, mode = config.params, config.punishment_mode
    policy = config.attacker_policy
    if isinstance(policy, PolicyTables):
        return policy
    hetero = isinstance(params, HeteroParams)
    if mode == "indirect" and policy == "optimal":
        if hetero:
            raise ValueError("optimal indirect policy is only built for "
                             "homogeneous attackers (no heterogeneous MDP)")
        return _mdp_tables(params)
    group = params.base
    if policy == "honest":
        flat = oneshot.action_order(group)[..., 0]
    else:
        _, flat, _ = oneshot.best_profiles(params, mode == "direct")
    b, mt = np.divmod(flat, group.n_attackers + 1)
    if hetero:
        # the attacker sensing alone, at its own error rates and rate
        post = _post_transmit_table(replace(
            group, p_false_alarm=params.p_false_alarm_attacker,
            p_missed_detection=params.p_missed_detection_attacker,
            total_rate=params.rate_attacker))
    elif policy == "honest":
        post = np.zeros(group.n_attackers + 1, dtype=np.int64)
    else:
        post = _post_transmit_table(params)
    return PolicyTables(b, mt, post)


def _reward_constants(config: SimConfig) -> tuple[float, float, float, float, int, int]:
    """(rate_attacker_side, rate_honest_side, cp, cb, m, n_honest_transmitters)"""
    if isinstance(config.params, HeteroParams):
        base = config.params.base
        r_att = config.params.rate_attacker
        r_hon = float(np.mean(config.params.rates_honest))
        m = 1
    else:
        base = config.params
        r_att = base.total_rate
        r_hon = base.total_rate
        m = base.n_attackers
    cb = base.direct_punishment if config.punishment_mode == "direct" else 0.0
    return r_att, r_hon, base.collision_penalty, cb, m, base.n_total - m


def _block_outcomes(idle: np.ndarray, kh: np.ndarray, ka: np.ndarray,
                    config: SimConfig, tables: PolicyTables
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot realized rewards (attacker aggregate, honest per-SU) and
    collision flags of a (rows x horizon) block, and each row's punishment
    trigger slot (-1 when none)."""
    r_att, r_hon, cp, cb, m, n_h = _reward_constants(config)
    busy = ~idle
    b = tables.b[kh, ka]
    mt = tables.transmit[kh, ka]
    announced = (kh >= 1) | (b >= 1)
    h0 = ~announced
    t_total = np.where(h0, n_h + mt, mt)
    collision = busy & (t_total >= 1)

    att = np.zeros(idle.shape)
    hon = np.zeros(idle.shape)
    shared = idle & h0
    att[shared] = r_att * mt[shared] / t_total[shared]
    hon[shared] = r_hon / t_total[shared]
    att[idle & announced & (mt >= 1)] = r_att
    att[busy & h0] = -m * cp
    hon[busy & h0] = -cp
    exclusive_hit = busy & announced & (mt >= 1)
    att[exclusive_hit] = -m * (cp + cb)
    hon[exclusive_hit] = -(cp + cb)

    triggered = exclusive_hit.any(axis=1)
    if config.punishment_mode != "indirect" or not triggered.any():
        return att, hon, collision, np.full(idle.shape[0], -1)
    first = np.argmax(exclusive_hit, axis=1)
    after = triggered[:, None] & (np.arange(idle.shape[1]) > first[:, None])
    transmit = tables.post_transmit[ka] >= 1
    att = np.where(after, np.where(transmit, np.where(idle, r_att, -m * cp),
                                   0.0), att)
    hon[after] = 0.0
    collision = np.where(after, busy & transmit, collision)
    return att, hon, collision, np.where(triggered, first, -1)


def run_slot(rng: np.random.Generator, runtime: SlotRuntime) -> SlotTrace:
    """One slot, scalar path: sense, report, fuse, transmit, settle.

    Draw order (channel, honest count, attacker count) matches the
    vectorized kernel slot-for-slot.
    """
    config = runtime.config
    r_att, r_hon, cp, cb, m, n_h = _reward_constants(config)
    params = config.params.base
    idle = rng.random() < params.p_idle
    p_busy = params.p_false_alarm if idle else 1.0 - params.p_missed_detection
    if isinstance(config.params, HeteroParams):
        p_busy_a = (config.params.p_false_alarm_attacker if idle
                    else 1.0 - config.params.p_missed_detection_attacker)
    else:
        p_busy_a = p_busy
    kh = int(rng.binomial(n_h, p_busy))
    ka = int(rng.binomial(m, p_busy_a))

    if runtime.punishment_on:
        pmt = int(runtime.tables.post_transmit[ka])
        collision = (not idle) and pmt >= 1
        att = (r_att if idle else -m * cp) if pmt >= 1 else 0.0
        return SlotTrace(not idle, kh, ka, None, pmt, collision, att,
                         0.0, 0.0, True)

    b = int(runtime.tables.b[kh, ka])
    mt = int(runtime.tables.transmit[kh, ka])
    announced = kh >= 1 or b >= 1
    t_total = mt if announced else n_h + mt
    collision = (not idle) and t_total >= 1
    penalty = 0.0
    if announced and mt >= 1:
        att = r_att if idle else -m * (cp + cb)
        hon = 0.0 if idle else -(cp + cb)
        penalty = 0.0 if idle else cp + cb
        if config.punishment_mode == "indirect" and not idle:
            runtime.punishment_on = True
    elif announced:
        att = hon = 0.0
    elif idle:
        att = r_att * mt / t_total
        hon = r_hon / t_total
    else:
        att = -m * cp
        hon = -cp
        penalty = cp
    return SlotTrace(not idle, kh, ka,
                     Announcement.H1 if announced else Announcement.H0,
                     t_total, collision, att, hon, penalty,
                     runtime.punishment_on)


def _replication_rng(base_seed: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(base_seed, spawn_key=(r,))))


def _block_draws(config: SimConfig, reps: range
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel and busy-count draws of replications reps, one row each.

    Every row draws from its own replication stream in the order random,
    honest binomial, attacker binomial, each over the whole horizon.
    """
    params = config.params.base
    shape = (len(reps), config.horizon)
    rngs = [_replication_rng(config.base_seed, r) for r in reps]
    uniform = np.empty(shape)
    for rng, row in zip(rngs, uniform):
        rng.random(out=row)
    idle = uniform < params.p_idle
    p_busy = p_busy_a = np.where(idle, params.p_false_alarm,
                                 1.0 - params.p_missed_detection)
    if isinstance(config.params, HeteroParams):
        p_busy_a = np.where(idle, config.params.p_false_alarm_attacker,
                            1.0 - config.params.p_missed_detection_attacker)
    *_, m, n_h = _reward_constants(config)
    kh = np.empty(shape, dtype=np.int64)
    ka = np.empty(shape, dtype=np.int64)
    for i, rng in enumerate(rngs):
        kh[i] = rng.binomial(n_h, p_busy[i])
        ka[i] = rng.binomial(m, p_busy_a[i])
    return idle, kh, ka


def _run_block(reps: range, config: SimConfig, tables: PolicyTables,
               weights: np.ndarray) -> tuple:
    idle, kh, ka = _block_draws(config, reps)
    att, hon, collision, triggers = _block_outcomes(idle, kh, ka, config,
                                                    tables)
    return (att.mean(axis=1), hon.mean(axis=1),
            (att * weights).sum(axis=1), (hon * weights).sum(axis=1),
            int(np.count_nonzero(collision)), int(np.count_nonzero(~idle)),
            triggers)


def _stat_block(values: np.ndarray) -> StatBlock:
    n = values.size
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if n > 1 else 0.0
    return StatBlock(mean, var, 1.96 * math.sqrt(var / n))


def run_experiment(config: SimConfig, workers: int = 1) -> SimStats:
    """Replicated episodes, merged in replication order regardless of the
    worker count."""
    problems = validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))
    tables = build_policy_tables(config)
    params = config.params.base
    delta = params.discount
    weights = delta ** np.arange(config.horizon)
    size = max(1, BLOCK_SLOTS // config.horizon)
    blocks = [range(start, min(start + size, config.replications))
              for start in range(0, config.replications, size)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda reps: _run_block(reps, config, tables, weights), blocks))
    else:
        rows = [_run_block(reps, config, tables, weights) for reps in blocks]

    cols = list(zip(*rows))
    per_att, per_hon, disc_att, disc_hon, triggers = (
        np.concatenate(cols[i]) for i in (0, 1, 2, 3, 6))
    collisions, busy_slots = sum(cols[4]), sum(cols[5])

    r_att, r_hon, cp, cb, m, _ = _reward_constants(config)
    tail = delta ** config.horizon / (1.0 - delta)
    tail_att = tail * max(r_att, m * (cp + cb))
    tail_hon = tail * max(r_hon, cp + cb)

    gamma = collisions / busy_slots if busy_slots else 0.0
    pu = (1.0 - gamma) * 1.0 + gamma * params.n_total * params.collision_penalty

    slots, counts = np.unique(triggers[triggers >= 0], return_counts=True)
    trigger_hist = dict(zip(slots.tolist(), counts.tolist()))
    never = int(np.count_nonzero(triggers < 0))

    return SimStats(_stat_block(per_att), _stat_block(per_hon),
                    _stat_block(disc_att), _stat_block(disc_hon),
                    tail_att, tail_hon, collisions, busy_slots, gamma, pu,
                    trigger_hist, never)


def run_trace(config: SimConfig, slots: int, replication: int = 0) -> list[SlotTrace]:
    """Scalar-path trace of one episode prefix (its own stream; traces are
    diagnostics, not the estimator)."""
    problems = validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))
    runtime = SlotRuntime(config, build_policy_tables(config))
    rng = _replication_rng(config.base_seed, replication)
    return [run_slot(rng, runtime) for _ in range(slots)]
