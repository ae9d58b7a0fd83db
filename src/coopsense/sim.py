"""Slot-by-slot Monte Carlo simulation of the two-phase sensing game.

run_experiment cuts the replications into contiguous blocks of about
BLOCK_SLOTS slots and runs the outcome kernel once per (rows x horizon)
block; run_slot is the scalar reference for traces and tests.  The block
kernel evaluates the outcome rules once on the small grid of (idle,
honest busy count, attacker busy count) cells and gathers each slot's
rewards from it; a test pins it to the scalar path on shared draws.

Determinism contract: replication r draws from a stream derived from
(base_seed, r), the block size depends on the horizon only, and block
outputs are merged in replication order, so results are bit-identical
for any worker count.

Draws: each row's stream gives the channel uniforms, then the honest and
then the attacker busy counts, exactly as Generator.random and
Generator.binomial read it.  Where numpy samples every count by inversion
(n * min(p, 1-p) <= 30), each count reads one uniform, so a row reads
its stream with one random(3 * horizon) call and maps each uniform to its
count through the cut points of numpy's inversion loop, found once per
(n, p) by bisection.  A configuration that needs BTPE, and a row in which
numpy would redraw a uniform, take numpy's samplers per row instead.
"""

from __future__ import annotations

import functools
import math
import struct
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

# numpy's Generator.binomial (random_binomial in its distributions.c)
# samples by inversion where n * min(p, 1-p) is at most this, else by BTPE.
INVERSION_LIMIT = 30.0


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


def _slot_rules(idle: np.ndarray, kh: np.ndarray, ka: np.ndarray,
                config: SimConfig, tables: PolicyTables
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise outcome of slots before any punishment: realized
    rewards (attacker aggregate, honest per-SU), collision flags and the
    exclusive hits (a collision after a busy announcement)."""
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
    return att, hon, collision, exclusive_hit


def _outcome_grid(config: SimConfig, tables: PolicyTables
                  ) -> tuple[np.ndarray, ...]:
    """_slot_rules on every (idle, honest_busy, attacker_busy) cell,
    flattened as (idle * (n_h + 1) + honest_busy) * (M + 1) + attacker_busy."""
    *_, m, n_h = _reward_constants(config)
    idle, kh, ka = np.indices((2, n_h + 1, m + 1)).reshape(3, -1)
    return _slot_rules(idle.astype(bool), kh, ka, config, tables)


def _block_outcomes(idle: np.ndarray, kh: np.ndarray, ka: np.ndarray,
                    config: SimConfig, tables: PolicyTables,
                    grid: tuple[np.ndarray, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot realized rewards (attacker aggregate, honest per-SU) and
    collision flags of a (rows x horizon) block, and each row's punishment
    trigger slot (-1 when none).  grid is _outcome_grid(config, tables)."""
    r_att, _, cp, _, m, n_h = _reward_constants(config)
    cell = (idle * (n_h + 1) + kh) * (m + 1) + ka
    att, hon, collision, exclusive_hit = (column[cell] for column in grid)

    triggered = exclusive_hit.any(axis=1)
    if config.punishment_mode != "indirect" or not triggered.any():
        return att, hon, collision, np.full(idle.shape[0], -1)
    first = np.argmax(exclusive_hit, axis=1)
    after = triggered[:, None] & (np.arange(idle.shape[1]) > first[:, None])
    transmit = tables.post_transmit[ka] >= 1
    att = np.where(after, np.where(transmit, np.where(idle, r_att, -m * cp),
                                   0.0), att)
    hon[after] = 0.0
    collision = np.where(after, ~idle & transmit, collision)
    return att, hon, collision, np.where(triggered, first, -1)


def run_slot(rng: np.random.Generator, runtime: SlotRuntime) -> SlotTrace:
    """One slot, scalar path: sense, report, fuse, transmit, settle.

    Draws channel, honest count and attacker count in turn each slot; the
    block kernel draws each over the whole horizon instead, so a trace
    follows the estimator's rules but not its episodes.
    """
    config = runtime.config
    r_att, r_hon, cp, cb, m, n_h = _reward_constants(config)
    idle = rng.random() < config.params.base.p_idle
    honest, attacker = _busy_probabilities(config)
    kh = int(rng.binomial(n_h, honest[0] if idle else honest[1]))
    ka = int(rng.binomial(m, attacker[0] if idle else attacker[1]))

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


def _binomial_draws(config: SimConfig, reps: range
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel and busy-count draws of replications reps, one row each,
    straight from numpy's samplers.

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
    (h_idle, h_busy), (a_idle, a_busy) = _busy_probabilities(config)
    p_busy = np.where(idle, h_idle, h_busy)
    p_busy_a = np.where(idle, a_idle, a_busy)
    *_, m, n_h = _reward_constants(config)
    kh = np.empty(shape, dtype=np.int64)
    ka = np.empty(shape, dtype=np.int64)
    for i, rng in enumerate(rngs):
        kh[i] = rng.binomial(n_h, p_busy[i])
        ka[i] = rng.binomial(m, p_busy_a[i])
    return idle, kh, ka


def _busy_probabilities(config: SimConfig
                        ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-SU probability of sensing busy on an idle and on a busy channel,
    for the honest SUs and for the attackers."""
    params = config.params
    honest = (params.base.p_false_alarm,
              1.0 - params.base.p_missed_detection)
    if isinstance(params, HeteroParams):
        return honest, (params.p_false_alarm_attacker,
                        1.0 - params.p_missed_detection_attacker)
    return honest, honest


def _inversion_start(n: int, p: float) -> tuple[float, float, int]:
    """(q, q**n, bound) as numpy's random_binomial_inversion computes them,
    with exp, log and sqrt from the C library (math), as numpy calls them."""
    q = 1.0 - p
    np_ = n * p
    return (q, math.exp(n * math.log(q)),
            int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1))))


def _inversion_count(u: float, n: int, p: float) -> int:
    """numpy's random_binomial_inversion(n, p) run on its first uniform u:
    the count it returns, or bound + 1 where it would draw another uniform."""
    q, px, bound = _inversion_start(n, p)
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return x
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


_ONE_BITS = struct.unpack("<q", struct.pack("<d", 1.0))[0]


@functools.lru_cache(maxsize=256)
def _inversion_table(n: int, p: float
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """(cuts, counts) that reproduce Generator.binomial(n, p) from the one
    uniform u it reads: the count is counts[searchsorted(cuts, u)], and the
    last count, -1, marks the uniforms past numpy's bound that it redraws.

    None where numpy reads no uniform (n or p zero) or samples by BTPE
    (n * min(p, 1-p) > 30).  The inversion count is monotone in u, so cut
    k is the largest double whose count is at most k, found by bisecting
    over bit patterns (positive doubles order like their bits).
    """
    if n == 0 or p == 0.0:
        return None
    flip = p > 0.5
    p_inv = 1.0 - p if flip else p
    if p_inv * n > INVERSION_LIMIT:
        return None
    bound = _inversion_start(n, p_inv)[2]
    cuts = []
    lo = 0  # bits of 0.0, whose count is 0
    for k in range(bound + 1):
        hi = _ONE_BITS  # uniforms lie below 1.0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _inversion_count(_float_of_bits(mid), n, p_inv) <= k:
                lo = mid
            else:
                hi = mid
        cuts.append(_float_of_bits(lo))
    counts = np.arange(bound + 2)
    if flip:
        counts = n - counts
    counts[-1] = -1
    table = (np.array(cuts), counts)
    for column in table:
        column.flags.writeable = False
    return table


def _cut_index(uniform: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """How many cut points each uniform exceeds: one branch-free compare
    per cut, several times faster than a binary search per uniform."""
    index = np.zeros(uniform.shape, dtype=np.uint8)  # tables hold < 90 cuts
    for cut in cuts:
        index += uniform > cut
    return index


def _invert(uniform: np.ndarray, idle: np.ndarray,
            idle_table: tuple[np.ndarray, np.ndarray],
            busy_table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Counts of uniforms in [0, 1): idle_table's where idle, else
    busy_table's."""
    (idle_cuts, idle_counts), (busy_cuts, busy_counts) = idle_table, busy_table
    busy = _cut_index(uniform, busy_cuts)
    # index into busy_counts + idle_counts, selected by uint8 arithmetic
    # (np.where on a random mask costs several times more); the wrapped
    # difference is exact mod 256 and the index stays below 256
    to_idle = _cut_index(uniform, idle_cuts) + np.uint8(len(busy_counts)) - busy
    index = busy + idle * to_idle
    return np.concatenate((busy_counts, idle_counts))[index.astype(np.intp)]


def _block_draws(config: SimConfig, reps: range
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of _binomial_draws, by inversion of one uniform call per
    row.

    Where every count is sampled by numpy's inversion, each slot's counts
    read exactly one double each, the same one Generator.random returns,
    so a row reads its stream with one random(3 * horizon) call: channel,
    honest and attacker uniforms, in that order.  A configuration numpy
    samples otherwise goes to _binomial_draws, and so does a row in which
    numpy would redraw a uniform.
    """
    (h_idle, h_busy), (a_idle, a_busy) = _busy_probabilities(config)
    *_, m, n_h = _reward_constants(config)
    honest = _inversion_table(n_h, h_idle), _inversion_table(n_h, h_busy)
    attacker = _inversion_table(m, a_idle), _inversion_table(m, a_busy)
    if None in honest + attacker:
        return _binomial_draws(config, reps)
    h = config.horizon
    uniform = np.empty((len(reps), 3 * h))
    for r, row in zip(reps, uniform):
        _replication_rng(config.base_seed, r).random(out=row)
    idle = uniform[:, :h] < config.params.base.p_idle
    kh = _invert(uniform[:, h:2 * h], idle, *honest)
    ka = _invert(uniform[:, 2 * h:], idle, *attacker)
    redrawn = (kh.min(axis=1) < 0) | (ka.min(axis=1) < 0)
    for i in np.flatnonzero(redrawn):
        # numpy reads more uniforms for this row than the one call holds
        _, kh[i:i + 1], ka[i:i + 1] = _binomial_draws(config, reps[i:i + 1])
    return idle, kh, ka


def _run_block(reps: range, config: SimConfig, tables: PolicyTables,
               grid: tuple[np.ndarray, ...], weights: np.ndarray) -> tuple:
    idle, kh, ka = _block_draws(config, reps)
    att, hon, collision, triggers = _block_outcomes(idle, kh, ka, config,
                                                    tables, grid)
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
    grid = _outcome_grid(config, tables)
    params = config.params.base
    delta = params.discount
    weights = delta ** np.arange(config.horizon)
    size = max(1, BLOCK_SLOTS // config.horizon)
    blocks = [range(start, min(start + size, config.replications))
              for start in range(0, config.replications, size)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda reps: _run_block(reps, config, tables, grid, weights),
                blocks))
    else:
        rows = [_run_block(reps, config, tables, grid, weights)
                for reps in blocks]

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
