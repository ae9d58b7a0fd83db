"""Slot-by-slot Monte Carlo simulation of the two-phase sensing game.

run_experiment cuts the replications into contiguous blocks of about
BLOCK_SLOTS slots and runs the outcome kernel once per (rows x horizon)
block.  It runs the blocks on up to `workers` threads only from a horizon
of THREAD_HORIZON slots on: a shorter row is mostly short numpy calls
that hold the GIL, and there two threads took about twice the time of
one.  Below it the blocks run serially whatever `workers` says.

The outcome grid settles every (idle, honest busy count,
attacker busy count) cell twice: by _slot_rules while the SUs
collaborate, and by oneshot.post_transmit after the indirect trigger.
The kernel moves every slot after a row's first exclusive hit into the
terminated half; the estimator and run_trace (replication 0) read both
phases from the grid, so a trace is an episode that the estimate
averages.  The tests pin the kernel and the trace to a scalar reference.

Determinism contract: replication r draws from
PCG64(SeedSequence(base_seed, spawn_key=(r,))), the block size depends on
the horizon only, and block outputs are merged in replication order, so
results are bit-identical for any worker count.  The streams' seed words
are computed for all replications at once (_stream_words) and handed to
numpy's PCG64 seeding; a seed of 2**128 or more, or a replication index
of 2**32 or more, takes SeedSequence itself.

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
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import mdp as mdp_mod
from . import oneshot
from .fusion import Announcement
from .model import (HeteroParams, ScenarioParams, _is_count, validate,
                    validate_hetero)
from .posterior import _attacker_rates

MODES = ("none", "direct", "indirect")

# Replications run in contiguous blocks of max(1, BLOCK_SLOTS // horizon)
# rows.  The size depends on the horizon only, never on the worker count,
# and small blocks keep the kernel's temporaries in a few hundred kB.
BLOCK_SLOTS = 8192

# run_experiment runs its blocks on threads only at horizons of this many
# slots or more.  Time of 2 workers over 1 worker by horizon, N=5, M=2,
# about 400k slots per shape, median of 9 alternating calls (2 cores,
# numpy 2.4.6):
#
#   horizon    192  1,000  4,096  8,192  16,384  32,768  65,536  100,000
#   indirect  2.47   1.87   1.82   1.70    1.16    0.76    0.95     0.82
#   none      2.07   2.50   2.01   2.15    1.08    0.85    0.81     0.82
#
# Outputs never depend on it: blocks, draws and merge order are the same
# on either side.
THREAD_HORIZON = 4 * BLOCK_SLOTS

# numpy's Generator.binomial (random_binomial in its distributions.c)
# samples by inversion where n * min(p, 1-p) is at most this, else by BTPE.
INVERSION_LIMIT = 30.0

# numpy's SeedSequence constants (bit_generator.pyx): the hash multipliers
# of the pool and of generate_state, and the two of mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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
    """Type, shape, dtype and range violations: every table entry is a
    count of attackers, so each table must be an integer array with
    entries in [0, n_attackers]."""
    m, rows = params.n_attackers, params.n_honest + 1
    problems = []
    for name, shape in (("b", (rows, m + 1)), ("transmit", (rows, m + 1)),
                        ("post_transmit", (m + 1,))):
        table = getattr(tables, name)
        if not isinstance(table, np.ndarray):
            problems.append(f"PolicyTables.{name} must be a numpy array, "
                            f"not {type(table).__name__}")
        elif table.shape != shape:
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
    policy = config.attacker_policy
    if isinstance(policy, PolicyTables):
        if not problems:
            # the expected shapes are only defined for valid counts
            problems += _table_problems(policy, config.params.base)
    elif not (isinstance(policy, str) and policy in ("optimal", "honest")):
        problems.append("attacker_policy must be 'optimal', 'honest' or "
                        f"PolicyTables, not {policy!r}")
    for name, low in (("horizon", 1), ("replications", 1), ("base_seed", 0)):
        value = getattr(config, name)
        if not _is_count(value):
            problems.append(f"{name} must be an integer, not {value!r}")
        elif value < low:
            problems.append(f"{name} must be >= {low}")
    return problems


def _mdp_flat(params: ScenarioParams) -> np.ndarray:
    # long-run optimum: the termination-game MDP's greedy pre-punishment
    # profiles, indexed [honest_busy, attacker_busy]
    model = mdp_mod.build_mdp(params)
    flat, _ = model.actions_at(mdp_mod.optimal_ranks(model)[1])
    return flat.reshape(params.n_honest + 1, params.n_attackers + 1)


def build_policy_tables(config: SimConfig) -> PolicyTables:
    """A built-in policy's tables; after termination every built-in
    policy plays oneshot.post_transmit."""
    params, mode = config.params, config.punishment_mode
    policy = config.attacker_policy
    if isinstance(policy, PolicyTables):
        return policy
    group = params.base
    if mode == "indirect" and policy == "optimal":
        if isinstance(params, HeteroParams):
            raise ValueError("optimal indirect policy is only built for "
                             "homogeneous attackers (no heterogeneous MDP)")
        flat = _mdp_flat(params)
    elif policy == "honest":
        flat = oneshot.honest_flat(group)
    else:
        order, best, _ = oneshot.best_profiles(params, mode == "direct")
        flat = np.take_along_axis(order, best[..., None], axis=-1)[..., 0]
    b, mt = np.divmod(flat, group.n_attackers + 1)
    return PolicyTables(b, mt, oneshot.post_transmit(params))


def _reward_constants(config: SimConfig) -> tuple[float, float, float, float, int, int]:
    """(rate_attacker_side, rate_honest_side, cp, cb, m, n_honest_transmitters)"""
    params = config.params
    base = params.base
    if isinstance(params, HeteroParams):
        r_att = params.rate_attacker
        r_hon = float(np.mean(params.rates_honest))
    else:
        r_att = r_hon = base.total_rate
    cb = base.direct_punishment if config.punishment_mode == "direct" else 0.0
    m = base.n_attackers
    return r_att, r_hon, base.collision_penalty, cb, m, base.n_total - m


def _slot_rules(idle: np.ndarray, kh: np.ndarray, ka: np.ndarray,
                config: SimConfig, tables: PolicyTables
                ) -> tuple[np.ndarray, ...]:
    """Elementwise outcome of slots while the SUs collaborate: realized
    rewards (attacker aggregate, honest per-SU), collision flags, the
    exclusive hits (a collision after a busy announcement), then the
    announcements, transmitter counts and per-SU penalties that only
    traces read."""
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
    penalty = np.zeros(idle.shape)
    shared = idle & h0
    att[shared] = r_att * mt[shared] / t_total[shared]
    hon[shared] = r_hon / t_total[shared]
    att[idle & announced & (mt >= 1)] = r_att
    att[busy & h0] = -m * cp
    hon[busy & h0] = -cp
    penalty[busy & h0] = cp
    exclusive_hit = busy & announced & (mt >= 1)
    att[exclusive_hit] = -m * (cp + cb)
    hon[exclusive_hit] = -(cp + cb)
    penalty[exclusive_hit] = cp + cb
    announcement = np.where(announced, Announcement.H1, Announcement.H0)
    return att, hon, collision, exclusive_hit, announcement, t_total, penalty


def _outcome_grid(config: SimConfig, tables: PolicyTables
                  ) -> tuple[np.ndarray, ...]:
    """_slot_rules' seven columns on cells (idle * (n_h + 1) + honest_busy)
    * (M + 1) + attacker_busy, then on the same cells after termination:
    the post_transmit count transmits on its own sensing, with no
    announcement (None), exclusive hit, penalty or honest reward."""
    r_att, _, cp, _, m, n_h = _reward_constants(config)
    idle, kh, ka = np.indices((2, n_h + 1, m + 1)).reshape(3, -1)
    idle = idle.astype(bool)
    transmitters = tables.post_transmit[ka]
    transmit = transmitters >= 1
    zero = np.zeros(idle.shape)
    ended = (np.where(transmit, np.where(idle, r_att, -m * cp), 0.0), zero,
             ~idle & transmit, np.zeros(idle.shape, dtype=bool),
             np.full(idle.shape, None), transmitters, zero)
    return tuple(np.concatenate(halves) for halves in zip(
        _slot_rules(idle, kh, ka, config, tables), ended))


def _block_outcomes(idle: np.ndarray, kh: np.ndarray, ka: np.ndarray,
                    config: SimConfig, grid: tuple[np.ndarray, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's _outcome_grid cell in a (rows x horizon) block, and
    each row's punishment trigger slot (-1 when none).  Under indirect
    punishment every slot after a row's first exclusive hit takes its
    cell in the grid's terminated half."""
    *_, m, n_h = _reward_constants(config)
    cell = (idle * (n_h + 1) + kh) * (m + 1) + ka
    if config.punishment_mode != "indirect":
        return cell, np.full(idle.shape[0], -1)
    exclusive_hit = grid[3][cell]
    triggered = exclusive_hit.any(axis=1)
    first = np.argmax(exclusive_hit, axis=1)
    after = triggered[:, None] & (np.arange(idle.shape[1]) > first[:, None])
    np.add(cell, len(grid[3]) // 2, out=cell, where=after)
    return cell, np.where(triggered, first, -1)


def _stream_words(base_seed: int, reps: range) -> np.ndarray:
    """SeedSequence(base_seed, spawn_key=(r,)).generate_state(4, np.uint64)
    for every r in reps, one row each.

    SeedSequence hashes the seed's words into a 4-word pool, stirs it,
    then mixes each spawn-key word into every pool word.  A seed below
    2**128 fills the pool as the unspawned SeedSequence(base_seed) does
    (the spawned one pads it with zero words, which hash like the filler),
    and the 16 hashes so far fix the hash constant, so only the last
    mixing and generate_state depend on r: uint32 arithmetic over all rows
    at once.  Wider seeds, and indices of 2**32 or more (two key words),
    go through SeedSequence one row at a time.
    """
    if base_seed >= 2**128 or reps.start < 0 or reps.stop > 2**32:
        return np.array(
            [np.random.SeedSequence(base_seed, spawn_key=(r,))
             .generate_state(4, np.uint64) for r in reps],
            dtype=np.uint64).reshape(len(reps), 4)
    key = np.arange(reps.start, reps.stop, dtype=np.uint32)
    hash_const = _INIT_A * pow(_MULT_A, 16, 2**32) & _MASK32
    pool = []
    for word in np.random.SeedSequence(base_seed).pool.tolist():
        # mix(word, hashmix(key))
        value = key ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        value = np.uint32(_MIX_MULT_L * word & _MASK32) \
            - np.uint32(_MIX_MULT_R) * value
        pool.append(value ^ (value >> 16))
    state = np.empty((len(key), 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    # numpy pairs the uint32 words little end first
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seed sequence of precomputed words: PCG64 asks for 4 uint64 words
    and seeds itself from them in numpy's own code."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _stream(words: np.ndarray) -> np.random.Generator:
    """The generator of a replication stream, from its row of
    _stream_words."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


def _binomial_draws(config: SimConfig, words: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel and busy-count draws of the replication streams whose
    _stream_words rows are words, one row each, straight from numpy's
    samplers.

    Every row draws from its own replication stream in the order random,
    honest binomial, attacker binomial, each over the whole horizon.
    """
    params = config.params.base
    shape = (len(words), config.horizon)
    rngs = [_stream(row) for row in words]
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
    base = config.params.base
    p_fa, p_ma = _attacker_rates(config.params)
    return ((base.p_false_alarm, 1.0 - base.p_missed_detection),
            (p_fa, 1.0 - p_ma))


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


def _block_draws(config: SimConfig, words: np.ndarray
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
        return _binomial_draws(config, words)
    h = config.horizon
    uniform = np.empty((len(words), 3 * h))
    for stream_words, row in zip(words, uniform):
        _stream(stream_words).random(out=row)
    idle = uniform[:, :h] < config.params.base.p_idle
    kh = _invert(uniform[:, h:2 * h], idle, *honest)
    ka = _invert(uniform[:, 2 * h:], idle, *attacker)
    redrawn = (kh.min(axis=1) < 0) | (ka.min(axis=1) < 0)
    for i in np.flatnonzero(redrawn):
        # numpy reads more uniforms for this row than the one call holds
        _, kh[i:i + 1], ka[i:i + 1] = _binomial_draws(config, words[i:i + 1])
    return idle, kh, ka


def _run_block(words: np.ndarray, config: SimConfig,
               grid: tuple[np.ndarray, ...], weights: np.ndarray) -> tuple:
    idle, kh, ka = _block_draws(config, words)
    cell, triggers = _block_outcomes(idle, kh, ka, config, grid)
    att, hon, collision = (column[cell] for column in grid[:3])
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
    worker count.  workers, an integer of at least 1, bounds the threads:
    they run only at horizons of THREAD_HORIZON slots or more, and the
    result is bit-identical at any worker count."""
    problems = validate_config(config)
    if not (_is_count(workers) and workers >= 1):
        problems.append(f"workers must be an integer at least 1, "
                        f"not {workers!r}")
    if problems:
        raise ValueError("; ".join(problems))
    grid = _outcome_grid(config, build_policy_tables(config))
    params = config.params.base
    delta = params.discount
    weights = delta ** np.arange(config.horizon)
    size = max(1, BLOCK_SLOTS // config.horizon)
    words = _stream_words(config.base_seed, range(config.replications))
    blocks = [words[start:start + size]
              for start in range(0, config.replications, size)]
    if workers > 1 and config.horizon >= THREAD_HORIZON:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda block: _run_block(block, config, grid, weights),
                blocks))
    else:
        rows = [_run_block(block, config, grid, weights)
                for block in blocks]

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


def validate_trace(config: SimConfig, slots: int) -> list[str]:
    """The bound on a trace's length: a trace lists slots of one episode
    of config.horizon slots; validate_config reports a horizon that is no
    integer."""
    if not _is_count(config.horizon) or 0 <= slots <= config.horizon:
        return []
    return [f"trace_slots must lie in [0, horizon] = [0, {config.horizon}], "
            f"not {slots}"]


def run_trace(config: SimConfig, slots: int) -> list[SlotTrace]:
    """The first slots slots of replication 0, as run_experiment draws
    and settles them: the same _block_draws, outcome grid and cells, so
    the trace is an episode that the estimate averages.  From the slot
    after the trigger on, the cells are the grid's terminated half:
    reporting has stopped, so the announcement is None, and the
    attackers' post_transmit count transmits."""
    problems = validate_config(config) + validate_trace(config, slots)
    if problems:
        raise ValueError("; ".join(problems))
    grid = _outcome_grid(config, build_policy_tables(config))
    idle, kh, ka = _block_draws(config, _stream_words(config.base_seed,
                                                      range(1)))
    cell, triggers = _block_outcomes(idle, kh, ka, config, grid)
    att, hon, collision, _, announcement, transmitters, penalty = (
        column[cell[0]] for column in grid)
    first = triggers[0] if triggers[0] >= 0 else config.horizon
    columns = (~idle[0], kh[0], ka[0], announcement, transmitters, collision,
               att, hon, penalty, np.arange(config.horizon) >= first)
    return [SlotTrace(*fields) for fields in zip(
        *(column[:slots].tolist() for column in columns))]
