"""Slot-by-slot Monte Carlo simulation of the two-phase sensing game.

run_experiment cuts the replications into contiguous blocks of about
BLOCK_SLOTS slots and runs the outcome kernel once per (rows x horizon)
block: larger blocks pay the kernel's numpy calls fewer times, until
their temporaries grow large enough for every call to fault the heap
back in.  It runs the blocks on up to `workers` threads only from a
horizon of THREAD_HORIZON slots on: a shorter row is mostly short numpy
calls that hold the GIL, and there two threads took up to twice the
time of one.  Below it the blocks run serially whatever `workers` says.

The outcome grid settles every (idle, honest busy count, attacker busy
count) cell twice, both times by the one-shot layer's slot-reward rule
on a known channel: by oneshot._price while the SUs collaborate, and by
oneshot._grab_reward for the oneshot.post_transmit count after the
indirect trigger; the simulator writes no reward rule of its own.  Every
block enters as keys and a key table that maps each key to its
collaborating cell, and _settle alone moves every key after a row's
first exclusive hit into a second phase that maps to the terminated
half; the estimator and run_trace (replication 0) read both phases from
the grid, so a trace is an episode that the estimate averages.  The
tests pin the kernel and the trace to a scalar reference.

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
its stream with one random(3 * horizon) call, into a buffer that each
thread allocates once per run and refills for every block.  The cut
points of numpy's inversion loop, found once per (n, p) by bisection,
give each uniform a uint8 index into its group's idle and busy count
tables; a slot's honest and attacker indices form its key, a code in the
narrowest unsigned dtype that holds every code (of both phases under
indirect punishment), and the code table built once per run maps each
code to the slot's outcome cell, so no count array is formed.  A configuration that needs BTPE
takes numpy's samplers instead (_sampled): its keys are its cells,
under an identity table.  A row in which numpy would redraw a uniform
holds a code that the table maps to -1; _run_block runs it again alone
through _sampled, and so does run_trace.

Weights: the discounted sums weight slot t by discount ** t, the powers
numpy's own ** gives.  Past about 1,000 to 7,000 slots at discounts of
0.5 to 0.9 they underflow to 0.0, where numpy's power is several times
slower, so _discount_weights stops computing them at the first chunk
that ends in 0.0 and returns them up to the last nonzero one: the
discounted sums run over that prefix of each row only.

Reduction: no inversion row forms a per-slot cell; _run_block reads
the grid through the settled key table.  Where a row is at least
twice the weights' prefix and no shorter than the grid, the block is
reduced through counts: one bincount counts each row's keys, and the
key table folds them into cell counts, exact integers, so each row's
per-slot means, its cell counts times the grid's reward columns summed
in grid order (no BLAS call, so the bits do not depend on the numpy
build), are the ones a count of its cells gives, bit for bit; the
collision count is the block's cell-count total, and only the weighted
sums map keys to cells, over the weights' prefix.  Elsewhere the
weighted sums cover most of the row and need its rewards anyway, so the
block takes the reward and collision columns through per-key tables
over every slot and averages them.  Either way the busy-slot count comes
from the channel uniforms, and a row's outputs depend on the
configuration only, never on its block.
"""

from __future__ import annotations

import ctypes
import functools
import math
import struct
import threading
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
# rows.  The size depends on the horizon only, never on the worker count.
# Fewer, larger blocks of short rows make fewer numpy calls, but past this
# size their temporaries made glibc's malloc map and trim heap pages that
# every call faulted back in, before _keep_heap raised its thresholds.  A
# 1,000 x 192 indirect call, N=6/M=4, after two warm-up calls, 15 calls in
# each of 10 fresh processes per size, alternating (2 cores, Python
# 3.11.7, numpy 2.4.6; the package compiled from source, which left the
# thresholds raised):
#
#   BLOCK_SLOTS                8,192  16,384  32,768  65,536
#   fastest call, ms            10.6     9.6    12.0    12.0
#   median process median, ms   18.7    15.8    18.7    20.8
#   minor faults per call          0       0     414     863
#
# Horizons of 16,384 slots or more run one row a block.
BLOCK_SLOTS = 16384

# run_experiment runs its blocks on threads only at horizons of this many
# slots or more.  Time of 2 workers over 1 worker by horizon, threads
# forced at every horizon, N=5/M=2 at discount 0.7, about 400k slots per
# shape, medians over three runs of the median of 9 alternating calls,
# with long rows reduced through code counts (2 cores, Python 3.11.7,
# numpy 2.4.6):
#
#   horizon    192  1,000  4,096  8,192  16,384  32,768  65,536  100,000
#   indirect  1.06   1.10   1.38   1.23    1.29    0.84    0.95     0.78
#   none      1.36   1.12   1.06   1.09    1.03    0.84    0.78     0.93
#
# A second set of three runs put the crossover at the same place.
# Outputs never depend on it: blocks, draws and merge order are the same
# on either side.
THREAD_HORIZON = 32768

# _discount_weights computes this many powers at a time; at discounts from
# 0.5 to 0.9 only the first 1,075 to 7,073 weights are above 0.0
_WEIGHT_CHUNK = 4096

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
        flat = oneshot.action_order(group)[..., 0]
    else:
        order, best, _ = oneshot.best_profiles(params, mode == "direct")
        flat = oneshot._pick(order, best)
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


def _outcome_grid(config: SimConfig, tables: PolicyTables
                  ) -> tuple[np.ndarray, ...]:
    """Seven columns on cells (idle * (n_h + 1) + honest_busy) * (M + 1)
    + attacker_busy: the realized rewards (attacker aggregate at the
    attackers' rate, one honest SU's at the honest rate), the collision
    flag, the exclusive hit (a collision after a busy announcement), then
    the announcement, transmitter count and per-SU penalty that only
    traces read.

    While the SUs collaborate, oneshot._price prices each cell as a state
    whose channel is known, (P(idle), P(busy)) = (1, 0) or (0, 1), with
    its policy profile as a one-column order, and its trigger is the
    exclusive hit.  Then come the same cells after termination: the
    post_transmit count transmits on its own sensing, a grab with no
    busy announcement (oneshot._grab_reward without a direct charge),
    with no announcement (None), exclusive hit, penalty or honest
    reward."""
    params = config.params
    r_att, r_hon, cp, cb, m, n_h = _reward_constants(config)
    idle, kh, ka = np.indices((2, n_h + 1, m + 1)).reshape(3, -1)
    idle = idle.astype(bool)
    # the absent channel weight is -0.0, so that a zero reward keeps the
    # sign of its charge: -0.0 on a busy cell at C_p = 0, and 0.0 for the
    # honest SUs, who do not transmit, on an idle grab
    pi, pb = (np.where(idle, w_idle, w_busy)[:, None]
              for w_idle, w_busy in ((1.0, -0.0), (-0.0, 1.0)))
    order = np.ravel_multi_index((tables.b[kh, ka], tables.transmit[kh, ka]),
                                 (m + 1, m + 1))[:, None]
    direct = config.punishment_mode == "direct"
    priced = oneshot._price(params, kh, order, pi, pb, r_att, direct)
    honest = oneshot._price(params, kh, order, pi, pb, r_hon, direct).honest
    mt, announced, grab = (mask[:, 0] for mask in
                           oneshot._action_masks(order, params.base, kh))
    t_total = np.where(announced, mt, n_h + mt)
    # the charges as the SUs pay them, not converted to a rate and back
    penalty = np.where(~idle & (grab | ~announced),
                       np.where(grab, cp + cb, cp), 0.0)
    transmitters = tables.post_transmit[ka]
    transmit = transmitters >= 1
    zero = np.zeros(idle.shape)
    ended = np.where(transmit, oneshot._grab_reward(
        pi[:, 0], pb[:, 0], m, cp / r_att, 0.0, r_att), 0.0)
    return tuple(np.concatenate(halves) for halves in (
        (priced.attacker[:, 0], ended), (honest[:, 0], zero),
        (~idle & (t_total >= 1), ~idle & transmit),
        (priced.trigger[:, 0] > 0.0, np.zeros(idle.shape, dtype=bool)),
        (np.where(announced, Announcement.H1, Announcement.H0),
         np.full(idle.shape, None)),
        (t_total, transmitters), (penalty, zero)))


def _cells(idle: np.ndarray, kh: np.ndarray, ka: np.ndarray,
           config: SimConfig) -> np.ndarray:
    """The _outcome_grid cells, in its collaborating half, of slots'
    channel states and busy counts."""
    *_, m, n_h = _reward_constants(config)
    return (idle * (n_h + 1) + kh) * (m + 1) + ka


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


def _inversion_count(u: float, n: int, p: float,
                     start: tuple[float, float, int] | None = None) -> int:
    """numpy's random_binomial_inversion(n, p) run on its first uniform u:
    the count it returns, or bound + 1 where it would draw another uniform.
    start is _inversion_start(n, p), when the caller has it."""
    q, px, bound = start or _inversion_start(n, p)
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


def _bits_of_float(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


_ONE_BITS = _bits_of_float(1.0)


@functools.lru_cache(maxsize=256)
def _inversion_table(n: int, p: float
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """(cuts, counts) that reproduce Generator.binomial(n, p) from the one
    uniform u it reads: the count is counts[searchsorted(cuts, u)], and the
    last count, -1, marks the uniforms past numpy's bound that it redraws.

    None where numpy reads no uniform (n or p zero) or samples by BTPE
    (n * min(p, 1-p) > 30).  The inversion count is monotone in u, so cut
    k is the largest double whose count is at most k, found by searching
    over bit patterns (positive doubles order like their bits).  The loop
    subtracts the probabilities of 0..k from u before it returns k + 1, so
    the search starts at their float sum and gallops out from it to a
    bracket, which it then bisects.
    """
    if n == 0 or p == 0.0:
        return None
    flip = p > 0.5
    p_inv = 1.0 - p if flip else p
    if p_inv * n > INVERSION_LIMIT:
        return None
    start = q, px, bound = _inversion_start(n, p_inv)

    def above(bits: int, k: int) -> bool:
        return _inversion_count(_float_of_bits(bits), n, p_inv, start) > k

    cuts = []
    floor, total = 0, 0.0  # bits of the last cut, whose count is at most k
    for k in range(bound + 1):
        total += px
        px = ((n - k) * p_inv * px) / ((k + 1) * q)
        # invariant: count(lo) <= k < count(hi); uniforms lie below 1.0
        lo, step = max(floor, min(_bits_of_float(total), _ONE_BITS - 1)), 8
        if above(lo, k):
            hi, lo = lo, max(floor, lo - step)
            while lo > floor and above(lo, k):
                step *= 2
                hi, lo = lo, max(floor, lo - step)
        else:
            hi = min(_ONE_BITS, lo + step)
            while hi < _ONE_BITS and not above(hi, k):
                step *= 2
                lo, hi = hi, min(_ONE_BITS, hi + step)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid, k):
                hi = mid
            else:
                lo = mid
        cuts.append(_float_of_bits(lo))
        floor = lo
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
    above = np.empty(uniform.shape, dtype=np.uint8)
    for cut in cuts:
        # a bool result added as uint8 would take numpy's casting loop
        np.greater(uniform, cut, out=above.view(bool))
        index += above
    return index


def _table_index(uniform: np.ndarray, idle: np.ndarray,
                 busy_cuts: np.ndarray, idle_cuts: np.ndarray) -> np.ndarray:
    """Each uniform's index into the busy table's counts followed by the
    idle table's: the busy cut index where the channel is busy, else the
    idle one past the busy counts."""
    uniform = np.ascontiguousarray(uniform)  # compares run faster on it
    busy = _cut_index(uniform, busy_cuts)
    index = _cut_index(uniform, idle_cuts)
    # selected by uint8 arithmetic (np.where on a random mask costs several
    # times more); the wrapped difference is exact mod 256 and the index
    # stays below 256
    index += np.uint8(len(busy_cuts) + 1)
    index -= busy
    index *= idle.view(np.uint8)
    index += busy
    return index


def _cell_codes(config: SimConfig
                ) -> tuple[tuple[np.ndarray, ...], np.ndarray] | None:
    """The inversion cut points (honest busy, honest idle, attacker busy,
    attacker idle) and the _outcome_grid cell of every code
    honest index * L_a + attacker index, where each index is a
    _table_index and L_a the length of the attacker's two tables; -1
    marks the codes where numpy would redraw a uniform.  (A code that
    pairs an idle honest index with a busy attacker one never occurs.)

    None where numpy samples some count otherwise (BTPE, or no uniform
    read).  Built once per run: per block it costs more than it saves.
    """
    (h_idle, h_busy), (a_idle, a_busy) = _busy_probabilities(config)
    *_, m, n_h = _reward_constants(config)
    tables = (_inversion_table(n_h, h_busy), _inversion_table(n_h, h_idle),
              _inversion_table(m, a_busy), _inversion_table(m, a_idle))
    if None in tables:
        return None
    (hb_cuts, hb), (hi_cuts, hi), (ab_cuts, ab), (ai_cuts, ai) = tables
    kh = np.concatenate((hb, hi))[:, None]
    ka = np.concatenate((ab, ai))
    idle = np.arange(len(kh))[:, None] >= len(hb)
    codes = np.where((kh < 0) | (ka < 0), -1, _cells(idle, kh, ka, config))
    return (hb_cuts, hi_cuts, ab_cuts, ai_cuts), codes.ravel()


def _block_codes(config: SimConfig, words: np.ndarray,
                 inversion: tuple[tuple[np.ndarray, ...], np.ndarray],
                 uniform: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's idle flag and _cell_codes code in the block of the
    replication streams whose _stream_words rows are words.

    inversion is _cell_codes' result: numpy samples every count by
    inversion, so each slot's counts read exactly one double each, the
    same one Generator.random returns, and a row reads its stream into
    uniform, a (rows x 3 * horizon) buffer, with one call: channel, honest
    and attacker uniforms, in that order.  The two cut indices of a slot
    form its code, in the narrowest unsigned dtype that holds every code
    (under indirect punishment also every code plus the number of codes,
    which _settle gives the slots after a row's trigger): uint8 in every
    configuration the benchmarks run, uint16 where the table is longer
    (each index is below 176).
    """
    (hb_cuts, hi_cuts, ab_cuts, ai_cuts), codes = inversion
    h = config.horizon
    for stream_words, row in zip(words, uniform):
        _stream(stream_words).random(out=row)
    idle = uniform[:, :h] < config.params.base.p_idle
    phases = 2 if config.punishment_mode == "indirect" else 1
    code = _table_index(uniform[:, h:2 * h], idle, hb_cuts, hi_cuts).astype(
        np.min_scalar_type(phases * len(codes) - 1), copy=False)
    code *= len(ab_cuts) + len(ai_cuts) + 2
    code += _table_index(uniform[:, 2 * h:], idle, ab_cuts, ai_cuts)
    return idle, code


def _sampled(config: SimConfig, words: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each slot's idle flag and collaborating _outcome_grid cell, and the
    identity table of those cells, in the rows of the replication streams
    whose _stream_words rows are words, from _binomial_draws: the draws
    of a configuration that needs BTPE, and of a row in which numpy would
    redraw a uniform."""
    idle, kh, ka = _binomial_draws(config, words)
    *_, m, n_h = _reward_constants(config)
    identity = np.arange(2 * (n_h + 1) * (m + 1))
    return idle, _cells(idle, kh, ka, config), identity


def _block_keys(config: SimConfig, words: np.ndarray,
                inversion: tuple[tuple[np.ndarray, ...], np.ndarray] | None,
                uniform: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each slot's idle flag and key in the block of the replication
    streams whose _stream_words rows are words, and the table that maps
    each key to its collaborating _outcome_grid cell (-1 where numpy
    would redraw a uniform): the _block_codes codes and _cell_codes table
    where inversion is not None, else _sampled's cells."""
    if inversion is None:
        return _sampled(config, words)
    return (*_block_codes(config, words, inversion, uniform), inversion[1])


def _settle(key: np.ndarray, table: np.ndarray, config: SimConfig,
            grid: tuple[np.ndarray, ...]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A (rows x horizon) block's keys as they settle, their table, and
    each row's punishment trigger slot (-1 when none).

    Under indirect punishment a per-key hit table finds each row's first
    exclusive hit, every later key moves up by len(table) in place, and
    the table doubles: its second half maps those keys into the grid's
    terminated half.  The key dtype must hold 2 * len(table) - 1.
    """
    rows, horizon = key.shape
    if config.punishment_mode != "indirect":
        return key, table, np.full(rows, -1)
    known = table >= 0
    hits = (grid[3].take(table) & known).take(key)
    first = np.argmax(hits, axis=1)  # 0 in a row with no hit
    triggered = hits[np.arange(rows), first]
    del hits
    # one masked add for the block: a loop over triggered rows costs
    # about 1 us a row, a Python int addend takes a slower loop, and
    # int32 on both sides of the compare halves its time
    last = np.where(triggered, first, horizon).astype(np.int32)
    np.add(key, key.dtype.type(len(table)), out=key,
           where=np.arange(horizon, dtype=np.int32) > last[:, None])
    table = np.concatenate((table, np.where(known, table + len(grid[0]) // 2,
                                            -1)))
    return key, table, np.where(triggered, first, -1)


def _row_counts(keys: np.ndarray, size: int) -> np.ndarray:
    """Each row's count of every key below size, one bincount for the
    block: row r's key k is bin r * size + k."""
    rows = len(keys)
    if rows > 1:  # a long row runs alone and needs no offset pass
        keys = keys + np.arange(0, rows * size, size)[:, None]
    return np.bincount(keys.ravel(), minlength=rows * size).reshape(rows, size)


def _run_block(words: np.ndarray, config: SimConfig,
               grid: tuple[np.ndarray, ...],
               inversion: tuple[tuple[np.ndarray, ...], np.ndarray] | None,
               weights: np.ndarray, uniform: np.ndarray) -> tuple:
    horizon = config.horizon
    size, prefix = len(grid[0]), len(weights)
    idle, key, table = _block_keys(config, words, inversion, uniform)
    # a redraw never changes the channel uniforms
    busy_slots = idle.size - int(np.count_nonzero(idle))
    del idle  # freed before the counts' intp copy of the keys
    # The counts pay off where most weights are zero.  Time per block,
    # code counts against gathers, draws included (N=6/M=4, indirect,
    # discount 0.8; lower quartiles of 150 alternating calls; 2 cores,
    # Python 3.11.7, numpy 2.4.6): 768 vs 581 us on 85 rows of 192
    # slots, every weight nonzero; 224 vs 218 us on one 8,192-slot row
    # whose weights end at slot 3,340; 1,653 vs 2,620 us on one
    # 100,000-slot row.  The two paths round the means differently, so
    # the rule cannot move without moving output bits.  A grid longer
    # than the row would count more cells than the block has slots.
    counted = max(size, 2 * prefix) <= horizon
    if not counted:
        key = key.astype(np.intp, copy=False)  # once, not per take
    key, table, triggers = _settle(key, table, config, grid)
    known = table >= 0
    if counted:
        # exact integer counts, folded into cell counts and summed in
        # grid order (no BLAS call, so the bits do not depend on the build)
        counts = _row_counts(key, len(table))
        redrawn = np.flatnonzero(counts[:, ~known].any(axis=1))
        counts[redrawn] = 0
        cells = np.zeros((len(key), size), dtype=np.int64)
        np.add.at(cells, (np.arange(len(key))[:, None], table[known]),
                  counts[:, known])
        per_att = (cells * grid[0]).sum(axis=1) / horizon
        per_hon = (cells * grid[1]).sum(axis=1) / horizon
        collisions = int(cells.sum(axis=0)[grid[2]].sum())
        cell = table.take(key[:, :prefix])
        att, hon = grid[0][cell], grid[1][cell]
    else:
        att, hon, collision = (column.take(table) for column in grid[:3])
        att[~known] = np.nan  # so a row with a redraw key has a NaN mean
        att, hon, collision = att.take(key), hon.take(key), collision.take(key)
        per_att, per_hon = att.mean(axis=1), hon.mean(axis=1)
        redrawn = np.flatnonzero(np.isnan(per_att))
        collisions = int(np.count_nonzero(collision)) \
            - int(np.count_nonzero(collision[redrawn]))
        att, hon = att[:, :prefix], hon[:, :prefix]
    out = [per_att, per_hon, (att * weights).sum(axis=1),
           (hon * weights).sum(axis=1), collisions, busy_slots, triggers]
    for r in redrawn:
        # numpy reads more uniforms for this row than the one call holds:
        # the row takes its samplers, as a BTPE configuration does
        row = _run_block(words[r:r + 1], config, grid, None, weights, uniform)
        for column, value in zip(out[:4] + out[6:], row[:4] + row[6:]):
            column[r] = value[0]
        out[4] += row[4]
    return tuple(out)


def _discount_weights(delta: float, horizon: int) -> np.ndarray:
    """delta ** np.arange(horizon), bit for bit, up to its last nonzero
    weight: numpy's own power over chunks of _WEIGHT_CHUNK exponents, up
    to the first chunk that ends in 0.0.  Every later weight underflows to
    0.0 too, and numpy's power is several times slower on an entry that
    underflows."""
    chunks = []
    for start in range(0, horizon, _WEIGHT_CHUNK):
        chunks.append(delta ** np.arange(start,
                                         min(start + _WEIGHT_CHUNK, horizon)))
        if chunks[-1][-1] == 0.0:
            break
    weights = np.concatenate(chunks)
    return weights[:np.flatnonzero(weights)[-1] + 1]


def _stat_block(values: np.ndarray) -> StatBlock:
    n = values.size
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if n > 1 else 0.0
    return StatBlock(mean, var, 1.96 * math.sqrt(var / n))


@functools.cache
def _keep_heap() -> None:
    """Set glibc malloc's mmap and trim thresholds once per process to the
    32 and 64 MiB its own dynamic rule stops at, so that each block
    reuses the heap pages of the blocks and calls before it.  glibc
    raises them only as it frees mapped blocks: with the package's
    bytecode cached, a 1,000 x 192 call's buffer left them at 384 and
    768 KiB, and every call trimmed the heap and faulted about 190 pages
    back in.  Elsewhere than glibc it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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
    _keep_heap()
    grid = _outcome_grid(config, build_policy_tables(config))
    inversion = _cell_codes(config)
    params = config.params.base
    delta = params.discount
    weights = _discount_weights(delta, config.horizon)
    size = max(1, BLOCK_SLOTS // config.horizon)
    words = _stream_words(config.base_seed, range(config.replications))
    blocks = [words[start:start + size]
              for start in range(0, config.replications, size)]
    # one uniform buffer per thread, refilled for every block, so that the
    # heap is not trimmed and faulted back in after each block
    local = threading.local()

    def run_block(block: np.ndarray) -> tuple:
        if not hasattr(local, "uniform"):
            local.uniform = np.empty((len(blocks[0]), 3 * config.horizon))
        return _run_block(block, config, grid, inversion, weights,
                          local.uniform[:len(block)])

    if workers > 1 and config.horizon >= THREAD_HORIZON:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_block, blocks))
    else:
        rows = [run_block(block) for block in blocks]

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
    and settles them: the same keys, _settle and outcome grid, and a row
    in which numpy would redraw a uniform takes _sampled, so the trace is
    an episode that the estimate averages.  From the slot after the
    trigger on, the cells are the grid's terminated half: reporting has
    stopped, so the announcement is None, and the attackers'
    post_transmit count transmits."""
    problems = validate_config(config) + validate_trace(config, slots)
    if problems:
        raise ValueError("; ".join(problems))
    grid = _outcome_grid(config, build_policy_tables(config))
    words = _stream_words(config.base_seed, range(1))
    idle, key, table = _block_keys(config, words, _cell_codes(config),
                                   np.empty((1, 3 * config.horizon)))
    if table.take(key).min() < 0:
        idle, key, table = _sampled(config, words)
    *_, m, n_h = _reward_constants(config)
    _, kh, ka = np.unravel_index(table.take(key[0]), (2, n_h + 1, m + 1))
    key, table, triggers = _settle(key, table, config, grid)
    att, hon, collision, _, announcement, transmitters, penalty = (
        column[table.take(key[0])] for column in grid)
    first = triggers[0] if triggers[0] >= 0 else config.horizon
    columns = (~idle[0], kh, ka, announcement, transmitters, collision,
               att, hon, penalty, np.arange(config.horizon) >= first)
    return [SlotTrace(*fields) for fields in zip(
        *(column[:slots].tolist() for column in columns))]
