import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coopsense import sim
from coopsense.mdp import build_mdp, optimal_ranks, threshold_policy
from coopsense.model import (HeteroParams, ScenarioParams, validate,
                             validate_hetero)
from coopsense.oneshot import expected_slot_rewards, post_transmit
from coopsense.sim import (PolicyTables, SimConfig, _binomial_draws,
                           _cell_codes, _cells, _cut_index,
                           _discount_weights, _inversion_count,
                           _inversion_table, _outcome_grid, _stream,
                           _stream_words, build_policy_tables,
                           run_experiment, run_trace, validate_config)

from conftest import observable_scenario, region_ii_scenario, rel_err
from test_golden_sim import HETERO
from oracles import (SlotRuntime, bisected_inversion_table, block_reduction,
                     run_slot, settle_cells, settled_cells)

AT_WC = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 100.0, discount=0.9)
# test_golden_sim.SCENARIO: cooperation case SC, so the attackers keep
# transmitting on their own unanimous idle vote after termination
NT_SC = ScenarioParams(
    n_total=6, n_attackers=4, p_idle=0.43093601412916105,
    p_false_alarm=0.022458411436171683,
    p_missed_detection=0.30247914532927933,
    collision_penalty=7.864081233717548, discount=0.8)
# alone at its own rates the attacker transmits on an idle decision, where
# the base record's rates would keep it silent
HETERO_ALONE = HeteroParams(
    base=ScenarioParams(5, 1, 0.55, 0.06, 0.3, 4.0, discount=0.9,
                        direct_punishment=12.0),
    p_false_alarm_attacker=0.1, p_missed_detection_attacker=0.35,
    rate_attacker=1.5)


def _block_counts(config, words):
    """Each slot's idle flag and busy counts, decoded from the cells that
    the simulator's block keys map to, and for a row with a redraw key
    from the cells of its sampler fallback; the cells must carry the idle
    flag that the keys come with."""
    idle, key, table = sim._block_keys(
        config, words, _cell_codes(config),
        np.empty((len(words), 3 * config.horizon)))
    cell = table.take(key)
    for r in np.flatnonzero(cell.min(axis=1) < 0):
        _, row, row_table = sim._sampled(config, words[r:r + 1])
        cell[r] = row_table.take(row[0])
    base = config.params.base
    m = base.n_attackers
    cell_idle, kh, ka = np.unravel_index(cell, (2, base.n_total - m + 1, m + 1))
    assert (cell_idle == idle).all()
    return idle, kh, ka


class _Replay:
    """Feed prerecorded channel/count draws through the scalar slot path."""

    def __init__(self, idle, kh, ka, p_idle):
        self.idle, self.kh, self.ka = list(idle), list(kh), list(ka)
        self.p_idle = p_idle
        self.slot = -1
        self.binomial_calls = 0

    def random(self):
        self.slot += 1
        self.binomial_calls = 0
        return self.p_idle * 0.5 if self.idle[self.slot] \
            else 0.5 + self.p_idle * 0.5

    def binomial(self, n, p):
        self.binomial_calls += 1
        return self.kh[self.slot] if self.binomial_calls == 1 \
            else self.ka[self.slot]


# a scenario whose indirect episodes trigger within a few hundred slots
_OBSERVABLE = dataclasses.replace(
    observable_scenario(np.random.default_rng(0)), discount=0.8)

# the heterogeneous attacker grabs in every state, and alone it transmits
# on every own decision
_GRAB = PolicyTables(b=np.ones((5, 2), dtype=np.int64),
                     transmit=np.ones((5, 2), dtype=np.int64),
                     post_transmit=np.ones(2, dtype=np.int64))

# (params, mode, policy) of each scalar-path case, the observable scenario
# under the optimal policy keyed by mode and C_b.  The other cases reach
# cells whose rewards depend on the float order: the honest unanimous-idle
# share at N=5/M=3 (3 * (1/5) is not 3/5), the honest shares at a channel
# rate of 2.5 and at a heterogeneous attacker's rate of 1.5, and _GRAB at
# that rate, where each busy slot converts C_p + C_b, or after the
# indirect trigger C_p alone, to the rate and back
SCALAR_CASES = {
    "none-0.0": (_OBSERVABLE, "none", "optimal"),
    "direct-40.0": (dataclasses.replace(_OBSERVABLE, direct_punishment=40.0),
                    "direct", "optimal"),
    "indirect-0.0": (_OBSERVABLE, "indirect", "optimal"),
    "honest_n5_m3": (ScenarioParams(5, 3, 0.6, 0.08, 0.15, 3.0, 6.0,
                                    discount=0.8), "direct", "honest"),
    "rate": (dataclasses.replace(
        _OBSERVABLE, total_rate=2.5,
        collision_penalty=2.5 * _OBSERVABLE.collision_penalty,
        direct_punishment=40.0), "direct", "honest"),
    "hetero": (HETERO, "direct", "honest"),
    "hetero_grab": (HETERO, "direct", _GRAB),
    "hetero_lone": (HETERO, "indirect", _GRAB),
}

# the cases whose indirect punishment starts within a trace, by seed
_TRIGGERED = {"indirect-0.0": (19,), "hetero_lone": (19, 9)}


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_and_vector_paths_agree(name):
    params, mode, policy = SCALAR_CASES[name]
    config = SimConfig(params=params, punishment_mode=mode,
                       attacker_policy=policy, horizon=400, replications=6,
                       base_seed=9)
    tables = build_policy_tables(config)
    idle, kh, ka = _binomial_draws(
        config, _stream_words(config.base_seed, range(config.replications)))
    # every field of run_trace, by repr so that -0.0 differs from 0.0; in
    # the observable scenario at seed 19 the indirect punishment starts in
    # slot 121 and a later slot is an exclusive hit by the grid, at seed 9
    # it never starts; _GRAB starts it at the first busy slot
    for seed in (19, 9):
        trace_config = dataclasses.replace(config, base_seed=seed)
        row = _binomial_draws(trace_config, _stream_words(seed, range(1)))
        replay = _Replay(*(column[0] for column in row), params.base.p_idle)
        runtime = SlotRuntime(config, tables)
        for t, trace in enumerate(run_trace(trace_config, config.horizon)):
            assert repr(trace) == repr(run_slot(replay, runtime)), (seed, t)
        assert runtime.punishment_on == (seed in _TRIGGERED.get(name, ()))
    # the last row never sees a busy slot, so it never triggers
    idle[-1] = True
    grid = _outcome_grid(config, tables)
    cell, triggers = settle_cells(_cells(idle, kh, ka, config), config,
                                  grid)
    att, hon, collision = (column[cell] for column in grid[:3])
    assert triggers[-1] == -1
    if mode == "indirect":
        assert (triggers[:-1] >= 0).any()
    for row in range(config.replications):
        replay = _Replay(idle[row], kh[row], ka[row], params.base.p_idle)
        runtime = SlotRuntime(config, tables)
        seen_trigger = -1
        for t in range(config.horizon):
            was_on = runtime.punishment_on
            trace = run_slot(replay, runtime)
            if runtime.punishment_on and not was_on:
                seen_trigger = t
            assert trace.attacker_reward == att[row, t], f"{row}, {t}"
            assert trace.honest_reward_per_su == hon[row, t], f"{row}, {t}"
            assert trace.collision == bool(collision[row, t]), f"{row}, {t}"
        assert seen_trigger == triggers[row], f"row {row}"


def _numpy_stream(seed, r):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(r,))))


def _reference_draws(config, r):
    """Replication r's draws straight from numpy: random, then the honest
    and the attacker binomial over the whole horizon."""
    params = config.params
    base = params.base
    p_busy_a = ((params.p_false_alarm_attacker,
                 1.0 - params.p_missed_detection_attacker)
                if isinstance(params, HeteroParams)
                else (base.p_false_alarm, 1.0 - base.p_missed_detection))
    rng = _numpy_stream(config.base_seed, r)
    idle = rng.random(config.horizon) < base.p_idle
    m = 1 if isinstance(params, HeteroParams) else base.n_attackers
    kh = rng.binomial(base.n_total - m, np.where(
        idle, base.p_false_alarm, 1.0 - base.p_missed_detection))
    ka = rng.binomial(m, np.where(idle, *p_busy_a))
    return idle, kh, ka


def _assert_reference_draws(config, reps):
    idle, kh, ka = _block_counts(config,
                                 _stream_words(config.base_seed, reps))
    for i, r in enumerate(reps):
        ref_idle, ref_kh, ref_ka = _reference_draws(config, r)
        assert (idle[i] == ref_idle).all(), f"replication {r}"
        assert (kh[i] == ref_kh).all(), f"replication {r}"
        assert (ka[i] == ref_ka).all(), f"replication {r}"


# mid-range values put large n past the inversion limit, into BTPE
_PROBABILITY = st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                         st.floats(0.3, 0.7),
                         st.sampled_from([0.5, 1e-12, 1.0 - 1e-12]))


@settings(max_examples=100, deadline=None)
@given(n_honest=st.integers(1, 80), n_attackers=st.integers(1, 6),
       p_idle=st.floats(0.01, 0.99), p_fa=_PROBABILITY, p_md=_PROBABILITY,
       p_fa_att=_PROBABILITY, p_md_att=_PROBABILITY, hetero=st.booleans(),
       horizon=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
# AT_WC's draws
@example(n_honest=4, n_attackers=2, p_idle=0.6, p_fa=0.08, p_md=0.08,
         p_fa_att=0.08, p_md_att=0.08, hetero=False, horizon=50, seed=9)
# the inversion limit n * min(p, 1-p) <= 30: at it, and just past it
@example(n_honest=60, n_attackers=2, p_idle=0.5, p_fa=0.1, p_md=0.5,
         p_fa_att=0.1, p_md_att=0.5, hetero=False, horizon=300, seed=1)
@example(n_honest=61, n_attackers=2, p_idle=0.5, p_fa=0.1, p_md=0.5,
         p_fa_att=0.1, p_md_att=0.5, hetero=False, horizon=300, seed=1)
def test_block_draws_follow_replication_streams(n_honest, n_attackers, p_idle,
                                                p_fa, p_md, p_fa_att, p_md_att,
                                                hetero, horizon, seed):
    m = 1 if hetero else n_attackers
    params = ScenarioParams(n_honest + m, m, p_idle, p_fa, p_md, 1.0)
    if hetero:
        params = HeteroParams(base=params, p_false_alarm_attacker=p_fa_att,
                              p_missed_detection_attacker=p_md_att)
        assume(not validate_hetero(params))
    else:
        assume(not validate(params))
    config = SimConfig(params=params, horizon=horizon, replications=3,
                       base_seed=seed)
    _assert_reference_draws(config, range(1, 4))


@pytest.mark.parametrize("n,p", [(1, 0.05), (4, 0.657), (8, 0.5), (60, 0.5),
                                 (30, 1e-9), (1000, 0.01), (7, 1.0 - 1e-12),
                                 (5, 0.999)])
def test_cut_points_classify_like_the_inversion_loop(n, p):
    cuts, counts = _inversion_table(n, p)
    flip = p > 0.5
    p_inv = 1.0 - p if flip else p
    bound = len(cuts) - 1
    for cut in cuts:
        for u in (cut, np.nextafter(cut, 1.0)):
            if u >= 1.0:  # never drawn
                continue
            x = _inversion_count(u, n, p_inv)
            expected = -1 if x > bound else (n - x if flip else x)
            assert counts[_cut_index(np.array([u]), cuts)[0]] == expected, u


@st.composite
def _inversion_args(draw):
    """(n, p) mostly within numpy's inversion limit, p on either side of
    0.5, and now and then any p, which puts large n past the limit."""
    n = draw(st.integers(1, 3000))
    if draw(st.booleans()):
        return n, draw(st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True))
    p = draw(st.floats(0.0, min(n, 30.0), exclude_min=True)) / n
    return n, 1.0 - p if draw(st.booleans()) else p


@settings(max_examples=30, deadline=None)
@given(args=_inversion_args())
# the flip: numpy inverts p itself at 0.5 and 1 - p just above it
@example(args=(8, 0.5))
@example(args=(8, float(np.nextafter(0.5, 1.0))))
# the inversion limit: the widest table, and the longest
@example(args=(60, 0.5))
@example(args=(2999, 0.01))
def test_inversion_tables_match_full_bisection(args):
    n, p = args
    table, reference = _inversion_table(n, p), bisected_inversion_table(n, p)
    if reference is None:
        assert table is None
        return
    assert table[0].tobytes() == reference[0].tobytes()
    assert table[1].tolist() == reference[1].tolist()


def test_redraw_rows_fall_back_to_numpy(monkeypatch):
    # numpy redraws only uniforms within a few ulps of 1; keeping each
    # table's first cut point alone makes every uniform above it a redraw
    inversion_table, binomial_draws = sim._inversion_table, sim._binomial_draws

    def first_cut_only(n, p):
        cuts, counts = inversion_table(n, p)
        return cuts[:1], np.append(counts[:1], -1)

    fallback_rows = []

    def counting_fallback(config, words):
        fallback_rows.extend(words.tolist())
        return binomial_draws(config, words)

    monkeypatch.setattr(sim, "_inversion_table", first_cut_only)
    monkeypatch.setattr(sim, "_binomial_draws", counting_fallback)
    config = SimConfig(params=AT_WC, horizon=3, replications=40, base_seed=4)
    _assert_reference_draws(config, range(40))
    assert 0 < len(fallback_rows) < 40
    # the redrawn rows are those with a count other than the one below
    # its table's first cut point
    (h_idle, h_busy), (a_idle, a_busy) = sim._busy_probabilities(config)
    m = AT_WC.n_attackers
    n_h = AT_WC.n_total - m
    below = [[inversion_table(n, p)[1][0] for p in pair]
             for n, pair in ((n_h, (h_busy, h_idle)), (m, (a_busy, a_idle)))]
    redrawn = []
    for r in range(40):
        idle, kh, ka = _reference_draws(config, r)
        if (kh != np.choose(idle, below[0])).any() \
                or (ka != np.choose(idle, below[1])).any():
            redrawn.append(r)
    words = _stream_words(config.base_seed, range(40))
    assert fallback_rows == words[redrawn].tolist()


@pytest.mark.parametrize("n,p_fa,p_md", [(60, 0.1, 0.5), (2999, 0.01, 0.01)])
def test_cut_indices_have_room_at_the_inversion_limit(n, p_fa, p_md):
    # up to n * min(p, 1-p) = 30 numpy inverts: n=60 at p=0.5 gives a
    # table of 62 counts, and n * p just below 30 at p near 0.01 the
    # longest, 87 counts (bound int(30 + 10 * sqrt(30 * 0.99 + 1)) = 85);
    # an index into a group's two tables must stay below 256 for its
    # uint8 arithmetic
    params = ScenarioParams(2 * n, n, 0.5, p_fa, p_md, 1.0)
    assert not validate(params)
    config = SimConfig(params=params, horizon=500, replications=3,
                       base_seed=11)
    cuts, codes = _cell_codes(config)
    honest, attacker = (len(busy_cuts) + len(idle_cuts) + 2
                        for busy_cuts, idle_cuts in (cuts[:2], cuts[2:]))
    assert max(len(c) + 1 for c in cuts) == (62 if n == 60 else 87)
    assert honest < 256 and attacker < 256
    assert codes.shape == (honest * attacker,)
    _assert_reference_draws(config, range(3))


_NEAR_KEY_LIMIT = 2**32 - 1  # the last index of one spawn-key word


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**140),
       start=st.one_of(st.integers(0, 2**20),
                       st.integers(_NEAR_KEY_LIMIT - 40, _NEAR_KEY_LIMIT)),
       count=st.integers(1, 40))
@example(seed=0, start=0, count=3)
@example(seed=2**32 - 1, start=_NEAR_KEY_LIMIT - 2, count=3)
@example(seed=2**32, start=7, count=2)
@example(seed=2**128 - 1, start=_NEAR_KEY_LIMIT - 1, count=2)
# past the fast path: a fifth seed word, and a second key word
@example(seed=2**128, start=0, count=2)
@example(seed=5, start=_NEAR_KEY_LIMIT - 1, count=3)
def test_stream_words_match_seed_sequence(seed, start, count):
    reps = range(start, start + count)
    words = _stream_words(seed, reps)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for r, row in zip(reps, words):
        sequence = np.random.SeedSequence(seed, spawn_key=(r,))
        assert (row == sequence.generate_state(4, np.uint64)).all(), r
        ours, fresh = _stream(row), _numpy_stream(seed, r)
        assert ours.bit_generator.state == fresh.bit_generator.state, r
        assert (ours.random(8) == fresh.random(8)).all(), r


@settings(max_examples=60, deadline=None)
@given(delta=st.one_of(st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True),
                       st.sampled_from([1e-300, 1e-9, 0.5, 1.0 - 1e-9])),
       horizon=st.one_of(st.integers(1, 10_000),
                         st.sampled_from([1, 4095, 4096, 4097, 100_003])))
@example(delta=0.8, horizon=100_003)
@example(delta=1.0 - 1e-9, horizon=100_003)
def test_discount_weights_are_numpys_powers(delta, horizon):
    weights = _discount_weights(delta, horizon)
    reference = delta ** np.arange(horizon)
    prefix = len(weights)
    assert weights.dtype == reference.dtype
    assert 1 <= prefix <= horizon and weights[-1] > 0.0
    # sign bits included
    assert weights.tobytes() == reference[:prefix].tobytes()
    assert reference[prefix:].tobytes() == bytes(8 * (horizon - prefix))


def test_discount_weights_stop_after_the_first_zero_chunk(monkeypatch):
    arange, starts = np.arange, []

    def recording_arange(start, stop):
        starts.append(start)
        return arange(start, stop)

    monkeypatch.setattr(np, "arange", recording_arange)
    weights = _discount_weights(0.9, 100_003)
    monkeypatch.undo()
    # 0.9 ** k underflows from k = 7,073 on, within the second chunk
    assert starts == [0, sim._WEIGHT_CHUNK]
    reference = 0.9 ** np.arange(100_003)
    assert weights.tobytes() == reference[:7073].tobytes()
    assert reference[7073:].tobytes() == bytes(8 * (100_003 - 7073))


_SCALE = 2**1074  # every finite double times this is an integer


def _scaled(x: float) -> int:
    numerator, denominator = float(x).as_integer_ratio()
    return numerator * (_SCALE // denominator)


# a float field may sit this many ulps of its scale (the exact sum of
# absolute terms) from the exact value: numpy's pairwise sums of at most
# 4,097 terms round at most 25 times per term, the products and the
# division once more each
REDUCTION_ULPS = 32

# N=80 draws its busy honest counts with BTPE (as test_golden_sim.LARGE)
BTPE = ScenarioParams(80, 3, 0.5, 0.05, 0.45, 2.0, discount=0.8,
                      direct_punishment=5.0)


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(sim.MODES), rows=st.integers(1, 50),
       horizon=st.sampled_from([1, 7, 192, 4097]),
       reach=st.floats(0.01, 1.5), kind=st.sampled_from(
           ["inversion", "btpe", "redraw"]),
       seed=st.integers(0, 2**32 - 1))
# per-row counts over 50 rows, a BTPE row and redrawn rows
@example(mode="indirect", rows=50, horizon=192, reach=0.3,
         kind="inversion", seed=1)
@example(mode="none", rows=2, horizon=4097, reach=0.4, kind="btpe",
         seed=2)
@example(mode="direct", rows=50, horizon=192, reach=0.2, kind="redraw",
         seed=3)
# the gathers: weights over most of the row, and more cells than slots
@example(mode="indirect", rows=50, horizon=4097, reach=1.5,
         kind="inversion", seed=4)
@example(mode="direct", rows=50, horizon=7, reach=0.3, kind="redraw",
         seed=5)
def test_block_reduction_is_exact_within_stated_ulps(mode, rows, horizon,
                                                     reach, kind, seed):
    # the weights underflow after about reach * horizon slots
    delta = max(2.0 ** (-1075.0 / (reach * horizon)), 5e-324)
    params = dataclasses.replace(BTPE if kind == "btpe" else NT_SC,
                                 discount=delta, direct_punishment=20.0)
    rng = np.random.default_rng(seed)
    m, n_h = params.n_attackers, params.n_honest
    tables = PolicyTables(b=rng.integers(0, m + 1, (n_h + 1, m + 1)),
                          transmit=rng.integers(0, m + 1, (n_h + 1, m + 1)),
                          post_transmit=rng.integers(0, m + 1, m + 1))
    config = SimConfig(params=params, punishment_mode=mode,
                       attacker_policy=tables, horizon=horizon,
                       replications=rows, base_seed=seed)
    grid = _outcome_grid(config, tables)
    inversion = _cell_codes(config)
    assert (inversion is None) == (kind == "btpe")
    if kind == "redraw":
        # the code of an idle slot that nobody senses busy redraws its row
        cuts, codes = inversion
        codes = codes.copy()
        codes[codes == _cells(True, 0, 0, config)] = -1
        inversion = cuts, codes
    weights = _discount_weights(delta, horizon)
    words = _stream_words(seed, range(rows))
    buffer = np.empty((rows, 3 * horizon))
    out = sim._run_block(words, config, grid, inversion, weights, buffer)
    idle, cell, triggers = settled_cells(config, words, grid)
    assert out[4:6] == block_reduction(cell, idle, grid, weights)[4:]
    assert out[6].tolist() == triggers.tolist()

    scaled_weights = [_scaled(w) for w in weights]
    for column, per_slot, discounted in ((grid[0], out[0], out[2]),
                                         (grid[1], out[1], out[3])):
        scaled = [_scaled(value) for value in column]
        for r, row in enumerate(cell.tolist()):
            terms = [scaled[c] for c in row]
            weighted = [a * w for a, w in zip(terms, scaled_weights)]
            for value, exact, scale in (
                    (per_slot[r], Fraction(sum(terms), horizon * _SCALE),
                     Fraction(sum(map(abs, terms)), horizon * _SCALE)),
                    (discounted[r], Fraction(sum(weighted), _SCALE**2),
                     Fraction(sum(map(abs, weighted)), _SCALE**2))):
                error = abs(Fraction(value) - exact)
                assert error <= REDUCTION_ULPS * Fraction(
                    math.ulp(float(scale))), (r, value, float(exact))


# long-row blocks that _run_block reduces through code counts: the code
# table of SPARSE has 120 codes (240 under indirect punishment, both
# uint8), WIDE's 1,344 (uint16)
SPARSE = ScenarioParams(7, 4, 0.5, 0.05, 0.1, 2.0, discount=0.5,
                        direct_punishment=20.0)
WIDE = ScenarioParams(40, 10, 0.5, 0.1, 0.3, 2.0, discount=0.5,
                      direct_punishment=20.0)


def _rare_state(config, idle, target):
    """The counts (kh >= 1, ka) whose probability in a slot with the
    channel idle (or busy) is nearest target, by ratio."""
    base = config.params.base
    (h_idle, h_busy), (a_idle, a_busy) = sim._busy_probabilities(config)
    p_h, p_a = (h_idle, a_idle) if idle else (h_busy, a_busy)

    def pmf(n, p, k):
        return math.comb(n, k) * p**k * (1.0 - p)**(n - k)

    def probability(state):
        kh, ka = state
        return ((base.p_idle if idle else 1.0 - base.p_idle)
                * pmf(base.n_honest, p_h, kh) * pmf(base.n_attackers, p_a, ka))

    states = [(kh, ka) for kh in range(1, base.n_honest + 1)
              for ka in range(base.n_attackers + 1)]
    return min(states, key=lambda state: abs(math.log(probability(state)
                                                      / target)))


@pytest.mark.parametrize("redraw", [False, True], ids=["", "redraw"])
@pytest.mark.parametrize("params,horizon,rows,seed", [
    (SPARSE, 20_000, 1, 0), (SPARSE, 4_000, 4, 0), (WIDE, 4_000, 4, 0)],
    ids=["row", "rows", "uint16"])
@pytest.mark.parametrize("mode", sim.MODES)
def test_code_counts_reduce_like_the_settled_cells(mode, params, horizon,
                                                   rows, seed, redraw):
    # random tables, except that under indirect punishment one state of
    # about one slot a row alone hits exclusively, so that some rows of a
    # block trigger and some do not; a redraw marks the code of a
    # similarly rare idle state
    rng = np.random.default_rng(seed)
    m, n_h = params.n_attackers, params.n_honest
    b = rng.integers(0, m + 1, (n_h + 1, m + 1))
    transmit = rng.integers(0, m + 1, (n_h + 1, m + 1))
    config = SimConfig(params=params, punishment_mode=mode, horizon=horizon,
                       replications=rows, base_seed=seed)
    if mode == "indirect":
        announced = (np.arange(n_h + 1)[:, None] >= 1) | (b >= 1)
        transmit[announced] = 0
        transmit[_rare_state(config, False, 1 / horizon)] = 1
    tables = PolicyTables(b=b, transmit=transmit,
                          post_transmit=rng.integers(0, m + 1, m + 1))
    config = dataclasses.replace(config, attacker_policy=tables)
    grid = _outcome_grid(config, tables)
    weights = _discount_weights(params.discount, horizon)
    assert max(len(grid[0]), 2 * len(weights)) <= horizon  # the counts
    cuts, codes = _cell_codes(config)
    if redraw:
        codes = codes.copy()
        codes[codes == _cells(True, *_rare_state(config, True, 1 / horizon),
                              config)] = -1
    inversion = cuts, codes
    words = _stream_words(seed, range(rows))
    buffer = np.empty((rows, 3 * horizon))
    out = sim._run_block(words, config, grid, inversion, weights, buffer)
    code = sim._block_codes(config, words, inversion, buffer)[1]
    assert code.dtype == (np.uint16 if params is WIDE else np.uint8)
    redrawn = int(np.count_nonzero((codes.take(code) < 0)
                                   .any(axis=1)))
    idle, cell, triggers = settled_cells(config, words, grid)
    reference = block_reduction(cell, idle, grid, weights)
    assert [column.tobytes() for column in out[:4]] \
        == [column.tobytes() for column in reference[:4]]
    assert out[4:6] == reference[4:]
    assert out[6].tolist() == triggers.tolist()
    if rows > 1:
        assert (0 < redrawn < rows) == redraw
        if mode == "indirect":
            assert 0 < np.count_nonzero(triggers >= 0) < rows


def test_runs_are_deterministic():
    config = SimConfig(params=AT_WC, punishment_mode="indirect", horizon=500,
                       replications=6, base_seed=123)
    assert run_experiment(config) == run_experiment(config)


def test_worker_count_does_not_change_stats():
    config = SimConfig(params=AT_WC, punishment_mode="indirect", horizon=800,
                       replications=10, base_seed=5)
    assert run_experiment(config, workers=1) == run_experiment(config,
                                                               workers=4)


# sim.BLOCK_SLOTS as the module sets it, before any test patches it
BLOCK_SLOTS = sim.BLOCK_SLOTS


@pytest.mark.parametrize("mode,params,horizon,replications,redraw", [
    ("none", NT_SC, 192, 200, False),
    ("direct", dataclasses.replace(NT_SC, direct_punishment=20.0), 192, 200,
     False),
    ("indirect", NT_SC, 7, 3000, False),
    ("direct", BTPE, 192, 100, False),
    ("indirect", NT_SC, 4, 5000, True),
    ("direct", dataclasses.replace(NT_SC, direct_punishment=20.0), 20_000, 3,
     False),
], ids=["none", "direct", "indirect", "btpe", "redraw", "long"])
def test_outputs_do_not_depend_on_the_block(monkeypatch, mode, params,
                                            horizon, replications, redraw):
    fallback_rows = []
    if redraw:
        # as in test_redraw_rows_fall_back_to_numpy: some rows are redrawn
        inversion_table, binomial_draws = (sim._inversion_table,
                                           sim._binomial_draws)

        def first_cut_only(n, p):
            cuts, counts = inversion_table(n, p)
            return cuts[:1], np.append(counts[:1], -1)

        def counting_fallback(config, words):
            fallback_rows.extend(words.tolist())
            return binomial_draws(config, words)

        monkeypatch.setattr(sim, "_inversion_table", first_cut_only)
        monkeypatch.setattr(sim, "_binomial_draws", counting_fallback)
    # random tables: rewards of many values, whose sums round by order
    rng = np.random.default_rng(9)
    m, n_h = params.n_attackers, params.n_honest
    tables = PolicyTables(b=rng.integers(0, m + 1, (n_h + 1, m + 1)),
                          transmit=rng.integers(0, m + 1, (n_h + 1, m + 1)),
                          post_transmit=rng.integers(0, m + 1, m + 1))
    config = SimConfig(params=params, punishment_mode=mode,
                       attacker_policy=tables, horizon=horizon,
                       replications=replications, base_seed=9)
    assert (_cell_codes(config) is None) == (params is BTPE)
    runs = []
    # one row a block, the former 8,192 slots, today's size, one block
    for size in (1, horizon, 8192, BLOCK_SLOTS, replications * horizon):
        monkeypatch.setattr(sim, "BLOCK_SLOTS", size)
        runs.append(run_experiment(config))
    assert all(stats == runs[0] for stats in runs[1:])
    redrawn = len(fallback_rows) // len(runs)
    assert len(fallback_rows) == redrawn * len(runs)
    assert (0 < redrawn < replications) == redraw
    if mode == "indirect":
        triggered = sum(runs[0].punishment_trigger_slots.values())
        assert 0 < triggered < replications


def test_threads_run_from_the_crossover_horizon_on(monkeypatch):
    pool_class, pools = sim.ThreadPoolExecutor, []

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool below the crossover horizon")

    class CountedPool(pool_class):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    short = SimConfig(params=AT_WC, punishment_mode="indirect",
                      horizon=sim.THREAD_HORIZON - 1, replications=3,
                      base_seed=5)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    assert run_experiment(short, workers=8) == run_experiment(short)
    crossover = dataclasses.replace(short, horizon=sim.THREAD_HORIZON)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", CountedPool)
    assert run_experiment(crossover, workers=2) == run_experiment(crossover)
    assert pools == [2]


@pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2", None])
def test_workers_must_be_an_integer_at_least_one(workers):
    message = f"workers must be an integer at least 1, not {workers!r}"
    for horizon in (192, sim.THREAD_HORIZON):
        config = SimConfig(params=AT_WC, horizon=horizon, replications=2)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(config, workers=workers)


def test_honest_policy_matches_expectation():
    rng = np.random.default_rng(51)
    params = observable_scenario(rng)
    config = SimConfig(params=params, punishment_mode="none",
                       attacker_policy="honest", horizon=30_000,
                       replications=16, base_seed=77)
    stats = run_experiment(config)
    att, hon = expected_slot_rewards(params, False, honest=True)
    for block, target in ((stats.per_slot_attacker, att),
                          (stats.per_slot_honest, hon)):
        se = block.ci_half_width / 1.96
        assert abs(block.mean - target) < 4.0 * max(se, 1e-12)


def test_big_stick_forces_honesty():
    # needs the collision penalty inside the deterrence window: below it the
    # profitable deviations under-report into an idle announcement, which the
    # direct punishment never touches
    th_scale = 1e9  # far above the direct threshold at these parameters
    armed = dataclasses.replace(AT_WC, collision_penalty=1e4,
                                direct_punishment=th_scale)
    forced = SimConfig(params=armed, punishment_mode="direct", horizon=2000,
                       replications=4, base_seed=3)
    honest = SimConfig(params=armed, punishment_mode="direct",
                       attacker_policy="honest", horizon=2000,
                       replications=4, base_seed=3)
    assert run_experiment(forced) == run_experiment(honest)


def test_trigger_accounting():
    config = SimConfig(params=AT_WC, punishment_mode="indirect",
                       horizon=2000, replications=12, base_seed=21)
    stats = run_experiment(config)
    assert (sum(stats.punishment_trigger_slots.values())
            + stats.punishment_never_count) == config.replications
    assert all(0 <= t < config.horizon
               for t in stats.punishment_trigger_slots)


def test_tail_bounds():
    config = SimConfig(params=AT_WC, punishment_mode="none", horizon=300,
                       replications=2, base_seed=0)
    stats = run_experiment(config)
    expect = (AT_WC.discount ** 300 / (1.0 - AT_WC.discount)
              * max(AT_WC.total_rate, 2 * AT_WC.collision_penalty))
    assert rel_err(stats.discounted_tail_bound_attacker, expect) < 1e-12


def test_pu_metrics_consistency():
    config = SimConfig(params=AT_WC, punishment_mode="none", horizon=3000,
                       replications=6, base_seed=13)
    stats = run_experiment(config)
    gamma = stats.empirical_gamma
    assert 0.0 <= gamma <= 1.0
    expect = (1.0 - gamma) + gamma * 6 * AT_WC.collision_penalty
    assert rel_err(stats.pu_utility, expect) < 1e-12


def test_trace_fields():
    config = SimConfig(params=AT_WC, punishment_mode="indirect", horizon=50,
                       replications=1, base_seed=2)
    traces = run_trace(config, 50)
    assert len(traces) == 50
    for t in traces:
        if t.punishment_on and t.announcement is None:
            assert t.honest_reward_per_su == 0.0


# case: False for a homogeneous scenario drawn through the cut tables,
# True for a heterogeneous one, "btpe" and "redraw" for draws that take
# numpy's samplers
@pytest.mark.parametrize("mode,cb,case", [
    ("none", 0.0, False), ("direct", 40.0, False), ("indirect", 0.0, False),
    ("direct", 40.0, True), ("indirect", 0.0, "btpe"),
    ("indirect", 0.0, "redraw")])
def test_trace_is_the_estimators_episode(monkeypatch, mode, cb, case):
    params = dataclasses.replace(
        observable_scenario(np.random.default_rng(0)), discount=0.8,
        direct_punishment=cb)
    if case is True:
        params = HeteroParams(
            base=dataclasses.replace(params, n_attackers=1),
            p_false_alarm_attacker=0.05, p_missed_detection_attacker=0.3)
    policy = "optimal"
    if case == "btpe":
        # random tables: the optimal ones never hit exclusively here
        params, rng = BTPE, np.random.default_rng(0)
        m, n_h = params.n_attackers, params.n_honest
        policy = PolicyTables(
            b=rng.integers(0, m + 1, (n_h + 1, m + 1)),
            transmit=rng.integers(0, m + 1, (n_h + 1, m + 1)),
            post_transmit=rng.integers(0, m + 1, m + 1))
    fallback_rows = []
    if case == "redraw":
        # as in test_redraw_rows_fall_back_to_numpy: replication 0 is
        # redrawn, and its draws are numpy's all the same
        inversion_table, binomial_draws = (sim._inversion_table,
                                           sim._binomial_draws)

        def first_cut_only(n, p):
            cuts, counts = inversion_table(n, p)
            return cuts[:1], np.append(counts[:1], -1)

        def counting_fallback(config, words):
            fallback_rows.extend(words.tolist())
            return binomial_draws(config, words)

        monkeypatch.setattr(sim, "_inversion_table", first_cut_only)
        monkeypatch.setattr(sim, "_binomial_draws", counting_fallback)
    # at seed 7 replication 0's indirect punishment starts in slot 4, in
    # slot 2 in the BTPE scenario
    config = SimConfig(params=params, punishment_mode=mode,
                       attacker_policy=policy, horizon=400, replications=1,
                       base_seed=7)
    assert (_cell_codes(config) is None) == (case == "btpe")
    stats = run_experiment(config)
    traces = run_trace(config, config.horizon)
    # one fallback row in the estimate and one in the trace
    assert len(fallback_rows) == (2 if case == "redraw" else 0)
    weights = params.base.discount ** np.arange(config.horizon)
    for block, discounted, rewards in (
            (stats.per_slot_attacker, stats.discounted_attacker,
             np.array([t.attacker_reward for t in traces])),
            (stats.per_slot_honest, stats.discounted_honest,
             np.array([t.honest_reward_per_su for t in traces]))):
        assert block.mean == rewards.mean()
        assert discounted.mean == (rewards * weights).sum()
    assert stats.collision_count == sum(t.collision for t in traces)
    assert stats.busy_slot_count == sum(t.channel_busy for t in traces)
    on = [t for t, trace in enumerate(traces) if trace.punishment_on]
    assert stats.punishment_trigger_slots == ({on[0]: 1} if on else {})
    first = 2 if case == "btpe" else 4
    assert on == ([] if mode != "indirect" else list(range(first, 400)))


@pytest.mark.parametrize("slots", [-1, 51])
def test_trace_length_is_bounded_by_the_horizon(slots):
    # a negative length used to give an empty trace
    config = SimConfig(params=AT_WC, horizon=50, replications=1)
    with pytest.raises(ValueError, match=r"\[0, horizon\] = \[0, 50\]"):
        run_trace(config, slots)
    assert len(run_trace(config, 50)) == 50
    assert run_trace(config, 0) == []


def test_custom_tables_respected():
    # silent attackers: report truthfully, never transmit
    m, n_h = AT_WC.n_attackers, AT_WC.n_honest
    b = np.tile(np.arange(m + 1), (n_h + 1, 1))
    tables = PolicyTables(b=b,
                          transmit=np.zeros((n_h + 1, m + 1), dtype=np.int64),
                          post_transmit=np.zeros(m + 1, dtype=np.int64))
    config = SimConfig(params=AT_WC, punishment_mode="none",
                       attacker_policy=tables, horizon=500, replications=2,
                       base_seed=1)
    stats = run_experiment(config)
    assert stats.per_slot_attacker.mean <= 0.0


@pytest.mark.parametrize("policy", ["optimal", "honest"])
@pytest.mark.parametrize("mode", sim.MODES)
@pytest.mark.parametrize("params", [AT_WC, NT_SC, HETERO_ALONE],
                         ids=["AT_WC", "NT_SC", "hetero"])
def test_one_post_table_per_scenario(params, mode, policy):
    hetero = isinstance(params, HeteroParams)
    if hetero and mode == "indirect" and policy == "optimal":
        pytest.skip("no heterogeneous MDP")
    config = SimConfig(params=params, punishment_mode=mode,
                       attacker_policy=policy)
    assert validate_config(config) == []
    table = post_transmit(params)
    assert build_policy_tables(config).post_transmit.tolist() == table.tolist()
    # lone sensing never pays at AT_WC, and does somewhere in the others
    assert table.any() == (params is not AT_WC)
    if not hetero:
        model = build_mdp(params)
        _, optimal_post = model.actions_at(optimal_ranks(model)[1])
        assert optimal_post.tolist() == table.tolist()
        policy_post = threshold_policy(model, 0)
        assert [policy_post[("post", ka)]
                for ka in range(params.n_attackers + 1)] == table.tolist()


def test_honest_tables_never_hit_exclusively():
    # an honest attacker transmits only into a unanimous idle announcement,
    # so it never ends collaboration and its post_transmit table is unseen
    rng = np.random.default_rng(8)
    scenarios = []
    for _ in range(6):
        scenarios.append(region_ii_scenario(rng))
        scenarios.append(HeteroParams(
            base=region_ii_scenario(rng, max_attackers=1),
            p_false_alarm_attacker=float(rng.uniform(0.01, 0.1)),
            p_missed_detection_attacker=float(rng.uniform(0.1, 0.45))))
    for params in scenarios:
        config = SimConfig(params=params, punishment_mode="indirect",
                           attacker_policy="honest")
        tables = build_policy_tables(config)
        _, _, _, exclusive_hit, *_ = _outcome_grid(config, tables)
        assert not exclusive_hit.any(), params


def test_validate_config_collects_problems():
    config = SimConfig(params=AT_WC, punishment_mode="sideways",
                       attacker_policy="greedy", horizon=0, replications=0)
    problems = validate_config(config)
    assert len(problems) == 4


@pytest.mark.parametrize("field, value", [
    # these two used to raise TypeError inside the validator
    ("horizon", "x"), ("base_seed", None),
    # and these two used to pass as valid counts
    ("replications", 2.5), ("horizon", True),
])
def test_validate_config_types_its_counts(field, value):
    config = dataclasses.replace(SimConfig(params=AT_WC, horizon=5,
                                           replications=2), **{field: value})
    message = f"{field} must be an integer, not {value!r}"
    assert validate_config(config) == [message]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(config)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_trace(config, 3)


def test_negative_seed_is_a_config_problem():
    # SeedSequence used to reject it deep inside the first block
    config = SimConfig(params=AT_WC, horizon=5, replications=2, base_seed=-1)
    assert validate_config(config) == ["base_seed must be >= 0"]
    with pytest.raises(ValueError, match="base_seed must be >= 0"):
        run_experiment(config)
    with pytest.raises(ValueError, match="base_seed must be >= 0"):
        run_trace(config, 3)


@pytest.mark.parametrize("tables", [
    # 2x2 tables at N=6, M=2 used to raise IndexError inside the kernel
    PolicyTables(b=np.zeros((2, 2), dtype=np.int64),
                 transmit=np.zeros((2, 2), dtype=np.int64),
                 post_transmit=np.zeros(2, dtype=np.int64)),
    # 7 transmitters from 2 attackers used to be priced without complaint
    PolicyTables(b=np.zeros((5, 3), dtype=np.int64),
                 transmit=np.full((5, 3), 7),
                 post_transmit=np.zeros(3, dtype=np.int64)),
    PolicyTables(b=np.zeros((5, 3)),
                 transmit=np.zeros((5, 3), dtype=np.int64),
                 post_transmit=np.zeros(3, dtype=np.int64)),
    PolicyTables(b=np.zeros((5, 3), dtype=np.int64),
                 transmit=np.zeros((5, 3), dtype=np.int64),
                 post_transmit=np.array([0, -1, 2])),
    # lists used to pass, then fail in the kernel with a TypeError
    PolicyTables(b=[[0] * 3] * 5, transmit=[[0] * 3] * 5,
                 post_transmit=[0] * 3),
    # anything else used to run as the optimal policy
    5,
    None,
], ids=["shape", "too_many_transmitters", "float_dtype", "negative",
        "lists", "number", "none"])
def test_bad_policy_tables_are_config_problems(tables):
    config = SimConfig(params=AT_WC, punishment_mode="indirect",
                       attacker_policy=tables, horizon=50, replications=2)
    problems = validate_config(config)
    assert len(problems) >= 1
    assert all("PolicyTables" in p for p in problems)
    with pytest.raises(ValueError, match="PolicyTables"):
        run_experiment(config)


def test_hetero_simulation_runs():
    base = ScenarioParams(5, 1, 0.55, 0.06, 0.3, 40.0, discount=0.9)
    h = HeteroParams(base=base, p_false_alarm_attacker=0.1,
                     p_missed_detection_attacker=0.35)
    config = SimConfig(params=h, punishment_mode="direct", horizon=2000,
                       replications=4, base_seed=11)
    stats = run_experiment(config)
    assert math.isfinite(stats.per_slot_attacker.mean)
    reference, _ = expected_slot_rewards(h, True)
    se = stats.per_slot_attacker.ci_half_width / 1.96
    assert abs(stats.per_slot_attacker.mean - reference) <= 5.0 * se

    indirect_optimal = SimConfig(params=h, punishment_mode="indirect",
                                 horizon=10, replications=1)
    with pytest.raises(ValueError):
        run_experiment(indirect_optimal)
