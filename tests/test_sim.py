import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coopsense import sim
from coopsense.model import (HeteroParams, ScenarioParams, validate,
                             validate_hetero)
from coopsense.oneshot import expected_slot_rewards
from coopsense.sim import (PolicyTables, SimConfig, SlotRuntime,
                           _block_draws, _block_outcomes, _cut_index,
                           _inversion_count, _inversion_table, _outcome_grid,
                           _replication_rng, build_policy_tables,
                           run_experiment, run_slot, run_trace,
                           validate_config)

from conftest import observable_scenario, rel_err

AT_WC = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 100.0, discount=0.9)


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


@pytest.mark.parametrize("mode,cb", [("none", 0.0), ("direct", 40.0),
                                     ("indirect", 0.0)])
def test_scalar_and_vector_paths_agree(mode, cb):
    # a scenario whose indirect episodes trigger within a few hundred slots
    params = dataclasses.replace(
        observable_scenario(np.random.default_rng(0)), discount=0.8,
        direct_punishment=cb)
    config = SimConfig(params=params, punishment_mode=mode, horizon=400,
                       replications=6, base_seed=9)
    tables = build_policy_tables(config)
    idle, kh, ka = _block_draws(config, range(config.replications))
    # the last row never sees a busy slot, so it never triggers
    idle[-1] = True
    att, hon, collision, triggers = _block_outcomes(
        idle, kh, ka, config, tables, _outcome_grid(config, tables))
    assert triggers[-1] == -1
    if mode == "indirect":
        assert (triggers[:-1] >= 0).any()
    for row in range(config.replications):
        replay = _Replay(idle[row], kh[row], ka[row], params.p_idle)
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


def _reference_draws(config, r):
    """Replication r's draws straight from numpy: random, then the honest
    and the attacker binomial over the whole horizon."""
    params = config.params
    base = params.base
    p_busy_a = ((params.p_false_alarm_attacker,
                 1.0 - params.p_missed_detection_attacker)
                if isinstance(params, HeteroParams)
                else (base.p_false_alarm, 1.0 - base.p_missed_detection))
    rng = _replication_rng(config.base_seed, r)
    idle = rng.random(config.horizon) < base.p_idle
    m = 1 if isinstance(params, HeteroParams) else base.n_attackers
    kh = rng.binomial(base.n_total - m, np.where(
        idle, base.p_false_alarm, 1.0 - base.p_missed_detection))
    ka = rng.binomial(m, np.where(idle, *p_busy_a))
    return idle, kh, ka


def _assert_reference_draws(config, reps):
    idle, kh, ka = _block_draws(config, reps)
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


def test_redraw_rows_fall_back_to_numpy(monkeypatch):
    # numpy redraws only uniforms within a few ulps of 1; keeping each
    # table's first cut point alone makes every uniform above it a redraw
    inversion_table, binomial_draws = sim._inversion_table, sim._binomial_draws

    def first_cut_only(n, p):
        cuts, counts = inversion_table(n, p)
        return cuts[:1], np.append(counts[:1], -1)

    fallback_rows = []

    def counting_fallback(config, reps):
        fallback_rows.extend(reps)
        return binomial_draws(config, reps)

    monkeypatch.setattr(sim, "_inversion_table", first_cut_only)
    monkeypatch.setattr(sim, "_binomial_draws", counting_fallback)
    config = SimConfig(params=AT_WC, horizon=3, replications=40, base_seed=4)
    _assert_reference_draws(config, range(40))
    assert 0 < len(fallback_rows) < 40


def test_runs_are_deterministic():
    config = SimConfig(params=AT_WC, punishment_mode="indirect", horizon=500,
                       replications=6, base_seed=123)
    assert run_experiment(config) == run_experiment(config)


def test_worker_count_does_not_change_stats():
    config = SimConfig(params=AT_WC, punishment_mode="indirect", horizon=800,
                       replications=10, base_seed=5)
    assert run_experiment(config, workers=1) == run_experiment(config,
                                                               workers=4)


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


def test_validate_config_collects_problems():
    config = SimConfig(params=AT_WC, punishment_mode="sideways",
                       attacker_policy="greedy", horizon=0, replications=0)
    problems = validate_config(config)
    assert len(problems) == 4


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
], ids=["shape", "too_many_transmitters", "float_dtype", "negative"])
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
