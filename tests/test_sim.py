import dataclasses
import math

import numpy as np
import pytest

from coopsense.model import HeteroParams, ScenarioParams
from coopsense.oneshot import expected_slot_rewards
from coopsense.sim import (PolicyTables, SimConfig, SlotRuntime,
                           _block_draws, _block_outcomes, _replication_rng,
                           build_policy_tables, run_experiment, run_slot,
                           run_trace, validate_config)

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
    att, hon, collision, triggers = _block_outcomes(idle, kh, ka, config,
                                                    tables)
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


def test_block_draws_follow_replication_streams():
    config = SimConfig(params=AT_WC, horizon=50, replications=4, base_seed=9)
    idle, kh, ka = _block_draws(config, range(1, 4))
    for i, r in enumerate(range(1, 4)):
        rng = _replication_rng(config.base_seed, r)
        assert (idle[i] == (rng.random(50) < AT_WC.p_idle)).all()
        p_busy = np.where(idle[i], AT_WC.p_false_alarm,
                          1.0 - AT_WC.p_missed_detection)
        assert (kh[i] == rng.binomial(AT_WC.n_honest, p_busy)).all()
        assert (ka[i] == rng.binomial(AT_WC.n_attackers, p_busy)).all()


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
