import dataclasses
import math

import numpy as np
import pytest

from coopsense.direct import (direct_threshold, direct_threshold_hetero,
                              direct_threshold_oracle)
from coopsense.model import HeteroParams, ScenarioParams
from coopsense.oneshot import SensingState, best_response

from conftest import region_ii_scenario, rel_err
from oracles import honest_equivalent_profile

FIG4 = ScenarioParams(11, 1, 0.6, 0.08, 0.08, 6e10, discount=0.9)


@pytest.mark.parametrize("m,expected", [
    (1, 6.34417008554194946289e+11),
    (2, 2.85487653849387756348e+11),
    (5, 7.61300410265034027100e+10),
    (10, 6.34417008554195022583e+09),
])
def test_pinned_thresholds(m, expected):
    th = direct_threshold(m, dataclasses.replace(FIG4, n_attackers=m))
    assert rel_err(th.value, expected) < 1e-13
    assert th.binding_constraint == "all_idle_deviation"


def test_log_value_survives_saturation():
    # N = 1100: every constraint saturates to inf, its log does not
    big = ScenarioParams(1100, 2, 0.6, 0.001, 0.3, 1e300,
                         direct_punishment=1.0, discount=0.9)
    th = direct_threshold(1, big)
    assert th.value == math.inf
    assert th.binding_constraint == "all_idle_deviation"
    want = (math.log(0.6 / 0.4) + 1100 * math.log(0.999 / 0.3)
            + math.log(1.0 - 1.0 / 1100))
    assert rel_err(th.log_value, want) < 1e-13
    for m in range(1, FIG4.n_total):
        finite = direct_threshold(m, dataclasses.replace(FIG4, n_attackers=m))
        assert rel_err(finite.log_value, math.log(finite.value)) < 1e-13


def test_m_range_enforced():
    # m = n must fail the range check, not a math domain error further in
    for threshold in (direct_threshold, direct_threshold_oracle):
        for m in (0, FIG4.n_total, FIG4.n_total + 1):
            with pytest.raises(ValueError, match=r"outside \[1, 10\]"):
                threshold(m, FIG4)


def test_sweep_decreasing_in_m():
    sweep = [(m, direct_threshold(m, FIG4)) for m in range(1, FIG4.n_total)]
    assert [m for m, _ in sweep] == list(range(1, 11))
    values = [t.value for _, t in sweep]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_threshold_scales_with_rate(fig_params):
    th1 = direct_threshold(2, fig_params)
    scaled = dataclasses.replace(fig_params, total_rate=3.0,
                                 collision_penalty=3e4)
    th3 = direct_threshold(2, scaled)
    assert rel_err(th3.value, 3.0 * th1.value) < 1e-13


def test_oracle_agreement_sampled():
    rng = np.random.default_rng(23)
    for _ in range(25):
        params = region_ii_scenario(rng)
        closed = direct_threshold(params.n_attackers, params).value
        oracle = direct_threshold_oracle(params.n_attackers, params)
        assert rel_err(closed, oracle) < 1e-9


def test_threshold_separates_attack_no_attack():
    rng = np.random.default_rng(29)
    for _ in range(10):
        params = region_ii_scenario(rng)
        th = direct_threshold(params.n_attackers, params).value
        above = dataclasses.replace(params, direct_punishment=th * 1.01)
        below = dataclasses.replace(params, direct_punishment=th * 0.99)

        def attacks(p):
            for kh in range(p.n_honest + 1):
                for ka in range(p.n_attackers + 1):
                    state = SensingState(kh, ka)
                    profile, _ = best_response(state, p, True)
                    if profile != honest_equivalent_profile(state, p):
                        return True
            return False

        assert not attacks(above)
        assert attacks(below)


def test_oracle_unreachable_outside_window(fig_params):
    from coopsense.fusion import condition_i_bounds
    w = condition_i_bounds(fig_params)
    blocked = dataclasses.replace(fig_params,
                                  collision_penalty=w.upper_bound * 10.0)
    with pytest.raises(ValueError):
        direct_threshold_oracle(blocked.n_attackers, blocked)


HET_BASE = ScenarioParams(11, 1, 0.6, 0.05, 0.05, 1e4, discount=0.9)


def test_hetero_pinned_components():
    h = HeteroParams(base=HET_BASE, p_false_alarm_attacker=0.05,
                     p_missed_detection_attacker=0.05)
    th = direct_threshold_hetero(h)
    per = th.per_constraint_values
    assert rel_err(per["all_idle_deviation"],
                   1.58850353043025906250e+14) < 1e-13
    assert rel_err(per["own_busy_transmission"],
                   4.84031536668500000000e+11) < 1e-13
    assert rel_err(per["honest_busy_transmission"],
                   4.84031536668500000000e+11) < 1e-13
    assert th.value == per["all_idle_deviation"]
    assert th.binding_constraint == "all_idle_deviation"


def test_hetero_collapses_to_homogeneous():
    # collision_penalty = 0 is valid: the busy-transmission constraints
    # keep their whole rate gain instead of failing on log(0)
    for cp in (HET_BASE.collision_penalty, 0.0):
        base = dataclasses.replace(HET_BASE, collision_penalty=cp)
        h = HeteroParams(base=base, p_false_alarm_attacker=0.05,
                         p_missed_detection_attacker=0.05)
        homogeneous = direct_threshold(1, base)
        assert rel_err(direct_threshold_hetero(h).value,
                       homogeneous.value) < 1e-12
    near_zero = dataclasses.replace(HET_BASE, collision_penalty=1e-300)
    assert homogeneous.per_constraint_values == \
        direct_threshold(1, near_zero).per_constraint_values


def test_hetero_linear_in_attacker_rate():
    h1 = HeteroParams(base=HET_BASE, p_false_alarm_attacker=0.04,
                      p_missed_detection_attacker=0.06, rate_attacker=1.0)
    h3 = dataclasses.replace(h1, rate_attacker=3.0)
    v1 = direct_threshold_hetero(h1)
    v3 = direct_threshold_hetero(h3)
    assert v1.binding_constraint == "all_idle_deviation"
    assert rel_err(v3.value, 3.0 * v1.value) < 1e-13


def test_hetero_decreasing_in_attacker_errors():
    prev = None
    for p_fa in (0.02, 0.04, 0.06, 0.08, 0.1):
        h = HeteroParams(base=HET_BASE, p_false_alarm_attacker=p_fa,
                         p_missed_detection_attacker=0.05)
        v = direct_threshold_hetero(h).value
        if prev is not None:
            assert v < prev
        prev = v
    prev = None
    for p_ma in (0.02, 0.04, 0.06, 0.08, 0.1):
        h = HeteroParams(base=HET_BASE, p_false_alarm_attacker=0.05,
                         p_missed_detection_attacker=p_ma)
        v = direct_threshold_hetero(h).value
        if prev is not None:
            assert v < prev
        prev = v
