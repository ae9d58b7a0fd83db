import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from coopsense.model import HeteroParams, ScenarioParams
from coopsense.posterior import (count_masses, log_odds_idle,
                                 posterior_idle, posterior_idle_hetero,
                                 split_pmf)

from conftest import rel_err

def _count_pmf(group_size, params):
    # Pr[k of group_size sensors decide busy] for every k
    return [idle + busy for idle, busy in zip(*count_masses(group_size, params))]


scenario_st = st.builds(
    ScenarioParams,
    n_total=st.integers(2, 15),
    n_attackers=st.just(1),
    p_idle=st.floats(0.05, 0.95),
    p_false_alarm=st.floats(0.01, 0.4),
    p_missed_detection=st.floats(0.01, 0.4),
    collision_penalty=st.just(1.0),
)


def test_pinned_posteriors(fig_params):
    p = fig_params
    assert rel_err(posterior_idle(6, 0, p).p_idle_given_reports,
                   9.99999711781685785006e-01) < 1e-15
    assert rel_err(posterior_idle(6, 0, p).p_busy_given_reports,
                   2.88218314204550245779e-07) < 1e-13
    assert rel_err(posterior_idle(6, 6, p).p_idle_given_reports,
                   6.48490973326519224799e-07) < 1e-13
    assert rel_err(posterior_idle(6, 1, p).p_idle_given_reports,
                   9.99961884569801839895e-01) < 1e-15
    assert rel_err(_count_pmf(6, p)[0],
                   3.63813105663999991624e-01) < 1e-14


@given(params=scenario_st, k=st.integers(0, 15))
def test_complement_is_exact(params, k):
    k = min(k, params.n_total)
    post = posterior_idle(params.n_total, k, params)
    assert post.p_idle_given_reports + post.p_busy_given_reports == 1.0
    # the lopsided side may round to exactly 0 or 1 once the odds pass 2^53
    assert 0.0 <= post.p_idle_given_reports <= 1.0
    assert 0.0 <= post.p_busy_given_reports <= 1.0


@given(params=scenario_st, k=st.integers(1, 15))
def test_odds_follow_geometric_ratio(params, k):
    # each extra busy report multiplies the idle odds by the same factor
    k = min(k, params.n_total)
    q = ((params.p_false_alarm * params.p_missed_detection)
         / ((1.0 - params.p_false_alarm) * (1.0 - params.p_missed_detection)))
    step = (log_odds_idle(params.n_total, k, params)
            - log_odds_idle(params.n_total, k - 1, params))
    assert abs(step - math.log(q)) < 1e-9


def test_geometric_ratio_pinned(fig_params):
    q = math.exp(log_odds_idle(6, 1, fig_params)
                 - log_odds_idle(6, 0, fig_params))
    assert rel_err(q, 7.56143667296786409909e-03) < 1e-12


@given(params=scenario_st)
def test_posterior_strictly_decreasing_when_informative(params):
    if params.p_false_alarm + params.p_missed_detection >= 1.0:
        return
    # strict ordering is asserted on log-odds: the probability scale
    # saturates at 1.0 for large groups with sharp sensors
    odds = [log_odds_idle(params.n_total, k, params)
            for k in range(params.n_total + 1)]
    assert all(a > b for a, b in zip(odds, odds[1:]))
    seq = [posterior_idle(params.n_total, k, params).p_idle_given_reports
           for k in range(params.n_total + 1)]
    assert all(a >= b for a, b in zip(seq, seq[1:]))


@given(params=scenario_st, k=st.integers(0, 15))
def test_joint_masses_compose_pmf(params, k):
    k = min(k, params.n_total)
    idle, busy = (masses[k] for masses in count_masses(params.n_total, params))
    assert idle >= 0.0 and busy >= 0.0
    # the idle mass is also pmf * posterior, exactly by construction
    post = posterior_idle(params.n_total, k, params)
    total = idle + busy
    assert rel_err(total * post.p_idle_given_reports, idle) < 1e-12


@given(params=scenario_st)
# binomial coefficients past the float range: the pmf stays finite
@example(params=ScenarioParams(1100, 2, 0.6, 0.001, 0.3, 1e300))
def test_pmf_normalizes(params):
    total = sum(_count_pmf(params.n_total, params))
    assert abs(total - 1.0) < 1e-12


@settings(max_examples=40)
@given(params=st.builds(
    ScenarioParams,
    n_total=st.integers(3, 10),
    n_attackers=st.integers(1, 4),
    p_idle=st.floats(0.1, 0.9),
    p_false_alarm=st.floats(0.01, 0.3),
    p_missed_detection=st.floats(0.01, 0.3),
    collision_penalty=st.just(1.0)))
def test_split_pmf_margins(params):
    if params.n_attackers >= params.n_total:
        return
    n_h, m = params.n_honest, params.n_attackers
    table = split_pmf(params).tolist()
    assert len(table) == n_h + 1 and {len(row) for row in table} == {m + 1}
    grid = {(kh, ka): v for kh, row in enumerate(table)
            for ka, v in enumerate(row)}
    assert abs(sum(grid.values()) - 1.0) < 1e-12
    for k, pmf in enumerate(_count_pmf(params.n_total, params)):
        lumped = sum(v for (kh, ka), v in grid.items() if kh + ka == k)
        assert rel_err(lumped, pmf) < 1e-11


def test_impossible_pattern_raises():
    degenerate = ScenarioParams(3, 1, 0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        posterior_idle(3, 1, degenerate)


def test_large_group_falls_back_to_lgamma():
    p = ScenarioParams(80, 1, 0.5, 0.05, 0.05, 1.0)
    exact = ScenarioParams(40, 1, 0.5, 0.05, 0.05, 1.0)
    # the log-space pmf against the linear formula with an exact
    # binomial coefficient
    big = _count_pmf(80, p)[3]
    assert math.isfinite(big) and big > 0.0
    direct = (0.5 * math.comb(80, 3) * 0.05**3 * 0.95**77
              + 0.5 * math.comb(80, 3) * 0.95**3 * 0.05**77)
    assert rel_err(big, direct) < 1e-12
    assert _count_pmf(40, exact)[3] > 0.0


def test_hetero_posterior_pinned():
    base = ScenarioParams(11, 1, 0.6, 0.05, 0.05, 1e4)
    h = HeteroParams(base=base, p_false_alarm_attacker=0.05,
                     p_missed_detection_attacker=0.05)
    post = posterior_idle_hetero(0, 0, h)
    assert rel_err(post.p_idle_given_reports,
                   9.99999999999994226840e-01) < 1e-15


def test_hetero_posterior_matches_homogeneous_when_equal():
    base = ScenarioParams(7, 1, 0.55, 0.06, 0.12, 1e3)
    h = HeteroParams(base=base, p_false_alarm_attacker=0.06,
                     p_missed_detection_attacker=0.12)
    for kh in range(7):
        for d in (0, 1):
            merged = posterior_idle(7, kh + d, base)
            split = posterior_idle_hetero(kh, d, h)
            assert rel_err(split.p_idle_given_reports,
                           merged.p_idle_given_reports) < 1e-12


def test_hetero_rejects_bad_report():
    base = ScenarioParams(5, 1, 0.5, 0.05, 0.05, 1.0)
    h = HeteroParams(base=base, p_false_alarm_attacker=0.1,
                     p_missed_detection_attacker=0.1)
    with pytest.raises(ValueError):
        posterior_idle_hetero(0, 2, h)


def test_rate_does_not_touch_posteriors(fig_params):
    scaled = dataclasses.replace(fig_params, total_rate=9.0)
    for k in range(7):
        assert (posterior_idle(6, k, scaled).log_likelihood_ratio
                == posterior_idle(6, k, fig_params).log_likelihood_ratio)
