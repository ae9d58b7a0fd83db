import dataclasses
import math

import numpy as np
import pytest

from coopsense.fusion import Announcement, Region, condition_i_bounds, fuse
from coopsense.model import ScenarioParams

from conftest import region_ii_scenario, rel_err
from oracles import check_condition_i_semantics


def test_or_rule():
    for n in (2, 5, 11):
        assert fuse(0, n, 1) is Announcement.H0
        for k in range(1, n + 1):
            assert fuse(k, n, 1) is Announcement.H1


def test_general_threshold():
    assert fuse(2, 5, 3) is Announcement.H0
    assert fuse(3, 5, 3) is Announcement.H1


@pytest.mark.parametrize("count,n,t", [(-1, 5, 1), (6, 5, 1), (0, 5, 0),
                                       (0, 5, 6)])
def test_fuse_rejects_bad_input(count, n, t):
    with pytest.raises(ValueError):
        fuse(count, n, t)


def test_window_pinned_n6(fig_params):
    w = condition_i_bounds(fig_params)
    assert rel_err(w.lower_bound, 4.37251562500000000000e+03) < 1e-13
    assert rel_err(w.upper_bound, 5.78265191406250000000e+05) < 1e-13
    assert w.region is Region.II
    assert not w.on_boundary


def test_window_pinned_n11(fig_params):
    p = dataclasses.replace(fig_params, n_total=11, collision_penalty=6e10)
    w = condition_i_bounds(p)
    assert rel_err(w.lower_bound, 4.79710403443625688553e+08) < 1e-13
    assert rel_err(w.upper_bound, 6.34417008554195022583e+10) < 1e-13
    assert w.region is Region.II


def test_region_classification(fig_params):
    w = condition_i_bounds(fig_params)
    below = dataclasses.replace(fig_params,
                                collision_penalty=w.lower_bound * 0.5)
    above = dataclasses.replace(fig_params,
                                collision_penalty=w.upper_bound * 2.0)
    assert condition_i_bounds(below).region is Region.I
    assert condition_i_bounds(above).region is Region.III
    at_lower = dataclasses.replace(fig_params,
                                   collision_penalty=w.lower_bound)
    assert at_lower is not None
    edge = condition_i_bounds(at_lower)
    assert edge.on_boundary
    assert edge.region is Region.I


def test_bounds_scale_with_rate(fig_params):
    scaled = dataclasses.replace(fig_params, total_rate=3.0)
    w1 = condition_i_bounds(fig_params)
    w3 = condition_i_bounds(scaled)
    assert rel_err(w3.lower_bound, 3.0 * w1.lower_bound) < 1e-14
    assert rel_err(w3.upper_bound, 3.0 * w1.upper_bound) < 1e-14


def test_bounds_ratio_is_report_odds_step(fig_params):
    w = condition_i_bounds(fig_params)
    q = ((fig_params.p_false_alarm * fig_params.p_missed_detection)
         / ((1 - fig_params.p_false_alarm)
            * (1 - fig_params.p_missed_detection)))
    assert rel_err(w.lower_bound / w.upper_bound, q) < 1e-13


def test_semantics_agree_in_every_region():
    # the log-space region test and the linear sensor-level signs must say
    # the same thing on either side of both bounds
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = region_ii_scenario(rng)
        w = condition_i_bounds(params)
        assert w.region is Region.II
        for cp, region in ((w.lower_bound * 0.9, Region.I),
                           (params.collision_penalty, Region.II),
                           (w.upper_bound * 1.1, Region.III)):
            probe = dataclasses.replace(params, collision_penalty=cp)
            assert condition_i_bounds(probe).region is region
            assert check_condition_i_semantics(probe)


def test_zero_penalty_is_region_one(fig_params):
    free = dataclasses.replace(fig_params, collision_penalty=0.0)
    assert condition_i_bounds(free).region is Region.I


def test_huge_log_bounds_do_not_overflow():
    # log_upper ~ 762 here, past float64 exp range
    p = ScenarioParams(110, 1, 0.999, 0.001, 0.001, 1.0)
    w = condition_i_bounds(p)
    assert math.isfinite(w.log_upper_bound)
    assert math.isfinite(w.log_lower_bound)
    assert w.upper_bound == math.inf
    assert w.region is Region.I

    q = ScenarioParams(60, 1, 0.999, 0.001, 0.001, 1.0)
    v = condition_i_bounds(q)
    assert math.isfinite(v.upper_bound)
    assert rel_err(v.upper_bound, math.exp(v.log_upper_bound)) < 1e-12
