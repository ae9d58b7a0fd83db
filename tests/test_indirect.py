import dataclasses

import numpy as np
import pytest

from coopsense.indirect import (delta_threshold, delta_threshold_oracle,
                                delta_threshold_sc, delta_threshold_wc,
                                delta_threshold_worst_case, lr_dishonest,
                                lr_honest)
from coopsense.model import (CooperationCase, ScenarioParams,
                             TransmissionCase, classify_transmission_case)

from conftest import region_ii_scenario, rel_err

AT_WC = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, discount=0.9)
NT_SC = ScenarioParams(4, 3, 0.6, 0.05, 0.45, 4.0, discount=0.9)


def test_lr_honest_pinned():
    assert rel_err(lr_honest(AT_WC), 1.19173848268799997818) < 1e-14


def test_lr_dishonest_pinned_scan():
    out = lr_dishonest(AT_WC)
    assert out.transmission_case is TransmissionCase.AT
    assert out.cooperation_case is CooperationCase.WC
    assert out.z_star == 1
    assert rel_err(out.lr_dishonest, 4.06800966099020833155) < 1e-13
    assert rel_err(out.lr_honest, lr_honest(AT_WC)) < 1e-15
    assert not out.attack_prevented


def test_nt_case_attacks_unanimous_idle_only():
    out = lr_dishonest(NT_SC)
    assert out.transmission_case is TransmissionCase.NT
    assert out.z_star is None


def test_lr_scales_with_rate():
    scaled = dataclasses.replace(AT_WC, total_rate=5.0, collision_penalty=5e4)
    assert rel_err(lr_honest(scaled), 5.0 * lr_honest(AT_WC)) < 1e-14
    assert rel_err(lr_dishonest(scaled).lr_dishonest,
                   5.0 * lr_dishonest(AT_WC).lr_dishonest) < 1e-13


@pytest.mark.parametrize("cp,expected", [
    (3.5, 9.91665591485133113281e-01),
    (4.0, 9.87711277920126251573e-01),
    (4.5, 9.83788375128831438232e-01),
])
def test_delta_sc_pinned(cp, expected):
    params = dataclasses.replace(NT_SC, collision_penalty=cp)
    th = delta_threshold_sc(params)
    assert th.deterrable
    assert rel_err(th.value, expected) < 1e-13


def test_delta_wc_pinned():
    params = dataclasses.replace(NT_SC, collision_penalty=4.0)
    th = delta_threshold_wc(params)
    assert rel_err(th.value, 9.77725019175927911874e-01) < 1e-13


def test_delta_dispatch_and_at_rejection():
    with pytest.raises(ValueError):
        delta_threshold(AT_WC)
    out = delta_threshold(dataclasses.replace(NT_SC, collision_penalty=4.0))
    assert out.cooperation_case is CooperationCase.SC
    assert rel_err(out.value, 9.87711277920126251573e-01) < 1e-13


@pytest.mark.parametrize("cp,expected", [
    (60.0, 9.99888914353922797495e-01),
    (100.0, 9.99912044424415613619e-01),
])
def test_delta_wc_moderate_pinned(cp, expected):
    params = ScenarioParams(6, 2, 0.6, 0.05, 0.3, cp, discount=0.9)
    th = delta_threshold_wc(params)
    assert rel_err(th.value, expected) < 1e-13


def test_delta_sc_eleven_user_pinned():
    params = ScenarioParams(11, 7, 0.6, 0.005, 0.2, 13000.0, discount=0.9)
    th = delta_threshold_sc(params)
    assert rel_err(th.value, 9.99999990192425580737e-01) < 1e-13


def test_thresholds_rate_invariant():
    scaled = dataclasses.replace(NT_SC, total_rate=11.0,
                                 collision_penalty=44.0)
    base = dataclasses.replace(NT_SC, collision_penalty=4.0)
    assert delta_threshold_sc(scaled).value == delta_threshold_sc(base).value
    assert delta_threshold_wc(scaled).value == delta_threshold_wc(base).value


def test_oracle_agreement_on_interior_thresholds():
    cases = [dataclasses.replace(NT_SC, collision_penalty=cp)
             for cp in (3.5, 4.0, 4.5)]
    cases += [ScenarioParams(6, m, 0.6, 0.05, 0.3, cp, discount=0.9)
              for m in (1, 2, 3) for cp in (60.0, 100.0)]
    checked = 0
    for params in cases:
        if classify_transmission_case(params) is not TransmissionCase.NT:
            continue
        closed = delta_threshold(params)
        if not closed.deterrable:
            continue
        oracle = delta_threshold_oracle(params)
        if oracle is None:
            continue
        assert abs(closed.value - oracle) < 1e-9
        checked += 1
    assert checked >= 5


# the closed form's x is positive but below 1.1e-16, so 1 / (1 + x)
# rounds to 1.0: no discount factor below 1 deters
TINY_X = ScenarioParams(7, 4, 0.08539688089644135, 0.9743643870193736,
                        0.005627496715619513, 369.93823518826684,
                        discount=0.9)


def test_threshold_that_rounds_to_one_is_not_deterrable():
    closed = delta_threshold(TINY_X)
    assert closed.value == closed.raw_value == 1.0
    assert not closed.deterrable
    assert delta_threshold_oracle(TINY_X) is None


def test_crossing_matches_threshold():
    # just below the threshold attacking wins, just above honesty wins
    params = dataclasses.replace(NT_SC, collision_penalty=4.0)
    th = delta_threshold(params).value
    for eps, attack_wins in ((-1e-6, True), (1e-6, False)):
        probe = dataclasses.replace(params, discount=th + eps)
        out = lr_dishonest(probe)
        assert (out.lr_dishonest > out.lr_honest) == attack_wins


def test_worst_case_scans_group_sizes():
    params = ScenarioParams(6, 2, 0.6, 0.05, 0.3, 60.0, discount=0.9)
    m_star, worst = delta_threshold_worst_case(params)
    assert 1 <= m_star <= 5
    for m in range(1, 6):
        probe = dataclasses.replace(params, n_attackers=m)
        if classify_transmission_case(probe) is not TransmissionCase.NT:
            continue
        assert delta_threshold(probe).value <= worst.value + 1e-15


def test_degenerate_groups_report_undeterrable():
    # all-attacker coalitions this large lose even pre-punishment value
    params = ScenarioParams(11, 9, 0.6, 0.005, 0.2, 13000.0, discount=0.9)
    th = delta_threshold_sc(params)
    assert not th.deterrable
    assert th.value == 1.0


def test_region_ii_thresholds_stay_in_unit_interval():
    rng = np.random.default_rng(37)
    for _ in range(40):
        params = region_ii_scenario(rng)
        if classify_transmission_case(params) is not TransmissionCase.NT:
            continue
        out = delta_threshold(params)
        assert 0.0 < out.value <= 1.0
        if out.deterrable:
            assert out.value == out.raw_value
