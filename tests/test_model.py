import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from coopsense.model import (CooperationCase, HeteroParams, ScenarioParams,
                             TransmissionCase, check_a4,
                             classify_cooperation_case,
                             classify_transmission_case, require_valid,
                             validate, validate_hetero)


def test_valid_params_pass(fig_params):
    assert validate(fig_params) == []
    require_valid(fig_params)


@pytest.mark.parametrize("field,value,fragment", [
    ("n_total", 1, "n_total"),
    ("n_attackers", 0, "n_attackers"),
    ("n_attackers", 6, "n_attackers <="),
    ("p_idle", 0.0, "p_idle"),
    ("p_idle", 1.0, "p_idle"),
    ("p_false_alarm", -0.1, "p_false_alarm"),
    ("p_missed_detection", 1.2, "p_missed_detection"),
    ("collision_penalty", -1.0, "collision_penalty"),
    ("collision_penalty", math.inf, "collision_penalty"),
    ("direct_punishment", -2.0, "direct_punishment"),
    ("discount", 1.0, "discount"),
    ("discount", 0.0, "discount"),
    ("total_rate", 0.0, "total_rate"),
])
def test_single_violations(fig_params, field, value, fragment):
    broken = dataclasses.replace(fig_params, **{field: value})
    problems = validate(broken)
    # n_total=1 also breaks the attacker headcount bound
    assert len(problems) == (2 if field == "n_total" else 1)
    assert any(fragment in p for p in problems)
    with pytest.raises(ValueError):
        require_valid(broken)


def test_bools_are_not_numbers(fig_params):
    # true used to pass as 1: "n_attackers": true ran with M = 1
    for field in dataclasses.fields(ScenarioParams):
        broken = dataclasses.replace(fig_params, **{field.name: True})
        assert any(p.startswith(field.name) for p in validate(broken)), \
            field.name
    h = HeteroParams(base=dataclasses.replace(fig_params, n_attackers=1),
                     p_false_alarm_attacker=0.05,
                     p_missed_detection_attacker=0.05, rate_attacker=True,
                     rates_honest=(1.0, 1.0, True, 1.0, 1.0))
    assert validate_hetero(h) == ["rate_attacker must be finite and > 0",
                                  "every honest rate must be finite and > 0"]


def test_uninformative_sensing_rejected(fig_params):
    broken = dataclasses.replace(fig_params, p_false_alarm=0.6,
                                 p_missed_detection=0.5)
    assert any("informative" in p for p in validate(broken))


def test_violations_accumulate(fig_params):
    broken = dataclasses.replace(fig_params, p_idle=2.0, discount=-1.0)
    assert len(validate(broken)) == 2


def test_hetero_defaults_and_validation(fig_params):
    base = dataclasses.replace(fig_params, n_attackers=1)
    h = HeteroParams(base=base, p_false_alarm_attacker=0.05,
                     p_missed_detection_attacker=0.05)
    assert h.rates_honest == (1.0,) * 5
    assert validate_hetero(h) == []

    multi = HeteroParams(base=fig_params, p_false_alarm_attacker=0.05,
                         p_missed_detection_attacker=0.05)
    assert any("single attacker" in p for p in validate_hetero(multi))

    scaled = HeteroParams(base=dataclasses.replace(base, total_rate=2.0),
                          p_false_alarm_attacker=0.05,
                          p_missed_detection_attacker=0.05)
    assert any("total_rate" in p for p in validate_hetero(scaled))

    short = HeteroParams(base=base, p_false_alarm_attacker=0.05,
                         p_missed_detection_attacker=0.05,
                         rates_honest=(1.0, 2.0))
    assert any("rates_honest" in p for p in validate_hetero(short))

    # infinite rates used to pass, and simulate wrote a NaN reference
    for field, value, problem in [
            ("rate_attacker", math.inf, "rate_attacker"),
            ("rate_attacker", math.nan, "rate_attacker"),
            ("rates_honest", (1.0, 1.0, math.inf, 1.0, 1.0),
             "every honest rate"),
            ("rates_honest", (math.nan,) * 5, "every honest rate")]:
        broken = dataclasses.replace(h, **{field: value})
        assert validate_hetero(broken) == [f"{problem} must be finite and > 0"]


def test_rate1_properties(fig_params):
    scaled = dataclasses.replace(fig_params, total_rate=4.0,
                                 direct_punishment=8.0)
    assert scaled.cp_rate1 == fig_params.collision_penalty / 4.0
    assert scaled.cb_rate1 == 2.0
    assert scaled.n_honest == 4


def test_a4_boundary(fig_params):
    # single-sensor idle odds at these error rates: 1.5 * (0.92 / 0.08)
    bound = 17.25
    assert check_a4(dataclasses.replace(fig_params,
                                        collision_penalty=bound * 1.001))
    assert not check_a4(dataclasses.replace(fig_params,
                                            collision_penalty=bound * 0.999))
    assert not check_a4(dataclasses.replace(fig_params,
                                            collision_penalty=bound))


def test_case_classifiers_pinned():
    at_wc = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, discount=0.9)
    assert classify_transmission_case(at_wc) is TransmissionCase.AT
    assert classify_cooperation_case(at_wc) is CooperationCase.WC

    nt_sc = ScenarioParams(4, 3, 0.6, 0.05, 0.45, 4.0, discount=0.9)
    assert classify_transmission_case(nt_sc) is TransmissionCase.NT
    assert classify_cooperation_case(nt_sc) is CooperationCase.SC


@given(rate=st.floats(min_value=0.01, max_value=100.0,
                      allow_nan=False, allow_infinity=False))
def test_classifiers_rate_invariant(rate):
    base = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, discount=0.9)
    scaled = dataclasses.replace(base, total_rate=rate,
                                 collision_penalty=1e4 * rate)
    assert classify_transmission_case(scaled) is classify_transmission_case(base)
    assert classify_cooperation_case(scaled) is classify_cooperation_case(base)
    assert check_a4(scaled) == check_a4(base)
