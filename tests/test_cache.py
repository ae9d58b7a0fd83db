"""The per-scenario caches of the exact layers.

oneshot._ranked and oneshot._priced hold one scenario's states, order,
posteriors and priced tensors, and indirect._long_run_from its long-run
sums.  A cache must never answer for another scenario, must not be
writable through what it hands out, and must spare the repeated work:
one pricing per charge and one long-run build per scenario over the
oracle's whole call chain, at any number of discounts.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopsense import indirect, oneshot
from coopsense.direct import direct_threshold, direct_threshold_oracle
from coopsense.fusion import condition_i_bounds
from coopsense.mdp import (build_mdp, honest_policy, policy_value,
                           value_iteration)
from coopsense.model import HeteroParams, ScenarioParams, TransmissionCase

from conftest import SCENARIO_CACHES


def _clear():
    for cache in SCENARIO_CACHES:
        cache.cache_clear()


@st.composite
def _scenarios(draw):
    # a region-II scenario with a direct punishment
    n = draw(st.integers(3, 7))
    draft = ScenarioParams(
        n_total=n,
        n_attackers=draw(st.integers(1, n - 2)),
        p_idle=draw(st.floats(0.2, 0.8)),
        p_false_alarm=draw(st.floats(0.01, 0.15)),
        p_missed_detection=draw(st.floats(0.05, 0.45)),
        collision_penalty=1.0,
        discount=draw(st.floats(0.3, 0.95)),
        total_rate=draw(st.sampled_from([1.0, 0.37, 2.5])))
    window = condition_i_bounds(draft)
    u = draw(st.floats(0.05, 0.95))
    cp = math.exp(window.log_lower_bound
                  + u * (window.log_upper_bound - window.log_lower_bound))
    draft = dataclasses.replace(draft, collision_penalty=cp)
    fine = direct_threshold(draft.n_attackers, draft).value
    return dataclasses.replace(
        draft, direct_punishment=fine * draw(st.floats(0.3, 2.0)))


# every field that pricing or the long-run sums read, and the discount,
# which neither reads; each maps a scenario to its value in the twin
_TWEAKS = {
    "n_total": lambda p: p.n_total + 1,
    "n_attackers": lambda p: p.n_attackers + 1,
    "p_idle": lambda p: p.p_idle * 0.9,
    "p_false_alarm": lambda p: p.p_false_alarm * 1.1,
    "p_missed_detection": lambda p: p.p_missed_detection * 0.9,
    "collision_penalty": lambda p: p.collision_penalty * 1.1,
    "direct_punishment": lambda p: p.direct_punishment * 0.5,
    "total_rate": lambda p: p.total_rate * 2.0,
    "discount": lambda p: 1.0 - (1.0 - p.discount) * 0.5,
}
_HETERO_TWEAKS = {
    "p_false_alarm_attacker": lambda h: h.p_false_alarm_attacker * 1.1,
    "p_missed_detection_attacker":
        lambda h: h.p_missed_detection_attacker * 0.9,
    "rate_attacker": lambda h: h.rate_attacker * 2.0,
}


def _bits(x):
    # x with every float and array replaced by its bytes
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if dataclasses.is_dataclass(x):
        return _bits([getattr(x, f.name) for f in dataclasses.fields(x)])
    return x


def _results(params, fresh=False):
    # every cached result of params: best_profiles with and without the
    # direct punishment and, for a homogeneous scenario, attack_scan's
    # verdicts at a few charges and the long-run values and oracle; with
    # fresh, each from empty caches
    calls = [lambda: oneshot.best_profiles(params, False),
             lambda: oneshot.best_profiles(params, True)]
    if isinstance(params, ScenarioParams):
        charges = (0.0, 0.5, 1.0, 2.0, 8.0)
        calls += [lambda: [oneshot.attack_scan(params)(
                      c * params.direct_punishment) for c in charges],
                  lambda: indirect.lr_honest(params),
                  lambda: indirect.lr_dishonest(params),
                  lambda: indirect.delta_threshold_oracle(params)]
    out = []
    for call in calls:
        if fresh:
            _clear()
        out.append(call())
    return _bits(out)


def _served_fresh(first, second):
    # second's results after first's, against second's from empty caches
    want = _results(second, fresh=True)
    _clear()
    _results(first)
    return _results(second) == want


@settings(max_examples=60, deadline=None)
@given(_scenarios(), st.sampled_from(sorted(_TWEAKS)))
def test_a_cache_never_serves_another_scenario(params, field):
    twin = dataclasses.replace(params, **{field: _TWEAKS[field](params)})
    assert _served_fresh(params, twin)
    assert _served_fresh(twin, params)


@settings(max_examples=30, deadline=None)
@given(_scenarios(), st.floats(0.05, 0.5), st.floats(0.05, 0.5),
       st.floats(0.5, 3.0), st.sampled_from(sorted(_HETERO_TWEAKS)))
def test_a_cache_never_serves_another_hetero_scenario(params, p_fa, p_ma,
                                                      rate, field):
    base = dataclasses.replace(params, n_attackers=1, total_rate=1.0)
    hetero = HeteroParams(base, p_fa, p_ma, rate)
    twin = dataclasses.replace(hetero,
                               **{field: _HETERO_TWEAKS[field](hetero)})
    for first, second in ((hetero, base), (base, hetero), (hetero, twin),
                          (twin, hetero)):
        assert _served_fresh(first, second)


def test_cached_arrays_are_read_only(fresh_caches):
    params = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, direct_punishment=3.0)
    order, best, tensors = oneshot.best_profiles(params, True)
    model = build_mdp(params)
    for array in (order, best, tensors.attacker, tensors.honest,
                  tensors.trigger, model.order, model.reward, model.trigger):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def _oracle_chain(params):
    # an oracle-verify instance: the direct threshold and its oracle, the
    # long-run values and the discount oracle, the one-shot table and
    # slot rewards, and the MDP with its optimal and honest values
    m = params.n_attackers
    direct_threshold(m, params)
    direct_threshold_oracle(m, params)
    indirect.lr_honest(params)
    indirect.lr_dishonest(params)
    if indirect.classify_transmission_case(params) is TransmissionCase.NT:
        indirect.delta_threshold(params)
        indirect.delta_threshold_oracle(params)
    oneshot.behavior_table(params)
    oneshot.expected_slot_rewards(params, True)
    model = build_mdp(params)
    value_iteration(model, 1e-11)
    policy_value(model, honest_policy(model))


@pytest.mark.parametrize("fine, pricings", [(0.0, 1), (3.0, 2)])
def test_one_pricing_per_scenario(monkeypatch, fresh_caches, fine, pricings):
    # one pricing per charge, and a charge left out prices like a zero
    # one; one long-run build, shared by a second discount
    params = ScenarioParams(4, 3, 0.6, 0.05, 0.45, 4.0, direct_punishment=fine,
                            discount=0.9)
    priced = []
    price = oneshot._price

    def counted(group, *args):
        priced.append(group.direct_punishment)
        return price(group, *args)

    monkeypatch.setattr(oneshot, "_price", counted)
    _oracle_chain(params)
    later = dataclasses.replace(params, discount=0.999)
    build_mdp(later)
    indirect.lr_dishonest(later)
    assert sorted(priced) == sorted({0.0, fine})
    assert len(priced) == pricings
    assert indirect._long_run_from.cache_info().misses == 1
