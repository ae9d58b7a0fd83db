"""The caches of the exact layers.

oneshot._ranked and oneshot._priced hold one scenario's states, order,
posteriors, split pmf and priced tensors, indirect._long_run_from its
long-run sums, and mdp._built its discount-free MDP arrays.  A cache must
never answer for another scenario, must not be writable through what it
hands out, and must spare the repeated work: one pricing per charge, one
long-run build and one MDP build per scenario over the oracle's whole
call chain, at any number of discounts.  The caches that hold no
scenario, oneshot's order rows by M and its shared records, hand out
nothing a caller can write into a cached table, and records equal to
fresh ones.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopsense import fusion, indirect, mdp, oneshot
from coopsense.direct import direct_threshold, direct_threshold_oracle
from coopsense.fusion import condition_i_bounds
from coopsense.mdp import (build_mdp, honest_policy, policy_value,
                           value_iteration)
from coopsense.model import HeteroParams, ScenarioParams, TransmissionCase
from coopsense.oneshot import ActionProfile, RewardBreakdown, SensingState

from conftest import SCENARIO_CACHES, region_ii_scenario


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


# every field that pricing, the long-run sums or the MDP build read, and
# the discount, which none reads; each maps a scenario to its value in
# the twin
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
    # every cached result of params: _ranked's tables, split pmf
    # included, best_profiles with and without the direct punishment,
    # the slot rewards that read the split pmf and, for a homogeneous
    # scenario, attack_scan's verdicts at a few charges, the long-run
    # values and oracle and the MDP model; with fresh, each from empty
    # caches
    calls = [lambda: oneshot._ranked(*oneshot._scenario_fields(params)),
             lambda: oneshot.best_profiles(params, False),
             lambda: oneshot.best_profiles(params, True),
             lambda: oneshot.expected_slot_rewards(params, True)]
    if isinstance(params, ScenarioParams):
        charges = (0.0, 0.5, 1.0, 2.0, 8.0)
        calls += [lambda: [oneshot.attack_scan(params)(
                      c * params.direct_punishment) for c in charges],
                  lambda: indirect.lr_honest(params),
                  lambda: indirect.lr_dishonest(params),
                  lambda: indirect.delta_threshold_oracle(params),
                  lambda: build_mdp(params)]
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
    kh, ranked, pi, pb, _, split = oneshot._ranked(
        *oneshot._scenario_fields(params))
    for array in (order, best, tensors.attacker, tensors.honest,
                  tensors.trigger, model.order, model.split, model.alone,
                  model.reward, model.trigger, model.post_reward,
                  kh, ranked, pi, pb, split, oneshot._order_rows(2)):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_writes_into_fresh_arrays_never_reach_a_cache(fresh_caches):
    # action_order, _action_order and _pick gather from cached tables into
    # fresh writable arrays
    params = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, direct_punishment=3.0)
    m = params.n_attackers
    order, best, tensors = oneshot.best_profiles(params, True)
    kept = [a.copy() for a in (oneshot._order_rows(m), order,
                               tensors.attacker)]
    kh, ka = oneshot._every_state(params)
    for fresh in (oneshot.action_order(params),
                  oneshot._action_order(m, kh, ka),
                  oneshot._action_order(m, np.array(0), np.array(0)),
                  oneshot._pick(order, best),
                  oneshot._pick(tensors.attacker, best)):
        fresh[...] = -7
    for table, want in zip((oneshot._order_rows(m), order, tensors.attacker),
                           kept):
        assert table.tobytes() == want.tobytes()
    np.testing.assert_array_equal(oneshot.action_order(params), order)


def _fresh_rows(params, flag):
    # behavior_table's rows from new records, read off best_profiles
    order, best, tensors = oneshot.best_profiles(params, flag)
    m = params.n_attackers
    rows = []
    for kh in range(params.n_honest + 1):
        for ka in range(m + 1):
            rank = int(best[kh, ka])
            b, mt = divmod(int(order[kh, ka, rank]), m + 1)
            rewards = RewardBreakdown(
                float(tensors.attacker[kh, ka, rank]),
                float(tensors.honest[kh, ka, rank]),
                fusion.fuse(kh + b, params.n_total, 1), rank != 0)
            rows.append((SensingState(kh, ka), ActionProfile(b, mt), rewards))
    return rows


def test_behavior_table_rows_equal_fresh_records():
    rng = np.random.default_rng(17)
    for n in range(2, 21):
        params = region_ii_scenario(rng, n_range=(n, n))
        params = dataclasses.replace(
            params, direct_punishment=params.collision_penalty
            * float(rng.uniform(0.0, 2.0)))
        for flag in (False, True):
            table = oneshot.behavior_table(params, flag)
            assert table == _fresh_rows(params, flag)
            # the records are shared, and frozen
            again = oneshot.behavior_table(params, flag)
            assert all(a[0] is b[0] and a[1] is b[1]
                       for a, b in zip(table, again))
    with pytest.raises(dataclasses.FrozenInstanceError):
        table[0][1].transmitters = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table[0][0].honest_busy = 0


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
    # one; one long-run build and one MDP build, shared by a second
    # discount
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
    assert mdp._built.cache_info().misses == 1


# the fields build_mdp reads; it reads neither the discount nor the direct
# punishment
_MDP_FIELDS = sorted(set(_TWEAKS) - {"discount", "direct_punishment"})


@pytest.mark.parametrize("field", sorted(_TWEAKS))
def test_an_mdp_field_tweak_rebuilds(fresh_caches, field):
    params = ScenarioParams(5, 2, 0.6, 0.05, 0.3, 4.0, direct_punishment=2.0,
                            discount=0.9, total_rate=1.5)
    twin = dataclasses.replace(params, **{field: _TWEAKS[field](params)})
    first, second = build_mdp(params), build_mdp(twin)
    rebuilt = field in _MDP_FIELDS
    assert mdp._built.cache_info().misses == 1 + rebuilt
    assert (second.order is first.order) != rebuilt
    assert (second.post_reward is first.post_reward) != rebuilt
