import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coopsense import posterior
from coopsense.direct import (direct_threshold, direct_threshold_hetero,
                              direct_threshold_oracle)
from coopsense.fusion import Announcement, Region, condition_i_bounds
from coopsense.model import (HeteroParams, ScenarioParams, validate,
                              validate_hetero)
from coopsense.oneshot import (ActionProfile, SensingState, _pick,
                               action_order, attack_scan, behavior_table,
                               best_profiles, best_response,
                               expected_slot_rewards, profile_at)
from coopsense.posterior import (posterior_idle, posterior_idle_hetero,
                                 split_pmf)

from conftest import fined_scenarios, region_ii_scenario, rel_err
from oracles import (evaluate_profile, full_action_order, full_best_profiles,
                     honest_equivalent_profile, tensor_attack_scan)


def _tensors(params, include_direct_punishment):
    # the slot rewards of every state's candidates, ranked
    return best_profiles(params, include_direct_punishment)[2]


def test_honest_equivalent_profiles(fig_params):
    assert honest_equivalent_profile(SensingState(0, 0), fig_params) \
        == ActionProfile(0, 2)
    assert honest_equivalent_profile(SensingState(0, 1), fig_params) \
        == ActionProfile(1, 0)
    assert honest_equivalent_profile(SensingState(3, 2), fig_params) \
        == ActionProfile(2, 0)


def test_state_and_profile_bounds(fig_params):
    with pytest.raises(ValueError):
        evaluate_profile(SensingState(5, 0), ActionProfile(0, 0), fig_params,
                         False)
    with pytest.raises(ValueError):
        evaluate_profile(SensingState(0, 3), ActionProfile(0, 0), fig_params,
                         False)
    with pytest.raises(ValueError):
        evaluate_profile(SensingState(0, 0), ActionProfile(3, 0), fig_params,
                         False)
    with pytest.raises(ValueError):
        evaluate_profile(SensingState(0, 0), ActionProfile(0, -1), fig_params,
                         False)


@pytest.mark.parametrize("state, field", [
    (SensingState(1.5, 0), "honest_busy"),
    (SensingState(1, None), "attacker_busy"),
    (SensingState(True, 0), "honest_busy"),
    (SensingState(0, False), "attacker_busy"),
    (SensingState(-1, 0), "honest_busy"),
    (SensingState(0, 3), "attacker_busy"),
])
def test_best_response_rejects_a_non_count_state(fig_params, state, field):
    with pytest.raises(ValueError, match=f"^{field} .* is not an integer"):
        best_response(state, fig_params, False)


def test_best_response_takes_numpy_counts(fig_params):
    # as policy_value takes numpy counts in a policy
    assert best_response(SensingState(np.int64(1), np.int64(2)), fig_params,
                         True) == best_response(SensingState(1, 2),
                                                fig_params, True)


def test_shared_slot_breakdown(fig_params):
    # everyone idle, attackers report truthfully and transmit with the rest
    state = SensingState(0, 0)
    out = evaluate_profile(state, ActionProfile(0, 2), fig_params, False)
    post = posterior_idle(6, 0, fig_params)
    share = post.p_idle_given_reports / 6.0
    cp = fig_params.collision_penalty
    expect_att = 2 * share - 2 * post.p_busy_given_reports * cp
    expect_hon = share - post.p_busy_given_reports * cp
    assert rel_err(out.attacker_aggregate, expect_att) < 1e-15
    assert rel_err(out.honest_per_su, expect_hon) < 1e-15
    assert out.announcement is Announcement.H0
    assert not out.is_attack


def test_under_reporting_still_pays_collision(fig_params):
    # attackers saw busy but report idle and sit out; penalty still lands
    state = SensingState(0, 2)
    out = evaluate_profile(state, ActionProfile(0, 0), fig_params, False)
    post = posterior_idle(6, 2, fig_params)
    share = post.p_idle_given_reports / 4.0
    cp = fig_params.collision_penalty
    assert rel_err(out.attacker_aggregate,
                   -2 * post.p_busy_given_reports * cp) < 1e-15
    assert rel_err(out.honest_per_su,
                   share - post.p_busy_given_reports * cp) < 1e-15
    assert out.is_attack


def test_busy_announcement_blocks_everyone(fig_params):
    out = evaluate_profile(SensingState(2, 1), ActionProfile(1, 0),
                           fig_params, False)
    assert out.attacker_aggregate == 0.0
    assert out.honest_per_su == 0.0
    assert out.announcement is Announcement.H1


def test_exclusive_grab_value_ignores_report_detail(fig_params):
    # with a busy announcement the aggregate depends only on true counts
    state = SensingState(1, 2)
    vals = set()
    for b in range(3):
        for mt in range(1, 3):
            out = evaluate_profile(state, ActionProfile(b, mt), fig_params,
                                   False)
            vals.add(out.attacker_aggregate)
    assert len(vals) == 1
    post = posterior_idle(6, 3, fig_params)
    expect = (post.p_idle_given_reports
              - 2 * post.p_busy_given_reports * fig_params.collision_penalty)
    assert rel_err(vals.pop(), expect) < 1e-15


def test_direct_punishment_only_after_busy_announcement(fig_params):
    armed = dataclasses.replace(fig_params, direct_punishment=5e3)
    shared = SensingState(0, 2)
    with_cb = evaluate_profile(shared, ActionProfile(0, 0), armed, True)
    without = evaluate_profile(shared, ActionProfile(0, 0), armed, False)
    assert with_cb.attacker_aggregate == without.attacker_aggregate

    grab = SensingState(0, 1)
    with_cb = evaluate_profile(grab, ActionProfile(1, 2), armed, True)
    without = evaluate_profile(grab, ActionProfile(1, 2), armed, False)
    post = posterior_idle(6, 1, armed)
    gap = 2 * post.p_busy_given_reports * armed.direct_punishment
    assert rel_err(without.attacker_aggregate - with_cb.attacker_aggregate,
                   gap) < 1e-12


def test_rewards_scale_with_rate(fig_params):
    scaled = dataclasses.replace(fig_params, total_rate=7.0,
                                 collision_penalty=7.0e4)
    for state in (SensingState(0, 0), SensingState(0, 2), SensingState(3, 1)):
        for profile in (honest_equivalent_profile(state, fig_params),
                        ActionProfile(2, 2)):
            a = evaluate_profile(state, profile, fig_params, False)
            b = evaluate_profile(state, profile, scaled, False)
            assert rel_err(b.attacker_aggregate,
                           7.0 * a.attacker_aggregate) < 1e-13
            assert rel_err(b.honest_per_su, 7.0 * a.honest_per_su) < 1e-13


def test_best_response_canonical_forms():
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = region_ii_scenario(rng)
        m = params.n_attackers
        for kh in range(params.n_honest + 1):
            for ka in range(m + 1):
                state = SensingState(kh, ka)
                profile, breakdown = best_response(state, params, False)
                honest = honest_equivalent_profile(state, params)
                if profile == honest:
                    continue
                # every profitable deviation takes the whole slot; the busy
                # report is forced only when no honest sensor saw the band
                want_b = max(ka, 1) if kh == 0 else ka
                assert profile == ActionProfile(want_b, m)
                assert breakdown.is_attack


def test_best_response_prefers_honest_on_tie(fig_params):
    # all actions tie at zero when the penalty window makes every grab a
    # wash; easiest tie: busy announcement forced by honest sensing and a
    # transmit value of exactly zero is not constructible, so check the
    # documented rule on the blocked states where honest and lying at
    # mt=0 tie exactly.
    state = SensingState(2, 1)
    profile, _ = best_response(state, fig_params, False)
    assert profile == honest_equivalent_profile(state, fig_params)


def test_behavior_table_shape_and_columns(fig_params):
    rows = behavior_table(fig_params)
    assert len(rows) == (fig_params.n_honest + 1) * (fig_params.n_attackers + 1)
    states = [r[0] for r in rows]
    assert states == sorted(states,
                            key=lambda s: (s.honest_busy, s.attacker_busy))


def test_expected_rewards_weighting(fig_params):
    att, hon = expected_slot_rewards(fig_params, False, honest=True)
    weights = split_pmf(fig_params).tolist()
    check_att = 0.0
    check_hon = 0.0
    for kh in range(5):
        for ka in range(3):
            w = weights[kh][ka]
            state = SensingState(kh, ka)
            out = evaluate_profile(state,
                                   honest_equivalent_profile(state, fig_params),
                                   fig_params, False)
            check_att += w * out.attacker_aggregate
            check_hon += w * out.honest_per_su
    assert rel_err(att, check_att) < 1e-14
    assert rel_err(hon, check_hon) < 1e-14


def test_best_response_dominates_honest_in_expectation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        params = region_ii_scenario(rng)
        best_att, _ = expected_slot_rewards(params, False)
        honest_att, _ = expected_slot_rewards(params, False, honest=True)
        assert best_att >= honest_att - 1e-12 * abs(honest_att)


def _entries(params):
    # (kh, ka, b, M_T) of every state and profile, with the rank in
    # action_order of the profile's candidate: b of 0 or max(ka, 1)
    m = params.n_attackers
    order = action_order(params)
    for kh, ka, b, mt in itertools.product(range(params.n_honest + 1),
                                           range(m + 1), range(m + 1),
                                           range(m + 1)):
        flat = (0 if b == 0 else max(ka, 1)) * (m + 1) + mt
        yield kh, ka, b, mt, list(order[kh, ka]).index(flat)


def _candidates(ka, m):
    return {ActionProfile(b, mt) for b in (0, max(ka, 1))
            for mt in range(m + 1)}


def test_reward_tensors_equal_scalar_reference():
    for params in fined_scenarios(31, 40):
        for flag in (False, True):
            tensors = _tensors(params, flag)
            for kh, ka, b, mt, rank in _entries(params):
                ref = evaluate_profile(SensingState(kh, ka),
                                       ActionProfile(b, mt), params, flag)
                at = (kh, ka, rank)
                assert tensors.attacker[at] == ref.attacker_aggregate, at
                assert tensors.honest[at] == ref.honest_per_su, at
                grab = ref.announcement is Announcement.H1 and mt >= 1
                pb = posterior_idle(params.n_total, kh + ka,
                                    params).p_busy_given_reports
                assert tensors.trigger[at] == (pb if grab else 0.0), at


def _exhaustive_best(state, params, flag):
    # every profile evaluated; honest on a tie, else the least distorted
    # report, then the most transmitters, then the fewest busy reports
    m = params.n_attackers
    values = {ActionProfile(b, mt): evaluate_profile(
        state, ActionProfile(b, mt), params, flag).attacker_aggregate
        for b in range(m + 1) for mt in range(m + 1)}
    best = max(values.values())
    honest = honest_equivalent_profile(state, params)
    if values[honest] == best:
        return honest
    return min((p for p, v in values.items() if v == best),
               key=lambda p: (abs(p.busy_reports - state.attacker_busy),
                              -p.transmitters, p.busy_reports))


def test_best_response_matches_exhaustive_scan():
    for params in fined_scenarios(37, 25):
        order = action_order(params)
        m = params.n_attackers
        for kh in range(params.n_honest + 1):
            for ka in range(m + 1):
                state = SensingState(kh, ka)
                assert {profile_at(f, m) for f in order[kh, ka]} \
                    == _candidates(ka, m)
                assert profile_at(order[kh, ka, 0], m) \
                    == honest_equivalent_profile(state, params)
                for flag in (False, True):
                    profile, _ = best_response(state, params, flag)
                    assert profile == _exhaustive_best(state, params, flag)


@pytest.mark.parametrize("m, n_honest", [
    *itertools.product(range(1, 7), range(1, 6)),
    # the size test_size runs
    (60, 1), (60, 2)])
def test_action_order_is_the_documented_tie_break(n_honest, m):
    params = ScenarioParams(n_honest + m, m, 0.5, 0.1, 0.1, 1.0)
    order = action_order(params)
    assert order.shape == (n_honest + 1, m + 1, 2 * (m + 1))
    for kh in range(n_honest + 1):
        for ka in range(m + 1):
            honest = honest_equivalent_profile(SensingState(kh, ka), params)
            want = sorted(_candidates(ka, m), key=lambda p: (
                p != honest, abs(p.busy_reports - ka), -p.transmitters,
                p.busy_reports))
            assert [profile_at(f, m) for f in order[kh, ka]] == want


def test_posteriors_are_formed_once_per_busy_total(monkeypatch, fresh_caches):
    # a homogeneous posterior depends on the busy total alone: all
    # (n_h+1)(M+1) states take the N + 1 totals once each, one state one
    params = ScenarioParams(120, 60, 0.5, 0.05, 0.3, 1.0)
    calls = []

    def counted(n, k, p):
        calls.append(k)
        return posterior_idle(n, k, p)

    monkeypatch.setattr(posterior, "posterior_idle", counted)
    best_profiles(params, True)
    assert sorted(calls) == list(range(121))
    calls.clear()
    best_response(SensingState(30, 20), params, True)
    assert calls == [50]


@st.composite
def region_ii_scenarios(draw):
    n = draw(st.integers(2, 9))
    draft = ScenarioParams(
        n_total=n,
        n_attackers=draw(st.integers(1, n - 1)),
        p_idle=draw(st.floats(0.05, 0.95)),
        p_false_alarm=draw(st.floats(0.001, 0.3)),
        p_missed_detection=draw(st.floats(0.001, 0.5)),
        collision_penalty=1.0,
        total_rate=draw(st.sampled_from([1.0, 0.37, 2.5])))
    window = condition_i_bounds(draft)
    u = draw(st.floats(0.001, 0.999))
    params = dataclasses.replace(draft, collision_penalty=math.exp(
        window.log_lower_bound
        + u * (window.log_upper_bound - window.log_lower_bound)))
    assume(not validate(params))
    assume(condition_i_bounds(params).region is Region.II)
    return params


def _tie_charges(params, ulps=4):
    # the charges at which a state's grab value meets its honest value,
    # each with a few float neighbours, so that some land on exact ties
    m = params.n_attackers
    order = action_order(params)
    attacker = _tensors(params, False).attacker
    charges = []
    for kh in range(params.n_honest + 1):
        for ka in range(m + 1):
            post = posterior_idle(params.n_total, kh + ka, params)
            # (max(ka, 1), M), a grab in any state
            grab = attacker[kh, ka, list(order[kh, ka]).index(
                max(ka, 1) * (m + 1) + m)]
            root = ((grab - attacker[kh, ka, 0])
                    / (params.n_attackers * post.p_busy_given_reports))
            if not (math.isfinite(root) and root > 0.0):
                continue
            charge = root
            for _ in range(ulps):
                charge = math.nextafter(charge, 0.0)
            for _ in range(2 * ulps + 1):
                charges.append(charge)
                charge = math.nextafter(charge, math.inf)
    return charges


def _attacked_by_best_profiles(params, charge):
    _, best, _ = best_profiles(
        dataclasses.replace(params, direct_punishment=charge), True)
    return bool((best != 0).any())


@settings(max_examples=60, deadline=None)
@given(params=region_ii_scenarios(),
       scale=st.floats(0.0, 4.0))
def test_attack_scan_matches_best_profiles(params, scale):
    attacked = attack_scan(params)
    oracle = direct_threshold_oracle(params.n_attackers, params)
    closed = direct_threshold(params.n_attackers, params).value
    charges = [0.0, oracle, math.nextafter(oracle, 0.0), closed,
               scale * closed] + _tie_charges(params)
    for charge in charges:
        assert attacked(charge) == _attacked_by_best_profiles(params, charge), \
            charge


# the validated space's corners: C_p from the smallest subnormal to 1e300
# and rates from 0.01 to 100, so grab rewards reach 0 and -inf; the NaN
# needs a busy posterior of 0, which only NAN_GRAB's P_m reaches
SCAN_CORNERS = st.builds(
    ScenarioParams,
    n_total=st.integers(2, 8),
    n_attackers=st.integers(1, 4),
    p_idle=st.floats(0.01, 0.99),
    p_false_alarm=st.floats(0.001, 0.999),
    p_missed_detection=st.floats(0.001, 0.999),
    collision_penalty=st.sampled_from([math.ulp(0.0), 1e-300, 1.0, 1e300])
    | st.floats(math.ulp(0.0), 1e300),
    total_rate=st.sampled_from([0.01, 1.0, 100.0]) | st.floats(0.01, 100.0))

# the busy posterior underflows to 0 after the all-idle vote alone, so
# an infinite charge prices that state's grab at 0*inf = NaN; elsewhere
# the busy posterior times C_p is so large that only this grab beats
# honesty, so the NaN alone decides the verdict at an infinite charge
NAN_GRAB = ScenarioParams(n_total=2, n_attackers=1, p_idle=0.5,
                          p_false_alarm=1e-30, p_missed_detection=1e-163,
                          collision_penalty=1e300, total_rate=0.01)


def _oracle_charges(params):
    try:
        oracle = direct_threshold_oracle(params.n_attackers, params)
    except ValueError:  # no finite charge deters every attack
        return []
    return [math.nextafter(oracle, 0.0), oracle,
            math.nextafter(oracle, math.inf)]


@settings(max_examples=80, deadline=None)
@given(params=SCAN_CORNERS)
@example(params=NAN_GRAB)
def test_attack_scan_matches_tensor_scan(params):
    assume(not validate(params))
    attacked, reference = attack_scan(params), tensor_attack_scan(params)
    # a zero busy posterior divides by zero in _tie_charges and prices a
    # grab at NaN in the reference
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        charges = ([0.0, direct_threshold(params.n_attackers, params).value,
                    1e308, math.inf] + _oracle_charges(params)
                   + _tie_charges(params))
        for charge in charges:
            assert attacked(charge) == reference(charge), charge


def test_attack_scan_counts_a_nan_grab_as_an_attack():
    # argmax picks the first NaN, so a NaN grab reward beats rank 0
    with np.errstate(invalid="ignore"):
        attacker = _tensors(
            dataclasses.replace(NAN_GRAB, direct_punishment=math.inf),
            True).attacker
        assert tensor_attack_scan(NAN_GRAB)(math.inf)
    ranks = {profile_at(f, 1): r for r, f in enumerate(action_order(NAN_GRAB)[0, 0])}
    assert np.isnan(attacker[0, 0, ranks[ActionProfile(1, 1)]])
    assert ranks[ActionProfile(0, 1)] == 0
    assert not np.isnan(attacker[0, 0, 0])
    assert attack_scan(NAN_GRAB)(math.inf)


def test_hetero_tensor_prices_the_single_attacker():
    rng = np.random.default_rng(41)
    for _ in range(10):
        h = HeteroParams(
            base=region_ii_scenario(rng, max_attackers=1),
            p_false_alarm_attacker=float(rng.uniform(0.01, 0.1)),
            p_missed_detection_attacker=float(rng.uniform(0.1, 0.45)),
            rate_attacker=float(rng.uniform(0.5, 2.0)))
        cb = direct_threshold_hetero(h).value * float(rng.uniform(0.3, 2.0))
        h = dataclasses.replace(
            h, base=dataclasses.replace(h.base, direct_punishment=cb))
        attacker = _tensors(h, True).attacker
        n_h, r_a = h.base.n_total - 1, h.rate_attacker
        cp = h.base.collision_penalty
        assert attacker.shape == (n_h + 1, 2, 4)
        for kh, d, b, mt, rank in _entries(h.base):
            post = posterior_idle_hetero(kh, d, h)
            pi, pb = post.p_idle_given_reports, post.p_busy_given_reports
            if kh >= 1 or b >= 1:
                want = r_a * pi - pb * (cp + cb) if mt else 0.0
            else:
                want = mt * r_a * pi / (n_h + mt) - pb * cp
            assert rel_err(attacker[kh, d, rank], want) < 1e-12


def test_best_response_is_its_behavior_table_row():
    for params in fined_scenarios(53, 12):
        for flag in (False, True):
            for state, profile, breakdown in behavior_table(params, flag):
                assert best_response(state, params, flag) \
                    == (profile, breakdown), state


@st.composite
def validated_scenarios(draw, n_attackers=None, total_rate=None):
    # homogeneous scenarios over the validated space's corners: C_p and
    # C_b from 0 to 1e300 and rates from 0.01 to 100
    n = draw(st.integers(2, 9))
    p_false_alarm = draw(st.floats(0.001, 0.998))
    params = ScenarioParams(
        n_total=n,
        n_attackers=n_attackers or draw(st.integers(1, n - 1)),
        p_idle=draw(st.floats(0.01, 0.99)),
        p_false_alarm=p_false_alarm,
        p_missed_detection=draw(st.floats(0.001, 0.999 - p_false_alarm)),
        collision_penalty=draw(st.sampled_from([0.0, math.ulp(0.0), 1e300])
                               | st.floats(0.0, 1e300)),
        discount=draw(st.floats(1e-9, 1.0 - 1e-9)),
        direct_punishment=draw(st.sampled_from([0.0, 1.0, 1e300])
                               | st.floats(0.0, 1e300)),
        total_rate=total_rate or draw(st.sampled_from([0.01, 1.0, 100.0])
                                      | st.floats(0.01, 100.0)))
    assume(not validate(params))
    return params


@st.composite
def hetero_scenarios(draw):
    h = HeteroParams(
        base=draw(validated_scenarios(n_attackers=1, total_rate=1.0)),
        p_false_alarm_attacker=draw(st.floats(0.001, 0.999)),
        p_missed_detection_attacker=draw(st.floats(0.001, 0.999)),
        rate_attacker=draw(st.sampled_from([0.01, 1.0, 100.0])
                           | st.floats(0.01, 100.0)))
    assume(not validate_hetero(h))
    return h


def _on_grid(ranked, order, m):
    # a [kh, ka, rank] table spread over [kh, ka, b, M_T], every profile
    # reading its candidate's entry
    ka, b, mt = np.ogrid[:m + 1, :m + 1, :m + 1]
    flat = np.where(b == 0, 0, np.maximum(ka, 1)) * (m + 1) + mt
    rank = (order[:, :, None, None, :] == flat[..., None]).argmax(axis=-1)
    return np.take_along_axis(ranked, rank.reshape(*order.shape[:2], -1),
                              axis=-1).reshape(rank.shape)


@settings(max_examples=150, deadline=None)
@given(params=region_ii_scenarios() | validated_scenarios()
       | hetero_scenarios())
def test_candidates_match_the_full_grid(params):
    base = params.base
    m = base.n_attackers
    order, full = action_order(base), full_action_order(base)
    b = full // (m + 1)
    kept = (b == 0) | (b == np.maximum(np.arange(m + 1)[:, None], 1))
    np.testing.assert_array_equal(order, full[kept].reshape(order.shape))
    for flag in (False, True):
        _, best, tensors = best_profiles(params, flag)
        _, full_best, full_tensors = full_best_profiles(params, flag)
        np.testing.assert_array_equal(_pick(order, best), full_best)
        for name in ("attacker", "honest", "trigger"):
            ranked = getattr(tensors, name)
            grid = getattr(full_tensors, name)
            # every profile prices bit for bit like its candidate
            assert _on_grid(ranked, order, m).tobytes() == grid.tobytes()
            at_best = np.take_along_axis(
                grid.reshape(*order.shape[:2], -1), full_best[..., None],
                axis=-1)[..., 0]
            assert _pick(ranked, best).tobytes() == at_best.tobytes()
