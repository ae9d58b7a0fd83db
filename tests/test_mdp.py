import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coopsense import mdp, oneshot
from coopsense.indirect import lr_dishonest, lr_honest
from coopsense.mdp import (Policy, _renewal, _threshold_violation, build_mdp,
                           honest_policy, optimal_ranks, policy_value,
                           start_value, threshold_policy, value_iteration,
                           verify_threshold_structure)
from coopsense.model import ScenarioParams, validate
from coopsense.oneshot import ActionProfile, post_transmit

from conftest import region_ii_scenario, rel_err
from oracles import (bellman_backup, dense_arrays, exact_policy_values,
                     full_order_mdp)

AT_WC = ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, discount=0.9)


def test_state_space_layout():
    model = build_mdp(AT_WC)
    n_pre = (AT_WC.n_honest + 1) * (AT_WC.n_attackers + 1)
    assert len(model.states) == n_pre + AT_WC.n_attackers + 1
    assert model.n_pre == n_pre
    assert model.states[0] == ("pre", 0, 0)
    assert model.states[n_pre] == ("post", 0)
    # honest-equivalent action is always first in a pre state's order
    for si, s in enumerate(model.states[:n_pre]):
        first = model.actions_per_state[si][0]
        assert isinstance(first, ActionProfile)


def test_transition_rows_are_distributions():
    model = build_mdp(AT_WC)
    transition, reward = dense_arrays(model)
    for si in range(len(model.states)):
        for ai, _ in enumerate(model.actions_per_state[si]):
            row = transition[ai, si]
            assert abs(row.sum() - 1.0) < 1e-12
            assert (row >= 0.0).all()
        for ai in range(len(model.actions_per_state[si]),
                        transition.shape[0]):
            assert transition[ai, si, si] == 1.0
            assert reward[ai, si] == -math.inf


def test_post_states_absorb():
    model = build_mdp(AT_WC)
    transition, _ = dense_arrays(model)
    n_pre = model.n_pre
    for si in range(n_pre, len(model.states)):
        for ai, _ in enumerate(model.actions_per_state[si]):
            assert transition[ai, si, :n_pre].sum() == 0.0


def test_start_distribution_sums_to_one():
    model = build_mdp(AT_WC)
    assert model.split.shape == (model.n_pre,)
    assert abs(model.split.sum() - 1.0) < 1e-12
    assert (model.split >= 0.0).all()


def test_start_value_drops_zero_weight_states():
    # every value is -inf here; the post states' zero weights must not
    # turn their -inf into NaN
    params = ScenarioParams(2, 1, 0.05, 0.01, 0.9, 1e300,
                            discount=1.0 - 1e-9)
    model = build_mdp(params)
    policy = {**honest_policy(model), ("post", 0): 1, ("post", 1): 1}
    values = policy_value(model, policy)
    assert (values == -math.inf).all()
    assert start_value(model, values) == -math.inf
    # a finite post value is weighted by zero either way
    values[model.n_pre:] = 7.0
    assert start_value(model, values) == -math.inf


def test_honest_policy_matches_closed_form():
    for params in (AT_WC,
                   ScenarioParams(4, 3, 0.6, 0.05, 0.45, 4.0, discount=0.8),
                   ScenarioParams(7, 3, 0.45, 0.03, 0.25, 300.0,
                                  discount=0.7)):
        model = build_mdp(params)
        got = start_value(model, policy_value(model, honest_policy(model)))
        assert rel_err(got, lr_honest(params)) < 1e-12


def test_optimal_value_matches_closed_form_pinned():
    model = build_mdp(AT_WC)
    values, policy = value_iteration(model, 1e-12)
    got = start_value(model, values)
    out = lr_dishonest(AT_WC)
    best = max(out.lr_honest, out.lr_dishonest)
    assert rel_err(got, best) < 1e-10
    # the greedy policy attacks exactly the low-count states
    z_policy = threshold_policy(model, out.z_star)
    z_value = start_value(model, policy_value(model, z_policy))
    assert rel_err(z_value, out.lr_dishonest) < 1e-10


def test_optimal_value_matches_closed_form_sampled():
    rng = np.random.default_rng(41)
    for _ in range(15):
        sampled = region_ii_scenario(rng, n_range=(3, 8), max_attackers=4)
        for discount in (sampled.discount, 0.99, 0.999):
            params = dataclasses.replace(sampled, discount=discount)
            model = build_mdp(params)
            values, _ = value_iteration(model, 1e-11)
            got = start_value(model, values)
            out = lr_dishonest(params)
            best = max(out.lr_honest, out.lr_dishonest)
            scale = max(abs(best), 1.0)
            assert abs(got - best) / scale < 1e-8


def test_bellman_backup_fixed_point():
    model = build_mdp(AT_WC)
    values, _ = value_iteration(model, 1e-12)
    backed = bellman_backup(model, values)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert float(np.max(np.abs(backed - values))) / scale < 1e-11


# small scenarios across the validated space, discounts up to 1 - 1e-9
VALIDATED_SPACE = st.builds(
    ScenarioParams,
    n_total=st.integers(2, 8),
    n_attackers=st.integers(1, 4),
    p_idle=st.floats(0.01, 0.99),
    p_false_alarm=st.floats(0.001, 0.999),
    p_missed_detection=st.floats(0.001, 0.999),
    collision_penalty=st.sampled_from([0.0, math.ulp(0.0), 1e300]),
    discount=st.floats(1e-9, 1.0 - 1e-9))


@settings(max_examples=100, deadline=None)
@given(params=VALIDATED_SPACE)
# the honest start policy's value overflows here; the optimum is finite
@example(params=ScenarioParams(2, 1, 0.05, 0.01, 0.9, 1e300,
                               discount=1.0 - 1e-9))
# within 1e-9 of discount 1, where a dense linear solve of each policy
# missed the optimum (4 attackers) or did not converge (3)
@example(params=ScenarioParams(5, 3, 0.5, 0.0078125, 0.25, 0.0,
                               discount=0.9999999989999999))
@example(params=ScenarioParams(5, 4, 0.5, 0.0078125, 0.25, 0.0,
                               discount=0.9999999989999999))
def test_policy_iteration_is_exact_everywhere(params):
    assume(not validate(params))
    model = build_mdp(params)
    values, policy = value_iteration(model, 1e-12)
    assert np.isfinite(values).all()
    backed = bellman_backup(model, values)
    assert (np.max(np.abs(backed - values))
            <= 1e-12 * np.max(np.abs(values)))
    assert rel_err(start_value(model, policy_value(model, policy)),
                   start_value(model, values)) <= 1e-12


FLOAT_MAX = Fraction(sys.float_info.max)


def _assert_near_exact(model, ranks, values):
    # policy_value's stated bound against exact rationals, and the dense
    # model's fixed-policy equation v = r_pi + d*T_pi*v at the same bound
    exact = exact_policy_values(model, ranks)
    bound = Fraction(1e-13) * max(abs(e) for e in exact)
    for v, e in zip(values.tolist(), exact):
        if math.isinf(v):
            assert (v > 0) == (e > 0) and abs(e) >= FLOAT_MAX - bound
        else:
            assert abs(Fraction(v) - e) <= bound
    if np.isfinite(values).all():
        transition, reward = dense_arrays(model)
        states = np.arange(len(model.states))
        residual = (reward[ranks, states] - values + model.discount
                    * (transition[ranks, states] @ values))
        assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(values))


@settings(max_examples=60, deadline=None)
@given(params=VALIDATED_SPACE, seed=st.integers(0, 2**32))
# the drawn policy's value is past the float range here
@example(params=ScenarioParams(2, 1, 0.05, 0.01, 0.9, 1e300,
                               discount=1.0 - 1e-9), seed=1)
@example(params=ScenarioParams(5, 3, 0.5, 0.0078125, 0.25, 0.0,
                               discount=0.9999999989999999), seed=0)
# a tie at the all-busy state that rounding flips from policy to policy:
# policy iteration must stop there, not switch back and forth
@example(params=ScenarioParams(7, 1, 0.19634315016254003, 0.001,
                               0.00390625, 0.0, discount=0.001), seed=0)
def test_policy_values_match_exact_rationals(params, seed):
    assume(not validate(params))
    model = build_mdp(params)
    values, ranks = optimal_ranks(model)
    _assert_near_exact(model, ranks, values)
    rng = np.random.default_rng(seed)
    drawn = np.array([rng.integers(len(a)) for a in model.actions_per_state])
    policy = {s: a[r] for s, a, r in zip(model.states, model.actions_per_state,
                                         drawn.tolist())}
    _assert_near_exact(model, drawn, policy_value(model, policy))


def _reference_policy_value(model, policy):
    # each state's action looked up in its actions_per_state tuple
    _, _, scale, values = _renewal(model, np.array(
        [acts.index(policy[s])
         for s, acts in zip(model.states, model.actions_per_state)]))
    with np.errstate(over="ignore"):
        return values * scale


@settings(max_examples=60, deadline=None)
@given(params=VALIDATED_SPACE, z=st.integers(-1, 9), seed=st.integers(0, 2**32))
# within 1e-9 of discount 1, where policy iteration on a dense linear
# solve of each policy cycled; if it ever fails, both paths must raise
@example(params=ScenarioParams(5, 3, 0.5, 0.0078125, 0.25, 0.0,
                               discount=0.9999999989999999), z=2, seed=0)
def test_rank_native_policies_match_action_lists(params, z, seed):
    assume(not validate(params))
    model = build_mdp(params)
    acts = model.actions_per_state
    assert repr(honest_policy(model)) == repr(
        {s: a[0] for s, a in zip(model.states, acts)})
    rng = np.random.default_rng(seed)
    drawn = {s: a[rng.integers(len(a))] for s, a in zip(model.states, acts)}
    pinned = [honest_policy(model), threshold_policy(model, z), drawn]
    try:
        _, ranks = optimal_ranks(model)
    except ValueError:
        with pytest.raises(ValueError, match="did not converge"):
            value_iteration(model, 1e-12)
    else:
        _, policy = value_iteration(model, 1e-12)
        assert repr(policy) == repr(
            {s: a[r] for s, a, r in zip(model.states, acts, ranks.tolist())})
        pinned.append(policy)
    for pi in pinned:
        np.testing.assert_array_equal(policy_value(model, pi),
                                      _reference_policy_value(model, pi))


REGION_II = st.integers(0, 2**32).map(
    lambda seed: region_ii_scenario(np.random.default_rng(seed)))


@settings(max_examples=100, deadline=None)
@given(params=VALIDATED_SPACE | REGION_II, seed=st.integers(0, 2**32))
@example(params=ScenarioParams(5, 3, 0.5, 0.0078125, 0.25, 0.0,
                               discount=0.9999999989999999), seed=0)
def test_candidate_model_matches_the_full_order_model(params, seed):
    # the package's model keeps each pre state's 2(M+1) candidates; the
    # reference keeps all (M+1)^2 profiles, so every policy over the grid
    # is one of its own rank policies
    assume(not validate(params))
    model, full = build_mdp(params), full_order_mdp(params)
    try:
        values, policy = value_iteration(model, 1e-12)
    except ValueError:
        with pytest.raises(ValueError, match="did not converge"):
            value_iteration(full, 1e-12)
    else:
        full_values, full_policy = value_iteration(full, 1e-12)
        assert values.tobytes() == full_values.tobytes()
        assert repr(policy) == repr(full_policy)
    rng = np.random.default_rng(seed)
    drawn = {s: a[rng.integers(len(a))]
             for s, a in zip(full.states, full.actions_per_state)}
    assert (policy_value(model, drawn).tobytes()
            == _reference_policy_value(full, drawn).tobytes())


def _bad_policies():
    model = build_mdp(AT_WC)
    good = honest_policy(model)
    pre, post = ("pre", 1, 1), ("post", 2)
    m = AT_WC.n_attackers
    missing = {s: a for s, a in good.items() if s != pre}
    yield pytest.param(missing, "policy has no action for state ('pre', 1, 1)",
                       id="missing")
    for name, state, action in (
            ("reports_high", pre, ActionProfile(m + 1, 0)),
            ("transmitters_negative", pre, ActionProfile(1, -1)),
            ("bool_profile", pre, ActionProfile(True, 0)),
            ("tuple", pre, (1, 0)),
            ("count_at_pre", pre, 1),
            ("count_high", post, m + 1),
            ("count_negative", post, -1),
            ("bool_count", post, True),
            ("float_count", post, 1.0),
            ("profile_at_post", post, ActionProfile(0, 0))):
        yield pytest.param({**good, state: action},
                           f"{action!r} in state {state}", id=name)


@pytest.mark.parametrize("policy, message", _bad_policies())
def test_policy_value_rejects_bad_policies(policy, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        policy_value(build_mdp(AT_WC), policy)


def test_policy_value_takes_numpy_counts():
    model = build_mdp(AT_WC)
    policy = threshold_policy(model, 3)
    as_numpy = {s: np.int64(a) if s[0] == "post" else ActionProfile(
        np.int64(a.busy_reports), np.int64(a.transmitters))
        for s, a in policy.items()}
    np.testing.assert_array_equal(policy_value(model, as_numpy),
                                  policy_value(model, policy))


def test_threshold_scan_peaks_at_reported_cutoff():
    model = build_mdp(AT_WC)
    out = lr_dishonest(AT_WC)
    scan = []
    for z in range(AT_WC.n_total + 1):
        v = start_value(model, policy_value(model, threshold_policy(model, z)))
        scan.append(v)
    assert int(np.argmax(scan)) == out.z_star


def test_threshold_structure_holds_in_window():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = region_ii_scenario(rng, n_range=(3, 7), max_attackers=3)
        model = build_mdp(params)
        ok, counterexample = verify_threshold_structure(model)
        assert ok, counterexample


# two honest sensors and one attacker; busy totals 0, 1, 1, 2, 2, 3
_PRE = [("pre", kh, ka) for kh in range(3) for ka in range(2)]


@pytest.mark.parametrize("attacked, violation", [
    pytest.param(set(), None, id="none"),
    pytest.param(set(_PRE), None, id="all"),
    pytest.param({("pre", 0, 0), ("pre", 0, 1), ("pre", 1, 0)}, None,
                 id="total_at_most_1"),
    # ("pre", 1, 0) declines at the same total as the attacked ("pre", 0, 1)
    pytest.param({("pre", 0, 0), ("pre", 0, 1)}, ("pre", 1, 0),
                 id="equal_total"),
    pytest.param({("pre", 1, 1)}, ("pre", 0, 0), id="hole_at_zero"),
    pytest.param({("pre", 0, 0), ("pre", 0, 1), ("pre", 1, 0), ("pre", 2, 1)},
                 ("pre", 1, 1), id="gap_below_the_top"),
])
def test_threshold_violation_on_hand_made_attack_sets(attacked, violation):
    mask = [s in attacked for s in _PRE]
    assert _threshold_violation(_PRE, mask) == violation


def test_break_even_post_reward_waits():
    # the boundary does not pay, as in oneshot.post_transmit: a post state
    # whose lone-sensing reward is exactly 0.0 waits (rank 0)
    model = build_mdp(AT_WC)
    edge = dataclasses.replace(model, post_reward=np.array([0.0, 1.0, -1.0]))
    values, ranks = optimal_ranks(edge)
    assert ranks[model.n_pre:].tolist() == [0, 1, 0]
    _, policy = value_iteration(edge, 1e-12)
    assert [policy[("post", ka)] for ka in range(3)] == [0, 2, 0]


def test_policy_iteration_keeps_its_action_on_a_float_tie():
    # at ('pre', 5, 2) attacking earns about 1e-17 and terminates, which
    # ties honesty in floats only.  Policy iteration moves there first and
    # moves a state again only on strict improvement, so the values are
    # that policy's, while the first-wins ranks report honesty there;
    # moving on ties as well would value the honest choice, an ulp away
    params = ScenarioParams(7, 2, 0.32688053056260463, 0.00390625, 0.0625,
                            0.0, discount=0.99)
    model = build_mdp(params)
    state = model.states.index(("pre", 5, 2))
    values, ranks = optimal_ranks(model)
    assert ranks[state] == 0
    kept = ranks.copy()
    kept[state] = 1
    assert model.reward[state, 1] > 0.0 and model.trigger[state, 1] == 1.0
    assert values.tobytes() == policy_value(model, Policy(model, kept)).tobytes()
    assert values.tobytes() != policy_value(model, Policy(model, ranks)).tobytes()


def test_value_iteration_rejects_bad_tolerance():
    model = build_mdp(AT_WC)
    for tolerance in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            value_iteration(model, tolerance)


def test_values_scale_with_rate():
    scaled = dataclasses.replace(AT_WC, total_rate=3.0, collision_penalty=3e4)
    base_v, _ = value_iteration(build_mdp(AT_WC), 1e-12)
    scaled_v, _ = value_iteration(build_mdp(scaled), 1e-12)
    model = build_mdp(AT_WC)
    assert rel_err(start_value(model, scaled_v),
                   3.0 * start_value(model, base_v)) < 1e-10


def _old_threshold_dict(model, z):
    # threshold_policy as a plain dict of ActionProfiles, state by state
    m = model.params.n_attackers
    pre = [ActionProfile(max(ka, 1), m if kh + ka <= z else 0)
           for _, kh, ka in model.states[:model.n_pre]]
    return dict(zip(model.states, pre + post_transmit(model.params).tolist()))


@settings(max_examples=40, deadline=None)
@given(params=VALIDATED_SPACE)
def test_policies_equal_the_dicts_they_replace(params):
    assume(not validate(params))
    model = build_mdp(params)
    acts = model.actions_per_state
    pairs = [(honest_policy(model),
              {s: a[0] for s, a in zip(model.states, acts)})]
    pairs += [(threshold_policy(model, z), _old_threshold_dict(model, z))
              for z in range(-1, params.n_total + 2)]
    try:
        _, ranks = optimal_ranks(model)
    except ValueError:
        pass
    else:
        pairs.append((value_iteration(model, 1e-12)[1],
                      {s: a[r] for s, a, r in zip(model.states, acts,
                                                  ranks.tolist())}))
    for policy, old in pairs:
        assert isinstance(policy, Policy)
        assert policy == old and old == policy
        assert repr(policy) == repr(old)
        np.testing.assert_array_equal(policy_value(model, policy),
                                      policy_value(model, old))


def test_policy_is_a_read_only_mapping_in_state_order():
    model = build_mdp(AT_WC)
    policy = threshold_policy(model, 2)
    assert list(policy) == list(model.states)
    assert len(policy) == len(model.states)
    assert ("post", 2) in policy and ("post", 3) not in policy
    for unknown in (("post", 3), ("pre", 0, 3), "pre", ("pre", 0.5, 0)):
        with pytest.raises(KeyError):
            policy[unknown]
    with pytest.raises(TypeError):
        policy[("post", 0)] = 1
    with pytest.raises(ValueError, match="read-only"):
        policy.ranks[0] = 1
    assert policy != {**policy, ("post", 0): 1 - policy[("post", 0)]}


def test_policy_of_another_model_is_checked():
    model = build_mdp(AT_WC)
    # another discount of the scenario shares the states and orders
    other_discount = build_mdp(dataclasses.replace(AT_WC, discount=0.5))
    fewer = build_mdp(dataclasses.replace(AT_WC, n_total=5))
    more_attackers = build_mdp(dataclasses.replace(AT_WC, n_attackers=3))
    for source in (other_discount, fewer, more_attackers):
        policy = threshold_policy(source, 2)
        try:
            want = policy_value(model, dict(policy))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                policy_value(model, policy)
        else:
            np.testing.assert_array_equal(policy_value(model, policy), want)
    with pytest.raises(ValueError, match=re.escape(
            "policy has no action for state ('pre', 4, 0)")):
        policy_value(model, honest_policy(fewer))
    with pytest.raises(ValueError, match=re.escape(
            "policy action 3 in state ('post', 1)")):
        policy_value(model, {**dict(honest_policy(model)),
                             **{("post", 1): 3}})


def test_rank_native_path_builds_no_profile(monkeypatch):
    # the honest, threshold and optimal policies are valued at their ranks:
    # no ActionProfile is built, and no policy is read state by state
    def forbidden(*args):
        raise AssertionError("called on the rank-native path")

    model = build_mdp(AT_WC)
    monkeypatch.setattr(oneshot, "profile_at", forbidden)
    monkeypatch.setattr(mdp, "_ranks", forbidden)
    values, policy = value_iteration(model, 1e-12)
    for pi in (policy, honest_policy(model), threshold_policy(model, 3)):
        assert np.isfinite(policy_value(model, pi)).all()
