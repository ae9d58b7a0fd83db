import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coopsense.indirect import lr_dishonest, lr_honest
from coopsense.mdp import (_q, build_mdp, honest_policy, optimal_ranks,
                           policy_value, start_distribution, start_value,
                           threshold_policy, value_iteration,
                           verify_threshold_structure)
from coopsense.model import ScenarioParams, validate
from coopsense.oneshot import ActionProfile

from conftest import region_ii_scenario, rel_err
from oracles import bellman_backup, dense_arrays, exact_policy_values

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
    dist = start_distribution(model)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert (dist[model.n_pre:] == 0.0).all()


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
    _, values, scale = _q(model, np.array(
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
