"""Golden digests of the one-shot game's derived outputs.

Each digest is the sha256 of the repr of one output family over a fixed
list of seeded scenarios: region-II homogeneous scenarios (two of them at
a non-unit rate) and heterogeneous single attackers, each with a direct
punishment at 0.3-2x its closed-form threshold.  Any change to a reward
bit, a tie-break or a policy decision changes them; a change meant to
alter these outputs says so and pins new digests.

The direct-threshold oracle and the action order of every profile
(oracles.full_action_order) are pinned over every attacker count 1..N-1
of region-II scenarios with N from 3 to 20, half of them at a non-unit
rate.  The MDP arrays are pinned on the model over every profile,
oracles.full_order_mdp, which test_mdp holds the package's candidate
model to bit for bit.  The MDP solve is pinned over the
homogeneous scenarios at their own discount and at 0.99 and 0.999, and
the long-run values at their own discount and at 1e-9, 0.5, 0.99 and
1 - 1e-9.  The discount-threshold oracle is pinned over the oracle
scenarios whose transmission case is NT.
"""

import collections
import dataclasses
import hashlib

import numpy as np
import pytest

from coopsense.direct import direct_threshold_hetero, direct_threshold_oracle
from coopsense import indirect, oneshot
from coopsense.indirect import delta_threshold_oracle, lr_dishonest, lr_honest
from coopsense.mdp import (build_mdp, honest_policy, policy_value,
                           start_value, threshold_policy, value_iteration,
                           verify_threshold_structure)
from coopsense.model import (HeteroParams, TransmissionCase,
                             classify_transmission_case)
from coopsense.oneshot import behavior_table, expected_slot_rewards
from coopsense.sim import SimConfig, build_policy_tables

from conftest import fined_scenarios, region_ii_scenario
from oracles import dense_arrays, full_action_order, full_order_mdp


def _homogeneous():
    return list(fined_scenarios(2024, 12))


def _hetero():
    rng = np.random.default_rng(2025)
    out = []
    for _ in range(8):
        h = HeteroParams(
            base=region_ii_scenario(rng, max_attackers=1),
            p_false_alarm_attacker=float(rng.uniform(0.01, 0.1)),
            p_missed_detection_attacker=float(rng.uniform(0.1, 0.45)),
            rate_attacker=float(rng.uniform(0.5, 2.0)))
        fine = direct_threshold_hetero(h).value
        out.append(dataclasses.replace(h, base=dataclasses.replace(
            h.base, direct_punishment=fine * float(rng.uniform(0.3, 2.0)))))
    return out


def _oracle_scenarios():
    rng = np.random.default_rng(2026)
    out = []
    for i, n in enumerate((3, 5, 8, 12, 16, 20)):
        params = region_ii_scenario(rng, n_range=(n, n))
        if i % 2:
            rate = float(rng.uniform(0.5, 4.0))
            params = dataclasses.replace(
                params, total_rate=rate,
                collision_penalty=params.collision_penalty * rate)
        out.extend(dataclasses.replace(params, n_attackers=m)
                   for m in range(1, n))
    return out


def _oracle_thresholds():
    return [direct_threshold_oracle(p.n_attackers, p)
            for p in _oracle_scenarios()]


def _nt_oracle_scenarios():
    return [p for p in _oracle_scenarios()
            if classify_transmission_case(p) is TransmissionCase.NT]


def _delta_oracles():
    return [delta_threshold_oracle(p) for p in _nt_oracle_scenarios()]


LONG_RUN_DISCOUNTS = (1e-9, 0.5, 0.99, 1.0 - 1e-9)


def _long_run_values():
    out = []
    for p in _homogeneous():
        for discount in (p.discount, *LONG_RUN_DISCOUNTS):
            at = dataclasses.replace(p, discount=discount)
            out.append((lr_honest(at), lr_dishonest(at)))
    return out


def _action_orders():
    out = []
    for p in _oracle_scenarios():
        order = full_action_order(p)
        out.append((order.shape, order.dtype.str,
                    hashlib.sha256(order.tobytes()).hexdigest()))
    return out


def _tables(config: SimConfig) -> tuple:
    t = build_policy_tables(config)
    return tuple((a.dtype.str, a.tolist())
                 for a in (t.b, t.transmit, t.post_transmit))


def _behavior_tables():
    return [behavior_table(p, flag)
            for p in _homogeneous() for flag in (False, True)]


def _slot_rewards():
    return [expected_slot_rewards(p, flag, honest=honest)
            for p in _homogeneous() for flag in (False, True)
            for honest in (False, True)]


def _mdp_arrays():
    out = []
    for p in _homogeneous():
        model = full_order_mdp(p)
        transition, reward = dense_arrays(model)
        out.append((model.states, model.actions_per_state,
                    reward.tolist(), transition.tolist()))
    return out


def _mdp_solves():
    out = []
    for p in _homogeneous():
        for discount in (p.discount, 0.99, 0.999):
            model = build_mdp(dataclasses.replace(p, discount=discount))
            values, policy = value_iteration(model, 1e-12)
            pinned = [honest_policy(model)]
            z_star = lr_dishonest(model.params).z_star
            if z_star is not None:
                pinned.append(threshold_policy(model, z_star))
            pinned_values = [policy_value(model, pi) for pi in pinned]
            out.append((values.tolist(), policy, start_value(model, values),
                        [(v.tolist(), start_value(model, v))
                         for v in pinned_values],
                        verify_threshold_structure(model)))
    return out


def _homogeneous_tables():
    return [_tables(SimConfig(params=p, punishment_mode=mode,
                              attacker_policy=policy))
            for p in _homogeneous()
            for mode, policy in (("none", "optimal"), ("direct", "optimal"),
                                 ("indirect", "optimal"), ("none", "honest"))]


def _hetero_tables():
    return [_tables(SimConfig(params=h, punishment_mode=mode,
                              attacker_policy=policy))
            for h in _hetero()
            for mode, policy in (("none", "optimal"), ("direct", "optimal"),
                                 ("none", "honest"))]


GOLDEN = {
    "action_order": (_action_orders,
        "333d112b675b73a39b82e747d2f5ce1073dc87b19a4c461d33971586f610953c"),
    "direct_threshold_oracle": (_oracle_thresholds,
        "1460e72a5cae29f403129fff0fd96552c62cb65f6d33e7ca20602be31fc8b341"),
    "delta_threshold_oracle": (_delta_oracles,
        "b9d6e550f234ae895e0055a23d05030e33ce5f619ac84f14fcde52a82b8dd59b"),
    "long_run_values": (_long_run_values,
        "ebbbe15058221b5f3ab9d15e57d7852c063e696cb1028b8d0da96f4b9b806d70"),
    "behavior_table": (_behavior_tables,
        "a78cb6fb6a672fa41cb913acb7487dd958e6db9818120aad7f6ac599cf083103"),
    "expected_slot_rewards": (_slot_rewards,
        "d688b1fe801391d2e5ffbfc93054a720361a6ec63ad8c5fa0854c2bc707f7d1d"),
    "mdp_arrays": (_mdp_arrays,
        "d3973fb09ad141dfafb819c687c71e4c298111781ea2faa5a80633b0f0f0f7e8"),
    "mdp_solves": (_mdp_solves,
        "7d2e40474e4836466f8e9681f81aa1b72cc04d28d0126b3c1ba7157a68475ed5"),
    "homogeneous_policy_tables": (_homogeneous_tables,
        "c74529744b829f1c547967cb6e36cf05bb1299be3dd1ba27a5219038e875f69b"),
    "hetero_policy_tables": (_hetero_tables,
        "c043acb80db1adde42da91fe19f0cbd9a2d3b2b448040f95114f1fb0260d74da"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    produce, digest = GOLDEN[name]
    assert hashlib.sha256(repr(produce()).encode()).hexdigest() == digest


def test_bisection_step_counts(monkeypatch):
    # every attacked(C_b) of the direct oracle and every gap(delta) of the
    # discount oracle, per scenario: both bisections keep their step counts
    steps = []
    scan, long_run = oneshot.attack_scan, indirect._long_run

    def counted(fn):
        def step(*args):
            steps[-1] += 1
            return fn(*args)
        return step

    monkeypatch.setattr(oneshot, "attack_scan",
                        lambda params: counted(scan(params)))
    for p in _oracle_scenarios():
        steps.append(0)
        direct_threshold_oracle(p.n_attackers, p)
    assert collections.Counter(steps) == {
        82: 6, 83: 7, 84: 7, 85: 11, 86: 9, 87: 7, 88: 7, 89: 2, 90: 1, 91: 1}

    steps.clear()
    monkeypatch.setattr(indirect, "_long_run",
                        lambda params: counted(long_run(params)))
    for p in _nt_oracle_scenarios():
        steps.append(0)
        delta_threshold_oracle(p)
    assert collections.Counter(steps) == {46: 44, 2: 1}
