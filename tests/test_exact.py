"""Float paths over the report-count distributions against exact rationals.

Each float value must lie within 1e-13 * S of its exact value from
tests/oracles.py, where S is the same expression summed over absolute
values; that bound survives the cancellation in lr_honest's sharing
value near the top of the collision-penalty window.  Scenarios are
region II with N from 2 to 24, a third of them with the penalty in the
top 0.1 % of the window, some at a non-unit rate; the direct-threshold
constraints are checked at every attacker count.
"""

import dataclasses
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from coopsense.direct import direct_threshold, direct_threshold_hetero
from coopsense.indirect import lr_dishonest, lr_honest
from coopsense.model import HeteroParams, TransmissionCase
from coopsense.oneshot import expected_slot_rewards
from coopsense.posterior import count_masses, split_pmf
from coopsense.sim import SimConfig, _outcome_grid, build_policy_tables

from conftest import region_ii_scenario
from oracles import (exact_cell_pmf, exact_count_masses,
                     exact_direct_constraints, exact_direct_constraints_hetero,
                     exact_lr_dishonest, exact_lr_honest, exact_slot_rewards,
                     exact_split_pmf)

BOUND = Fraction(1e-13)


@st.composite
def scenarios(draw, hetero=False):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = draw(st.integers(0, 2)) == 0
    params = region_ii_scenario(rng, n_range=(2, 24),
                                max_attackers=1 if hetero else None,
                                cp_band=(0.999, 1.0) if edge else (0.0, 1.0))
    if hetero:
        h = HeteroParams(
            base=params,
            p_false_alarm_attacker=float(rng.uniform(0.01, 0.1)),
            p_missed_detection_attacker=float(rng.uniform(0.1, 0.45)),
            rate_attacker=float(rng.uniform(0.5, 2.0)))
        fine = direct_threshold_hetero(h).value
        return dataclasses.replace(h, base=dataclasses.replace(
            params, direct_punishment=fine * float(rng.uniform(0.3, 2.0))))
    rate = draw(st.sampled_from([1.0, 0.37, 2.5]))
    params = dataclasses.replace(
        params, total_rate=rate, collision_penalty=params.collision_penalty * rate)
    fine = direct_threshold(params.n_attackers, params).value
    return dataclasses.replace(
        params, direct_punishment=fine * float(rng.uniform(0.3, 2.0)))


def _near(value: float, exact: tuple[Fraction, Fraction]) -> bool:
    return abs(Fraction(value) - exact[0]) <= BOUND * exact[1]


@settings(max_examples=60, deadline=None)
@given(params=scenarios())
def test_count_masses_match_exact(params):
    for n in (params.n_total, params.n_attackers):
        view = list(zip(*count_masses(n, params)))
        assert len(view) == n + 1
        for k, (idle, busy) in enumerate(exact_count_masses(n, params)):
            got_idle, got_busy = view[k]
            assert _near(got_idle, (idle, idle)), (n, k)
            assert _near(got_busy, (busy, busy)), (n, k)
            assert _near(got_idle + got_busy, (idle + busy, idle + busy)), (n, k)


@settings(max_examples=40, deadline=None)
@given(params=st.one_of(scenarios(), scenarios(hetero=True)))
def test_split_pmf_matches_exact(params):
    view = split_pmf(params).tolist()
    exact_rows = exact_split_pmf(params)
    assert [len(row) for row in view] == [len(row) for row in exact_rows]
    for kh, row in enumerate(exact_rows):
        for ka, exact in enumerate(row):
            assert _near(view[kh][ka], (exact, exact)), (kh, ka)


@settings(max_examples=60, deadline=None)
@given(params=scenarios())
def test_lr_honest_matches_exact(params):
    assert _near(lr_honest(params), exact_lr_honest(params))


@settings(max_examples=60, deadline=None)
@given(params=scenarios())
def test_lr_dishonest_matches_exact(params):
    out = lr_dishonest(params)
    z_star = 0 if out.z_star is None else out.z_star
    best, best_scale = exact_lr_dishonest(params, z_star)
    assert _near(out.lr_dishonest, (best, best_scale))
    if out.transmission_case is TransmissionCase.AT:
        # an exact argmax, up to the float error of both values
        for z in range(params.n_total + 1):
            value, scale = exact_lr_dishonest(params, z)
            assert value - best <= BOUND * (scale + best_scale), z


@settings(max_examples=40, deadline=None)
@given(params=st.one_of(scenarios(), scenarios(hetero=True)),
       include_direct_punishment=st.booleans(), honest=st.booleans())
def test_slot_rewards_match_exact(params, include_direct_punishment, honest):
    got = expected_slot_rewards(params, include_direct_punishment, honest)
    exact = exact_slot_rewards(params, include_direct_punishment, honest)
    for value, reference in zip(got, exact):
        assert _near(value, reference)


@settings(max_examples=40, deadline=None)
@given(params=st.one_of(scenarios(), scenarios(hetero=True)))
def test_outcome_grid_sums_to_slot_rewards(params):
    # one slot-reward rule: the simulator's collaborating cells, weighted
    # by their exact probabilities, give the one-shot expectation.  A
    # heterogeneous run prices its honest SUs at their own rates, where
    # expected_slot_rewards prices them at the attacker's, so only the
    # attacker columns are compared there
    cells = exact_cell_pmf(params)
    compared = 1 if isinstance(params, HeteroParams) else 2
    for mode in ("none", "direct"):
        for policy in ("optimal", "honest"):
            config = SimConfig(params, mode, policy)
            grid = _outcome_grid(config, build_policy_tables(config))
            expected = expected_slot_rewards(params, mode == "direct",
                                             policy == "honest")
            for column, value in list(zip(grid, expected))[:compared]:
                terms = [p * Fraction(r) for p, r in
                         zip(cells, column[:len(cells)].tolist())]
                assert _near(value, (sum(terms), sum(map(abs, terms)))), \
                    (mode, policy)


def _constraints_near(got: dict[str, float],
                      exact: dict[str, tuple[Fraction, Fraction]]) -> None:
    assert got.keys() == exact.keys()
    for name, value in got.items():
        assert _near(value, exact[name]), name


@settings(max_examples=60, deadline=None)
@given(params=scenarios())
def test_direct_constraints_match_exact(params):
    for m in range(1, params.n_total):
        _constraints_near(direct_threshold(m, params).per_constraint_values,
                          exact_direct_constraints(m, params))


@settings(max_examples=60, deadline=None)
@given(params=scenarios(hetero=True))
def test_hetero_direct_constraints_match_exact(params):
    _constraints_near(direct_threshold_hetero(params).per_constraint_values,
                      exact_direct_constraints_hetero(params))
