"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
with its runtime (budgets are printed for reference, not asserted; the
substance of each criterion is).  Tolerances are fixed here and must not
be loosened.
"""

import dataclasses
import json
import math
import time

import numpy as np

import coopsense as cs
from coopsense import cli
from coopsense.sim import SimConfig, run_experiment

from conftest import observable_scenario, region_ii_scenario, rel_err
from oracles import check_condition_i_semantics, honest_equivalent_profile


def _finish(label: str, budget: str, start: float,
            failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    dt = time.perf_counter() - start
    print(f"[{status}] {label} ({dt:.2f}s, budget {budget})")
    assert not failures, f"{len(failures)} failure(s): " \
        + " | ".join(failures[:5])


def test_criterion_01_posterior_strictly_decreasing():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    for _ in range(1000):
        params = cs.ScenarioParams(
            n_total=int(rng.integers(2, 21)), n_attackers=1,
            p_idle=float(rng.uniform(0.05, 0.95)),
            p_false_alarm=float(rng.uniform(0.01, 0.1)),
            p_missed_detection=float(rng.uniform(0.01, 0.1)),
            collision_penalty=1.0)
        # strictness lives in the log-odds; the probability scale itself
        # saturates at 1.0 once the odds pass ~1e16, so it is only required
        # to be non-increasing there.
        odds = [cs.log_odds_idle(params.n_total, k, params)
                for k in range(params.n_total + 1)]
        if not all(a > b for a, b in zip(odds, odds[1:])):
            failures.append(f"log-odds not strictly decreasing: {params}")
            break
        seq = [cs.posterior_idle(params.n_total, k, params).p_idle_given_reports
               for k in range(params.n_total + 1)]
        if not all(a >= b for a, b in zip(seq, seq[1:])):
            failures.append(f"posterior increases: {params}")
            break
    _finish("criterion 1: idle posterior strictly decreasing in busy count",
            "1s", start, failures)


def test_criterion_02_window_bounds_match_semantics():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    failures = []
    for _ in range(100):
        params = region_ii_scenario(rng)
        w = cs.condition_i_bounds(params)
        probes = ((w.lower_bound * 0.99, cs.Region.I),
                  (w.lower_bound * 1.01, cs.Region.II),
                  (w.upper_bound * 0.99, cs.Region.II),
                  (w.upper_bound * 1.01, cs.Region.III))
        for cp, want in probes:
            probe = dataclasses.replace(params, collision_penalty=cp)
            got = cs.condition_i_bounds(probe).region
            if got is not want:
                failures.append(f"cp={cp:g}: region {got} != {want}")
            if not check_condition_i_semantics(probe):
                failures.append(f"cp={cp:g}: sign disagreement at {probe}")
    _finish("criterion 2: window bounds equivalent to sensor-level signs",
            "1s", start, failures)


def test_criterion_03_best_response_classes_and_rewards():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    failures = []
    for _ in range(100):
        params = region_ii_scenario(rng, n_range=(3, 9), max_attackers=5)
        n, m = params.n_total, params.n_attackers
        cp, rate = params.cp_rate1, params.total_rate
        table = cs.behavior_table(params, False)
        for kh in range(params.n_honest + 1):
            for ka in range(m + 1):
                state = cs.SensingState(kh, ka)
                row_state, profile, breakdown = table[kh * (m + 1) + ka]
                assert row_state == state
                if kh == 0 and ka == 0:
                    p0 = cs.posterior_idle(n, 0, params)
                    honest_value = rate * m * (p0.p_idle_given_reports / n
                                               - p0.p_busy_given_reports * cp)
                else:
                    honest_value = 0.0
                pk = cs.posterior_idle(n, kh + ka, params)
                grab_value = rate * (pk.p_idle_given_reports
                                     - m * pk.p_busy_given_reports * cp)
                if grab_value > honest_value:
                    want_b = max(ka, 1) if kh == 0 else ka
                    want = cs.ActionProfile(want_b, m)
                    want_value = grab_value
                else:
                    want = honest_equivalent_profile(state, params)
                    want_value = honest_value
                if profile != want:
                    failures.append(f"{state}: {profile} != {want} @ {params}")
                elif rel_err(breakdown.attacker_aggregate, want_value) > 1e-12:
                    failures.append(
                        f"{state}: reward off by "
                        f"{rel_err(breakdown.attacker_aggregate, want_value):.2e}")
    _finish("criterion 3: one-shot best-response classes and reward formulas "
            "(rel 1e-12)", "5s", start, failures)


def _attacking_states(params: cs.ScenarioParams) -> int:
    return sum(profile != honest_equivalent_profile(state, params)
               for state, profile, _ in cs.behavior_table(params, True))


def test_criterion_04_direct_threshold_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    failures = []
    for _ in range(200):
        params = region_ii_scenario(rng, n_range=(3, 8), max_attackers=4)
        closed = cs.direct_threshold(params.n_attackers, params).value
        oracle = cs.direct_threshold_oracle(params.n_attackers, params)
        if rel_err(closed, oracle) > 1e-9:
            failures.append(f"threshold {closed:g} vs oracle {oracle:g}")
            continue
        above = dataclasses.replace(params, direct_punishment=closed * 1.01)
        below = dataclasses.replace(params, direct_punishment=closed * 0.99)
        if _attacking_states(above) != 0:
            failures.append(f"attack above threshold at {params}")
        if _attacking_states(below) < 1:
            failures.append(f"no attack below threshold at {params}")
    _finish("criterion 4: direct threshold = search oracle (rel 1e-9), "
            "+/-1% flips attacking", "30s", start, failures)


def test_criterion_05_direct_threshold_monotonicity():
    start = time.perf_counter()
    failures = []
    base = cs.ScenarioParams(11, 1, 0.6, 0.08, 0.08, 6e10, discount=0.9)

    for n in range(6, 13):
        values = [cs.direct_threshold(
            m, dataclasses.replace(base, n_total=n, n_attackers=m)).value
            for m in range(1, n)]
        if not all(a > b for a, b in zip(values, values[1:])):
            failures.append(f"not decreasing in M at N={n}")
    for m in (1, 2, 5):
        values = [cs.direct_threshold(
            m, dataclasses.replace(base, n_total=n, n_attackers=m)).value
            for n in range(m + 1, 13)]
        if not all(a < b for a, b in zip(values, values[1:])):
            failures.append(f"not increasing in N-M at M={m}")
    values = [cs.direct_threshold(
        1, dataclasses.replace(base, p_idle=pi)).value
        for pi in (0.2, 0.35, 0.5, 0.65, 0.8)]
    if not all(a < b for a, b in zip(values, values[1:])):
        failures.append("not increasing in p_idle")
    values = [cs.direct_threshold(
        1, dataclasses.replace(base, collision_penalty=cp)).value
        for cp in (6e8, 6e9, 6e10, 6e11)]
    if not all(a >= b for a, b in zip(values, values[1:])):
        failures.append("increasing in collision penalty")
    _finish("criterion 5: direct threshold monotone in M, N-M, p_idle, C_p",
            "1s", start, failures)


def test_criterion_06_long_run_closed_forms_match_mdp():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    failures = []
    pinned = [
        cs.ScenarioParams(4, 3, 0.6, 0.05, 0.45, 4.0, discount=0.8),
        cs.ScenarioParams(6, 2, 0.6, 0.08, 0.08, 1e4, discount=0.9),
        cs.ScenarioParams(6, 4, 0.794, 0.118, 0.393, 9.679, discount=0.85),
    ]
    instances = pinned + [
        region_ii_scenario(rng, n_range=(3, 12), max_attackers=5)
        for _ in range(97)]
    for params in instances:
        model = cs.build_mdp(params)
        lr_h = cs.lr_honest(params)
        mdp_h = cs.start_value(model, cs.policy_value(model,
                                                      cs.honest_policy(model)))
        values, _ = cs.value_iteration(model, 1e-11)
        mdp_star = cs.start_value(model, values)
        out = cs.lr_dishonest(params)
        best = max(out.lr_honest, out.lr_dishonest)
        scale = max(abs(lr_h), abs(best), 1e-300)
        if abs(lr_h - mdp_h) / scale > 1e-8:
            failures.append(f"honest value off at {params}")
        if abs(best - mdp_star) / scale > 1e-8:
            failures.append(
                f"optimal value off by {abs(best - mdp_star) / scale:.2e} "
                f"at {params}")
        if out.z_star is not None:
            pinned_policy = cs.threshold_policy(model, out.z_star)
            mdp_z = cs.start_value(model, cs.policy_value(model, pinned_policy))
            if abs(out.lr_dishonest - mdp_z) / scale > 1e-8:
                failures.append(f"z* policy value off at {params}")
    _finish("criterion 6: long-run closed forms match MDP (rel 1e-8, "
            "100 instances)", "120s", start, failures)


def test_criterion_07_discount_thresholds():
    start = time.perf_counter()
    failures = []

    agreement = [dataclasses.replace(
        cs.ScenarioParams(4, 3, 0.6, 0.05, 0.45, 1.0, discount=0.9),
        collision_penalty=cp) for cp in (3.5, 4.0, 4.5)]
    agreement += [cs.ScenarioParams(6, m, 0.6, 0.05, 0.3, cp, discount=0.9)
                  for m in (1, 2, 3) for cp in (60.0, 100.0)]
    agreement.append(cs.ScenarioParams(11, 7, 0.6, 0.005, 0.2, 13000.0,
                                       discount=0.9))
    checked = 0
    for params in agreement:
        if (cs.classify_transmission_case(params)
                is not cs.TransmissionCase.NT):
            continue
        closed = cs.delta_threshold(params)
        if not closed.deterrable:
            continue
        oracle = cs.delta_threshold_oracle(params)
        if oracle is None:
            failures.append(f"oracle found no crossing at {params}")
        elif abs(closed.value - oracle) > 1e-9:
            failures.append(f"{closed.value} vs oracle {oracle}")
        else:
            checked += 1
    if checked < 8:
        failures.append(f"only {checked} oracle comparisons ran")

    big = cs.ScenarioParams(11, 1, 0.6, 0.08, 0.08, 6e10, discount=0.9)
    wc = [cs.delta_threshold_wc(dataclasses.replace(big, n_attackers=m))
          for m in range(1, 11)]
    if not all(t.deterrable for t in wc):
        failures.append("WC grid not deterrable")
    if not all(a.value > b.value for a, b in zip(wc, wc[1:])):
        failures.append("WC threshold not decreasing in M")
    wc_cp = [cs.delta_threshold_wc(dataclasses.replace(
        big, n_attackers=2, collision_penalty=cp)).value
        for cp in (6e9, 2e10, 6e10)]
    if not all(a < b for a, b in zip(wc_cp, wc_cp[1:])):
        failures.append("WC threshold not increasing in C_p")

    sc = [cs.delta_threshold_sc(dataclasses.replace(big, n_attackers=m))
          for m in range(1, 11)]
    if not all(t.deterrable for t in sc):
        failures.append("SC grid not deterrable")
    if not all(a.value < b.value for a, b in zip(sc, sc[1:])):
        failures.append("SC threshold not increasing in M")
    if not (1.0 - sc[-1].value) < 1e-9:
        failures.append(f"SC threshold at M=N-1 is {sc[-1].value}, not ~1")
    sc_cp = [cs.delta_threshold_sc(dataclasses.replace(
        cs.ScenarioParams(4, 3, 0.6, 0.05, 0.45, 1.0, discount=0.9),
        collision_penalty=cp)).value for cp in (3.5, 4.0, 4.5)]
    if not all(a > b for a, b in zip(sc_cp, sc_cp[1:])):
        failures.append("SC threshold not decreasing in C_p")
    _finish("criterion 7: discount thresholds match oracle (1e-9) with the "
            "stated monotonicities", "30s", start, failures)


def test_criterion_08_heterogeneous_threshold():
    start = time.perf_counter()
    failures = []
    base = cs.ScenarioParams(11, 1, 0.6, 0.05, 0.05, 1e4, discount=0.9)
    grid = (0.01, 0.028, 0.046, 0.064, 0.082, 0.1)
    values = {}
    for p_fa in grid:
        for p_ma in grid:
            h = cs.HeteroParams(base=base, p_false_alarm_attacker=p_fa,
                                p_missed_detection_attacker=p_ma)
            th = cs.direct_threshold_hetero(h)
            values[p_fa, p_ma] = th.value
            if th.value != max(th.per_constraint_values.values()):
                failures.append(f"threshold is not the max at {p_fa},{p_ma}")
            if th.binding_constraint != "all_idle_deviation":
                failures.append(
                    f"binding {th.binding_constraint} at {p_fa},{p_ma}")
            tripled = cs.direct_threshold_hetero(
                dataclasses.replace(h, rate_attacker=3.0))
            if rel_err(tripled.value, 3.0 * th.value) > 1e-12:
                failures.append(f"not linear in attacker rate at {p_fa},{p_ma}")
    for i, p_fa in enumerate(grid[1:], 1):
        for p_ma in grid:
            if not values[p_fa, p_ma] < values[grid[i - 1], p_ma]:
                failures.append(f"not decreasing in false alarm at {p_fa}")
    for p_fa in grid:
        for j, p_ma in enumerate(grid[1:], 1):
            if not values[p_fa, p_ma] < values[p_fa, grid[j - 1]]:
                failures.append(f"not decreasing in missed detection at {p_ma}")

    collapsed = cs.HeteroParams(base=base, p_false_alarm_attacker=0.05,
                                p_missed_detection_attacker=0.05)
    if rel_err(cs.direct_threshold_hetero(collapsed).value,
               cs.direct_threshold(1, base).value) > 1e-12:
        failures.append("homogeneous collapse mismatch")
    _finish("criterion 8: heterogeneous threshold is the binding max, "
            "monotone, linear in rate", "5s", start, failures)


def test_criterion_09_simulation_matches_analysis():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    passes = 0
    total = 0
    details = []

    def within(block, target):
        se = block.ci_half_width / 1.96
        if se == 0.0:
            return abs(block.mean - target) <= 1e-12 * max(1.0, abs(target))
        return abs(block.mean - target) <= 3.0 * se

    for _ in range(34):
        params = observable_scenario(rng)
        config = SimConfig(params=params, punishment_mode="none",
                           horizon=50_000, replications=20,
                           base_seed=int(rng.integers(2**32)))
        stats = run_experiment(config)
        att, hon = cs.expected_slot_rewards(params, False)
        total += 1
        ok = (within(stats.per_slot_attacker, att)
              and within(stats.per_slot_honest, hon))
        passes += ok
        if not ok:
            details.append(f"none: {params}")

    for _ in range(33):
        params = observable_scenario(rng)
        th = cs.direct_threshold(params.n_attackers, params).value
        params = dataclasses.replace(
            params, direct_punishment=th * float(rng.uniform(0.3, 2.0)))
        config = SimConfig(params=params, punishment_mode="direct",
                           horizon=50_000, replications=20,
                           base_seed=int(rng.integers(2**32)))
        stats = run_experiment(config)
        att, hon = cs.expected_slot_rewards(params, True)
        total += 1
        ok = (within(stats.per_slot_attacker, att)
              and within(stats.per_slot_honest, hon))
        passes += ok
        if not ok:
            details.append(f"direct: {params}")

    for _ in range(33):
        params = dataclasses.replace(observable_scenario(rng), discount=0.8)
        config = SimConfig(params=params, punishment_mode="indirect",
                           horizon=192, replications=10_000,
                           base_seed=int(rng.integers(2**32)))
        stats = run_experiment(config)
        out = cs.lr_dishonest(params)
        target = max(out.lr_honest, out.lr_dishonest)
        total += 1
        ok = within(stats.discounted_attacker, target)
        passes += ok
        if not ok:
            details.append(f"indirect: {params}")

    failures = []
    if passes < 95:
        failures.append(f"only {passes}/{total} instances within 3 SE: "
                        + " | ".join(details[:3]))
    print(f"  criterion 9 agreement: {passes}/{total} instances within 3 SE")
    _finish("criterion 9: simulation agrees with analysis (>=95/100 within "
            "3 SE)", "300s", start, failures)


def test_criterion_10_worker_count_invariance(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    params = observable_scenario(rng)
    doc = {
        "scenario": {
            "n_total": params.n_total, "n_attackers": params.n_attackers,
            "p_idle": params.p_idle, "p_false_alarm": params.p_false_alarm,
            "p_missed_detection": params.p_missed_detection,
            "collision_penalty": params.collision_penalty,
            "discount": params.discount,
        },
        "command": {"name": "simulate",
                    "options": {"punishment_mode": "indirect",
                                "horizon": 20_000, "replications": 16}},
        "output": {"directory": str(tmp_path)},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    failures = []
    if cli.main(["simulate", "--config", str(config_path), "--seed", "7",
                 "--workers", "1"]) != 0:
        failures.append("single-worker run failed")
    single = (tmp_path / "simulation.json").read_bytes()
    if cli.main(["simulate", "--config", str(config_path), "--seed", "7",
                 "--workers", "8"]) != 0:
        failures.append("eight-worker run failed")
    if (tmp_path / "simulation.json").read_bytes() != single:
        failures.append("simulation JSON differs between 1 and 8 workers")
    _finish("criterion 10: simulation output bit-identical across worker "
            "counts", "30s", start, failures)
