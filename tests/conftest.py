import dataclasses
import math

import numpy as np
import pytest

from coopsense import (cli, condition_i_bounds, direct_threshold, indirect,
                       mdp, oneshot, posterior, sim)
from coopsense.model import ScenarioParams

# every per-scenario cache of the exact layers, each bounded to one scenario
SCENARIO_CACHES = (oneshot._ranked, oneshot._priced, indirect._long_run_from,
                   mdp._built)

# every other cache of the package: each holds no scenario, only values of
# a group size, a count, a pmf's fields or nothing, and keeps them for any
# scenario that asks for the same; each is bounded or takes no argument
SHARED_CACHES = (posterior._posterior_idle, posterior._binomial_pmf,
                 oneshot._order_rows, oneshot._profile,
                 oneshot._sensing_state, sim._inversion_table,
                 sim._keep_heap, cli._parser)


def region_ii_scenario(rng: np.random.Generator,
                       n_range: tuple[int, int] = (3, 10),
                       max_attackers: int | None = None,
                       cp_band: tuple[float, float] = (0.0, 1.0),
                       ) -> ScenarioParams:
    """Random scenario with the collision penalty inside the window.

    cp_band picks the log-uniform position within (lower, upper), so tests
    that need penalties near one edge can ask for it.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m_hi = n - 1 if max_attackers is None else min(n - 1, max_attackers)
    draft = ScenarioParams(
        n_total=n,
        n_attackers=int(rng.integers(1, m_hi + 1)),
        p_idle=float(rng.uniform(0.3, 0.7)),
        p_false_alarm=float(rng.uniform(0.01, 0.1)),
        p_missed_detection=float(rng.uniform(0.1, 0.45)),
        collision_penalty=1.0,
        discount=float(rng.uniform(0.3, 0.95)))
    window = condition_i_bounds(draft)
    span = window.log_upper_bound - window.log_lower_bound
    u = rng.uniform(cp_band[0] + 1e-9, cp_band[1] - 1e-9)
    log_cp = window.log_lower_bound + span * u
    return dataclasses.replace(draft, collision_penalty=math.exp(log_cp))


def fined_scenarios(seed: int, count: int):
    """Region-II scenarios, every sixth at a non-unit rate, with a direct
    punishment at 0.3-2x the closed-form threshold."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        params = region_ii_scenario(rng)
        if i % 6 == 5:
            rate = float(rng.uniform(0.5, 4.0))
            params = dataclasses.replace(
                params, total_rate=rate,
                collision_penalty=params.collision_penalty * rate)
        fine = direct_threshold(params.n_attackers, params).value
        yield dataclasses.replace(
            params, direct_punishment=fine * float(rng.uniform(0.3, 2.0)))


def observable_scenario(rng: np.random.Generator) -> ScenarioParams:
    """Region-II scenario whose collision events show up in short runs.

    Small groups and high miss rates keep the all-miss probability above
    roughly 1e-3; the penalty sits in the lower part of the window so the
    analytic mean is not carried by events a simulation never sees.
    """
    n = int(rng.integers(3, 7))
    draft = ScenarioParams(
        n_total=n,
        n_attackers=int(rng.integers(1, n)),
        p_idle=float(rng.uniform(0.35, 0.65)),
        p_false_alarm=float(rng.uniform(0.02, 0.08)),
        p_missed_detection=float(rng.uniform(0.3, 0.45)),
        collision_penalty=1.0,
        discount=float(rng.uniform(0.5, 0.9)))
    window = condition_i_bounds(draft)
    span = window.log_upper_bound - window.log_lower_bound
    log_cp = window.log_lower_bound + span * float(rng.uniform(0.05, 0.4))
    return dataclasses.replace(draft, collision_penalty=math.exp(log_cp))


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


@pytest.fixture
def fig_params() -> ScenarioParams:
    # the running example elsewhere in the tests: 6 SUs, 2 attackers
    return ScenarioParams(n_total=6, n_attackers=2, p_idle=0.6,
                          p_false_alarm=0.08, p_missed_detection=0.08,
                          collision_penalty=1e4, discount=0.9)


@pytest.fixture
def fresh_caches():
    """Empties the per-scenario caches, so a test that counts the work
    behind a scenario counts it whatever ran before."""
    for cache in SCENARIO_CACHES:
        cache.cache_clear()
