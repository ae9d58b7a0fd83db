"""Direct-punishment thresholds.

The smallest busy-announcement collision charge C_b that removes every
profitable attack, for M homogeneous attackers and for a single attacker
with its own sensing quality and rate.  Each closed form is the max of
the per-state deterrence constraints; direct_threshold_oracle re-derives
the homogeneous value behaviorally by bisecting over the best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import oneshot, posterior
from .model import HeteroParams, ScenarioParams
from .posterior import _exp_diff, _log_exp_diff


@dataclass(frozen=True)
class DirectThreshold:
    value: float
    log_value: float  # finite where value saturates; -inf when it is 0
    binding_constraint: str
    per_constraint_values: dict[str, float]


def _package(constraints: dict[str, tuple[float, float]]) -> DirectThreshold:
    # name -> (la, lb) of exp(la) - exp(lb); logs break ties at inf
    values = {k: _exp_diff(la, lb) for k, (la, lb) in constraints.items()}
    logs = {k: _log_exp_diff(la, lb) for k, (la, lb) in constraints.items()}
    value = max(0.0, max(values.values()))
    binding = max((k for k, v in values.items() if v == value),
                  key=logs.__getitem__, default="none")
    return DirectThreshold(value, logs.get(binding, -math.inf), binding,
                           values)


def direct_threshold(m_attackers: int, params: ScenarioParams) -> DirectThreshold:
    """Deterrence charge for m_attackers colluders (params' own count is
    ignored so one scenario can be swept over M).

    Two constraints survive the state-by-state analysis: the unanimous-idle
    state, where attacking must not beat the honest share, and the
    single-busy state, where transmitting through a busy announcement must
    not pay.  All other states are slacker versions of these two.
    Each per_constraint_values entry lies within 1e-13 * S of exact for
    N <= 24, S: the same terms over absolute values.
    """
    n = params.n_total
    if not 1 <= m_attackers < n:
        raise ValueError(f"m_attackers {m_attackers} outside [1, {n - 1}]")
    log_pref = posterior.log_odds_idle(n, 0, params)
    log_rate = math.log(params.total_rate)
    all_idle = (log_pref + math.log(1.0 / m_attackers - 1.0 / n) + log_rate,
                -math.inf)
    single_busy = (
        log_pref + posterior._log_q(params) - math.log(m_attackers) + log_rate,
        posterior._log(params.collision_penalty))
    return _package({"all_idle_deviation": all_idle,
                     "single_busy_transmission": single_busy})


def direct_threshold_oracle(m_attackers: int, params: ScenarioParams) -> float:
    """Behavioral threshold: bisection on C_b over the best response.

    Meaningful inside the OR-rule penalty window; outside it some attacks
    are immune to C_b (no busy announcement is involved) and no finite
    charge empties the attack set.

    Each step asks oneshot.attack_scan whether some state's best response
    at C_b is an attack.  The scan prices every state once per call and
    then compares one grab reward with one rank-0 reward per state, with
    best_profiles' verdict bit for bit.
    """
    n = params.n_total
    if not 1 <= m_attackers < n:
        raise ValueError(f"m_attackers {m_attackers} outside [1, {n - 1}]")
    attacked = oneshot.attack_scan(replace(params, n_attackers=m_attackers))
    if not attacked(0.0):
        return 0.0
    hi = max(params.collision_penalty, params.total_rate)
    for _ in range(200):
        if not attacked(hi):
            break
        hi *= 2.0
    else:
        raise ValueError("no finite direct punishment deters every attack")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if attacked(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def direct_threshold_hetero(hparams: HeteroParams) -> DirectThreshold:
    """Deterrence charge for one attacker with its own P_f, P_m and rate.

    Three constraints: deviating in the unanimous-idle state, transmitting
    through a busy announcement that the attacker's own busy sensing would
    have caused, and doing so when an honest sensor saw the channel busy.
    Each per_constraint_values entry lies within 1e-13 * S of exact for
    N <= 24, S: the same terms over absolute values.
    """
    base = hparams.base
    n = base.n_total
    p_fa = hparams.p_false_alarm_attacker
    p_ma = hparams.p_missed_detection_attacker
    log_honest = posterior.log_odds_idle(n - 1, 0, base)
    log_rate_a = math.log(hparams.rate_attacker)
    log_cp = posterior._log(base.collision_penalty)
    all_idle = (log_honest + math.log1p(-p_fa) - math.log(p_ma)
                + math.log((n - 1) / n) + log_rate_a, -math.inf)
    own_busy = (log_honest + math.log(p_fa) - math.log1p(-p_ma) + log_rate_a,
                log_cp)
    honest_busy = (log_honest + posterior._log_q(base)
                   + math.log1p(-p_fa) - math.log(p_ma) + log_rate_a, log_cp)
    return _package({"all_idle_deviation": all_idle,
                     "own_busy_transmission": own_busy,
                     "honest_busy_transmission": honest_busy})
