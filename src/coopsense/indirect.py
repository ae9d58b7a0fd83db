"""Long-run rewards under the collaboration-termination punishment.

Closed forms for the attackers' discounted value when they stay honest
versus when they attack below a busy-count threshold z, and the discount
factors at which honesty takes over.  Everything here is an expectation
over report counts; the mdp module re-derives the same numbers by
policy iteration over every state and action, not over threshold sets.

The discount-free part of those values, a scenario's slot values and
running sums, is built once: _long_run_from caches it for one scenario,
keyed on the sensing, penalty and rate fields it reads, never on the
discount, so lr_honest, lr_dishonest and delta_threshold_oracle share it
at every discount.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from . import posterior
from .model import (CooperationCase, ScenarioParams, TransmissionCase,
                    classify_cooperation_case, classify_transmission_case)
from .posterior import _exp_diff


@dataclass(frozen=True)
class LongTermRewards:
    lr_honest: float
    lr_dishonest: float
    cooperation_case: CooperationCase
    transmission_case: TransmissionCase
    z_star: int | None
    attack_prevented: bool


@dataclass(frozen=True)
class DeltaThreshold:
    """Discount factor above which honesty beats attacking.

    raw_value is the unclamped closed form; value folds it into (0,1]
    with 1.0 meaning no discount factor below 1 deters (deterrable is
    False exactly then).
    """

    value: float
    raw_value: float
    deterrable: bool
    cooperation_case: CooperationCase


def _shared_slot_value(idle: list[float], busy: list[float],
                       params: ScenarioParams) -> float:
    # per-attacker slot value of honest sharing on a unanimous idle vote,
    # at unit rate, from count_masses of all N sensors:
    # m_idle/N - (C_p/r) * m_busy
    return idle[0] / params.n_total - params.cp_rate1 * busy[0]


def lr_honest(params: ScenarioParams) -> float:
    """Discounted aggregate attacker value of behaving honestly forever.
    Within 1e-13 * S of exact for N <= 24, S: the same over |terms|."""
    return _long_run(params)(params.discount)[0]


def _post_punishment_gain(params: ScenarioParams) -> float:
    """Expected per-slot aggregate value once the attackers sense alone.

    The attackers transmit only when their own posterior makes it pay, so
    each count contributes its positive part.  Inside the penalty window
    at most the all-idle count is positive, which is the printed special
    case; the flooring keeps the value right outside it too.
    """
    m, cp = params.n_attackers, params.cp_rate1
    gain = 0.0
    for idle, busy in zip(*posterior.count_masses(m, params)):
        gain += max(idle - m * cp * busy, 0.0)
    return gain


def _long_run(params: ScenarioParams
              ) -> Callable[[float], tuple[float, float, int | None]]:
    """(lr_honest, lr_dishonest, z_star) at any discount delta.

    Only the last formula of each value depends on delta, so the honest
    slot value, the lone-sensing gain and the running reward and trigger
    sums of every busy-count cutoff are taken once, at params' sensing,
    penalty and rate fields; params.discount is not read.
    """
    return _long_run_from(params.n_total, params.n_attackers, params.p_idle,
                          params.p_false_alarm, params.p_missed_detection,
                          params.collision_penalty, params.total_rate)


@functools.lru_cache(maxsize=1)
def _long_run_from(n: int, m: int, p_i: float, p_f: float, p_m: float,
                   collision_penalty: float, total_rate: float
                   ) -> Callable[[float], tuple[float, float, int | None]]:
    # _long_run of the scenario with these fields, the only ones it reads
    params = ScenarioParams(n, m, p_i, p_f, p_m, collision_penalty,
                            total_rate=total_rate)
    scan = classify_transmission_case(params) is TransmissionCase.AT
    cp, rate = params.cp_rate1, total_rate
    idle, busy = posterior.count_masses(n, params)
    honest = rate * m * _shared_slot_value(idle, busy, params)
    w = _post_punishment_gain(params)
    sums = []
    reward_sum = trigger_sum = 0.0
    for k in range(n + 1 if scan else 1):
        reward_sum += idle[k] - m * cp * busy[k]
        trigger_sum += busy[k]
        sums.append((reward_sum, trigger_sum))

    def at(delta: float) -> tuple[float, float, int | None]:
        tail = delta / (1.0 - delta)
        values = [(r + tail * t * w) / (1.0 - delta * (1.0 - t))
                  for r, t in sums]
        z = max(range(len(values)), key=values.__getitem__)  # first of equals
        return honest / (1.0 - delta), rate * values[z], z if scan else None

    return at


def lr_dishonest(params: ScenarioParams) -> LongTermRewards:
    """Optimal attacking value, with the attack-count threshold it uses.

    Transmission case NT pins the attack set to the unanimous-idle state;
    case AT scans every busy-count cutoff in one running sum and keeps
    the best (ties go to the smallest cutoff, i.e. the fewest attacking
    states).  Within 1e-13 * S of exact for N <= 24, S: the same over
    |terms|; z_star is an exact argmax up to that error.
    """
    honest, dishonest, z = _long_run(params)(params.discount)
    return LongTermRewards(honest, dishonest,
                           classify_cooperation_case(params),
                           classify_transmission_case(params), z,
                           honest >= dishonest)


def _log_unanimous_idle(group_size: int, params: ScenarioParams
                        ) -> tuple[float, float]:
    # logs of the joint masses (idle, busy) of group_size idle decisions
    return posterior._log_joint(group_size, 0, params.p_idle,
                                params.p_false_alarm,
                                params.p_missed_detection)


def _threshold_x_wc(params: ScenarioParams) -> float:
    n, m = params.n_total, params.n_attackers
    a = _shared_slot_value(*posterior.count_masses(n, params), params)
    log_idle, log_busy = _log_unanimous_idle(n, params)
    return a * math.exp(log_busy - log_idle) / (1.0 / m - 1.0 / n)


def _threshold_x_sc(params: ScenarioParams) -> float:
    n, m = params.n_total, params.n_attackers
    cp = params.cp_rate1
    log_idle_n, log_busy_n = _log_unanimous_idle(n, params)
    log_idle_m, log_busy_m = _log_unanimous_idle(m, params)
    # a - g pairs the idle-mass terms and the busy-mass terms separately:
    # both shrink like (1-P_f)^N and the direct subtraction cancels badly
    idle_part = _exp_diff(log_idle_n - math.log(n), log_idle_m - math.log(m))
    busy_part = _exp_diff(log_busy_n, log_busy_m)
    a_minus_g = idle_part - cp * busy_part
    ratio = math.exp(log_busy_n - log_idle_n)
    return a_minus_g * ratio / (1.0 / m - 1.0 / n)


def _threshold_from_x(x: float, case: CooperationCase) -> DeltaThreshold:
    raw = 1.0 / (1.0 + x)
    # below about 1.1e-16, 1 + x rounds to 1 and no discount below 1 deters
    deterrable = x > 0.0 and raw < 1.0
    return DeltaThreshold(raw if deterrable else 1.0, raw, deterrable, case)


def delta_threshold_wc(params: ScenarioParams) -> DeltaThreshold:
    """Closed-form discount threshold when post-punishment lone sensing
    never pays (attackers lose everything on termination)."""
    return _threshold_from_x(_threshold_x_wc(params), CooperationCase.WC)


def delta_threshold_sc(params: ScenarioParams) -> DeltaThreshold:
    """Closed-form discount threshold when the attackers keep transmitting
    on their own unanimous idle vote after termination."""
    return _threshold_from_x(_threshold_x_sc(params), CooperationCase.SC)


def delta_threshold(params: ScenarioParams) -> DeltaThreshold:
    """Threshold for the scenario's own cooperation case.

    Only meaningful when the transmission case is NT; under AT the attack
    set is not pinned to the unanimous-idle state and the closed forms do
    not apply.
    """
    if classify_transmission_case(params) is TransmissionCase.AT:
        raise ValueError("discount threshold closed forms require transmission case NT")
    return _case_threshold(params)


def _case_threshold(params: ScenarioParams) -> DeltaThreshold:
    # the closed form of the scenario's cooperation case, in either
    # transmission case
    if classify_cooperation_case(params) is CooperationCase.WC:
        return delta_threshold_wc(params)
    return delta_threshold_sc(params)


def delta_threshold_worst_case(params: ScenarioParams) -> tuple[int, DeltaThreshold]:
    """Max threshold over attacker counts 1..N-1, for a fusion center that
    does not know M.  Counts whose transmission case is AT are skipped."""
    best: tuple[int, DeltaThreshold] | None = None
    for m in range(1, params.n_total):
        candidate = replace(params, n_attackers=m)
        if classify_transmission_case(candidate) is TransmissionCase.AT:
            continue
        th = delta_threshold(candidate)
        if best is None or th.value > best[1].value:
            best = (m, th)
    if best is None:
        raise ValueError("no attacker count gives transmission case NT")
    return best


def delta_threshold_oracle(params: ScenarioParams) -> float | None:
    """Bisection for the discount factor where honesty overtakes attacking.

    Runs on the long-run value functions themselves, not on the threshold
    algebra, so it cross-checks the closed forms: each step evaluates
    lr_honest - lr_dishonest at its discount from sums taken once.  None
    unless that gap is negative at 1e-12 and positive at 1 - 1e-12.
    """
    long_run = _long_run(params)

    def gap(delta: float) -> float:
        honest, dishonest, _ = long_run(delta)
        return honest - dishonest

    lo, hi = 1e-12, 1.0 - 1e-12
    g_lo, g_hi = gap(lo), gap(hi)
    if not (g_lo < 0.0 < g_hi):
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)
