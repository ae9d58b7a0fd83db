"""Channel-state posteriors and report-count distributions.

All posteriors are evaluated through the log-likelihood ratio: the idle
odds carry factors like ((1-P_f)/P_m)^N that overflow linear arithmetic
well before the parameter ranges of interest are exhausted.  The count
distributions stay in linear space (they are plain probabilities).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .model import HeteroParams, ScenarioParams


@dataclass(frozen=True)
class Posterior:
    """Channel-idle posterior given a set of local sensing decisions.

    p_idle_given_reports + p_busy_given_reports == 1.0 exactly: the side
    closer to 1 is stored as the complement of the other.
    """

    p_idle_given_reports: float
    p_busy_given_reports: float
    log_likelihood_ratio: float


def _log(x: float) -> float:
    # log with log(0) = -inf instead of a domain error
    if x == 0.0:
        return -math.inf
    return math.log(x)


def _log1m(x: float) -> float:
    if x == 1.0:
        return -math.inf
    return math.log1p(-x)


def _exp(x: float) -> float:
    # exp saturating to inf instead of raising OverflowError
    if x > 709.0:
        return math.inf
    return math.exp(x)


def _exp_diff(la: float, lb: float) -> float:
    # exp(la) - exp(lb) without forming the near-cancelling pair
    if la == lb:
        return 0.0
    if la > lb:
        return _exp(la) * -math.expm1(lb - la)
    return _exp(lb) * math.expm1(la - lb)


def _log_q(params: ScenarioParams) -> float:
    # log of the odds factor one busy decision takes away:
    # P_f P_m / ((1-P_f)(1-P_m))
    p_f, p_m = params.p_false_alarm, params.p_missed_detection
    return (math.log(p_f) + math.log(p_m)
            - math.log1p(-p_f) - math.log1p(-p_m))


def _nlog(count: int, log_term: float) -> float:
    # count * log_term with the convention 0 * (-inf) = 0
    if count == 0:
        return 0.0
    return count * log_term


def _from_log_parts(log_idle: float, log_busy: float) -> Posterior:
    if log_idle == -math.inf and log_busy == -math.inf:
        raise ValueError("report pattern has zero probability under both hypotheses")
    llr = log_idle - log_busy if log_idle != log_busy else 0.0
    if llr >= 0.0:
        small = math.exp(-llr)
        pb = small / (1.0 + small)
        pi = 1.0 - pb
    else:
        small = math.exp(llr)
        pi = small / (1.0 + small)
        pb = 1.0 - pi
    return Posterior(pi, pb, llr)


def log_odds_idle(group_size: int, busy_count: int, params: ScenarioParams) -> float:
    """Log idle-vs-busy odds (prior included) after busy_count of group_size
    sensors report busy."""
    n, k = group_size, busy_count
    if n < 1:
        raise ValueError("group_size must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"busy_count {k} outside [0, {n}]")
    p_i = params.p_idle
    p_f = params.p_false_alarm
    p_m = params.p_missed_detection
    return (_log(p_i) - _log1m(p_i)
            + _nlog(n - k, _log1m(p_f) - _log(p_m))
            + _nlog(k, _log(p_f) - _log1m(p_m)))


def posterior_idle(group_size: int, busy_count: int, params: ScenarioParams) -> Posterior:
    """Posterior that the channel is idle given busy_count busy decisions
    among group_size sensors.

    The same form serves the whole network (group_size = N) and the
    attackers sensing alone (group_size = M).
    """
    return _posterior_idle(group_size, busy_count, params.p_idle,
                           params.p_false_alarm, params.p_missed_detection)


@functools.lru_cache(maxsize=1 << 12)
def _posterior_idle(n: int, k: int, p_i: float, p_f: float,
                    p_m: float) -> Posterior:
    # cached on the sensing fields only: threshold searches sweep the
    # punishment fields while hitting the same handful of keys.  One
    # scenario needs about N + M keys, so a small cache serves it and
    # keeps memory flat over thousands of scenarios.
    if n < 1:
        raise ValueError("group_size must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"busy_count {k} outside [0, {n}]")
    log_idle = _log(p_i) + _nlog(n - k, _log1m(p_f)) + _nlog(k, _log(p_f))
    log_busy = _log1m(p_i) + _nlog(n - k, _log(p_m)) + _nlog(k, _log1m(p_m))
    return _from_log_parts(log_idle, log_busy)


def posterior_idle_hetero(honest_busy_count: int, attacker_report: int,
                          hparams: HeteroParams) -> Posterior:
    """Posterior with N-1 homogeneous honest sensors plus the attacker's own
    local decision d in {0, 1}."""
    base = hparams.base
    n_h = base.n_total - 1
    k, d = honest_busy_count, attacker_report
    if not 0 <= k <= n_h:
        raise ValueError(f"honest_busy_count {k} outside [0, {n_h}]")
    if d not in (0, 1):
        raise ValueError("attacker_report must be 0 or 1")
    p_i, p_f, p_m = base.p_idle, base.p_false_alarm, base.p_missed_detection
    p_fa = hparams.p_false_alarm_attacker
    p_ma = hparams.p_missed_detection_attacker
    log_idle = (_log(p_i) + _nlog(n_h - k, _log1m(p_f)) + _nlog(k, _log(p_f))
                + (_log(p_fa) if d else _log1m(p_fa)))
    log_busy = (_log1m(p_i) + _nlog(n_h - k, _log(p_m)) + _nlog(k, _log1m(p_m))
                + (_log1m(p_ma) if d else _log(p_ma)))
    return _from_log_parts(log_idle, log_busy)


def _comb(n: int, k: int) -> float:
    if n <= 60:
        return float(math.comb(n, k))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def joint_report_mass(group_size: int, busy_count: int,
                      params: ScenarioParams) -> tuple[float, float]:
    """(Pr[idle and count=k], Pr[busy and count=k]) for the report count.

    These joint masses are the numerators of the posterior: dividing by
    their sum reproduces posterior_idle without cancellation, and the
    long-run reward sums use them directly.
    """
    n, k = group_size, busy_count
    if not 0 <= k <= n:
        raise ValueError(f"busy_count {k} outside [0, {n}]")
    p_i = params.p_idle
    p_f = params.p_false_alarm
    p_m = params.p_missed_detection
    c = _comb(n, k)
    idle = p_i * c * p_f**k * (1.0 - p_f) ** (n - k)
    busy = (1.0 - p_i) * c * (1.0 - p_m) ** k * p_m ** (n - k)
    return idle, busy


def report_count_pmf(group_size: int, busy_count: int, params: ScenarioParams) -> float:
    """Probability that exactly busy_count of group_size sensors decide busy."""
    idle, busy = joint_report_mass(group_size, busy_count, params)
    return idle + busy


def _binom(n: int, k: int, p: float) -> float:
    return _comb(n, k) * p**k * (1.0 - p) ** (n - k)


def report_split_pmf(honest_busy: int, attacker_busy: int,
                     params: ScenarioParams | HeteroParams) -> float:
    """Joint probability of the (honest busy count, attacker busy count) split.

    The two groups are conditionally independent given the channel state but
    correlated through it, so this is not a product of the marginals.  A
    heterogeneous attacker is a group of one with its own error rates.
    """
    hetero = isinstance(params, HeteroParams)
    base = params.base
    n_h, m = base.n_honest, base.n_attackers
    if not 0 <= honest_busy <= n_h:
        raise ValueError(f"honest_busy {honest_busy} outside [0, {n_h}]")
    if not 0 <= attacker_busy <= m:
        raise ValueError(f"attacker_busy {attacker_busy} outside [0, {m}]")
    p_i = base.p_idle
    p_f = base.p_false_alarm
    p_m = base.p_missed_detection
    p_fa, p_ma = ((params.p_false_alarm_attacker,
                   params.p_missed_detection_attacker) if hetero else (p_f, p_m))
    return (p_i * _binom(n_h, honest_busy, p_f) * _binom(m, attacker_busy, p_fa)
            + (1.0 - p_i) * _binom(n_h, honest_busy, 1.0 - p_m)
            * _binom(m, attacker_busy, 1.0 - p_ma))
