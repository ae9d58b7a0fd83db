"""Channel-state posteriors and report-count distributions.

All posteriors are evaluated through the log-likelihood ratio: the idle
odds carry factors like ((1-P_f)/P_m)^N that overflow linear arithmetic
well before the parameter ranges of interest are exhausted.  For the
same reason every count distribution indexes one log-space binomial pmf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


def _log_exp_diff(la: float, lb: float) -> float:
    # log(exp(la) - exp(lb)), -inf where the difference is not positive
    if la > lb:
        return la + math.log(-math.expm1(lb - la))
    return -math.inf


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


def _log_joint(n: int, k: int, p_i: float, p_f: float, p_m: float
               ) -> tuple[float, float]:
    # (log Pr[idle and k of n busy decisions], the same for busy),
    # without the binomial coefficient, which both share
    return (_log(p_i) + _nlog(n - k, _log1m(p_f)) + _nlog(k, _log(p_f)),
            _log1m(p_i) + _nlog(n - k, _log(p_m)) + _nlog(k, _log1m(p_m)))


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
    return _from_log_parts(*_log_joint(n, k, p_i, p_f, p_m))


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
    log_idle, log_busy = _log_joint(n_h, k, p_i, p_f, p_m)
    return _from_log_parts(log_idle + (_log(p_fa) if d else _log1m(p_fa)),
                           log_busy + (_log1m(p_ma) if d else _log(p_ma)))


@functools.lru_cache(maxsize=1 << 5)  # a scenario needs at most 8 keys
def _binomial_pmf(n: int, p: float) -> tuple[float, ...]:
    """Binomial(n, p) pmf at 0..n from log-space lgamma terms (0*log 0 = 0),
    so nothing overflows.  Log rounding, growing like n*ln(n), is the error:
    |sum - 1| reached 6.8e-13 at n = 1100, 2.5e-12 at 5000, 1.4e-10 at 1e5."""
    log_p, log_q, log_n = _log(p), _log1m(p), math.lgamma(n + 1)
    # from a list: a tuple grown from a generator fragments the heap
    return tuple([math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                           + _nlog(k, log_p) + _nlog(n - k, log_q))
                  for k in range(n + 1)])


def count_masses(group_size: int, params: ScenarioParams
                 ) -> tuple[list[float], list[float]]:
    """(Pr[idle and count=k], Pr[busy and count=k]) for every count k =
    0..group_size of busy decisions, as (idle, busy) lists.

    These joint masses are the numerators of the posterior: dividing one
    by the sum of the pair reproduces posterior_idle without
    cancellation, and the long-run reward sums use them directly.  Each
    lies within 1e-13 relative of its exact value for group sizes up to
    24.
    """
    p_i, n = params.p_idle, group_size
    return ([p_i * x for x in _binomial_pmf(n, params.p_false_alarm)],
            [(1.0 - p_i) * x
             for x in _binomial_pmf(n, params.p_missed_detection)[::-1]])


def _attacker_rates(params: ScenarioParams | HeteroParams) -> tuple[float, float]:
    if isinstance(params, HeteroParams):
        return params.p_false_alarm_attacker, params.p_missed_detection_attacker
    return params.p_false_alarm, params.p_missed_detection


def split_pmf(params: ScenarioParams | HeteroParams) -> np.ndarray:
    """Joint probability of every (honest busy count, attacker busy
    count) split, as an (n_honest+1, M+1) array indexed [honest busy
    count, attacker busy count].

    The two groups are conditionally independent given the channel state
    but correlated through it, so this is not a product of the marginals.
    A heterogeneous attacker is a group of one with its own error rates.
    Each entry lies within 1e-13 relative of its exact value for N up to
    24.
    """
    base = params.base
    p_fa, p_ma = _attacker_rates(params)
    idle, busy = np.array(count_masses(base.n_honest, base))[:, :, None]
    return (idle * _binomial_pmf(base.n_attackers, p_fa)
            + busy * _binomial_pmf(base.n_attackers, p_ma)[::-1])
