"""Scenario parameters and attacker-regime classifiers.

Every other module consumes the frozen parameter records defined here.  The
regime classifiers (single-SU deterrence, busy-report transmission, post-
termination cooperation) also live here because both the closed forms and
the simulator dispatch on them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class TransmissionCase(enum.Enum):
    """Whether transmitting on a busy announcement ever pays off.

    NT: even at the most idle-looking busy announcement (a single busy
    report) the expected collision charge exceeds the expected rate gain.
    AT: it does not, so attackers transmit after some busy announcements.
    """

    NT = "NT"
    AT = "AT"


class CooperationCase(enum.Enum):
    """Attackers' behavior once collaborative sensing is terminated.

    WC: sensing alone, the attackers' all-idle posterior is still too risky
    to transmit on, so they go silent forever.
    SC: their own pooled sensing supports continued transmission.
    """

    WC = "WC"
    SC = "SC"


@dataclass(frozen=True)
class ScenarioParams:
    """Homogeneous network parameters.

    Attributes:
        n_total: number of secondary users N (honest + attackers).
        n_attackers: number of colluding attackers M, 1 <= M <= N-1.
        p_idle: prior probability the licensed channel is idle in a slot.
        p_false_alarm: per-SU probability of sensing busy on an idle channel.
        p_missed_detection: per-SU probability of sensing idle on a busy one.
        collision_penalty: charge to every SU whenever a secondary
            transmission collides with the licensed user (reward units).
        direct_punishment: extra per-SU charge when a collision follows a
            busy announcement (reward units).
        discount: per-slot discount factor for long-run rewards.
        total_rate: channel rate; all rate rewards scale linearly with it.
    """

    n_total: int
    n_attackers: int
    p_idle: float
    p_false_alarm: float
    p_missed_detection: float
    collision_penalty: float
    direct_punishment: float = 0.0
    discount: float = 0.95
    total_rate: float = 1.0

    @property
    def n_honest(self) -> int:
        return self.n_total - self.n_attackers

    @property
    def cp_rate1(self) -> float:
        """Collision penalty expressed at unit channel rate."""
        return self.collision_penalty / self.total_rate

    @property
    def cb_rate1(self) -> float:
        """Direct punishment expressed at unit channel rate."""
        return self.direct_punishment / self.total_rate

    @property
    def base(self) -> ScenarioParams:
        """The record itself, as HeteroParams.base is the homogeneous part
        of a heterogeneous one."""
        return self


@dataclass(frozen=True)
class HeteroParams:
    """Single-attacker network where the attacker senses differently.

    The N-1 honest SUs keep the base error probabilities; the attacker has
    its own false-alarm/missed-detection pair and its own rate.  Honest
    per-SU rates are listed explicitly; they replace base.total_rate, which
    must stay at 1.
    """

    base: ScenarioParams
    p_false_alarm_attacker: float
    p_missed_detection_attacker: float
    rate_attacker: float = 1.0
    rates_honest: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not self.rates_honest:
            object.__setattr__(
                self, "rates_honest", (1.0,) * self.base.n_honest
            )


def _is_count(x) -> bool:
    # bool is an int subclass, but true is no count
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_count(x) or isinstance(x, float)


def _is_rate(x) -> bool:
    return _is_real(x) and 0.0 < x < math.inf


def _is_prob_open(x) -> bool:
    return _is_real(x) and 0.0 < x < 1.0


def validate(params: ScenarioParams) -> list[str]:
    """Collect every violated parameter invariant.

    Returns an empty list when the record is usable.  Violations are data,
    not exceptions: callers that need hard failure use require_valid.
    """
    v = []
    p = params
    if not (_is_count(p.n_total) and p.n_total >= 2):
        v.append("n_total must be an integer >= 2")
    if not (_is_count(p.n_attackers) and 1 <= p.n_attackers):
        v.append("n_attackers must be an integer >= 1")
    elif _is_count(p.n_total) and p.n_attackers > p.n_total - 1:
        v.append("n_attackers <= n_total - 1 (at least one honest SU)")
    if not _is_prob_open(p.p_idle):
        v.append("p_idle must lie in (0, 1)")
    if not _is_prob_open(p.p_false_alarm):
        v.append("p_false_alarm must lie in (0, 1)")
    if not _is_prob_open(p.p_missed_detection):
        v.append("p_missed_detection must lie in (0, 1)")
    if _is_prob_open(p.p_false_alarm) and _is_prob_open(p.p_missed_detection):
        if p.p_false_alarm + p.p_missed_detection >= 1.0:
            v.append(
                "p_false_alarm + p_missed_detection < 1 (informative sensing)"
            )
    if not (_is_real(p.collision_penalty)
            and p.collision_penalty >= 0.0
            and math.isfinite(p.collision_penalty)):
        v.append("collision_penalty must be finite and >= 0")
    if not (_is_real(p.direct_punishment)
            and p.direct_punishment >= 0.0
            and math.isfinite(p.direct_punishment)):
        v.append("direct_punishment must be finite and >= 0")
    if not (_is_real(p.discount) and 0.0 < p.discount < 1.0):
        v.append("discount must lie in (0, 1)")
    if not _is_rate(p.total_rate):
        v.append("total_rate must be finite and > 0")
    return v


def validate_hetero(hparams: HeteroParams) -> list[str]:
    """All invariant violations of a heterogeneous record, base included."""
    v = validate(hparams.base)
    h = hparams
    if h.base.n_attackers != 1:
        v.append("heterogeneous analysis covers a single attacker only")
    if not _is_prob_open(h.p_false_alarm_attacker):
        v.append("p_false_alarm_attacker must lie in (0, 1)")
    if not _is_prob_open(h.p_missed_detection_attacker):
        v.append("p_missed_detection_attacker must lie in (0, 1)")
    if not _is_rate(h.rate_attacker):
        v.append("rate_attacker must be finite and > 0")
    if len(h.rates_honest) != h.base.n_honest:
        v.append("rates_honest must list one rate per honest SU")
    elif not all(_is_rate(r) for r in h.rates_honest):
        v.append("every honest rate must be finite and > 0")
    if h.base.total_rate != 1.0:
        v.append("per-SU rates replace total_rate; set base.total_rate = 1")
    return v


def require_valid(params) -> None:
    """Raise ValueError listing every violation; no-op on valid input."""
    problems = (validate_hetero(params) if isinstance(params, HeteroParams)
                else validate(params))
    if problems:
        raise ValueError("invalid parameters: " + "; ".join(problems))


def check_a4(params: ScenarioParams) -> bool:
    """True when a lone SU never transmits on its own idle sensing.

    Holds iff the collision penalty (at unit rate) exceeds the single-sensor
    idle odds P_I/(1-P_I) * (1-P_f)/P_m.
    """
    from . import posterior

    log_bound = posterior.log_odds_idle(1, 0, params)
    cp = params.cp_rate1
    return cp > 0 and math.log(cp) > log_bound


def classify_transmission_case(params: ScenarioParams) -> TransmissionCase:
    """NT iff transmitting at a single busy report loses in expectation.

    The boundary (exact equality) counts as AT.
    """
    from . import oneshot, posterior

    post = posterior.posterior_idle(params.n_total, 1, params)
    # a grab's reward at unit rate, without a direct charge
    value = oneshot._grab_reward(post.p_idle_given_reports,
                                 post.p_busy_given_reports,
                                 params.n_attackers, params.cp_rate1, 0.0, 1.0)
    return TransmissionCase.NT if value < 0.0 else TransmissionCase.AT


def classify_cooperation_case(params: ScenarioParams) -> CooperationCase:
    """WC iff the attackers' own all-idle posterior cannot justify transmitting.

    Uses the group-size-M posterior (attackers sensing alone).  The boundary
    (exact equality) counts as WC.
    """
    from . import oneshot

    return (CooperationCase.SC if oneshot.lone_sensing_pays(0, params)
            else CooperationCase.WC)
