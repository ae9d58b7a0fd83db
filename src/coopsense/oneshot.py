"""Single-slot rewards and the attackers' best response.

States count local busy decisions (honest, attacker); action profiles
count false busy reports b and Phase-II transmitters M_T.  Counts are
lossless here: rewards depend only on the OR of the reports and on how
many nodes transmit, never on which ones.

reward_tensors prices every state and profile at once and action_order
fixes the tie-break; every best response in the package is the first
maximum of the attacker tensor in that order.  attack_scan, the
threshold oracle's bisection step, reduces each state to its rank-0
reward and one scalar grab reward, the only one a direct punishment
reaches.  evaluate_profile is the scalar reference for the tensor.  A
heterogeneous single attacker plays the same game with M = 1, its own
decision taking the attacker axis.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import fusion, posterior
from .fusion import Announcement
from .model import HeteroParams, ScenarioParams


@dataclass(frozen=True)
class SensingState:
    honest_busy: int
    attacker_busy: int


@dataclass(frozen=True)
class ActionProfile:
    busy_reports: int
    transmitters: int


@dataclass(frozen=True)
class RewardBreakdown:
    attacker_aggregate: float
    honest_per_su: float
    announcement: Announcement
    is_attack: bool


def _check_state(state: SensingState, params: ScenarioParams) -> None:
    if not 0 <= state.honest_busy <= params.n_honest:
        raise ValueError(f"honest_busy {state.honest_busy} outside [0, {params.n_honest}]")
    if not 0 <= state.attacker_busy <= params.n_attackers:
        raise ValueError(
            f"attacker_busy {state.attacker_busy} outside [0, {params.n_attackers}]")


def _check_profile(profile: ActionProfile, params: ScenarioParams) -> None:
    m = params.n_attackers
    if not 0 <= profile.busy_reports <= m:
        raise ValueError(f"busy_reports {profile.busy_reports} outside [0, {m}]")
    if not 0 <= profile.transmitters <= m:
        raise ValueError(f"transmitters {profile.transmitters} outside [0, {m}]")


def honest_equivalent_profile(state: SensingState, params: ScenarioParams) -> ActionProfile:
    """Report truthfully, then transmit only on an idle announcement."""
    _check_state(state, params)
    announced_busy = state.honest_busy >= 1 or state.attacker_busy >= 1
    return ActionProfile(state.attacker_busy,
                         0 if announced_busy else params.n_attackers)


def evaluate_profile(state: SensingState, profile: ActionProfile,
                     params: ScenarioParams,
                     include_direct_punishment: bool) -> RewardBreakdown:
    """Expected rewards for one slot, conditional on the local decisions.

    The posterior conditions on the true sensing outcome k, not on the
    reports: falsifying a report changes the announcement, not the channel
    evidence the attackers hold.
    """
    _check_state(state, params)
    _check_profile(profile, params)
    n, m = params.n_total, params.n_attackers
    k = state.honest_busy + state.attacker_busy
    b, m_t = profile.busy_reports, profile.transmitters
    announced_busy = state.honest_busy >= 1 or b >= 1
    announcement = Announcement.H1 if announced_busy else Announcement.H0
    is_attack = profile != honest_equivalent_profile(state, params)

    post = posterior.posterior_idle(n, k, params)
    pi, pb = post.p_idle_given_reports, post.p_busy_given_reports
    cp = params.cp_rate1
    cb = params.cb_rate1 if include_direct_punishment else 0.0
    rate = params.total_rate

    if not announced_busy:
        # every honest SU transmits alongside the m_t attackers; a busy
        # channel collides all N transmissions but the penalty hits all N SUs
        share = pi / (n - m + m_t)
        attacker = m_t * share - m * pb * cp
        honest = share - pb * cp
    elif m_t >= 1:
        attacker = pi - m * pb * (cp + cb)
        honest = -pb * (cp + cb)
    else:
        attacker = 0.0
        honest = 0.0
    return RewardBreakdown(rate * attacker, rate * honest, announcement, is_attack)


@dataclass(frozen=True, eq=False)
class RewardTensors:
    """Per-slot values of every state and profile, indexed [honest_busy,
    attacker_busy, b, M_T]: the attackers' aggregate reward, one honest
    SU's reward (at the attackers' rate), and the trigger probability of
    a collision after a busy announcement, the event that direct
    punishment fines and that terminates collaboration."""

    attacker: np.ndarray
    honest: np.ndarray
    trigger: np.ndarray


def _posteriors(params: ScenarioParams | HeteroParams
                ) -> tuple[np.ndarray, np.ndarray, float]:
    # P(idle) and P(busy) given every state's decisions, shaped
    # [honest_busy, attacker_busy, 1, 1], and the attackers' rate
    group = params.base
    n_h, m = group.n_honest, group.n_attackers
    if isinstance(params, HeteroParams):
        posts = [[posterior.posterior_idle_hetero(kh, d, params) for d in (0, 1)]
                 for kh in range(n_h + 1)]
        rate = params.rate_attacker
    else:
        posts = [[posterior.posterior_idle(group.n_total, kh + ka, group)
                  for ka in range(m + 1)] for kh in range(n_h + 1)]
        rate = group.total_rate
    pi = np.array([[p.p_idle_given_reports for p in row]
                   for row in posts])[:, :, None, None]
    pb = np.array([[p.p_busy_given_reports for p in row]
                   for row in posts])[:, :, None, None]
    return pi, pb, rate


def _action_grid(n_h: int, m: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # M_T, the busy announcement and the grab mask, broadcast over
    # [honest_busy, attacker_busy, b, M_T]; a grab transmits through a
    # busy announcement, the only event a direct punishment fines
    kh = np.arange(n_h + 1)[:, None, None, None]
    b = np.arange(m + 1)[:, None]
    mt = np.arange(m + 1)
    announced_busy = (kh >= 1) | (b >= 1)
    return mt, announced_busy, announced_busy & (mt >= 1)


def _grab_reward(pi: np.ndarray, pb: np.ndarray, m: int, cp: float,
                 cb: float, rate: float) -> np.ndarray:
    # the attackers' aggregate reward on a grab entry; cp and cb are the
    # penalties at the attackers' rate
    return rate * (pi - m * pb * (cp + cb))


def reward_tensors(params: ScenarioParams | HeteroParams,
                   include_direct_punishment: bool) -> RewardTensors:
    """evaluate_profile's rewards for every state and profile at once.

    For a heterogeneous attacker the posteriors are posterior_idle_hetero
    and the rate is rate_attacker; the penalties are charges, so they are
    converted to that rate.
    """
    return _price(params, *_posteriors(params), include_direct_punishment)


def _price(params: ScenarioParams | HeteroParams, pi: np.ndarray,
           pb: np.ndarray, rate: float,
           include_direct_punishment: bool) -> RewardTensors:
    # reward_tensors on _posteriors' output
    group = params.base
    n_h, m = group.n_honest, group.n_attackers
    cp = group.collision_penalty / rate
    cb = group.direct_punishment / rate if include_direct_punishment else 0.0
    mt, announced_busy, grab = _action_grid(n_h, m)
    # on an idle announcement every honest SU transmits alongside the M_T
    # attackers; a busy channel collides all of them and fines all N SUs
    share = pi / (n_h + mt)
    attacker = np.where(grab, _grab_reward(pi, pb, m, cp, cb, rate),
                        rate * np.where(announced_busy, 0.0,
                                        mt * share - m * pb * cp))
    honest = np.where(grab, -pb * (cp + cb),
                      np.where(announced_busy, 0.0, share - pb * cp))
    return RewardTensors(attacker, rate * honest, np.where(grab, pb, 0.0))


def profile_at(flat: int, m: int) -> ActionProfile:
    """The profile at flat index b*(M+1) + M_T of the tensors' action axes."""
    return ActionProfile(*divmod(int(flat), m + 1))


def honest_flat(params: ScenarioParams) -> np.ndarray:
    """Flat index b*(M+1) + M_T of every state's honest-equivalent
    profile, indexed [honest_busy, attacker_busy]: ka*(M+1), plus M
    transmitters in the unanimous-idle state."""
    m = params.n_attackers
    kh = np.arange(params.n_honest + 1)[:, None]
    ka = np.arange(m + 1)
    return ka * (m + 1) + np.where(kh + ka == 0, m, 0)


def action_order(params: ScenarioParams) -> np.ndarray:
    """Every state's profiles in tie-break order, as flat indices
    b*(M+1) + M_T, indexed [honest_busy, attacker_busy, rank].

    The honest-equivalent profile comes first: punishment thresholds are
    strict, so a state where honesty ties the best attack counts as
    deterred.  The others follow by least report distortion
    |b - attacker_busy|, then most transmitters, then fewest busy reports.

    One array expression of (n_honest, M) with the honest profile from
    honest_flat, so no per-state profile is built.  The result,
    (n_honest+1)(M+1)^3 int64, is rebuilt on every call, not cached.
    """
    m = params.n_attackers
    flat = np.arange((m + 1) ** 2)
    b, mt = np.divmod(flat, m + 1)
    ka = np.arange(m + 1)[:, None]
    key = (np.abs(b - ka) * (m + 1) + m - mt) * (m + 1) + b
    honest = honest_flat(params)[..., None]
    return np.argsort(np.where(flat == honest, -1, key), axis=-1)


def _rank(table: np.ndarray, order: np.ndarray) -> np.ndarray:
    # table's profile axes flattened and put in action_order
    return np.take_along_axis(table.reshape(order.shape), order, axis=-1)


def _pick(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    # table[kh, ka, index[kh, ka]], with table's profile axes flattened
    flat = table.reshape(*index.shape[:2], -1)
    return np.take_along_axis(flat, index[..., None], axis=-1)[..., 0]


def best_profiles(params: ScenarioParams | HeteroParams,
                  include_direct_punishment: bool
                  ) -> tuple[np.ndarray, np.ndarray, RewardTensors]:
    """(action_order, flat index of every state's best response,
    reward_tensors).  The best response is the first maximum of the
    attackers' aggregate reward in action_order."""
    order = action_order(params.base)
    tensors = reward_tensors(params, include_direct_punishment)
    ranked = _rank(tensors.attacker, order)
    return order, _pick(order, ranked.argmax(axis=-1)), tensors


def attack_scan(params: ScenarioParams) -> Callable[[float], bool]:
    """attacked(C_b): whether some state's best response at direct
    punishment C_b is an attack, that is, whether best_profiles on params
    with direct_punishment C_b picks anything but rank 0 of action_order.

    Rank 0 is the honest-equivalent profile, never a grab (a busy
    announcement and M_T >= 1), and every grab of a state has the one
    reward _grab_reward, the only reward that depends on C_b.  The first
    maximum is not rank 0 exactly when rank 0 is not NaN and a later
    reward is NaN or larger.  So one reward_tensors pass gives each state
    its rank-0 reward and whether a non-grab profile already beats it, and
    each call compares one scalar grab reward per state with its rank-0
    reward, stopping at the first attacked state: the verdicts are
    best_profiles' bit for bit.
    """
    m = params.n_attackers
    pi, pb, rate = _posteriors(params)
    cp = params.collision_penalty / rate
    attacker = _price(params, pi, pb, rate, False).attacker
    first = _pick(attacker, honest_flat(params))
    grab = _action_grid(params.n_honest, m)[2]
    # rank 0 is one of the non-grabs, so their maximum is NaN or larger
    # than rank 0 exactly when another of them beats it
    rival = np.where(grab, -np.inf, attacker).max(axis=(2, 3))
    live = ~np.isnan(first)
    if (live & ~(rival <= first)).any():
        return lambda direct_punishment: True
    states = list(zip(pi[live, 0, 0].tolist(), pb[live, 0, 0].tolist(),
                      first[live].tolist()))

    def attacked(direct_punishment: float) -> bool:
        cb = direct_punishment / rate
        for pi_s, pb_s, first_s in states:
            if not _grab_reward(pi_s, pb_s, m, cp, cb, rate) <= first_s:
                return True
        return False

    return attacked


def best_response(state: SensingState, params: ScenarioParams,
                  include_direct_punishment: bool) -> tuple[ActionProfile, RewardBreakdown]:
    """Maximizer of the attackers' aggregate reward, ties broken by
    action_order."""
    _check_state(state, params)
    row = state.honest_busy * (params.n_attackers + 1) + state.attacker_busy
    _, profile, breakdown = behavior_table(params, include_direct_punishment)[row]
    return profile, breakdown


def behavior_table(params: ScenarioParams, include_direct_punishment: bool = True,
                   ) -> list[tuple[SensingState, ActionProfile, RewardBreakdown]]:
    """Best response in every sensing state, in lexicographic state order."""
    order, best, tensors = best_profiles(params, include_direct_punishment)
    rows = []
    for (kh, ka), flat in np.ndenumerate(best):
        profile = profile_at(flat, params.n_attackers)
        at = (kh, ka, profile.busy_reports, profile.transmitters)
        rows.append((SensingState(kh, ka), profile, RewardBreakdown(
            float(tensors.attacker[at]), float(tensors.honest[at]),
            fusion.fuse(kh + profile.busy_reports, params.n_total, 1),
            bool(flat != order[kh, ka, 0]))))
    return rows


def expected_slot_rewards(params: ScenarioParams | HeteroParams,
                          include_direct_punishment: bool,
                          honest: bool = False) -> tuple[float, float]:
    """Slot-stationary expectation of (attacker aggregate, honest per-SU)
    under the best response, or under honest behavior when honest=True.

    For a heterogeneous attacker only the first value is meaningful: the
    second prices honest SUs at the attacker's rate.  Within 1e-13 * S of
    the exact weighting for N <= 24, S weighting the absolute rewards.
    """
    order, best, tensors = best_profiles(params, include_direct_punishment)
    chosen = order[..., 0] if honest else best
    weights = posterior.split_pmf(params)
    # fsum rounds once, so no bit depends on numpy's reduction order
    att, hon = (math.fsum((weights * _pick(t, chosen)).ravel().tolist())
                for t in (tensors.attacker, tensors.honest))
    return att, hon


def lone_sensing_value(attacker_busy: int, params: ScenarioParams) -> float:
    """Unit-rate aggregate value of all M attackers transmitting on their
    own pooled sensing, collaboration terminated: pi - M*pi_b*c_p on the
    group-size-M posterior."""
    m = params.n_attackers
    post = posterior.posterior_idle(m, attacker_busy, params)
    return (post.p_idle_given_reports
            - m * post.p_busy_given_reports * params.cp_rate1)


def lone_sensing_pays(attacker_busy: int, params: ScenarioParams) -> bool:
    """Whether the attackers transmit on their own sensing; the boundary
    does not pay."""
    return lone_sensing_value(attacker_busy, params) > 0.0


def post_transmit(params: ScenarioParams | HeteroParams) -> np.ndarray:
    """The attackers' transmitter count by own busy count once
    collaboration has ended, (M+1,) int64: M where lone sensing pays,
    else 0; a heterogeneous attacker at its own error rates and rate."""
    alone = params
    if isinstance(params, HeteroParams):
        alone = replace(params.base,
                        p_false_alarm=params.p_false_alarm_attacker,
                        p_missed_detection=params.p_missed_detection_attacker,
                        total_rate=params.rate_attacker)
    m = alone.n_attackers
    return np.array([m if lone_sensing_pays(ka, alone) else 0
                     for ka in range(m + 1)], dtype=np.int64)
