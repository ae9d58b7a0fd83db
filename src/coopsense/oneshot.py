"""Single-slot rewards and the attackers' best response.

States count local busy decisions (honest, attacker); action profiles
count false busy reports b and Phase-II transmitters M_T.  Counts are
lossless here: rewards depend only on the OR of the reports and on how
many nodes transmit, never on which ones.

_price is the one home of the slot-reward rule: it prices each state's
candidate profiles in action_order, and every best response in the
package is the first maximum of the attacker tensor in that order, and
so over all profiles.  The simulator prices its realized slots through
it too (sim._outcome_grid, on a known channel), and its grab entry
_grab_reward, without a direct charge, prices lone sensing
(lone_sensing_value and the simulator's terminated phase) and the
transmission case (model.classify_transmission_case).  action_order is
the one home of the tie-break rule, with honesty at rank 0, and
_candidate of the profile-to-candidate rule.  The private layers take
their states as (kh, ka) index arrays.  attack_scan, the threshold
oracle's bisection step, reduces each state
to its rank-0 reward and one scalar grab reward, the only one a direct
punishment reaches.  A heterogeneous single attacker plays the same game
with M = 1, its own decision taking the attacker axis.

A scenario is priced once: _ranked caches its states, candidate order,
posteriors and split pmf (one scenario), and _priced its tensors and best
ranks (two entries, one scenario's charges with and without the direct
punishment).  Both are keyed on the fields they read, passed as plain
arguments, never on the discount, and their arrays are read-only:
best_profiles, attack_scan, behavior_table and expected_slot_rewards,
and so mdp.build_mdp and sim.build_policy_tables, all read them.
Three caches hold no scenario: _order_rows, action_order's M + 2
distinct rows at each M, which every order gathers from, and the frozen
records that profile_at and behavior_table share, one per (flat, M) and
per (kh, ka).  A gather (_action_order, action_order, _pick) returns a
fresh array, so no caller writes into a cached table.
"""

from __future__ import annotations

import functools
import itertools
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


def _is_count(x: object, top: int) -> bool:
    # an int or numpy integer in [0, top]; bool is an int, but no count
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and 0 <= x <= top)


def _check_state(state: SensingState, params: ScenarioParams) -> None:
    for name, top in (("honest_busy", params.n_honest),
                      ("attacker_busy", params.n_attackers)):
        count = getattr(state, name)
        if not _is_count(count, top):
            raise ValueError(
                f"{name} {count!r} is not an integer in [0, {top}]")


@dataclass(frozen=True, eq=False)
class RewardTensors:
    """Per-slot values of each state's candidates, indexed [honest_busy,
    attacker_busy, rank]: the attackers' aggregate reward, one honest SU's
    reward (at the attackers' rate), and the trigger probability of a
    collision after a busy announcement, the event that direct punishment
    fines and that terminates collaboration."""

    attacker: np.ndarray
    honest: np.ndarray
    trigger: np.ndarray


def _every_state(group: ScenarioParams) -> tuple[np.ndarray, np.ndarray]:
    # (kh, ka) of every state, broadcasting to [honest_busy, attacker_busy]
    return (np.arange(group.n_honest + 1)[:, None],
            np.arange(group.n_attackers + 1))


def _posteriors(params: ScenarioParams | HeteroParams, kh: np.ndarray,
                ka: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    # P(idle) and P(busy) given the decisions of the states (kh, ka),
    # shaped like them plus a trailing 1, and the attackers' rate; a
    # homogeneous posterior depends on the busy total alone, so each total
    # from the states' lowest to their highest (all, or one) is formed once
    if isinstance(params, HeteroParams):
        posts = [posterior.posterior_idle_hetero(h, d, params)
                 for h in range(params.base.n_honest + 1) for d in (0, 1)]
        index = 2 * kh + ka
        rate = params.rate_attacker
    else:
        total = kh + ka
        low = total.min()
        posts = [posterior.posterior_idle(params.n_total, k, params)
                 for k in range(low, total.max() + 1)]
        index = total - low
        rate = params.total_rate
    pi = np.array([p.p_idle_given_reports for p in posts])[index]
    pb = np.array([p.p_busy_given_reports for p in posts])[index]
    return pi[..., None], pb[..., None], rate


def _action_masks(order: np.ndarray, group: ScenarioParams, kh: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # M_T, the busy announcement and the grab mask of the ranked profiles
    # of states with kh honest busy decisions, [..., rank]; a grab
    # transmits through a busy announcement, the only event a direct
    # punishment fines
    b, mt = np.divmod(order, group.n_attackers + 1)
    announced_busy = (kh[..., None] >= 1) | (b >= 1)
    return mt, announced_busy, announced_busy & (mt >= 1)


def _grab_reward(pi: np.ndarray, pb: np.ndarray, m: int, cp: float,
                 cb: float, rate: float) -> np.ndarray:
    # the attackers' aggregate reward on a grab entry; cp and cb are the
    # penalties at the attackers' rate
    return rate * (pi - m * pb * (cp + cb))


def _price(params: ScenarioParams | HeteroParams, kh: np.ndarray,
           order: np.ndarray, pi: np.ndarray, pb: np.ndarray, rate: float,
           include_direct_punishment: bool) -> RewardTensors:
    # the slot rewards of the ranked profiles of states with kh honest
    # busy decisions, from _action_order's and _posteriors' output there
    group = params.base
    n_h, m = group.n_honest, group.n_attackers
    cp = group.collision_penalty / rate
    cb = group.direct_punishment / rate if include_direct_punishment else 0.0
    mt, announced_busy, grab = _action_masks(order, group, kh)
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
    """The profile at flat index b*(M+1) + M_T, one shared record per
    (flat, M)."""
    return _profile(int(flat), int(m))


@functools.lru_cache(maxsize=1 << 12)
def _profile(flat: int, m: int) -> ActionProfile:
    # profile_at's records: (M+1)^2 at M attackers, 3,721 at M = 60
    return ActionProfile(*divmod(flat, m + 1))


@functools.lru_cache(maxsize=1 << 12)
def _sensing_state(kh: int, ka: int) -> SensingState:
    # behavior_table's state records: (N-M+1)(M+1) a scenario, at most
    # 3,721 at N = 120
    return SensingState(kh, ka)


def _candidate(profile: ActionProfile, attacker_busy: int, m: int) -> int:
    # flat index of the candidate that profile prices like in a state with
    # attacker_busy attacker busy decisions (see action_order)
    b = 0 if profile.busy_reports == 0 else max(attacker_busy, 1)
    return b * (m + 1) + profile.transmitters


def action_order(params: ScenarioParams) -> np.ndarray:
    """Every state's 2(M+1) candidates, b in {0, max(attacker_busy, 1)}
    and M_T in 0..M, in tie-break order as flat indices b*(M+1) + M_T,
    indexed [honest_busy, attacker_busy, rank].

    The honest-equivalent profile, a candidate, comes first: punishment
    thresholds are strict, so a state where honesty ties the best attack
    counts as deterred.  The others follow by least report distortion
    |b - attacker_busy|, then most transmitters, then fewest busy reports.
    No best response is lost: b enters a price only through the busy
    announcement, so a profile (b, M_T) prices bit for bit like the
    candidate (0 if b == 0 else max(attacker_busy, 1), M_T), which comes
    no later; the first maximum over all (M+1)^2 profiles is a candidate.

    In closed form, with ka = attacker_busy: ranks r = 0..M hold b = ka,
    with M_T = M - r in the unanimous-idle state (honest (0, M) first)
    and M_T = (M + 1 - r) mod (M + 1) elsewhere (honest (ka, 0) first,
    then M..1); ranks M+1..2M+1 hold b = 1 if ka == 0 else 0, with
    M_T = 2M + 1 - r.
    """
    return _action_order(params.n_attackers, *_every_state(params))


def _action_order(m: int, kh: np.ndarray, ka: np.ndarray) -> np.ndarray:
    # action_order of the states (kh, ka), a fresh array.  A state's order
    # depends only on its row, ka or M + 1 for the unanimous-idle state
    return _order_rows(m)[np.where(kh + ka == 0, m + 1, ka)]


@functools.lru_cache(maxsize=1 << 5)
def _order_rows(m: int) -> np.ndarray:
    # the M + 2 distinct rows of action_order at M attackers, indexed by
    # row (ka, then M + 1 for the unanimous-idle state), read-only
    rows = np.arange(m + 2)[:, None]
    rank = np.arange(2 * (m + 1))
    first = rank <= m
    rows_ka = rows % (m + 1)  # the unanimous-idle row has ka = 0
    b = np.where(first, rows_ka, rows_ka == 0)
    # M_T counts down from M in each block, except that outside the
    # unanimous-idle state the first block starts at the honest M_T = 0
    mt = (m - rank + (first & (rows <= m))) % (m + 1)
    order = b * (m + 1) + mt
    _read_only(order)
    return order


def _pick(table: np.ndarray, rank: np.ndarray) -> np.ndarray:
    # table[kh, ka, rank[kh, ka]], a fresh array
    return table.reshape(-1, table.shape[-1])[
        np.arange(rank.size), rank.ravel()].reshape(rank.shape)


def _scenario_fields(params: ScenarioParams | HeteroParams) -> tuple:
    # the fields _posteriors and _action_order read, _ranked's key: six
    # for a homogeneous scenario, eight for a heterogeneous one
    base = params.base
    fields = (base.n_total, base.n_attackers, base.p_idle,
              base.p_false_alarm, base.p_missed_detection)
    if isinstance(params, HeteroParams):
        return fields + (params.p_false_alarm_attacker,
                         params.p_missed_detection_attacker,
                         params.rate_attacker)
    return fields + (base.total_rate,)


def _scenario(fields: tuple, collision_penalty: float = 0.0,
              direct_punishment: float = 0.0
              ) -> ScenarioParams | HeteroParams:
    # a scenario with _scenario_fields fields and the given charges; the
    # fields no pricing reads keep their defaults
    n, m, p_i, p_f, p_m, *rest = fields
    if len(rest) == 1:
        return ScenarioParams(n, m, p_i, p_f, p_m, collision_penalty,
                              direct_punishment, total_rate=rest[0])
    return HeteroParams(ScenarioParams(n, m, p_i, p_f, p_m, collision_penalty,
                                       direct_punishment), *rest)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _ranked(*fields) -> tuple:
    # (kh, order, pi, pb, rate, split) of every state of the scenario with
    # these _scenario_fields: _every_state's kh, _action_order's and
    # _posteriors' output and posterior.split_pmf, read-only
    params = _scenario(fields)
    kh, ka = _every_state(params.base)
    order = _action_order(params.base.n_attackers, kh, ka)
    pi, pb, rate = _posteriors(params, kh, ka)
    split = posterior.split_pmf(params)
    _read_only(kh, order, pi, pb, split)
    return kh, order, pi, pb, rate, split


@functools.lru_cache(maxsize=2)
def _priced(collision_penalty: float, direct_punishment: float, *fields
            ) -> tuple[np.ndarray, np.ndarray, RewardTensors]:
    # best_profiles of the scenario with these _scenario_fields and
    # charges, read-only; a charge left out prices as a zero charge, bit
    # for bit, so a scenario without a direct punishment prices once
    kh, order, pi, pb, rate, _ = _ranked(*fields)
    tensors = _price(_scenario(fields, collision_penalty, direct_punishment),
                     kh, order, pi, pb, rate, True)
    best = tensors.attacker.argmax(axis=-1)
    _read_only(best, tensors.attacker, tensors.honest, tensors.trigger)
    return order, best, tensors


def best_profiles(params: ScenarioParams | HeteroParams,
                  include_direct_punishment: bool
                  ) -> tuple[np.ndarray, np.ndarray, RewardTensors]:
    """(action_order, every state's best-response rank, the slot rewards
    of every state's candidates in that order), all read-only.

    The best response is the first maximum of the attackers' aggregate
    reward in action_order.  For a heterogeneous attacker the posteriors
    are posterior_idle_hetero and the rate is rate_attacker; the
    penalties are charges, so they are converted to that rate.  The
    result is cached for the last scenario's two charges.
    """
    base = params.base
    return _priced(base.collision_penalty,
                   base.direct_punishment if include_direct_punishment else 0.0,
                   *_scenario_fields(params))


def attack_scan(params: ScenarioParams) -> Callable[[float], bool]:
    """attacked(C_b): whether some state's best response at direct
    punishment C_b is an attack, that is, whether best_profiles on params
    with direct_punishment C_b picks anything but rank 0.

    Rank 0 is the honest-equivalent profile, never a grab (a busy
    announcement and M_T >= 1), and every grab of a state has the one
    reward _grab_reward, the only reward that depends on C_b.  The first
    maximum is not rank 0 exactly when rank 0 is not NaN and a later
    reward is NaN or larger.  So the cached pricing without a direct
    punishment gives each state its rank-0 reward and whether a non-grab
    profile already beats it.  States with equal (P(idle), M*P(busy),
    rank-0 reward) get equal verdicts, so each call runs over those
    triples once each, comparing one scalar grab reward with the rank-0
    reward and stopping at the first attacked one: the verdicts are
    best_profiles' bit for bit.
    """
    m = params.n_attackers
    fields = _scenario_fields(params)
    kh, order, pi, pb, rate, _ = _ranked(*fields)
    cp = params.collision_penalty / rate
    attacker = _priced(params.collision_penalty, 0.0, *fields)[2].attacker
    first = attacker[..., 0]
    grab = _action_masks(order, params, kh)[2]
    # rank 0 is one of the non-grabs, so their maximum is NaN or larger
    # than rank 0 exactly when another of them beats it
    rival = np.where(grab, -np.inf, attacker).max(axis=-1)
    live = ~np.isnan(first)
    if (live & ~(rival <= first)).any():
        return lambda direct_punishment: True
    # _grab_reward's m * pb * (cp + cb) is (m * pb) * (cp + cb)
    states = list(dict.fromkeys(zip(
        pi[live, 0].tolist(), [m * x for x in pb[live, 0].tolist()],
        first[live].tolist())))

    def attacked(direct_punishment: float) -> bool:
        penalty = cp + direct_punishment / rate
        for pi_s, mpb_s, first_s in states:
            if not rate * (pi_s - mpb_s * penalty) <= first_s:
                return True
        return False

    return attacked


def best_response(state: SensingState, params: ScenarioParams,
                  include_direct_punishment: bool) -> tuple[ActionProfile, RewardBreakdown]:
    """Maximizer of the attackers' aggregate reward, ties broken by
    action_order; only this state's candidates are priced."""
    _check_state(state, params)
    kh, ka = np.array(state.honest_busy), np.array(state.attacker_busy)
    order = _action_order(params.n_attackers, kh, ka)
    tensors = _price(params, kh, order, *_posteriors(params, kh, ka),
                     include_direct_punishment)
    rank = int(tensors.attacker.argmax())
    profile = profile_at(order[rank], params.n_attackers)
    busy = state.honest_busy + profile.busy_reports
    return profile, RewardBreakdown(
        float(tensors.attacker[rank]), float(tensors.honest[rank]),
        fusion.fuse(busy, params.n_total, 1), rank != 0)


def behavior_table(params: ScenarioParams, include_direct_punishment: bool = True,
                   ) -> list[tuple[SensingState, ActionProfile, RewardBreakdown]]:
    """Best response in every sensing state, in lexicographic state order.
    The states and profiles are shared frozen records."""
    order, best, tensors = best_profiles(params, include_direct_punishment)
    m = params.n_attackers
    # the announcement of every busy total, one fusion.fuse call each
    announced = [fusion.fuse(k, params.n_total, 1)
                 for k in range(params.n_total + 1)]
    rows = zip(itertools.product(range(params.n_honest + 1), range(m + 1)),
               *(_pick(t, best).ravel().tolist()
                 for t in (order, tensors.attacker, tensors.honest)),
               best.ravel().tolist())
    table = []
    for (kh, ka), flat, attacker, honest, rank in rows:
        profile = profile_at(flat, m)
        table.append((_sensing_state(kh, ka), profile, RewardBreakdown(
            attacker, honest, announced[kh + profile.busy_reports],
            rank != 0)))
    return table


def expected_slot_rewards(params: ScenarioParams | HeteroParams,
                          include_direct_punishment: bool,
                          honest: bool = False) -> tuple[float, float]:
    """Slot-stationary expectation of (attacker aggregate, honest per-SU)
    under the best response, or under honest behavior when honest=True.

    For a heterogeneous attacker only the first value is meaningful: the
    second prices honest SUs at the attacker's rate.  Within 1e-13 * S of
    the exact weighting for N <= 24, S weighting the absolute rewards.
    """
    _, best, tensors = best_profiles(params, include_direct_punishment)
    chosen = np.zeros_like(best) if honest else best
    weights = _ranked(*_scenario_fields(params))[5]
    # fsum rounds once, so no bit depends on numpy's reduction order
    att, hon = (math.fsum((weights * _pick(t, chosen)).ravel().tolist())
                for t in (tensors.attacker, tensors.honest))
    return att, hon


def lone_sensing_value(attacker_busy: int, params: ScenarioParams) -> float:
    """Unit-rate aggregate value of all M attackers transmitting on their
    own pooled sensing, collaboration terminated: a grab with no busy
    announcement, so no direct charge, on the group-size-M posterior."""
    m = params.n_attackers
    post = posterior.posterior_idle(m, attacker_busy, params)
    return _grab_reward(post.p_idle_given_reports, post.p_busy_given_reports,
                        m, params.cp_rate1, 0.0, 1.0)


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
