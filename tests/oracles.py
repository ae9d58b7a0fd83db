"""Scalar references that the package's vectorized paths are tested against.

evaluate_profile prices one slot of one state and profile with plain
Python arithmetic, the reference that oneshot._price's tensors are held
to bit for bit, and honest_equivalent_profile is the profile at rank 0
of oneshot.action_order.  check_condition_i_semantics holds
fusion.condition_i_bounds' log-space region test to the sensor-level
signs of transmitting.

run_slot plays one slot at a time, with plain Python arithmetic, by the
rules of both phases, collaboration and the terminated phase after the
indirect trigger, that sim._outcome_grid tabulates per cell: it prices
a slot as evaluate_profile prices a state, in oneshot._price's float
order, with the channel known.
settle_cells applies those rules to whole blocks of cells: every slot
after a row's first exclusive hit takes its cell in the grid's
terminated half.  settled_cells settles the cells of numpy's own
samplers' draws (sim._binomial_draws, sim._cells), independent of the
inversion cut tables through which sim._settle settles keys.
test_scalar_and_vector_paths_agree replays numpy's draws through
run_slot: it pins every field of run_trace, and settle_cells' rewards,
collision flags and trigger slot of every replication of a block.
block_reduction reduces settled cells through each row's cell counts,
one row at a time, and counts collisions by gathering: sim._run_block,
which never forms its inversion rows' cells, is held to it.

full_action_order and full_reward_tensors order and price all (M+1)^2
profiles of every state, where the package keeps each state's 2(M+1)
candidates; full_best_profiles and full_order_mdp are best_profiles and
build_mdp over that whole grid.  tensor_attack_scan is
oneshot.attack_scan on the full ranked reward tensor: each call re-prices
every grab entry and takes the first maximum in full_action_order, where
the package compares one grab reward per state.

dense_arrays builds the termination-game MDP explicitly, as a transition
tensor and reward matrix over every state and action, and bellman_backup
sweeps it; exact_policy_values values a policy in exact rationals.  The
package solves the same model on two renewal scalars and builds neither.

The exact_* references redo the report-count distributions and the
values built from them in fractions.Fraction arithmetic on the
scenario's own float fields, each of which is a dyadic rational.  Each
returns the exact value with its scale S: the same expression summed
over absolute values, the measure a float path's rounding error is
bounded by even where the value itself cancels.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from coopsense import posterior
from coopsense.fusion import Announcement, Region, condition_i_bounds
from coopsense.mdp import MdpModel, build_mdp
from coopsense.model import HeteroParams, ScenarioParams
from coopsense.oneshot import (ActionProfile, RewardBreakdown, RewardTensors,
                               SensingState, _check_state, _every_state,
                               _grab_reward, _posteriors, _pick, best_profiles)
from coopsense.sim import (_ONE_BITS, INVERSION_LIMIT, PolicyTables,
                           SimConfig, SlotTrace, _binomial_draws,
                           _busy_probabilities, _cells, _float_of_bits,
                           _inversion_count, _inversion_start,
                           _reward_constants)


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


def check_condition_i_semantics(params: ScenarioParams) -> bool:
    """Self-consistency of the region test against the sensor-level signs.

    The region membership must coincide with: transmitting on a unanimous
    idle vote pays, transmitting after one busy report does not.  A single
    busy report suffices on the failing side because the expected reward is
    decreasing in the busy count.
    """
    n = params.n_total
    cp = params.cp_rate1
    within = condition_i_bounds(params).region is Region.II
    post0 = posterior.posterior_idle(n, 0, params)
    post1 = posterior.posterior_idle(n, 1, params)
    unanimous_pays = post0.p_idle_given_reports / n - post0.p_busy_given_reports * cp > 0.0
    one_busy_pays = post1.p_idle_given_reports / n - post1.p_busy_given_reports * cp > 0.0
    return within == (unanimous_pays and not one_busy_pays)


@dataclass
class SlotRuntime:
    """Mutable per-episode state threaded through run_slot."""

    config: SimConfig
    tables: PolicyTables
    punishment_on: bool = False


def run_slot(rng: np.random.Generator, runtime: SlotRuntime) -> SlotTrace:
    """One slot, scalar path: sense, report, fuse, transmit, settle.

    Draws channel, honest count and attacker count in turn each slot; a
    replay generator hands it the block draws of one replication.  The
    rewards are evaluate_profile's, in its float order, on the realized
    channel: (P(idle), P(busy)) is (1, -0.0) or (-0.0, 1), the signed
    zero giving a zero reward the sign of its charge.  The attackers'
    reward is at their rate and one honest SU's at the honest rate, each
    with the charges converted to that rate; the per-SU penalty is the
    charge itself.
    """
    config = runtime.config
    r_att, r_hon, cp, cb, m, n_h = _reward_constants(config)
    idle = rng.random() < config.params.base.p_idle
    honest, attacker = _busy_probabilities(config)
    kh = int(rng.binomial(n_h, honest[0] if idle else honest[1]))
    ka = int(rng.binomial(m, attacker[0] if idle else attacker[1]))
    pi, pb = (1.0, -0.0) if idle else (-0.0, 1.0)

    if runtime.punishment_on:
        # lone sensing: a grab with no busy announcement, so no direct charge
        pmt = int(runtime.tables.post_transmit[ka])
        collision = (not idle) and pmt >= 1
        att = r_att * (pi - m * pb * (cp / r_att + 0.0)) if pmt >= 1 else 0.0
        return SlotTrace(not idle, kh, ka, None, pmt, collision, att,
                         0.0, 0.0, True)

    b = int(runtime.tables.b[kh, ka])
    mt = int(runtime.tables.transmit[kh, ka])
    announced = kh >= 1 or b >= 1
    t_total = mt if announced else n_h + mt
    collision = (not idle) and t_total >= 1
    cp_att, cb_att = cp / r_att, cb / r_att
    cp_hon, cb_hon = cp / r_hon, cb / r_hon
    penalty = 0.0
    if announced and mt >= 1:
        att = r_att * (pi - m * pb * (cp_att + cb_att))
        hon = r_hon * (-pb * (cp_hon + cb_hon))
        penalty = 0.0 if idle else cp + cb
        if config.punishment_mode == "indirect" and not idle:
            runtime.punishment_on = True
    elif announced:
        att = hon = 0.0
    else:
        share = pi / (n_h + mt)
        att = r_att * (mt * share - m * pb * cp_att)
        hon = r_hon * (share - pb * cp_hon)
        penalty = 0.0 if idle else cp
    return SlotTrace(not idle, kh, ka,
                     Announcement.H1 if announced else Announcement.H0,
                     t_total, collision, att, hon, penalty,
                     runtime.punishment_on)


def bisected_inversion_table(n: int, p: float
                             ) -> tuple[np.ndarray, np.ndarray] | None:
    """sim._inversion_table by a full-range bisection per cut: cut k is
    the largest double below 1.0 whose inversion count is at most k,
    bisected over every bit pattern from the previous cut to 1.0."""
    if n == 0 or p == 0.0:
        return None
    flip = p > 0.5
    p_inv = 1.0 - p if flip else p
    if p_inv * n > INVERSION_LIMIT:
        return None
    bound = _inversion_start(n, p_inv)[2]
    cuts = []
    lo = 0  # bits of 0.0, whose count is 0
    for k in range(bound + 1):
        hi = _ONE_BITS  # uniforms lie below 1.0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _inversion_count(_float_of_bits(mid), n, p_inv) <= k:
                lo = mid
            else:
                hi = mid
        cuts.append(_float_of_bits(lo))
    counts = np.arange(bound + 2)
    if flip:
        counts = n - counts
    counts[-1] = -1
    return np.array(cuts), counts


def settle_cells(cell: np.ndarray, config: SimConfig,
                 grid: tuple[np.ndarray, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A (rows x horizon) block of collaborating _outcome_grid cells as
    they settle, and each row's punishment trigger slot (-1 when none).
    Under indirect punishment every slot after a row's first exclusive
    hit takes its cell in the grid's terminated half, in place."""
    if config.punishment_mode != "indirect":
        return cell, np.full(cell.shape[0], -1)
    rows, horizon = cell.shape
    exclusive_hit = grid[3][cell]
    first = np.argmax(exclusive_hit, axis=1)  # 0 in a row with no hit
    triggered = exclusive_hit[np.arange(rows), first]
    after = np.arange(horizon) > np.where(triggered, first, horizon)[:, None]
    np.add(cell, len(grid[3]) // 2, out=cell, where=after)
    return cell, np.where(triggered, first, -1)


def settled_cells(config: SimConfig, words: np.ndarray,
                  grid: tuple[np.ndarray, ...]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each slot's idle flag and settled cell, and each row's trigger
    slot, in the replication streams whose sim._stream_words rows are
    words: numpy's own samplers' draws, settled by settle_cells."""
    idle, kh, ka = _binomial_draws(config, words)
    return (idle, *settle_cells(_cells(idle, kh, ka, config), config, grid))


def block_reduction(cell: np.ndarray, idle: np.ndarray,
                    grid: tuple[np.ndarray, ...], weights: np.ndarray
                    ) -> tuple:
    """sim._run_block's reduction of a block's settled cells through each
    row's cell counts, one row at a time: per-row means as the counts
    times the attacker and honest columns summed in grid order, weighted
    sums over the weights' prefix, then the collision count by gathering
    the collision column over every slot and the busy-slot count."""
    att, hon, collision = grid[:3]
    counts = np.array([np.bincount(row, minlength=len(att)) for row in cell])
    horizon, prefix = cell.shape[1], len(weights)
    return ((counts * att).sum(axis=1) / horizon,
            (counts * hon).sum(axis=1) / horizon,
            (att[cell[:, :prefix]] * weights).sum(axis=1),
            (hon[cell[:, :prefix]] * weights).sum(axis=1),
            int(np.count_nonzero(collision[cell])),
            idle.size - int(np.count_nonzero(idle)))


def full_action_order(params: ScenarioParams) -> np.ndarray:
    """All (M+1)^2 profiles of every state in tie-break order, as flat
    indices b*(M+1) + M_T, indexed [honest_busy, attacker_busy, rank]:
    the honest-equivalent profile, then least report distortion
    |b - attacker_busy|, then most transmitters, then fewest busy
    reports.  oneshot.action_order is this order restricted to each
    state's candidates."""
    m = params.n_attackers
    flat = np.arange((m + 1) ** 2)
    b, mt = np.divmod(flat, m + 1)
    kh = np.arange(params.n_honest + 1)[:, None, None]
    ka = np.arange(m + 1)[:, None]
    key = (np.abs(b - ka) * (m + 1) + m - mt) * (m + 1) + b
    # honest_equivalent_profile: (ka, 0), or (0, M) when all sensed idle
    honest = ka * (m + 1) + np.where(kh + ka == 0, m, 0)
    return np.argsort(np.where(flat == honest, -1, key), axis=-1)


def _full_grid(n_h: int, m: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # M_T, the busy announcement and the grab mask, broadcast over
    # [honest_busy, attacker_busy, b, M_T]
    kh = np.arange(n_h + 1)[:, None, None, None]
    b = np.arange(m + 1)[:, None]
    mt = np.arange(m + 1)
    announced_busy = (kh >= 1) | (b >= 1)
    return mt, announced_busy, announced_busy & (mt >= 1)


def full_reward_tensors(params: ScenarioParams | HeteroParams,
                        include_direct_punishment: bool) -> RewardTensors:
    """oneshot._price's expression over every profile, indexed
    [honest_busy, attacker_busy, b, M_T]."""
    group = params.base
    n_h, m = group.n_honest, group.n_attackers
    pi, pb, rate = _posteriors(params, *_every_state(params.base))
    pi, pb = pi[..., None], pb[..., None]
    cp = group.collision_penalty / rate
    cb = group.direct_punishment / rate if include_direct_punishment else 0.0
    mt, announced_busy, grab = _full_grid(n_h, m)
    share = pi / (n_h + mt)
    attacker = np.where(grab, _grab_reward(pi, pb, m, cp, cb, rate),
                        rate * np.where(announced_busy, 0.0,
                                        mt * share - m * pb * cp))
    honest = np.where(grab, -pb * (cp + cb),
                      np.where(announced_busy, 0.0, share - pb * cp))
    return RewardTensors(attacker, rate * honest, np.where(grab, pb, 0.0))


def _full_rank(table: np.ndarray, order: np.ndarray) -> np.ndarray:
    # table's profile axes flattened and put in full_action_order
    return np.take_along_axis(table.reshape(order.shape), order, axis=-1)


def full_best_profiles(params: ScenarioParams | HeteroParams,
                       include_direct_punishment: bool
                       ) -> tuple[np.ndarray, np.ndarray, RewardTensors]:
    """(full_action_order, flat index of every state's best response,
    full_reward_tensors): the first maximum of the attackers' aggregate
    reward over every profile."""
    order = full_action_order(params.base)
    tensors = full_reward_tensors(params, include_direct_punishment)
    best = _full_rank(tensors.attacker, order).argmax(axis=-1)
    return order, _pick(order, best), tensors


def full_order_mdp(params: ScenarioParams) -> MdpModel:
    """build_mdp with every pre state's (M+1)^2 profiles in
    full_action_order, priced by full_reward_tensors."""
    model = build_mdp(params)
    order = full_action_order(params).reshape(model.n_pre, -1)
    tensors = full_reward_tensors(params, False)
    reward, trigger = (np.take_along_axis(t.reshape(model.n_pre, -1), order, 1)
                       for t in (tensors.attacker, tensors.trigger))
    return dataclasses.replace(model, order=order, reward=reward,
                               trigger=trigger)


def tensor_attack_scan(params: ScenarioParams) -> Callable[[float], bool]:
    """attacked(C_b) of oneshot.attack_scan, from the full ranked tensor:
    the grab entries recomputed with oneshot._price's expression, every
    other entry fixed, and an attack wherever argmax is not rank 0."""
    m = params.n_attackers
    order = full_action_order(params)
    pi, pb, rate = _posteriors(params, *_every_state(params))
    cp = params.collision_penalty / rate
    attacker = full_reward_tensors(params, False).attacker
    fixed = _full_rank(attacker, order)
    grab = _full_rank(np.broadcast_to(_full_grid(params.n_honest, m)[2],
                                      attacker.shape), order)

    def attacked(direct_punishment: float) -> bool:
        grabbed = _grab_reward(pi, pb, m, cp, direct_punishment / rate, rate)
        ranked = np.where(grab, grabbed, fixed)
        return bool((ranked.argmax(axis=-1) != 0).any())

    return attacked


def dense_arrays(model: MdpModel) -> tuple[np.ndarray, np.ndarray]:
    """(transition, reward) of the explicit MDP: (A, S, S) and (A, S).

    A pre row is (1-t)*split into the pre states plus t*alone into the
    post states; every post action's row is alone.  Post states have
    fewer actions than A; a padded action loops on its state at -inf
    reward, so no maximum ever picks it.
    """
    n_pre, n_states = model.n_pre, len(model.states)
    max_actions, n_post_acts = model.order.shape[1], len(model.post_reward)
    transition = np.zeros((max_actions, n_states, n_states))
    reward = np.full((max_actions, n_states), -math.inf)
    reward[:, :n_pre] = model.reward.T
    trigger = model.trigger.T
    transition[:, :n_pre, :n_pre] = (1.0 - trigger)[:, :, None] * model.split
    transition[:, :n_pre, n_pre:] = trigger[:, :, None] * model.alone
    reward[0, n_pre:] = 0.0  # wait
    reward[1:n_post_acts, n_pre:] = model.post_reward
    transition[:n_post_acts, n_pre:, n_pre:] = model.alone
    post = np.arange(n_pre, n_states)
    transition[n_post_acts:, post, post] = 1.0
    return transition, reward


def bellman_backup(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """One optimality sweep of the explicit MDP: per state, best action
    value."""
    transition, reward = dense_arrays(model)
    return (reward + model.discount * (transition @ values)).max(axis=0)


def exact_policy_values(model: MdpModel, ranks: np.ndarray) -> list[Fraction]:
    """Every state's value under the policy taking rank ranks[s] in state
    s, in exact rationals over the model's float arrays and discount.

    w = alone.r_post / (1-d) and x = (R + d*T*w) / ((1-d) + d*T), with R
    and T the split means of the policy's rewards and triggers; a pre
    state is worth r + d*((1-t)*x + t*w) and a post state r_post + d*w.
    """
    n_pre, d = model.n_pre, Fraction(model.discount)
    r = [Fraction(model.reward[s, ranks[s]]) for s in range(n_pre)]
    t = [Fraction(model.trigger[s, ranks[s]]) for s in range(n_pre)]
    r_post = [Fraction(g) if a > 0 else Fraction(0)
              for g, a in zip(model.post_reward.tolist(),
                              ranks[n_pre:].tolist())]
    split = [Fraction(p) for p in model.split.tolist()]
    alone = [Fraction(p) for p in model.alone.tolist()]
    w = sum(p * g for p, g in zip(alone, r_post)) / (1 - d)
    mean_r = sum(p * v for p, v in zip(split, r))
    mean_t = sum(p * v for p, v in zip(split, t))
    x = (mean_r + d * mean_t * w) / ((1 - d) + d * mean_t)
    return ([rs + d * ((1 - ts) * x + ts * w) for rs, ts in zip(r, t)]
            + [g + d * w for g in r_post])


def _binomial(n: int, k: int, p: Fraction) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def exact_count_masses(n: int, params: ScenarioParams
                       ) -> list[tuple[Fraction, Fraction]]:
    """(Pr[idle and count=k], Pr[busy and count=k]) for k = 0..n busy
    decisions among n sensors.  Every mass is its own scale."""
    p_i, p_f, p_m = (Fraction(x) for x in (
        params.p_idle, params.p_false_alarm, params.p_missed_detection))
    return [(p_i * _binomial(n, k, p_f), (1 - p_i) * _binomial(n, k, 1 - p_m))
            for k in range(n + 1)]


def exact_cell_pmf(params: ScenarioParams | HeteroParams) -> list[Fraction]:
    """Pr[channel, honest busy count kh, attacker busy count ka] of every
    cell of sim._outcome_grid's collaborating half, in its order (the
    busy channel first); a heterogeneous attacker is a group of one at its
    own rates."""
    base = params.base
    n_h, m = base.n_honest, base.n_attackers
    p_i, p_f, p_m = (Fraction(x) for x in (
        base.p_idle, base.p_false_alarm, base.p_missed_detection))
    if isinstance(params, HeteroParams):
        p_fa = Fraction(params.p_false_alarm_attacker)
        p_ma = Fraction(params.p_missed_detection_attacker)
    else:
        p_fa, p_ma = p_f, p_m
    return [p_c * _binomial(n_h, kh, p_h) * _binomial(m, ka, p_a)
            for p_c, p_h, p_a in ((1 - p_i, 1 - p_m, 1 - p_ma),
                                  (p_i, p_f, p_fa))
            for kh in range(n_h + 1) for ka in range(m + 1)]


def exact_split_pmf(params: ScenarioParams | HeteroParams
                    ) -> list[list[Fraction]]:
    """Pr[honest busy count kh, attacker busy count ka], indexed [kh][ka]:
    exact_cell_pmf's two channel halves summed."""
    cells = exact_cell_pmf(params)
    width = params.base.n_attackers + 1
    both = [busy + idle for busy, idle in zip(cells, cells[len(cells) // 2:])]
    return [both[start:start + width]
            for start in range(0, len(cells) // 2, width)]


def _cp_rate1(params: ScenarioParams) -> Fraction:
    return Fraction(params.collision_penalty) / Fraction(params.total_rate)


def exact_lr_honest(params: ScenarioParams) -> tuple[Fraction, Fraction]:
    """(value, scale) of lr_honest: rate * M * (m_idle/N - c_p*m_busy)
    / (1-d) at the unanimous idle vote."""
    n, m = params.n_total, params.n_attackers
    idle, busy = exact_count_masses(n, params)[0]
    cp = _cp_rate1(params)
    factor = Fraction(params.total_rate) * m / (1 - Fraction(params.discount))
    return (factor * (idle / n - cp * busy),
            factor * (idle / n + cp * busy))


def exact_lr_dishonest(params: ScenarioParams, z: int
                       ) -> tuple[Fraction, Fraction]:
    """(value, scale) of attacking whenever at most z sensors say busy:
    rate * (R + d/(1-d)*T*w) / (1 - d*(1-T)), with R and T the reward and
    trigger mass of counts 0..z and w the attackers' lone-sensing gain."""
    n, m = params.n_total, params.n_attackers
    cp, d = _cp_rate1(params), Fraction(params.discount)
    masses = exact_count_masses(n, params)[:z + 1]
    reward = sum(idle - m * cp * busy for idle, busy in masses)
    reward_abs = sum(idle + m * cp * busy for idle, busy in masses)
    trigger = sum(busy for _, busy in masses)
    w = sum(max(idle - m * cp * busy, Fraction(0))
            for idle, busy in exact_count_masses(m, params))
    factor = Fraction(params.total_rate) / (1 - d * (1 - trigger))
    tail = d / (1 - d) * trigger * w
    return factor * (reward + tail), factor * (reward_abs + tail)


def exact_slot_rewards(params: ScenarioParams | HeteroParams,
                       include_direct_punishment: bool, honest: bool
                       ) -> tuple[tuple[Fraction, Fraction],
                                  tuple[Fraction, Fraction]]:
    """((value, scale) of the attacker aggregate, (value, scale) of the
    honest per-SU reward) of expected_slot_rewards: exact split weights
    over the package's float reward tensor and chosen profiles."""
    _, best, tensors = best_profiles(params, include_direct_punishment)
    chosen = np.zeros_like(best) if honest else best
    weights = exact_split_pmf(params)
    out = []
    for table in (tensors.attacker, tensors.honest):
        picked = _pick(table, chosen).tolist()
        terms = [w * Fraction(r) for w_row, r_row in zip(weights, picked)
                 for w, r in zip(w_row, r_row)]
        out.append((sum(terms), sum(abs(t) for t in terms)))
    return out[0], out[1]


def _idle_odds(group_size: int, params: ScenarioParams) -> Fraction:
    """p_I/(1-p_I) * ((1-P_f)/P_m)^n: the idle odds after n sensors all
    decide idle."""
    p_i, p_f, p_m = (Fraction(x) for x in (
        params.p_idle, params.p_false_alarm, params.p_missed_detection))
    return p_i / (1 - p_i) * ((1 - p_f) / p_m) ** group_size


def _q(params: ScenarioParams) -> Fraction:
    # the odds factor one busy decision takes away
    p_f, p_m = Fraction(params.p_false_alarm), Fraction(params.p_missed_detection)
    return p_f * p_m / ((1 - p_f) * (1 - p_m))


def exact_direct_constraints(m_attackers: int, params: ScenarioParams
                             ) -> dict[str, tuple[Fraction, Fraction]]:
    """(value, scale) of each per_constraint_values entry of
    direct_threshold(m_attackers, params), with pref the rate times the
    all-idle odds of N sensors: all-idle pref*(1/M - 1/N) and single-busy
    pref*q/M - C_p."""
    n, m = params.n_total, m_attackers
    pref = _idle_odds(n, params) * Fraction(params.total_rate)
    busy = pref * _q(params) / m
    cp = Fraction(params.collision_penalty)
    return {"all_idle_deviation": (pref * (Fraction(1, m) - Fraction(1, n)),
                                   pref * (Fraction(1, m) + Fraction(1, n))),
            "single_busy_transmission": (busy - cp, busy + cp)}


def exact_direct_constraints_hetero(hparams: HeteroParams
                                    ) -> dict[str, tuple[Fraction, Fraction]]:
    """(value, scale) of each per_constraint_values entry of
    direct_threshold_hetero, with pref the attacker's rate times the
    all-idle odds of the N-1 honest sensors: all-idle
    pref*(1-P_fa)/P_ma*(N-1)/N, own-busy pref*P_fa/(1-P_ma) - C_p and
    honest-busy pref*q*(1-P_fa)/P_ma - C_p."""
    base = hparams.base
    n = base.n_total
    p_fa = Fraction(hparams.p_false_alarm_attacker)
    p_ma = Fraction(hparams.p_missed_detection_attacker)
    pref = _idle_odds(n - 1, base) * Fraction(hparams.rate_attacker)
    own_idle = pref * (1 - p_fa) / p_ma
    own_busy = pref * p_fa / (1 - p_ma)
    honest_busy = own_idle * _q(base)
    cp = Fraction(base.collision_penalty)
    return {"all_idle_deviation": (own_idle * Fraction(n - 1, n),) * 2,
            "own_busy_transmission": (own_busy - cp, own_busy + cp),
            "honest_busy_transmission": (honest_busy - cp, honest_busy + cp)}
