"""Explicit MDP for the collaboration-termination game.

Pre-punishment states are the (honest busy, attacker busy) splits; the
post-punishment states keep only the attackers' own count, with the flag
absorbing.  Solving this model is the behavioral cross-check for the
closed forms in the indirect module: both must produce the same numbers
from entirely different computations.

The action axis of a pre-punishment state is oneshot.action_order, the
one-shot tie-break: the honest-equivalent profile first.  Actions of
equal value produce bit-identical rows, so a first-wins argmax
reproduces the one-shot tie-breaking exactly.

The solver works on action ranks, positions in a state's action order.
ActionProfile objects and Policy dicts are built only at the API edge:
actions_per_state on first access, a policy once per solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oneshot, posterior
from .model import ScenarioParams
from .oneshot import ActionProfile

StateKey = tuple  # ("pre", honest_busy, attacker_busy) | ("post", attacker_busy)
Action = ActionProfile | int  # pre: report/transmit profile; post: transmitter count


@dataclass(frozen=True, eq=False)
class MdpModel:
    params: ScenarioParams
    states: tuple[StateKey, ...]
    order: np.ndarray       # (n_pre, A) flat profiles b*(M+1) + M_T by rank
    split: np.ndarray       # (n_pre,) sensing-split pmf of every slot
    alone: np.ndarray       # (M+1,) attackers-alone busy-count pmf
    transition: np.ndarray  # (max_actions, n_states, n_states)
    reward: np.ndarray      # (max_actions, n_states), -inf where padded
    discount: float

    @property
    def n_pre(self) -> int:
        return (self.params.n_honest + 1) * (self.params.n_attackers + 1)

    @property
    def post_order(self) -> np.ndarray:
        """Transmitter counts of a post-punishment state by rank: wait
        first, then counts high to low."""
        m = self.params.n_attackers
        return np.array([0, *range(m, 0, -1)])

    def actions_at(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flat profile of every pre state, transmitter count of every
        post state) at the given per-state action ranks."""
        n_pre = self.n_pre
        return (self.order[np.arange(n_pre), ranks[:n_pre]],
                self.post_order[ranks[n_pre:]])

    @functools.cached_property
    def actions_per_state(self) -> tuple[tuple[Action, ...], ...]:
        """Every state's actions in rank order, built on first access."""
        m = self.params.n_attackers
        pre = [tuple(oneshot.profile_at(f, m) for f in row)
               for row in self.order.tolist()]
        return tuple(pre + [tuple(self.post_order.tolist())] * (m + 1))


Policy = dict  # StateKey -> Action
MAX_SOLVES = 1000  # policy iteration needs a handful; this only stops a cycle


def build_mdp(params: ScenarioParams) -> MdpModel:
    """Assemble states, per-state action orders, transitions and rewards.

    Sensing is independent across slots, so every pre-to-pre row is the
    same split distribution and every row into punishment is the
    attackers-alone count distribution; only the trigger probability
    (busy posterior when they transmit through a busy announcement)
    depends on the current state and action.
    """
    m, rate = params.n_attackers, params.total_rate
    pre_states = [("pre", kh, ka)
                  for kh in range(params.n_honest + 1) for ka in range(m + 1)]
    post_states = [("post", ka) for ka in range(m + 1)]
    states = tuple(pre_states + post_states)
    n_pre, n_states = len(pre_states), len(states)

    split = np.array([posterior.report_split_pmf(kh, ka, params)
                      for _, kh, ka in pre_states])
    alone = np.array([posterior.report_count_pmf(m, ka, params)
                      for ka in range(m + 1)])

    # pre-punishment [action, state] arrays in each state's action order
    order = oneshot.action_order(params).reshape(n_pre, -1)
    tensors = oneshot.reward_tensors(params, False)
    pre_reward, trigger = (np.take_along_axis(t.reshape(n_pre, -1), order, 1).T
                           for t in (tensors.attacker, tensors.trigger))
    max_actions, n_post_acts = order.shape[1], m + 1

    transition = np.zeros((max_actions, n_states, n_states))
    reward = np.full((max_actions, n_states), -math.inf)
    reward[:, :n_pre] = pre_reward
    transition[:, :n_pre, :n_pre] = (1.0 - trigger)[:, :, None] * split
    transition[:, :n_pre, n_pre:] = trigger[:, :, None] * alone
    reward[0, n_pre:] = 0.0  # wait
    reward[1:n_post_acts, n_pre:] = [rate * oneshot.lone_sensing_value(ka, params)
                                     for ka in range(m + 1)]
    transition[:n_post_acts, n_pre:, n_pre:] = alone
    post = np.arange(n_pre, n_states)
    transition[n_post_acts:, post, post] = 1.0  # padded action: self-loop, -inf reward
    return MdpModel(params, states, order, split, alone, transition, reward,
                    params.discount)


def bellman_backup(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """One optimality sweep: per state, best action value."""
    q = model.reward + model.discount * (model.transition @ values)
    return q.max(axis=0)


def _solve(model: MdpModel, idx: list | np.ndarray) -> tuple[np.ndarray, float]:
    """(v / scale, scale) for the policy taking action idx[s] in state s:
    (I - d*T_pi) v = r_pi solved in power-of-two units, exact for an
    in-range v and finite for one past the float range."""
    rows = np.arange(len(model.states))
    r_pi = model.reward[idx, rows]
    scale = 2.0 ** math.frexp(float(np.max(np.abs(r_pi))))[1]
    system = np.eye(len(rows)) - model.discount * model.transition[idx, rows]
    return np.linalg.solve(system, r_pi / scale), scale


def optimal_ranks(model: MdpModel, tolerance: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Optimal values and each state's optimal action rank, by Howard
    policy iteration.

    From the honest policy (rank 0), each exactly valued policy moves a
    state to its first-wins greedy action only on strict improvement.  The
    values are exact, so they meet any tolerance > 0; the ranks are the
    first-wins argmax of the final action values.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    rows = np.arange(len(model.states))
    idx = np.zeros(len(rows), dtype=np.intp)
    for _ in range(MAX_SOLVES):
        scaled, scale = _solve(model, idx)
        q = model.reward / scale + model.discount * (model.transition @ scaled)
        greedy = q.argmax(axis=0)
        better = q[greedy, rows] > q[idx, rows]
        if not better.any():
            return scaled * scale, greedy
        idx = np.where(better, greedy, idx)
    raise ValueError(
        f"policy iteration did not converge in {MAX_SOLVES} solves")


def _policy(model: MdpModel, ranks: np.ndarray) -> Policy:
    # the Policy dict taking action ranks[s] in every state s
    m = model.params.n_attackers
    flat, post = model.actions_at(ranks)
    acts = [oneshot.profile_at(f, m) for f in flat.tolist()]
    return dict(zip(model.states, acts + post.tolist()))


def value_iteration(model: MdpModel, tolerance: float
                    ) -> tuple[np.ndarray, Policy]:
    """Optimal values and policy: optimal_ranks' ranks as a Policy."""
    values, ranks = optimal_ranks(model, tolerance)
    return values, _policy(model, ranks)


def _is_count(x: object, m: int) -> bool:
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and 0 <= x <= m)


def _ranks(model: MdpModel, policy: Policy) -> np.ndarray:
    # each state's action rank under policy; ValueError names the first
    # state whose action is missing or not one of its actions
    m, n_pre = model.params.n_attackers, model.n_pre
    codes = []
    for si, s in enumerate(model.states):
        if s not in policy:
            raise ValueError(f"policy has no action for state {s}")
        a = policy[s]
        if si >= n_pre:
            if not _is_count(a, m):
                raise ValueError(f"policy action {a!r} in state {s} is not "
                                 f"a transmitter count in [0, {m}]")
            codes.append(a)
        elif (isinstance(a, ActionProfile) and _is_count(a.busy_reports, m)
              and _is_count(a.transmitters, m)):
            codes.append(a.busy_reports * (m + 1) + a.transmitters)
        else:
            raise ValueError(f"policy action {a!r} in state {s} is not an "
                             f"ActionProfile with counts in [0, {m}]")
    codes = np.array(codes)
    return np.concatenate([
        (model.order == codes[:n_pre, None]).argmax(axis=1),
        (model.post_order == codes[n_pre:, None]).argmax(axis=1)])


def policy_value(model: MdpModel, policy: Policy) -> np.ndarray:
    """Fixed-policy value, solving (I - d*T_pi) v = r_pi directly.

    Raises ValueError naming the state when policy misses a state or maps
    it to something that is not one of its actions.
    """
    scaled, scale = _solve(model, _ranks(model, policy))
    return scaled * scale


def honest_policy(model: MdpModel) -> Policy:
    """Every pre state's honest-equivalent profile (its rank 0); wait
    after termination."""
    m = model.params.n_attackers
    pre = [oneshot.profile_at(f, m)
           for f in oneshot.honest_flat(model.params).ravel().tolist()]
    return dict(zip(model.states, pre + [0] * (m + 1)))


def threshold_policy(model: MdpModel, z: int) -> Policy:
    """Attack when at most z sensors saw busy, else report busy and wait;
    after termination transmit exactly when the lone-sensing value is
    positive."""
    params = model.params
    m = params.n_attackers
    out: Policy = {}
    for s in model.states:
        if s[0] == "pre":  # s = ("pre", kh, ka)
            out[s] = ActionProfile(max(s[2], 1), m if s[1] + s[2] <= z else 0)
        else:
            out[s] = m if oneshot.lone_sensing_pays(s[1], params) else 0
    return out


def start_distribution(model: MdpModel) -> np.ndarray:
    """Slot-stationary weights over pre-punishment states (zero on post)."""
    return np.concatenate([model.split,
                           np.zeros(len(model.states) - model.n_pre)])


def start_value(model: MdpModel, values: np.ndarray) -> float:
    return float(start_distribution(model) @ values)


def verify_threshold_structure(model: MdpModel
                               ) -> tuple[bool, StateKey | None]:
    """Check the optimal attack set is downward-closed in total busy count.

    Returns (True, None), or (False, s) where s declines to attack while
    some state with at least as many busy sensors attacks.
    """
    _, ranks = optimal_ranks(model, 1e-10)
    pre = model.states[:model.n_pre]
    attacked = dict(zip(pre, (ranks[:model.n_pre] != 0).tolist()))
    max_attack_k = max((s[1] + s[2] for s in pre if attacked[s]), default=-1)
    for s in pre:
        if not attacked[s] and s[1] + s[2] <= max_attack_k:
            return False, s
    return True, None
