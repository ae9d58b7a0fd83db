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
"""

from __future__ import annotations

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
    actions_per_state: tuple[tuple[Action, ...], ...]
    transition: np.ndarray  # (max_actions, n_states, n_states)
    reward: np.ndarray      # (max_actions, n_states), -inf where padded
    discount: float

    @property
    def n_pre(self) -> int:
        return (self.params.n_honest + 1) * (self.params.n_attackers + 1)


Policy = dict  # StateKey -> Action
MAX_SOLVES = 1000  # policy iteration needs a handful; this only stops a cycle


def build_mdp(params: ScenarioParams) -> MdpModel:
    """Assemble states, per-state ordered actions, transitions and rewards.

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
    post_acts = (0, *range(m, 0, -1))  # wait first, then counts high to low
    actions: list[tuple[Action, ...]] = [
        tuple(oneshot.profile_at(f, m) for f in row) for row in order.tolist()]
    actions.extend([post_acts] * len(post_states))
    max_actions, n_post_acts = order.shape[1], len(post_acts)

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
    return MdpModel(params, states, tuple(actions), transition, reward,
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


def value_iteration(model: MdpModel, tolerance: float
                    ) -> tuple[np.ndarray, Policy]:
    """Optimal values and policy, by Howard policy iteration.

    From the honest policy (action 0), each exactly valued policy moves a
    state to its first-wins greedy action only on strict improvement.  The
    values are exact, so they meet any tolerance > 0; the policy is the
    first-wins argmax of the final action values.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    rows = np.arange(len(model.states))
    idx = np.zeros(len(rows), dtype=np.intp)
    for _ in range(MAX_SOLVES):
        scaled, scale = _solve(model, idx)
        q = model.reward / scale + model.discount * (model.transition @ scaled)
        greedy = q.argmax(axis=0)
        better = q[greedy, rows] > q[idx, rows]
        if not better.any():
            policy = {s: model.actions_per_state[si][greedy[si]]
                      for si, s in enumerate(model.states)}
            return scaled * scale, policy
        idx = np.where(better, greedy, idx)
    raise ValueError(
        f"policy iteration did not converge in {MAX_SOLVES} solves")


def policy_value(model: MdpModel, policy: Policy) -> np.ndarray:
    """Fixed-policy value, solving (I - d*T_pi) v = r_pi directly."""
    scaled, scale = _solve(model, [acts.index(policy[s]) for s, acts
                                   in zip(model.states, model.actions_per_state)])
    return scaled * scale


def honest_policy(model: MdpModel) -> Policy:
    # every state's first action is its honest one
    return {s: acts[0] for s, acts in zip(model.states, model.actions_per_state)}


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
    split = [posterior.report_split_pmf(kh, ka, model.params)
             for _, kh, ka in model.states[:model.n_pre]]
    return np.concatenate([split, np.zeros(len(model.states) - model.n_pre)])


def start_value(model: MdpModel, values: np.ndarray) -> float:
    return float(start_distribution(model) @ values)


def verify_threshold_structure(model: MdpModel
                               ) -> tuple[bool, StateKey | None]:
    """Check the optimal attack set is downward-closed in total busy count.

    Returns (True, None), or (False, s) where s declines to attack while
    some state with at least as many busy sensors attacks.
    """
    _, policy = value_iteration(model, 1e-10)
    pre = model.states[:model.n_pre]
    attacked = {s: policy[s] != acts[0]
                for s, acts in zip(pre, model.actions_per_state)}
    max_attack_k = max((s[1] + s[2] for s in pre if attacked[s]), default=-1)
    for s in pre:
        if not attacked[s] and s[1] + s[2] <= max_attack_k:
            return False, s
    return True, None
