"""The collaboration-termination game as a Markov decision process.

Pre-punishment states are the (honest busy, attacker busy) splits; the
post-punishment states keep only the attackers' own count, with the flag
absorbing.  Solving this model is the behavioral cross-check for the
closed forms in the indirect module: both must produce the same numbers
from entirely different computations.

The action axis of a pre-punishment state is oneshot.action_order, its
candidate profiles in the one-shot tie-break, honest-equivalent first;
policy_value takes any other profile as its candidate, which has the same
reward and trigger.  Actions of equal value get bit-identical values, so
a first-wins argmax reproduces the one-shot tie-breaking exactly.

Sensing is independent across slots: the next state is drawn from the
split pmf, or from the attackers-alone pmf once punishment triggers.  So
a policy's value reduces to two scalars, and no matrix over state pairs
is built.  The solver works on action ranks, positions in a state's action
order; ActionProfile objects and Policy dicts exist only at the API edge.
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
    order: np.ndarray        # (n_pre, 2(M+1)) candidates b*(M+1) + M_T by rank
    split: np.ndarray        # (n_pre,) sensing-split pmf of every slot
    alone: np.ndarray        # (M+1,) attackers-alone busy-count pmf
    reward: np.ndarray       # (n_pre, 2(M+1)) pre-punishment reward by rank
    trigger: np.ndarray      # (n_pre, 2(M+1)) punishment probability by rank
    post_reward: np.ndarray  # (M+1,) reward of transmitting after punishment
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
MAX_SOLVES = 1000  # policy iteration needs a handful; this only bounds a runaway


def build_mdp(params: ScenarioParams) -> MdpModel:
    """Assemble states, per-state action orders, rewards and triggers.

    The trigger is the busy posterior when the attackers transmit
    through a busy announcement.  After punishment every transmitter
    count of at least one earns the same lone-sensing reward.
    """
    m = params.n_attackers
    pre_states = [("pre", kh, ka)
                  for kh in range(params.n_honest + 1) for ka in range(m + 1)]
    states = tuple(pre_states + [("post", ka) for ka in range(m + 1)])
    n_pre = len(pre_states)

    split = posterior.split_pmf(params).ravel()
    alone = np.add(*posterior.count_masses(m, params))
    order, _, tensors = oneshot.best_profiles(params, False)
    order, reward, trigger = (a.reshape(n_pre, -1) for a in (
        order, tensors.attacker, tensors.trigger))
    post_reward = np.array([params.total_rate
                            * oneshot.lone_sensing_value(ka, params)
                            for ka in range(m + 1)])
    return MdpModel(params, states, order, split, alone, reward, trigger,
                    post_reward, params.discount)


def _q(model: MdpModel, ranks: np.ndarray
       ) -> tuple[np.ndarray, np.ndarray, float]:
    """(q, v, scale) for the policy taking action ranks[s] in state s:
    every pre state's action values q (n_pre, A) and every state's value
    v, in units of the power of two scale, finite past the float range.

    w = alone.V_post = alone.r_post / (1-d), and x = split.V_pre =
    (R + d*T*w) / ((1-d) + d*T), with R and T the split means of the
    policy's rewards and triggers; then q = r + d*((1-t)*x + t*w) and
    V_post = r_post + d*w.
    """
    n_pre, d = model.n_pre, model.discount
    pre = np.arange(n_pre), ranks[:n_pre]
    r_post = np.where(ranks[n_pre:] > 0, model.post_reward, 0.0)
    scale = 2.0 ** math.frexp(max(np.max(np.abs(model.reward[pre])),
                                  np.max(np.abs(r_post))))[1]
    w = model.alone @ r_post / scale / (1.0 - d)
    t = model.split @ model.trigger[pre]
    x = ((model.split @ model.reward[pre] / scale + d * t * w)
         / ((1.0 - d) + d * t))
    q = model.reward / scale + d * ((1.0 - model.trigger) * x
                                    + model.trigger * w)
    return q, np.concatenate([q[pre], r_post / scale + d * w]), scale


def optimal_ranks(model: MdpModel) -> tuple[np.ndarray, np.ndarray]:
    """Optimal values and each state's optimal action rank, by Howard
    policy iteration.

    No post action changes the next state, so after punishment the
    attackers transmit (rank 1, all M) exactly when that pays.  From the
    honest pre policy (rank 0), each exactly valued policy moves a pre
    state to its first-wins greedy action only on strict improvement; a
    policy valued twice means ties lost to rounding, and stops the loop.
    The values are exact; the pre ranks are the first-wins argmax of the
    final action values.
    """
    n_pre = model.n_pre
    rows = np.arange(n_pre)
    ranks = np.concatenate([np.zeros(n_pre, dtype=np.intp),
                            (model.post_reward > 0.0).astype(np.intp)])
    valued = set()
    for _ in range(MAX_SOLVES):
        q, v, scale = _q(model, ranks)
        greedy = q.argmax(axis=1)
        better = q[rows, greedy] > q[rows, ranks[:n_pre]]
        if not better.any() or ranks.tobytes() in valued:
            return v * scale, np.concatenate([greedy, ranks[n_pre:]])
        valued.add(ranks.tobytes())
        ranks[:n_pre] = np.where(better, greedy, ranks[:n_pre])
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
    """Optimal values and policy: optimal_ranks' ranks as a Policy.  The
    values are exact, so they meet any tolerance > 0."""
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    values, ranks = optimal_ranks(model)
    return values, _policy(model, ranks)


def _is_count(x: object, m: int) -> bool:
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and 0 <= x <= m)


def _ranks(model: MdpModel, policy: Policy) -> np.ndarray:
    # each state's action rank under policy, a pre profile taken as its
    # oneshot.action_order candidate; ValueError names the first state
    # whose action is missing or not one of its actions
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
            b = 0 if a.busy_reports == 0 else max(s[2], 1)
            codes.append(b * (m + 1) + a.transmitters)
        else:
            raise ValueError(f"policy action {a!r} in state {s} is not an "
                             f"ActionProfile with counts in [0, {m}]")
    codes = np.array(codes)
    return np.concatenate([
        (model.order == codes[:n_pre, None]).argmax(axis=1),
        (model.post_order == codes[n_pre:, None]).argmax(axis=1)])


def policy_value(model: MdpModel, policy: Policy) -> np.ndarray:
    """Fixed-policy value of every state, from the renewal scalars x and w.

    Every state lies within 1e-13 * max|exact| of the exact value of the
    model's float arrays and discount; a value past the float range is an
    inf of the exact value's sign.  Raises ValueError naming the state
    when policy misses a state or maps it to something that is not one
    of its actions; a pre state's actions are all profiles in [0, M]^2.
    """
    _, v, scale = _q(model, _ranks(model, policy))
    with np.errstate(over="ignore"):  # past the float range: inf
        return v * scale


def honest_policy(model: MdpModel) -> Policy:
    """Every pre state's honest-equivalent profile (its rank 0); wait
    after termination."""
    return _policy(model, np.zeros(len(model.states), dtype=np.intp))


def threshold_policy(model: MdpModel, z: int) -> Policy:
    """Attack when at most z sensors saw busy, else report busy and wait;
    after termination play oneshot.post_transmit."""
    m = model.params.n_attackers
    pre = [ActionProfile(max(ka, 1), m if kh + ka <= z else 0)
           for _, kh, ka in model.states[:model.n_pre]]
    post = oneshot.post_transmit(model.params).tolist()
    return dict(zip(model.states, pre + post))


def start_value(model: MdpModel, values: np.ndarray) -> float:
    """Every state's value weighted by the first slot's sensing split; a
    zero weight drops its value, so an unreached inf gives no NaN."""
    weights = np.concatenate([model.split,
                              np.zeros(len(model.states) - model.n_pre)])
    return float(weights @ np.where(weights == 0.0, 0.0, values))


def verify_threshold_structure(model: MdpModel
                               ) -> tuple[bool, StateKey | None]:
    """Check the optimal attack set is downward-closed in total busy count.

    Returns (True, None), or (False, s) where s declines to attack while
    some state with at least as many busy sensors attacks.
    """
    _, ranks = optimal_ranks(model)
    pre = model.states[:model.n_pre]
    attacked = dict(zip(pre, (ranks[:model.n_pre] != 0).tolist()))
    max_attack_k = max((s[1] + s[2] for s in pre if attacked[s]), default=-1)
    for s in pre:
        if not attacked[s] and s[1] + s[2] <= max_attack_k:
            return False, s
    return True, None
