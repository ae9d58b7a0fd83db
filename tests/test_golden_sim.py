"""Golden digests of the simulator's statistics.

Each digest is the sha256 of the repr of run_experiment's SimStats over a
grid of (horizon, replications) shapes for one scenario and policy.  The
shapes mix horizons of 1, 7, 192 and 5,000 slots with replication counts
that split unevenly into batches of replications, and every shape is run
at 1 and 3 workers, which must agree exactly.  Any change to a draw, a
reward bit, a reduction order or a field's Python type changes a digest;
a change meant to alter these outputs says so and pins new digests.

The simulator sums discounted rewards over the weights that have not
underflowed to 0.0 only.  It takes a row's per-slot means from its cell
counts where the row is at least twice that prefix and no shorter than
the outcome grid, and from its gathered rewards elsewhere: SHAPES take
the gathers (at discounts of 0.8 and 0.9 the prefix is 3,340 and 7,073
slots), LONG_SHAPES the counts.

Besides the cases on SCENARIO and HETERO, three cases sit where numpy's
binomial sampler changes method: LARGE draws its busy honest counts with
BTPE (n * min(p, 1-p) > 30), flip_boundary has a busy probability of
exactly 0.5 (numpy flips p above 0.5), and HETERO_FLIP's attacker senses
busy with probability below 0.5 where the honest SUs sense it above.

The cases in SEED_BASES add their base seed to every shape's seed, so
their streams come from seeds past one 32-bit word: SeedSequence
coerces 2**32 + 5 to two words and 2**127 + 1 to four, and a seed of
2**128 or more takes the simulator's SeedSequence fallback.

The simulator runs its blocks on threads only from a crossover horizon on,
so the shapes above compare two serial runs.  LONG_SHAPES, at 40,000 and
100,003 slots, sit past the crossover: their 3-worker runs go through the
thread pool.  In their late_trigger case, indirect punishment triggers
after slot 8,192, deep in a row that is a block of its own: the
terminated phase starts well inside the row, not at its first slots.

TRACE_GOLDEN pins run_trace the same way: the sha256 of the repr of the
whole SlotTrace list of one episode, for an indirect trace that triggers
in slot 54, a BTPE trace, a heterogeneous direct trace and the
late_trigger tables over 40,000 slots, triggering in slot 16,103.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from coopsense.model import HeteroParams, ScenarioParams
from coopsense.sim import PolicyTables, SimConfig, run_experiment, run_trace

# an observable region-II scenario whose indirect episodes trigger in about
# one replication in ten, with a non-zero post-termination table
SCENARIO = ScenarioParams(
    n_total=6, n_attackers=4, p_idle=0.43093601412916105,
    p_false_alarm=0.022458411436171683,
    p_missed_detection=0.30247914532927933,
    collision_penalty=7.864081233717548, discount=0.8)

HETERO = HeteroParams(
    base=ScenarioParams(5, 1, 0.55, 0.06, 0.3, 40.0, discount=0.9,
                        direct_punishment=12.0),
    p_false_alarm_attacker=0.1, p_missed_detection_attacker=0.35,
    rate_attacker=1.5)

# busy honest counts: 77 draws at p = 0.55, beyond the inversion limit
LARGE = ScenarioParams(
    n_total=80, n_attackers=3, p_idle=0.5, p_false_alarm=0.05,
    p_missed_detection=0.45, collision_penalty=2.0, discount=0.8,
    direct_punishment=5.0)

HETERO_FLIP = HeteroParams(
    base=ScenarioParams(5, 1, 0.55, 0.06, 0.2, 40.0, discount=0.9),
    p_false_alarm_attacker=0.3, p_missed_detection_attacker=0.6,
    rate_attacker=0.8)


def _custom_tables() -> PolicyTables:
    rng = np.random.default_rng(77)
    m, n_h = SCENARIO.n_attackers, SCENARIO.n_honest
    return PolicyTables(b=rng.integers(0, m + 1, (n_h + 1, m + 1)),
                        transmit=rng.integers(0, m + 1, (n_h + 1, m + 1)),
                        post_transmit=rng.integers(0, m + 1, m + 1))


SHAPES = ((1, 1), (1, 333), (1, 1000),
          (7, 1), (7, 333), (7, 1000), (7, 2500),
          (192, 1), (192, 333), (192, 1000),
          (5000, 1), (5000, 7))

CASES = {
    "none": (SCENARIO, "none", "optimal"),
    "direct": (dataclasses.replace(SCENARIO, direct_punishment=20.0),
               "direct", "optimal"),
    "indirect": (SCENARIO, "indirect", "optimal"),
    "honest": (SCENARIO, "indirect", "honest"),
    "custom_indirect": (SCENARIO, "indirect", _custom_tables()),
    "hetero_direct": (HETERO, "direct", "optimal"),
    "large_n_btpe": (LARGE, "direct", "optimal"),
    "flip_boundary": (dataclasses.replace(SCENARIO, p_missed_detection=0.5),
                      "indirect", "optimal"),
    "hetero_flip": (HETERO_FLIP, "none", "optimal"),
    "two_word_seed": (SCENARIO, "indirect", "optimal"),
    "four_word_seed": (LARGE, "direct", "optimal"),
    "wide_seed": (HETERO, "direct", "optimal"),
}

SEED_BASES = {"two_word_seed": 2**32 + 5, "four_word_seed": 2**127 + 1,
              "wide_seed": 2**128 + 3}

GOLDEN = {
    "none":
        "26041d42e405db2ce05aeb83c6e5842c05788a5c062024d627c64c911b37d65b",
    "direct":
        "dba01ac470287833fb734de8d2920867d71a441e03f97c4496c96d52099fcc0e",
    "indirect":
        "61f3fa09d11795f61ff5f4cbe7eeaa0adbff055865d9e46effb123d353dfbf5c",
    "honest":
        "c2df5cce1084130fe46a20750eb1742719f8d3e997354548d2a68b7eb25c3804",
    "custom_indirect":
        "0fc508af832633dc6f843780068a29972190757d9574ed3558d3192b7621c864",
    "hetero_direct":
        "0a2604203737bfb515a2fe176faa265d48a3d213fd8262e0e5743c35ee757653",
    "large_n_btpe":
        "b8864c06c47562bd9dd760a8f6ff3b47a2190c3cb50c4e7b06c68d9dda1909ee",
    "flip_boundary":
        "df5d76d398ac70367d2dcdb181181432b8d24fded3d5ad4dd2f0759f073d35e2",
    "hetero_flip":
        "a64231d407d737c98fa5b63a16e7dde398f0de9f5c63c9c05ddb889aacd90e71",
    "two_word_seed":
        "c02e2a232a03b5d0911e9b79cdc4a368b1b3abe875ba3cf36d253d1fb338d93d",
    "four_word_seed":
        "9fb1e72e78271c76c0fe883fa735c6a5ad0cf4c36043de1478dc6b59f140e308",
    "wide_seed":
        "faea8cdecbed79b7997dd2a820f332d8bbb6adfce61bb022202d824975eedbaa",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sim_stats(name):
    params, mode, policy = CASES[name]
    out = []
    for seed, (horizon, replications) in enumerate(SHAPES):
        config = SimConfig(params=params, punishment_mode=mode,
                           attacker_policy=policy, horizon=horizon,
                           replications=replications,
                           base_seed=SEED_BASES.get(name, 0) + seed)
        single = run_experiment(config, workers=1)
        assert run_experiment(config, workers=3) == single, \
            (horizon, replications)
        out.append(single)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == GOLDEN[name]


# Shapes past the simulator's thread crossover, so that the 3-worker runs
# go through its thread pool; every row is a block of its own.
LONG_SHAPES = ((40_000, 3), (100_003, 2))


def _late_trigger_case() -> tuple[ScenarioParams, str, PolicyTables]:
    """Indirect tables whose only exclusive hit is a busy slot that every
    SU senses idle, announced by b[0, 0]: at p_missed_detection 0.2 that is
    about one slot in 28,000, so triggers fall after the first 8,192
    slots."""
    params = dataclasses.replace(SCENARIO, p_missed_detection=0.2)
    rng = np.random.default_rng(19)
    m, n_h = params.n_attackers, params.n_honest
    b = rng.integers(0, m + 1, (n_h + 1, m + 1))
    b[0] = 0
    b[0, 0] = 1
    transmit = np.zeros((n_h + 1, m + 1), dtype=np.int64)
    transmit[0] = rng.integers(1, m + 1, m + 1)
    return params, "indirect", PolicyTables(
        b=b, transmit=transmit, post_transmit=rng.integers(1, m + 1, m + 1))


LONG_CASES = {
    "none": CASES["none"],
    "direct": CASES["direct"],
    "indirect": CASES["indirect"],
    "hetero_direct": CASES["hetero_direct"],
    "late_trigger": _late_trigger_case(),
}

LONG_GOLDEN = {
    "direct":
        "c5cbc254b5f49c14fd6a4884311c95bdeee433c1f2496e9f81d535fff25704cc",
    "hetero_direct":
        "e33b138774cb1c72c45da6eedb1ef4b81267f7009d0b809d4d7d5078e5340064",
    "indirect":
        "6f790cc161005c9bf3abe880ae1842bc3d6c2e2be454bb25d3001e48c551d786",
    "late_trigger":
        "3a1b43c899cac4eb2e7aadff48c33621e8562c3ed92cdd950a625f08ebe53f3a",
    "none":
        "ffe8277adf164cf4280901672d4234e97bcd40e58fd25feea16ba2c5af01fa36",
}


@pytest.mark.parametrize("name", sorted(LONG_CASES))
def test_golden_sim_stats_long_horizon(name):
    params, mode, policy = LONG_CASES[name]
    out = []
    for seed, (horizon, replications) in enumerate(LONG_SHAPES):
        config = SimConfig(params=params, punishment_mode=mode,
                           attacker_policy=policy, horizon=horizon,
                           replications=replications, base_seed=seed)
        single = run_experiment(config, workers=1)
        assert run_experiment(config, workers=3) == single, \
            (horizon, replications)
        if name == "late_trigger":
            assert max(single.punishment_trigger_slots) > 8192
        out.append(single)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == LONG_GOLDEN[name]


# (case, horizon, base seed) of each pinned trace
TRACE_CASES = {
    "indirect": (CASES["indirect"], 192, 47),
    "large_n_btpe": (CASES["large_n_btpe"], 1000, 0),
    "hetero_direct": (CASES["hetero_direct"], 1000, 0),
    "late_trigger": (LONG_CASES["late_trigger"], 40_000, 3),
}

TRACE_GOLDEN = {
    "hetero_direct":
        "a3a2b1bf5268d6bd91d80aaec4858c568ac7cde9517947610e7c0b5435c666a7",
    "indirect":
        "a0b9cdb263d04d03e3a939234de7a006df4c23e109b66c3ca9f6242de0799391",
    "large_n_btpe":
        "1f9e237f0b317da06c1a350835b1c15e1e6c24f9b5df7baa53e35a18a53aeabc",
    "late_trigger":
        "1d2d532037d469982f0d45d0968b28b73d48552130d48afa4530669af58f07ac",
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_golden_trace(name):
    (params, mode, policy), horizon, seed = TRACE_CASES[name]
    config = SimConfig(params=params, punishment_mode=mode,
                       attacker_policy=policy, horizon=horizon,
                       replications=1, base_seed=seed)
    trace = run_trace(config, horizon)
    if mode == "indirect":
        on = [slot.punishment_on for slot in trace]
        assert 0 < sum(on) < horizon
    assert hashlib.sha256(repr(trace).encode()).hexdigest() \
        == TRACE_GOLDEN[name]
