"""Golden digests of the simulator's statistics.

Each digest is the sha256 of the repr of run_experiment's SimStats over a
grid of (horizon, replications) shapes for one scenario and policy.  The
shapes mix horizons of 1, 7, 192 and 5,000 slots with replication counts
that split unevenly into batches of replications, and every shape is run
at 1 and 3 workers, which must agree exactly.  Any change to a draw, a
reward bit, a reduction order or a field's Python type changes a digest;
a change meant to alter these outputs says so and pins new digests.

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
after slot 8,192 (the simulator's BLOCK_SLOTS).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from coopsense.model import HeteroParams, ScenarioParams
from coopsense.sim import PolicyTables, SimConfig, run_experiment

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
        "23e009cfe16296658a16b2f5ce228618fd21225dd5d0ea721e91ba544f85f237",
    "direct":
        "daa3380724804207974e5e50bf868d58ed1ba43ace58fdf4e85ec60acf548ed1",
    "indirect":
        "4533183252e47af0e692ac14790621ea89632171ded1621df33926f31fa8c65d",
    "honest":
        "15db2129c116cb1b1906eadfafc27b5ee4e0dc0031689e467cdc39151a72f184",
    "custom_indirect":
        "f06e33efed7e7564187135ba8126bf3ba27eec60addbf5d9374a0bb0a9275a3d",
    "hetero_direct":
        "87a6893e7d3a7018b05ae5fe12af5beac65c4a156f577ee4070d383356559fc1",
    "large_n_btpe":
        "b8864c06c47562bd9dd760a8f6ff3b47a2190c3cb50c4e7b06c68d9dda1909ee",
    "flip_boundary":
        "c3cff291d6071d146d8b6c81efd4967a58984f4107a9fe7b3f48c921d4f0de4c",
    "hetero_flip":
        "a64231d407d737c98fa5b63a16e7dde398f0de9f5c63c9c05ddb889aacd90e71",
    "two_word_seed":
        "c02e2a232a03b5d0911e9b79cdc4a368b1b3abe875ba3cf36d253d1fb338d93d",
    "four_word_seed":
        "195ff7c97b870d4753957a9db5f969818a39cfedfa5581f1333ee90c9c959f7f",
    "wide_seed":
        "0db4b97bf66fb8a852aab8b7f64032c131515acdab9d47dbf505742ae0c74df2",
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
        "d7a6fd17e3467f42c4ea4c7b630063c16db955567fbd6610a3613dc1e229a2e7",
    "hetero_direct":
        "def66a4f3973f961104f680400cd16eaf939f7a8f885a653687673239f60700f",
    "indirect":
        "57cf015bf6bc23ada726e11eab8e2e617b80c74ca0a073a6f2f27ede64a5b830",
    "late_trigger":
        "0503820563acbdbcdbd206c240bae19ad20cdb8cceea707614a0ae40451fee81",
    "none":
        "2b58f5ae72ca7fe6ce04fd7b78d69b3b09b0a81147d107378e8e204bbace0356",
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
