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
}

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sim_stats(name):
    params, mode, policy = CASES[name]
    out = []
    for seed, (horizon, replications) in enumerate(SHAPES):
        config = SimConfig(params=params, punishment_mode=mode,
                           attacker_policy=policy, horizon=horizon,
                           replications=replications, base_seed=seed)
        single = run_experiment(config, workers=1)
        assert run_experiment(config, workers=3) == single, \
            (horizon, replications)
        out.append(single)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == GOLDEN[name]
