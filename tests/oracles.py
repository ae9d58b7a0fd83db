"""Scalar references that the package's vectorized paths are tested against.

run_slot plays one slot at a time, with plain Python arithmetic, by the
slot rules that sim._slot_rules and sim._block_outcomes evaluate on whole
arrays; test_scalar_and_vector_paths_agree feeds it a replication's draws
and asserts that every field agrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coopsense.fusion import Announcement
from coopsense.sim import (PolicyTables, SimConfig, SlotTrace,
                           _busy_probabilities, _reward_constants)


@dataclass
class SlotRuntime:
    """Mutable per-episode state threaded through run_slot."""

    config: SimConfig
    tables: PolicyTables
    punishment_on: bool = False


def run_slot(rng: np.random.Generator, runtime: SlotRuntime) -> SlotTrace:
    """One slot, scalar path: sense, report, fuse, transmit, settle.

    Draws channel, honest count and attacker count in turn each slot; a
    replay generator hands it the block draws of one replication.
    """
    config = runtime.config
    r_att, r_hon, cp, cb, m, n_h = _reward_constants(config)
    idle = rng.random() < config.params.base.p_idle
    honest, attacker = _busy_probabilities(config)
    kh = int(rng.binomial(n_h, honest[0] if idle else honest[1]))
    ka = int(rng.binomial(m, attacker[0] if idle else attacker[1]))

    if runtime.punishment_on:
        pmt = int(runtime.tables.post_transmit[ka])
        collision = (not idle) and pmt >= 1
        att = (r_att if idle else -m * cp) if pmt >= 1 else 0.0
        return SlotTrace(not idle, kh, ka, None, pmt, collision, att,
                         0.0, 0.0, True)

    b = int(runtime.tables.b[kh, ka])
    mt = int(runtime.tables.transmit[kh, ka])
    announced = kh >= 1 or b >= 1
    t_total = mt if announced else n_h + mt
    collision = (not idle) and t_total >= 1
    penalty = 0.0
    if announced and mt >= 1:
        att = r_att if idle else -m * (cp + cb)
        hon = 0.0 if idle else -(cp + cb)
        penalty = 0.0 if idle else cp + cb
        if config.punishment_mode == "indirect" and not idle:
            runtime.punishment_on = True
    elif announced:
        att = hon = 0.0
    elif idle:
        att = r_att * mt / t_total
        hon = r_hon / t_total
    else:
        att = -m * cp
        hon = -cp
        penalty = cp
    return SlotTrace(not idle, kh, ka,
                     Announcement.H1 if announced else Announcement.H0,
                     t_total, collision, att, hon, penalty,
                     runtime.punishment_on)
