"""Memory use: peak memory of the exact layers at a large group and the
simulator's page faults on long rows, both in fresh processes, and the
simulator's peak allocation for one block.

Each exact layer prices 2(M+1) candidate profiles per sensing state, so a
fresh process that runs them all at N=120, M=60 stays within a budget far
below the (M+1)^2 profile grid's: that grid took about 580 MB for the
one-shot pricing alone.  The per-scenario caches keep the last scenario's
pricing alive, and no more than that over any number of scenarios.

The simulator refills one uniform buffer per thread for every block.  A
1-worker run_experiment call over 20 rows of 100,000 slots took 22,801
minor page faults when each block allocated its own: glibc trimmed the
heap after every row and faulted it back in for the next.

A long row is reduced through per-row code counts and the weights'
nonzero prefix: on a 100,000-slot row, gathering the attacker, honest and
collision columns over every slot put the block's peak at 34 bytes per
slot, and counting int64 cells at 17.

Short rows run in blocks of about BLOCK_SLOTS slots.  Blocks of 16,384
slots of 192-slot rows took no minor faults per 1,000-replication call
once warm; blocks of 24,576, 32,768 and 65,536 slots, and one block for
the whole call, took 256, 414, 863 and 2,155.  Those counts held where
compiling the package had left glibc's mmap and trim thresholds raised:
with its bytecode cached, 16,384-slot blocks took about 190 a call until
run_experiment set the thresholds itself.  Each script runs in a fresh
interpreter, so the tests see whichever state the package is in.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coopsense
from coopsense import indirect, mdp, oneshot, sim
from coopsense.model import HeteroParams, ScenarioParams

from conftest import SCENARIO_CACHES, SHARED_CACHES, region_ii_scenario

BUDGET_MB = 200

SCRIPT = """
import math, resource
from dataclasses import replace
from coopsense import (ScenarioParams, behavior_table, build_mdp,
                       condition_i_bounds, direct_threshold_oracle,
                       expected_slot_rewards, validate)
from coopsense.fusion import Region
from coopsense.mdp import optimal_ranks

draft = ScenarioParams(120, 60, 0.5, 0.05, 0.3, 1.0, discount=0.9)
window = condition_i_bounds(draft)
params = replace(draft, collision_penalty=math.exp(
    (window.log_lower_bound + window.log_upper_bound) / 2))
assert not validate(params)
assert condition_i_bounds(params).region is Region.II
assert all(map(math.isfinite, expected_slot_rewards(params, False)))
assert len(behavior_table(params)) == 61 * 61
values, ranks = optimal_ranks(build_mdp(params))
assert len(values) == 61 * 61 + 61
assert math.isfinite(direct_threshold_oracle(60, params))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _last_word(script: str) -> str:
    """The last word script prints, run in a fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(coopsense.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1]


def test_exact_layers_fit_the_budget_at_n120_m60():
    peak_mb = int(_last_word(SCRIPT)) / 1024  # ru_maxrss is in KiB
    assert peak_mb < BUDGET_MB, peak_mb


# each per-scenario cache's bound: one scenario, whose pricing takes one
# entry per charge, with and without the direct punishment
CACHE_BOUNDS = {oneshot._ranked: 1, oneshot._priced: 2,
                indirect._long_run_from: 1, mdp._built: 1}


def test_the_caches_hold_one_scenario(fresh_caches):
    rng = np.random.default_rng(11)
    for _ in range(10):
        params = region_ii_scenario(rng)
        params = dataclasses.replace(
            params, direct_punishment=params.collision_penalty)
        for flag in (False, True):
            oneshot.best_profiles(params, flag)
        oneshot.attack_scan(params)(0.0)
        indirect.lr_dishonest(params)
        mdp.build_mdp(params)
        hetero = HeteroParams(dataclasses.replace(params, n_attackers=1),
                              0.1, 0.2, 1.5)
        for flag in (False, True):
            oneshot.best_profiles(hetero, flag)
    for cache, bound in CACHE_BOUNDS.items():
        assert cache.cache_info().maxsize == bound
        assert cache.cache_info().currsize == bound


def _package_caches() -> list:
    """Every functools cache of the package, by identity.  Each one in the
    source, a decorator or a call, must be a module attribute, so that
    the source's count of them and the attributes found agree."""
    root = Path(coopsense.__file__).parent
    in_source = 0
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
                assert not names & {"cache", "lru_cache"}, path
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"
                    and node.attr in ("cache", "lru_cache")):
                in_source += 1
    found = {}
    for info in pkgutil.iter_modules([str(root)]):
        module = importlib.import_module(f"coopsense.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    assert len(found) == in_source, (len(found), in_source)
    return list(found.values())


def test_every_cache_is_registered_and_bounded():
    caches = _package_caches()
    scenario, shared = set(SCENARIO_CACHES), set(SHARED_CACHES)
    assert not scenario & shared
    assert set(caches) == scenario | shared
    assert len(caches) == len(SCENARIO_CACHES) + len(SHARED_CACHES)
    assert set(CACHE_BOUNDS) == scenario
    for cache in SHARED_CACHES:
        takes_nothing = not inspect.signature(cache.__wrapped__).parameters
        assert cache.cache_info().maxsize is not None or takes_nothing, cache


# a quarter of the 22,801 faults a call took with per-block buffers
FAULT_BUDGET = 22_801 // 4

FAULT_SCRIPT = """
import resource
from coopsense.model import ScenarioParams
from coopsense.sim import SimConfig, run_experiment

params = ScenarioParams(5, 2, 0.6, 0.08, 0.08, 2.0, discount=0.7,
                        direct_punishment=3.0)
config = SimConfig(params=params, punishment_mode="direct",
                   horizon=100_000, replications=20, base_seed=1)
run_experiment(config)  # warm-up: tables, caches and the first buffers
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_long_rows_do_not_fault_the_heap_back_in():
    faults = int(_last_word(FAULT_SCRIPT))
    assert faults <= FAULT_BUDGET, faults


# the peak of one block beside its uniform buffer: the intp copy of the
# uint8 codes that bincount (and under indirect punishment the hit table's
# gather) reads, 8 bytes a slot, and a few bytes of codes, hit flags and
# cut indices (the idle flags are freed first); no slot's cell is formed,
# and rewards are gathered over the weights' prefix only
BLOCK_BYTES_PER_SLOT = 12


@pytest.mark.parametrize("mode", sim.MODES)
def test_a_long_rows_block_allocates_little_beside_its_buffer(mode):
    params = ScenarioParams(5, 2, 0.6, 0.08, 0.08, 2.0, discount=0.7)
    config = sim.SimConfig(params=params, punishment_mode=mode,
                           horizon=100_000, replications=1, base_seed=1)
    grid = sim._outcome_grid(config, sim.build_policy_tables(config))
    inversion = sim._cell_codes(config)
    weights = sim._discount_weights(params.discount, config.horizon)
    words = sim._stream_words(config.base_seed, range(1))
    uniform = np.empty((1, 3 * config.horizon))
    block = (words, config, grid, inversion, weights, uniform)
    sim._run_block(*block)  # warm-up
    tracemalloc.start()
    try:
        sim._run_block(*block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_BYTES_PER_SLOT * config.horizon, peak


# half the 256 faults a 1,000 x 192 call took in blocks of 24,576 slots
SHORT_FAULT_BUDGET = 256 // 2

SHORT_FAULT_SCRIPT = """
import resource
from coopsense.model import ScenarioParams
from coopsense.sim import SimConfig, run_experiment

params = ScenarioParams(6, 4, 0.43093601412916105, 0.022458411436171683,
                        0.30247914532927933, 7.864081233717548,
                        discount=0.8)
config = SimConfig(params=params, punishment_mode="indirect", horizon=192,
                   replications=1_000, base_seed=1)
# warm-up: tables, caches and the heap pages the blocks reuse
for _ in range(2):
    run_experiment(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_short_rows_do_not_fault_the_heap_back_in():
    faults = int(_last_word(SHORT_FAULT_SCRIPT))
    assert faults <= SHORT_FAULT_BUDGET, faults


# glibc's start values, pinned: the state of a process that has freed no
# mapped block, in which each block's temporaries trimmed the heap (1,326
# faults a call) until run_experiment set the thresholds itself
PINNED_THRESHOLDS = """
import ctypes
try:
    mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    mallopt(-1, 128 * 1024)  # M_TRIM_THRESHOLD
"""


def test_short_rows_do_not_fault_from_glibcs_start_thresholds():
    faults = int(_last_word(PINNED_THRESHOLDS + SHORT_FAULT_SCRIPT))
    assert faults <= SHORT_FAULT_BUDGET, faults


# the peak beside its buffer of a block of 192-slot rows, per slot of a
# 16,384-slot block: 37 bytes a slot at 85 rows (the keys cast to intp
# once for every gather, the rewards gathered from them and their
# weighted products); a block of more slots takes more, and with it the
# faults above
SHORT_BLOCK_BYTES = 44 * 16_384


def test_a_short_rows_block_allocates_little_beside_its_buffer():
    params = ScenarioParams(6, 4, 0.43093601412916105, 0.022458411436171683,
                            0.30247914532927933, 7.864081233717548,
                            discount=0.8)
    rows = max(1, sim.BLOCK_SLOTS // 192)
    config = sim.SimConfig(params=params, punishment_mode="indirect",
                           horizon=192, replications=rows, base_seed=1)
    grid = sim._outcome_grid(config, sim.build_policy_tables(config))
    block = (sim._stream_words(config.base_seed, range(rows)), config, grid,
             sim._cell_codes(config),
             sim._discount_weights(params.discount, config.horizon),
             np.empty((rows, 3 * config.horizon)))
    sim._run_block(*block)  # warm-up
    tracemalloc.start()
    try:
        sim._run_block(*block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SHORT_BLOCK_BYTES, peak
