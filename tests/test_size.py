"""Peak memory of the exact layers at a large group.

Each exact layer prices 2(M+1) candidate profiles per sensing state, so a
fresh process that runs them all at N=120, M=60 stays within a budget far
below the (M+1)^2 profile grid's: that grid took about 580 MB for the
one-shot pricing alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import coopsense

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


def test_exact_layers_fit_the_budget_at_n120_m60():
    env = dict(os.environ,
               PYTHONPATH=str(Path(coopsense.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
    assert peak_mb < BUDGET_MB, peak_mb
