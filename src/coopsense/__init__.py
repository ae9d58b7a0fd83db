"""Collaborative spectrum sensing under report falsification.

Closed-form analysis of a fusion-based sensing game (posterior sharing,
collision-penalty window, one-shot best responses, direct and indirect
punishment thresholds) together with a discrete-time simulator and a
small MDP used to cross-check the long-run formulas.
"""

from .model import (CooperationCase, HeteroParams, ScenarioParams,
                    TransmissionCase, check_a4, classify_cooperation_case,
                    classify_transmission_case, require_valid, validate,
                    validate_hetero)
from .posterior import (Posterior, log_odds_idle, posterior_idle,
                        posterior_idle_hetero)
from .fusion import Announcement, CpRegion, Region, condition_i_bounds, fuse
from .oneshot import (ActionProfile, RewardBreakdown, SensingState,
                      behavior_table, best_response, expected_slot_rewards)
from .direct import (DirectThreshold, direct_threshold,
                     direct_threshold_hetero, direct_threshold_oracle)
from .indirect import (DeltaThreshold, LongTermRewards, delta_threshold,
                       delta_threshold_oracle, delta_threshold_sc,
                       delta_threshold_wc, delta_threshold_worst_case,
                       lr_dishonest, lr_honest)
from .mdp import (MdpModel, build_mdp, honest_policy, policy_value,
                  start_value, threshold_policy, value_iteration,
                  verify_threshold_structure)
from .sim import (PolicyTables, SimConfig, SimStats, StatBlock,
                  build_policy_tables, run_experiment, run_trace)

__version__ = "0.1.0"

__all__ = [
    "Announcement", "ActionProfile", "CooperationCase", "CpRegion",
    "DeltaThreshold", "DirectThreshold", "HeteroParams", "LongTermRewards",
    "MdpModel", "PolicyTables", "Posterior", "Region", "RewardBreakdown",
    "ScenarioParams", "SensingState", "SimConfig", "SimStats", "StatBlock",
    "TransmissionCase", "behavior_table", "best_response",
    "build_mdp", "build_policy_tables", "check_a4",
    "classify_cooperation_case",
    "classify_transmission_case", "condition_i_bounds", "delta_threshold",
    "delta_threshold_oracle", "delta_threshold_sc", "delta_threshold_wc",
    "delta_threshold_worst_case", "direct_threshold",
    "direct_threshold_hetero", "direct_threshold_oracle",
    "expected_slot_rewards", "fuse", "honest_policy",
    "log_odds_idle", "lr_dishonest", "lr_honest",
    "policy_value", "posterior_idle", "posterior_idle_hetero",
    "require_valid",
    "run_experiment", "run_trace", "start_value", "threshold_policy",
    "validate", "validate_hetero", "value_iteration",
    "verify_threshold_structure",
]
