"""The documented public surface: coopsense.__all__, name for name.

Adding or dropping a public name is an API change; it changes the pinned
list here and is listed in the README's API notes.
"""

import inspect

import coopsense

PUBLIC = [
    "ActionProfile", "Announcement", "CooperationCase", "CpRegion",
    "DeltaThreshold", "DirectThreshold", "HeteroParams", "LongTermRewards",
    "MdpModel", "PolicyTables", "Posterior", "Region", "RewardBreakdown",
    "ScenarioParams", "SensingState", "SimConfig", "SimStats", "StatBlock",
    "TransmissionCase", "behavior_table", "best_response", "build_mdp",
    "build_policy_tables", "check_a4", "classify_cooperation_case",
    "classify_transmission_case", "condition_i_bounds", "delta_threshold",
    "delta_threshold_oracle", "delta_threshold_sc", "delta_threshold_wc",
    "delta_threshold_worst_case", "direct_threshold",
    "direct_threshold_hetero", "direct_threshold_oracle",
    "expected_slot_rewards", "fuse", "honest_policy", "log_odds_idle",
    "lr_dishonest", "lr_honest", "policy_value", "posterior_idle",
    "posterior_idle_hetero", "require_valid", "run_experiment", "run_trace",
    "start_value", "threshold_policy", "validate", "validate_hetero",
    "value_iteration", "verify_threshold_structure",
]

# second copies of count_masses/split_pmf and scalar references that
# now live in tests/oracles.py
DROPPED = [
    "check_condition_i_semantics", "evaluate_profile",
    "honest_equivalent_profile", "joint_report_mass", "report_count_pmf",
    "report_split_pmf",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 53
    assert sorted(coopsense.__all__) == PUBLIC
    assert len(set(coopsense.__all__)) == len(coopsense.__all__)


def test_every_public_name_resolves():
    for name in coopsense.__all__:
        assert getattr(coopsense, name, None) is not None, name


def test_every_public_function_has_a_docstring():
    for name in coopsense.__all__:
        obj = getattr(coopsense, name)
        if inspect.isfunction(obj):
            assert inspect.getdoc(obj), name


def test_dropped_names_are_gone():
    for name in DROPPED:
        assert name not in coopsense.__all__, name
        assert not hasattr(coopsense, name), name
