"""The package's public surface: a change to __all__ must be deliberate,
so the names are pinned here, and each must resolve, the lazily loaded
verifier names included."""

import collatzkit

PUBLIC = [
    "BranchLabel",
    "ClosedLoop",
    "ConfigError",
    "DEFAULT_STEP_BUDGET",
    "DomainError",
    "Edge",
    "EmptySequenceError",
    "EndpointMismatchError",
    "EntersCycle",
    "LoopError",
    "LoopTooShortError",
    "MapVariant",
    "ReachesOne",
    "RecordStat",
    "ResidueClass",
    "StepMismatchError",
    "TrajectoryOutcome",
    "TrajectoryRecord",
    "TransitionGraph",
    "Unresolved",
    "VerifyConfig",
    "VerifyReport",
    "ZeroElementError",
    "build_graph",
    "class_of",
    "classify_trajectory",
    "col",
    "col_star",
    "edge_witness",
    "find_cycle",
    "from_json",
    "iterate_k",
    "loop_power",
    "merge_reports",
    "out_degree",
    "preimage",
    "step_function",
    "strongly_connected_components",
    "to_dot",
    "to_json",
    "total_stopping_time",
    "transition_targets",
    "validate_loop",
    "verify_range",
]


def test_all_is_pinned_and_every_name_resolves():
    assert len(PUBLIC) == 44
    assert collatzkit.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(collatzkit, name) is not None, name
    # the lazy names come from the verifier module itself
    for name in collatzkit._VERIFIER_NAMES:
        assert getattr(collatzkit, name) is getattr(collatzkit.verifier, name)
    assert collatzkit._VERIFIER_NAMES <= set(PUBLIC)
